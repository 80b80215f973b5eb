// End-to-end output pins: the bytes the product ships, fixed per SIMD arm.
//
// The kernel pins (FftBytes, LithoDeterminism) stop at the litho layer.
// These hash what leaves the program, so "byte-identical" is a gate rather
// than a hand `cmp`:
//   - the accepted mask, l2_px and pvb_nm2 of Engine::submit on three
//     synthesized clips, for abbe@256, tcc:8@128 and tcc:4@64, with and
//     without the bench/e2e quick generator;
//   - the BatchRunner manifest without its source and runtime_s columns, in
//     process (test_batch_supervised pins `--workers 2` to the same value);
//   - the generator weights file after a quick train of 3 pre-training and
//     3 adversarial iterations.
// Each is checked on both dispatch arms at 1 and 3 pool threads against one
// constant per arm (the manifest's is the same on both). A change that moves
// masks on purpose updates the constants in a commit of its own and states
// the old and new L2/PVB. The ILT budget is capped at 20 iterations so the
// binary takes about half a minute in Release.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/batch_runner.hpp"
#include "engine/engine.hpp"
#include "nn/serialize.hpp"
#include "output_pins.hpp"

#ifndef GANOPC_GENERATOR_FIXTURE
#error "GANOPC_GENERATOR_FIXTURE must point at bench/e2e/fixtures/generator_quick.bin"
#endif

namespace ganopc {
namespace {

using testutil::fnv1a;

constexpr SimdLevel kArms[] = {SimdLevel::kScalar, SimdLevel::kAvx2};
constexpr std::size_t kThreads[] = {1, 3};
constexpr int kSubmitIters = 20;  // ILT budget per submission

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Restores the dispatch level and the pool size when a test body returns.
struct ArmGuard {
  SimdLevel saved = simd_level();
  ~ArmGuard() {
    set_simd_level(saved);
    ThreadPool::reset(ThreadPool::default_thread_count());
  }
};

/// Runs `body(arm)` on every arm this CPU has, at each pool size;
/// skips the test after the scalar arm when AVX2+FMA is missing.
template <typename Body>
void for_each_arm_and_pool(Body body) {
  ArmGuard guard;
  for (const SimdLevel arm : kArms) {
    if (arm == SimdLevel::kAvx2 && !cpu_supports_avx2_fma()) {
      GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar pins checked";
    }
    set_simd_level(arm);
    for (const std::size_t t : kThreads) {
      ThreadPool::reset(t);
      SCOPED_TRACE(::testing::Message() << simd_level_name(arm) << ", " << t << " threads");
      body(arm);
    }
  }
}

class OutputPins : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("ganopc_output_pins_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// The session `ganopc optimize --scale quick --grid G --litho-backend B
/// --iters N [--generator F]` opens.
engine::EngineOptions session(const char* backend, std::int32_t grid, int iters,
                              bool generator) {
  engine::EngineOptions o;
  o.config = core::make_config(core::ReproScale::Quick);
  o.config.litho_grid = grid;
  o.config.ilt.max_iterations = iters;
  o.backend = litho::parse_litho_backend(backend);
  if (generator) o.generator_path = GANOPC_GENERATOR_FIXTURE;
  o.policy.seed = o.config.seed;
  return o;
}

/// One running hash over each clip's mask bytes, l2_px and pvb_nm2, in
/// clip order.
std::uint64_t submit_hash(const engine::Engine& eng) {
  std::uint64_t h = testutil::kFnvBasis;
  const std::vector<geom::Layout> clips = testutil::pinned_clips();
  for (std::size_t i = 0; i < clips.size(); ++i) {
    engine::BatchClip clip;
    clip.id = "clip" + std::to_string(i);
    clip.layout = clips[i];
    engine::SubmitOptions opts;
    opts.want_mask = true;
    const engine::MaskResult r = eng.submit(clip, opts);
    EXPECT_TRUE(r.row.ok()) << clip.id << ": " << r.row.error;
    h = fnv1a(r.mask.data.data(), r.mask.data.size() * sizeof(float), h);
    h = fnv1a(&r.row.l2_px, sizeof r.row.l2_px, h);
    h = fnv1a(&r.row.pvb_nm2, sizeof r.row.pvb_nm2, h);
  }
  return h;
}

TEST_F(OutputPins, EngineSubmitPinnedPerArm) {
  struct Pin {
    const char* backend;
    std::int32_t grid;
    bool generator;
    std::uint64_t scalar, avx2;
  };
  const Pin pins[] = {
      {"abbe", 256, false, 0xc308ed1fa142ce88ULL, 0xb9103c1c9b361035ULL},
      {"abbe", 256, true, 0xcaf2f9df8dcf0185ULL, 0xdafe4caa161047c1ULL},
      {"tcc:8", 128, false, 0x18a746189999a6c8ULL, 0x18a746189999a6c8ULL},
      {"tcc:8", 128, true, 0x09272db8df8dbb29ULL, 0x6b4505bf98e071cdULL},
      {"tcc:4", 64, false, 0x4237cfe0774ee703ULL, 0x4237cfe0774ee703ULL},
      {"tcc:4", 64, true, 0x807d9deb6aa48bf9ULL, 0x769c32a4c3d1811cULL},
  };
  for_each_arm_and_pool([&](SimdLevel arm) {
    for (const Pin& pin : pins) {
      const engine::Engine eng(session(pin.backend, pin.grid, kSubmitIters, pin.generator));
      EXPECT_EQ(submit_hash(eng), arm == SimdLevel::kScalar ? pin.scalar : pin.avx2)
          << pin.backend << "@" << pin.grid << (pin.generator ? " + generator" : "");
    }
  });
}

TEST_F(OutputPins, BatchManifestPinnedOnBothArms) {
  const std::vector<std::string> paths = testutil::write_pinned_clips(dir_);
  const std::string manifest = dir_ + "/manifest.csv";
  for_each_arm_and_pool([&](SimdLevel) {
    const engine::Engine eng(session(testutil::kPinnedBatchBackend,
                                     testutil::kPinnedBatchGrid,
                                     testutil::kPinnedBatchIters, false));
    engine::BatchConfig batch;
    batch.deterministic_manifest = true;
    engine::BatchRunner::write_manifest(
        manifest, engine::BatchRunner(eng, batch).run_files(paths));
    EXPECT_EQ(testutil::manifest_pin(read_bytes(manifest)), testutil::kPinnedManifest);
  });
}

TEST_F(OutputPins, QuickTrainWeightsPinnedPerArm) {
  // `ganopc train --scale quick --pretrain-iters 3 --train-iters 3` without
  // its dataset cache or checkpoints; the pin is the saved weights file.
  const std::string weights = dir_ + "/generator.bin";
  for_each_arm_and_pool([&](SimdLevel arm) {
    const core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
    const litho::LithoSim sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid,
                              cfg.litho_pixel_nm());
    const core::Dataset dataset = core::Dataset::generate(cfg, sim);
    Prng rng(cfg.seed);
    core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
    core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng);
    Prng train_rng(cfg.seed + 1);
    core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);
    trainer.pretrain(3, {});
    trainer.train(3, {});
    nn::save_parameters(generator.net(), weights);
    const std::string bytes = read_bytes(weights);
    EXPECT_EQ(fnv1a(bytes.data(), bytes.size()),
              arm == SimdLevel::kScalar ? 0x642456363b989b00ULL : 0x4bfe7799baf9a327ULL);
  });
}

}  // namespace
}  // namespace ganopc
