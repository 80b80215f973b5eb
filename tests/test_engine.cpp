// Engine session contract (DESIGN.md §15): the embeddable libganopc entry
// point behind `ganopc optimize`, batch, and serve.
//
// Three pins:
//   - Front-end bit-identity: one long-lived Engine session submitting N
//     clips produces byte-for-byte the same masks as N fresh one-shot
//     `ganopc optimize` subprocess invocations (thread count pinned on both
//     sides via GANOPC_THREADS).
//   - Steady-state reuse: after a warm-up submission the session's FFT plan
//     cache stops missing and the persistent ILT workspace stops growing —
//     the observable proxy for "submit() allocates nothing at steady state".
//   - CLI argument hygiene: a malformed number or an unknown flag fails the
//     one-shot front-end before it writes anything.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "engine/clip_io.hpp"
#include "engine/engine.hpp"
#include "geometry/layout.hpp"
#include "obs/metrics.hpp"

#ifndef GANOPC_CLI_PATH
#error "GANOPC_CLI_PATH must point at the ganopc CLI binary"
#endif

namespace ganopc::engine {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

core::GanOpcConfig make_cfg() {
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.litho_grid = 64;  // 32 nm pixels: each clip optimizes in well under 1 s
  cfg.ilt.max_iterations = 30;
  return cfg;
}

geom::Layout wire_clip(std::int32_t clip_nm, std::int32_t shift) {
  geom::Layout l(geom::Rect{0, 0, clip_nm, clip_nm});
  const std::int32_t mid = clip_nm / 2 + shift;
  l.add({mid - 60, mid - 500, mid + 60, mid + 500});
  return l;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("ganopc_engine_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    ThreadPool::reset(ThreadPool::default_thread_count());
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) { return dir_ + "/" + name; }

  int run_cli(const std::string& args) {
    const std::string cmd = std::string("GANOPC_THREADS=2 exec '") +
                            GANOPC_CLI_PATH + "' " + args + " > " +
                            path("stdout.txt") + " 2>&1";
    return std::system(cmd.c_str());
  }

  std::string dir_;
};

TEST_F(EngineTest, SessionMasksBitIdenticalToOneShotCliRuns) {
  const core::GanOpcConfig cfg = make_cfg();
  constexpr int kClips = 3;

  std::vector<std::string> layout_paths;
  for (int i = 0; i < kClips; ++i) {
    const std::string p = path("clip" + std::to_string(i) + ".txt");
    wire_clip(cfg.clip_nm, 64 * (i - kClips / 2)).save(p);
    layout_paths.push_back(p);
  }

  // One session, N submissions — the embedded API.
  ThreadPool::reset(2);
  EngineOptions options;
  options.config = cfg;
  const Engine eng(options);
  std::vector<std::string> session_masks;
  for (int i = 0; i < kClips; ++i) {
    BatchClip clip;
    clip.id = "clip" + std::to_string(i);
    clip.path = layout_paths[static_cast<std::size_t>(i)];
    SubmitOptions opts;
    opts.want_mask = true;
    const MaskResult result = eng.submit(clip, opts);
    ASSERT_TRUE(result.row.ok()) << clip.id << ": " << result.row.error;
    ASSERT_FALSE(result.mask.data.empty());
    session_masks.push_back(encode_mask_pgm(result.mask));
  }

  // N fresh one-shot CLI processes — the `ganopc optimize` front-end.
  for (int i = 0; i < kClips; ++i) {
    const std::string mask_out = path("cli_mask" + std::to_string(i) + ".pgm");
    const int rc = run_cli(
        "optimize --layout " + layout_paths[static_cast<std::size_t>(i)] +
        " --id clip" + std::to_string(i) + " --scale quick --grid 64" +
        " --iters 30 --mask-out " + mask_out);
    ASSERT_EQ(rc, 0) << read_bytes(path("stdout.txt"));
    const std::string cli_mask = read_bytes(mask_out);
    ASSERT_FALSE(cli_mask.empty());
    EXPECT_EQ(cli_mask, session_masks[static_cast<std::size_t>(i)])
        << "clip" << i << ": session mask != one-shot CLI mask";
  }
}

TEST_F(EngineTest, SteadyStateSubmissionsReusePlansAndWorkspaces) {
  obs::set_metrics_enabled(true);
  obs::reset_values();

  // On a thread of its own: earlier tests warmed this thread's litho
  // workspace, and the warm-up below must start from an empty one.
  std::thread([&] {
    EngineOptions options;
    options.config = make_cfg();
    const Engine eng(options);
    BatchClip clip;
    clip.id = "warm";
    clip.layout = wire_clip(options.config.clip_nm, 0);

    // Warm-up: plans compile, session buffers grow to the clip geometry.
    ASSERT_TRUE(eng.submit(clip).row.ok());
    const std::uint64_t misses_warm = obs::counter("fft.plan_cache.misses").value();
    const std::uint64_t grows_warm = obs::counter("litho.workspace.grows").value();
    const std::uint64_t hits_warm = obs::counter("fft.plan_cache.hits").value();
    EXPECT_GT(grows_warm, 0u);

    // Steady state: same geometry, zero new plans, zero workspace growth.
    for (int i = 0; i < 3; ++i) {
      clip.id = "steady" + std::to_string(i);
      ASSERT_TRUE(eng.submit(clip).row.ok());
    }
    EXPECT_EQ(obs::counter("fft.plan_cache.misses").value(), misses_warm);
    EXPECT_EQ(obs::counter("litho.workspace.grows").value(), grows_warm);
    EXPECT_GT(obs::counter("fft.plan_cache.hits").value(), hits_warm);
  }).join();

  obs::set_metrics_enabled(false);
}

// A malformed number used to parse as its leading digits (atoi: "four" ran
// in-process as 0 workers) and a misspelled flag used to be ignored ("--iter
// 8" ran the default 60 iterations). Both must fail the run, name the flag,
// and leave no manifest behind.
TEST_F(EngineTest, CliRejectsMalformedNumbersAndUnknownFlags) {
  const std::string clip = path("clip.txt");
  wire_clip(make_cfg().clip_nm, 0).save(clip);
  const std::string manifest = path("manifest.csv");
  const std::string batch =
      "batch --clips " + clip + " --scale quick --grid 64 --manifest " + manifest;
  const std::pair<std::string, std::string> cases[] = {
      {"--workers", " --workers four"},
      {"--iter", " --iter 8"},
  };
  for (const auto& [flag, extra] : cases) {
    const int rc = run_cli(batch + extra);
    const std::string out = read_bytes(path("stdout.txt"));
    ASSERT_TRUE(WIFEXITED(rc)) << extra;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << extra << "\n" << out;
    EXPECT_NE(out.find("error: "), std::string::npos) << out;
    EXPECT_NE(out.find(flag), std::string::npos) << out;
    EXPECT_FALSE(std::filesystem::exists(manifest)) << extra;
  }
}

TEST_F(EngineTest, UnreadableGeneratorPathIsTypedAtConstruction) {
  EngineOptions options;
  options.config = make_cfg();
  options.generator_path = path("no_such_generator.bin");
  EXPECT_THROW(Engine{options}, StatusError);
}

}  // namespace
}  // namespace ganopc::engine
