// Determinism of the parallel lithography engine across thread counts.
//
// The SOCS forward and adjoint loops parallelize over kernels and pixel
// blocks, but every floating-point reduction runs in a fixed order (ascending
// kernel index per pixel, serial dose corners), so the pool size must not
// change a single bit of any result. This tier pins that contract: aerial,
// gradient (single- and multi-dose), a full ILT iteration and a simulate
// batch are computed at 1, 2 and hardware_concurrency threads (plus an
// oversubscribed pool) and compared bit-for-bit. The TCC kernel factory is
// pinned to fixed hashes at 1 and 3 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {
namespace {

void expect_identical(const geom::Grid& a, const geom::Grid& b, const char* what,
                      std::size_t threads) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what << " @ " << threads << " threads";
  EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(), a.data.size() * sizeof(float)))
      << what << " differs at " << threads << " threads";
}

struct Snapshot {
  geom::Grid aerial;
  geom::Grid grad_single;
  geom::Grid grad_multi;
  geom::Grid ilt_mask;
  std::vector<geom::Grid> batch;
};

Snapshot run_engine(const LithoSim& sim, const geom::Grid& target) {
  Snapshot s;
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.2f + 0.6f * v;

  s.aerial = sim.aerial(mask);
  s.grad_single = sim.gradient(mask, target);

  LithoWorkspace ws;
  const std::vector<float> doses = {0.95f, 1.0f, 1.05f};
  sim.gradient_into(mask, target, doses, s.grad_multi, ws);

  ilt::IltConfig cfg;
  cfg.max_iterations = 1;
  cfg.check_every = 1;
  cfg.patience = 1;
  s.ilt_mask = ilt::IltEngine(sim, cfg).optimize(target).mask_relaxed;

  geom::Grid shifted(target.rows, target.cols, target.pixel_nm);
  for (std::int32_t r = 2; r < target.rows; ++r)
    for (std::int32_t c = 0; c < target.cols; ++c)
      shifted.at(r, c) = target.at(r - 2, c);
  const std::vector<geom::Grid> masks = {target, mask, shifted};
  s.batch = sim.simulate_batch(masks);
  return s;
}

TEST(LithoDeterminism, BitIdenticalAtEveryThreadCount) {
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 8; r < 24; ++r)
    for (std::int32_t c = 12; c < 20; ++c) target.at(r, c) = 1.0f;

  ThreadPool::reset(1);
  const Snapshot base = run_engine(sim, target);

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts = {1, 2, 3, 4, hw, hw + 3};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  for (const std::size_t t : counts) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const Snapshot s = run_engine(sim, target);
    expect_identical(s.aerial, base.aerial, "aerial", t);
    expect_identical(s.grad_single, base.grad_single, "gradient", t);
    expect_identical(s.grad_multi, base.grad_multi, "multi-dose gradient", t);
    expect_identical(s.ilt_mask, base.ilt_mask, "ILT iteration", t);
    ASSERT_EQ(s.batch.size(), base.batch.size());
    for (std::size_t i = 0; i < s.batch.size(); ++i)
      expect_identical(s.batch[i], base.batch[i], "batch print", t);
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, IltSolveBitIdenticalAcrossOddThreadCounts) {
  // Regression for the cross-thread divergence ROADMAP tracked: before chunk
  // boundaries were quantum-aligned (common/parallel.hpp), the AVX2 kernels'
  // vector-body/scalar-tail grouping shifted with the partition, so a
  // multi-iteration ILT solve diverged at N=3 (1024 px / 3 workers puts chunk
  // starts off the SIMD group width) while N=1 and N=4 agreed. A single
  // iteration can mask the bug — ULP-level differences need iterations to
  // amplify — so this runs a real solve and pins 1/3/4 workers bit-for-bit.
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 6; r < 26; ++r)
    for (std::int32_t c = 10; c < 22; ++c) target.at(r, c) = 1.0f;
  for (std::int32_t r = 14; r < 18; ++r)
    for (std::int32_t c = 10; c < 16; ++c) target.at(r, c) = 0.0f;

  ilt::IltConfig cfg;
  cfg.max_iterations = 24;
  cfg.check_every = 4;

  ThreadPool::reset(1);
  const ilt::IltResult base = ilt::IltEngine(sim, cfg).optimize(target);

  for (const std::size_t t : {std::size_t{3}, std::size_t{4}}) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const ilt::IltResult got = ilt::IltEngine(sim, cfg).optimize(target);
    EXPECT_EQ(got.iterations, base.iterations) << t << " threads";
    expect_identical(got.mask, base.mask, "ILT binary mask", t);
    expect_identical(got.mask_relaxed, base.mask_relaxed, "ILT relaxed mask", t);
    ASSERT_EQ(got.l2_history.size(), base.l2_history.size()) << t << " threads";
    for (std::size_t i = 0; i < got.l2_history.size(); ++i)
      EXPECT_EQ(got.l2_history[i], base.l2_history[i])
          << "L2 history entry " << i << " at " << t << " threads";
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, RepeatedCallsOnWarmWorkspaceAreStable) {
  // Buffer reuse must not leak state between calls: interleaving different
  // masks through one workspace reproduces the cold-workspace results.
  OpticsConfig optics;
  optics.num_kernels = 8;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid a(32, 32, 32), b(32, 32, 32);
  for (std::int32_t r = 4; r < 28; ++r)
    for (std::int32_t c = 14; c < 18; ++c) a.at(r, c) = 1.0f;
  for (std::int32_t r = 12; r < 20; ++r)
    for (std::int32_t c = 4; c < 28; ++c) b.at(r, c) = 1.0f;

  LithoWorkspace cold_a, cold_b, warm;
  geom::Grid ref_a, ref_b, out;
  sim.aerial_into(a, ref_a, cold_a);
  sim.aerial_into(b, ref_b, cold_b);
  sim.aerial_into(a, out, warm);
  expect_identical(out, ref_a, "warm aerial(a)", ThreadPool::instance().size());
  sim.aerial_into(b, out, warm);
  expect_identical(out, ref_b, "warm aerial(b)", ThreadPool::instance().size());
  sim.aerial_into(a, out, warm);
  expect_identical(out, ref_a, "warm aerial(a) again", ThreadPool::instance().size());
}

/// FNV-1a 64, continued from `h` over `bytes` bytes at `data`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_grid(const geom::Grid& g) {
  return fnv1a(g.data.data(), g.data.size() * sizeof(float));
}

// FNV-1a 64 over the kernel spectra, then the weights, as one running hash.
std::uint64_t hash_kernel_set(const TccKernelSet& set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& kernel : set.kernels_hat)
    h = fnv1a(kernel.data(), kernel.size() * sizeof(kernel[0]), h);
  return fnv1a(set.weights.data(), set.weights.size() * sizeof(float), h);
}

TEST(LithoDeterminism, TccKernelsPinnedAtEveryThreadCount) {
  // The TCC eigensolve runs its subspace sweeps in parallel over the basis
  // vectors, each applied serially, so the kernels must not depend on the
  // pool size. The hashes pin the exact bytes the serving path ships:
  // kernel spectra and weights are rounded to float from the double
  // solve, so a reordered reduction that moves the solve in its last
  // digits must still leave them untouched. tcc.cpp builds at -O2 without
  // -mfma; the pinned values assume no FMA contraction.
  const OpticsConfig optics;
  TccOptions abbe_source;
  abbe_source.source_points = sample_annular_source(optics, 24);

  for (const std::size_t t : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const TccKernelSet abbe = compute_tcc_kernels(optics, 128, 16, 8, abbe_source);
    EXPECT_EQ(hash_kernel_set(abbe), 0x2f901e3820ec8344ULL) << t << " threads";
    EXPECT_NEAR(abbe.captured_energy, 0.924277715190921, 1e-12) << t << " threads";
    const TccKernelSet dense = compute_tcc_kernels(optics, 64, 16, 8);
    EXPECT_EQ(hash_kernel_set(dense), 0x54a3b19b68ba5aa3ULL) << t << " threads";
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

/// Restores the process-wide dispatch level when a test body returns.
struct LevelGuard {
  SimdLevel saved = simd_level();
  ~LevelGuard() { set_simd_level(saved); }
};

/// A clip-like target on an n x n grid: two lines, a contact array and an
/// L-shaped jog, scaled to the grid so both geometries see the same layout.
geom::Grid pinned_target(std::int32_t n, std::int32_t pixel_nm) {
  geom::Grid t(n, n, pixel_nm);
  const auto fill = [&](std::int32_t r0, std::int32_t r1, std::int32_t c0, std::int32_t c1) {
    for (std::int32_t r = r0 * n / 64; r < r1 * n / 64; ++r)
      for (std::int32_t c = c0 * n / 64; c < c1 * n / 64; ++c) t.at(r, c) = 1.0f;
  };
  fill(8, 56, 10, 14);
  fill(8, 56, 20, 24);
  for (std::int32_t i = 0; i < 3; ++i) fill(10 + 12 * i, 16 + 12 * i, 34, 40);
  fill(44, 50, 30, 56);
  fill(20, 50, 50, 56);
  return t;
}

struct SocsHashes {
  std::uint64_t aerial, grad_nominal, grad_corners;
};

/// Aerial image, single-dose gradient and three-corner gradient of one mask,
/// each hashed. The simulator is built inside so its calibrated threshold
/// comes from the active arm too.
SocsHashes socs_hashes(const SocsKernels& kernels) {
  const LithoSim sim(kernels, ResistConfig{});
  const geom::Grid target = pinned_target(sim.grid_size(), sim.pixel_nm());
  geom::Grid mask = target;
  for (std::size_t i = 0; i < mask.data.size(); ++i)
    mask.data[i] = 0.15f + 0.7f * mask.data[i] + 0.001f * static_cast<float>(i % 7);
  LithoWorkspace ws;
  geom::Grid aerial, grad;
  SocsHashes h{};
  sim.aerial_into(mask, aerial, ws);
  h.aerial = hash_grid(aerial);
  const float nominal[] = {1.0f};
  sim.gradient_into(mask, target, nominal, grad, ws);
  h.grad_nominal = hash_grid(grad);
  const float corners[] = {0.98f, 1.0f, 1.02f};
  sim.gradient_into(mask, target, corners, grad, ws);
  h.grad_corners = hash_grid(grad);
  return h;
}

TEST(LithoDeterminism, SocsOutputsPinnedPerArm) {
  // The SOCS forward and adjoint passes may be restructured (transform
  // batching, slab partitions, buffer layouts) but must keep every float
  // operation and every per-pixel summation order, so their output bytes are
  // fixed per dispatch arm and independent of the pool size. The hashes pin
  // aerial_into and gradient_into at (256 px, 8 nm, 24 Abbe kernels) and
  // (128 px, 16 nm, tcc:8). The gradient's resist sigmoid calls libm expf,
  // so like the TCC pins above these values assume the platform libm.
  const OpticsConfig optics;
  const SocsKernels abbe = AbbeBackend().build(optics, 256, 8);
  const SocsKernels tcc = make_litho_backend(parse_litho_backend("tcc:8"))->build(optics, 128, 16);
  struct Pin {
    SimdLevel arm;
    const SocsKernels* kernels;
    SocsHashes want;
  };
  const Pin pins[] = {
      {SimdLevel::kScalar, &abbe,
       {0xbe03a4d69dc6dc54ULL, 0xd1c99dc6a2375897ULL, 0x4fae94951694dafdULL}},
      {SimdLevel::kScalar, &tcc,
       {0xb392d8185f130064ULL, 0xbd924d00db5381beULL, 0xd599eb6f3dce3565ULL}},
      {SimdLevel::kAvx2, &abbe,
       {0x2e2adebaa00c88b6ULL, 0x347c6b238376a597ULL, 0x7876abf6621a138cULL}},
      {SimdLevel::kAvx2, &tcc,
       {0x29c10f17f7ff5cedULL, 0x2ce3aae02b8cd990ULL, 0xdd2ccd4131bc3aceULL}},
  };
  LevelGuard guard;
  for (const Pin& pin : pins) {
    if (pin.arm == SimdLevel::kAvx2 && !cpu_supports_avx2_fma()) continue;
    set_simd_level(pin.arm);
    for (const std::size_t t : {std::size_t{1}, std::size_t{3}}) {
      ThreadPool::reset(t);
      const SocsHashes got = socs_hashes(*pin.kernels);
      SCOPED_TRACE(::testing::Message() << simd_level_name(pin.arm) << " grid "
                                        << pin.kernels->grid_size() << ", " << t
                                        << " threads");
      EXPECT_EQ(got.aerial, pin.want.aerial) << "aerial_into";
      EXPECT_EQ(got.grad_nominal, pin.want.grad_nominal) << "gradient_into, dose 1";
      EXPECT_EQ(got.grad_corners, pin.want.grad_corners) << "gradient_into, 3 doses";
    }
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
  if (!cpu_supports_avx2_fma()) GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar pins checked";
}

}  // namespace
}  // namespace ganopc::litho
