// Backend-equivalence tier (DESIGN.md §15): the truncated-TCC litho backend
// differentially checked against the Abbe reference it is built from.
//
// The `tcc` spec builds the Hopkins operator from the SAME source points the
// `abbe` spec samples, so the full-rank expansion reproduces the Abbe image
// exactly and truncation is the ONLY difference between the two backends.
// That gives an analytic handle the tests pin:
//   - the relative aerial L2 error is bounded by the discarded trace
//     fraction `1 - captured_energy`, at every k
//   - auto truncation (the `tcc` default) meets the 0.99 energy floor
//   - hard prints agree everywhere except on the reference contour (one
//     pixel of EPE tolerance)
//   - an end-to-end ILT solve lands within 2% of the Abbe backend on final
//     L2 and PV band
//   - each backend stays bitwise deterministic across thread counts and
//     SIMD dispatch arms (the test_litho_determinism pinning, per backend)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "geometry/grid.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::litho {
namespace {

constexpr std::int32_t kGrid = 64;
constexpr std::int32_t kPixel = 32;  // 2048 nm clip window
const LithoBackendSpec kAbbe = parse_litho_backend("abbe");
const LithoBackendSpec kTccAuto = parse_litho_backend("tcc");

OpticsConfig base_optics() {
  OpticsConfig cfg;
  cfg.num_kernels = 24;  // the full Abbe sampling = the TCC operator's rank
  return cfg;
}

// A wire with a notch: prints imperfectly, so L2/PVB comparisons have signal.
geom::Grid notch_target() {
  geom::Grid g(kGrid, kGrid, kPixel);
  for (std::int32_t r = 12; r < 52; ++r)
    for (std::int32_t c = 26; c < 38; ++c) g.at(r, c) = 1.0f;
  for (std::int32_t r = 28; r < 36; ++r)
    for (std::int32_t c = 26; c < 31; ++c) g.at(r, c) = 0.0f;
  return g;
}

// Three wires (middle one notched): a denser golden clip whose PV band runs
// along enough contour that backend parity is measured on the layout, not on
// one marginal feature.
geom::Grid dense_target() {
  geom::Grid g(kGrid, kGrid, kPixel);
  for (std::int32_t r = 10; r < 54; ++r)
    for (const std::int32_t c : {14, 30, 46})
      for (std::int32_t d = 0; d < 6; ++d) g.at(r, c + d) = 1.0f;
  for (std::int32_t r = 28; r < 34; ++r)
    for (std::int32_t c = 30; c < 33; ++c) g.at(r, c) = 0.0f;
  return g;
}

geom::Grid soft_mask(const geom::Grid& target) {
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.15f + 0.7f * v;
  return mask;
}

double relative_l2(const geom::Grid& test, const geom::Grid& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    const double d = static_cast<double>(test.data[i]) - ref.data[i];
    num += d * d;
    den += static_cast<double>(ref.data[i]) * ref.data[i];
  }
  return std::sqrt(num / den);
}

// True when the reference print has both resist states within one pixel of
// (r, c) — i.e. the pixel sits on the printed contour.
bool on_contour(const geom::Grid& print, std::int32_t r, std::int32_t c) {
  bool has_on = false, has_off = false;
  for (std::int32_t dr = -1; dr <= 1; ++dr)
    for (std::int32_t dc = -1; dc <= 1; ++dc) {
      const std::int32_t rr = r + dr, cc = c + dc;
      if (rr < 0 || rr >= print.rows || cc < 0 || cc >= print.cols) continue;
      (print.at(rr, cc) >= 0.5f ? has_on : has_off) = true;
    }
  return has_on && has_off;
}

TEST(BackendEquivalence, AerialErrorBoundedByDiscardedEnergy) {
  const OpticsConfig optics = base_optics();
  const LithoSim abbe(kAbbe.build(optics, kGrid, kPixel), ResistConfig{});
  const geom::Grid mask = soft_mask(notch_target());
  const geom::Grid ref = abbe.aerial(mask);

  for (const int k : {8, 16, 24}) {
    // Explicit k waives the energy floor; captured_energy is still recorded
    // and is exactly the bound the truncation must honor.
    const SocsKernels kernels =
        parse_litho_backend("tcc:" + std::to_string(k)).build(optics, kGrid, kPixel);
    EXPECT_EQ(kernels.count(), k);
    const double energy = kernels.captured_energy();
    EXPECT_GT(energy, 0.85);
    EXPECT_LE(energy, 1.0 + 1e-9);

    const LithoSim tcc(kernels, ResistConfig{});
    const double err = relative_l2(tcc.aerial(mask), ref);
    EXPECT_LE(err, (1.0 - energy) + 1e-4)
        << "k=" << k << " captured_energy=" << energy;
    // Monotone sanity: the full-rank expansion reproduces Abbe to float eps.
    if (k == 24) {
      EXPECT_LE(err, 1e-4);
    }
  }
}

TEST(BackendEquivalence, AutoTruncationMeetsEnergyFloor) {
  // The `tcc` default (auto k at a 0.99 floor) — the acceptance contract.
  EXPECT_EQ(kTccAuto.tcc_kernels, 0);
  const SocsKernels kernels = kTccAuto.build(base_optics(), kGrid, kPixel);
  EXPECT_GE(kernels.captured_energy(), 0.99);
  // Auto keeps the *smallest* such k: strictly fewer kernels than the
  // full-rank operator, or the truncation would buy nothing.
  EXPECT_LT(kernels.count(), 24);
  EXPECT_GE(kernels.count(), 1);

  const LithoSim abbe(kAbbe.build(base_optics(), kGrid, kPixel),
                      ResistConfig{});
  const LithoSim tcc(kernels, ResistConfig{});
  const geom::Grid mask = soft_mask(notch_target());
  EXPECT_LE(relative_l2(tcc.aerial(mask), abbe.aerial(mask)),
            (1.0 - kernels.captured_energy()) + 1e-4);
}

TEST(BackendEquivalence, PrintsAgreeAtContour) {
  // Hard resist prints may only disagree where the decision is marginal:
  // every differing pixel must sit on the reference contour (<= 1 px EPE).
  const OpticsConfig optics = base_optics();
  const LithoSim abbe(kAbbe.build(optics, kGrid, kPixel), ResistConfig{});
  const LithoSim tcc(kTccAuto.build(optics, kGrid, kPixel), ResistConfig{});

  const geom::Grid mask = soft_mask(notch_target());
  const geom::Grid print_abbe = abbe.simulate(mask);
  const geom::Grid print_tcc = tcc.simulate(mask);

  int diff = 0;
  for (std::int32_t r = 0; r < kGrid; ++r)
    for (std::int32_t c = 0; c < kGrid; ++c) {
      if ((print_abbe.at(r, c) >= 0.5f) == (print_tcc.at(r, c) >= 0.5f))
        continue;
      ++diff;
      EXPECT_TRUE(on_contour(print_abbe, r, c))
          << "interior print flip at (" << r << ", " << c << ")";
    }
  // Far fewer flips than contour pixels — the prints are the same shape.
  EXPECT_LE(diff, kGrid);
}

TEST(BackendEquivalence, IltParityWithinTwoPercent) {
  // End to end: an ILT solve through the auto-truncated TCC backend lands
  // within 2% of the Abbe backend on final L2 and PV band.
  const OpticsConfig optics = base_optics();
  const LithoSim abbe(kAbbe.build(optics, kGrid, kPixel), ResistConfig{});
  const LithoSim tcc(kTccAuto.build(optics, kGrid, kPixel), ResistConfig{});
  const geom::Grid target = dense_target();

  ilt::IltConfig cfg;
  cfg.max_iterations = 30;
  cfg.check_every = 5;

  const ilt::IltResult ra = ilt::IltEngine(abbe, cfg).optimize(target);
  const ilt::IltResult rt = ilt::IltEngine(tcc, cfg).optimize(target);

  // 2% relative, with a 2 px floor so a near-perfect solve (L2 -> 0) does
  // not turn the ratio into noise.
  EXPECT_NEAR(rt.l2_px, ra.l2_px, std::max(0.02 * ra.l2_px, 2.0));

  const auto pvb_a = abbe.pv_band(ra.mask);
  const auto pvb_t = tcc.pv_band(rt.mask);
  ASSERT_GT(pvb_a.area_nm2, 0);
  EXPECT_NEAR(static_cast<double>(pvb_t.area_nm2),
              static_cast<double>(pvb_a.area_nm2),
              0.02 * static_cast<double>(pvb_a.area_nm2));
}

void expect_identical(const geom::Grid& a, const geom::Grid& b,
                      const char* what) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(),
                           a.data.size() * sizeof(float)))
      << what << " not bit-identical";
}

TEST(BackendEquivalence, EachBackendBitIdenticalAcrossThreadsAndSimdArms) {
  // The determinism contract holds per backend: for each SIMD arm, results
  // are bit-identical at every thread count (the test_litho_determinism
  // pinning, applied to both kernel factories).
  const OpticsConfig optics = base_optics();
  const geom::Grid target = notch_target();
  const geom::Grid mask = soft_mask(target);

  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (cpu_supports_avx2_fma()) arms.push_back(SimdLevel::kAvx2);
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  for (const bool use_tcc : {false, true}) {
    for (const SimdLevel arm : arms) {
      set_simd_level(arm);
      // Kernels are FFT products too: rebuild under the pinned arm.
      const LithoSim sim(use_tcc
                             ? kTccAuto.build(optics, kGrid, kPixel)
                             : kAbbe.build(optics, kGrid, kPixel),
                         ResistConfig{});
      ThreadPool::reset(1);
      const geom::Grid base_aerial = sim.aerial(mask);
      const geom::Grid base_grad = sim.gradient(mask, target);
      for (const std::size_t t : {std::size_t{2}, std::size_t{3}, hw}) {
        ThreadPool::reset(t);
        expect_identical(sim.aerial(mask), base_aerial, "aerial");
        expect_identical(sim.gradient(mask, target), base_grad, "gradient");
      }
    }
  }
  set_simd_level(cpu_supports_avx2_fma() ? SimdLevel::kAvx2
                                         : SimdLevel::kScalar);
  ThreadPool::reset(ThreadPool::default_thread_count());
  if (arms.size() == 1)
    GTEST_SKIP() << "AVX2+FMA unavailable: scalar arm covered, AVX2 arm skipped";
}

}  // namespace
}  // namespace ganopc::litho
