// Hopkins TCC eigendecomposition tests (the [20] SVD route of Eq. (1)).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "geometry/grid.hpp"
#include "litho/lithosim.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {
namespace {

OpticsConfig base_optics() {
  OpticsConfig cfg;
  return cfg;
}

// A simulator on the top-k TCC eigen-kernels, adopted by SocsKernels.
LithoSim tcc_sim(int k, std::int32_t grid, std::int32_t pixel) {
  OpticsConfig optics = base_optics();
  optics.num_kernels = k;
  return LithoSim(SocsKernels(optics, grid, pixel,
                              compute_tcc_kernels(optics, grid, pixel, k)),
                  ResistConfig{});
}

geom::Grid wire_mask(std::int32_t grid, std::int32_t pixel) {
  geom::Grid g(grid, grid, pixel);
  for (std::int32_t r = grid / 4; r < 3 * grid / 4; ++r)
    for (std::int32_t c = grid / 2 - 40 / pixel; c < grid / 2 + 40 / pixel; ++c)
      g.at(r, c) = 1.0f;
  return g;
}

TEST(Tcc, EigenvaluesSortedNonNegative) {
  const auto set = compute_tcc_kernels(base_optics(), 64, 16, 8);
  ASSERT_EQ(set.weights.size(), 8u);
  for (std::size_t i = 0; i < set.weights.size(); ++i) {
    EXPECT_GE(set.weights[i], 0.0f);
    if (i > 0) {
      EXPECT_LE(set.weights[i], set.weights[i - 1] + 1e-5f);
    }
  }
}

TEST(Tcc, CapturedEnergyGrowsWithKernelCount) {
  const auto few = compute_tcc_kernels(base_optics(), 64, 16, 4);
  const auto more = compute_tcc_kernels(base_optics(), 64, 16, 12);
  EXPECT_GT(more.captured_energy, few.captured_energy);
  EXPECT_GT(few.captured_energy, 0.3);
  EXPECT_LE(more.captured_energy, 1.0 + 1e-9);
}

TEST(Tcc, OpenFrameIntensityNearOne) {
  // TCC(0,0) = 1 for a normalized source, so sum_k lambda_k |phi_k(0)|^2
  // must approach 1 as kernels accumulate.
  const auto set = compute_tcc_kernels(base_optics(), 64, 16, 16);
  double open = 0.0;
  for (std::size_t k = 0; k < set.weights.size(); ++k)
    open += set.weights[k] * std::norm(set.kernels_hat[k][0]);
  EXPECT_NEAR(open, 1.0, 0.05);
}

TEST(Tcc, FewerKernelsNeededThanAbbe) {
  // The classic result behind production SVD kernels: against a converged
  // reference (32 TCC kernels from a dense 1024-sample source, capturing
  // essentially the whole operator), a 12-kernel TCC simulator is closer
  // than a 12-point Abbe simulator.
  OpticsConfig abbe12 = base_optics();
  abbe12.num_kernels = 12;

  const LithoSim sim_ref = tcc_sim(32, 64, 16);
  const LithoSim sim_abbe(abbe12, ResistConfig{}, 64, 16);
  const LithoSim sim_tcc = tcc_sim(12, 64, 16);

  const geom::Grid mask = wire_mask(64, 16);
  const geom::Grid ref = sim_ref.aerial(mask);
  const geom::Grid abbe = sim_abbe.aerial(mask);
  const geom::Grid tcc = sim_tcc.aerial(mask);

  double err_abbe = 0.0, err_tcc = 0.0;
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    err_abbe += std::pow(static_cast<double>(abbe.data[i]) - ref.data[i], 2);
    err_tcc += std::pow(static_cast<double>(tcc.data[i]) - ref.data[i], 2);
  }
  EXPECT_LT(err_tcc, err_abbe);
}

TEST(Tcc, WorksThroughFullPipeline) {
  const LithoSim sim = tcc_sim(8, 64, 16);
  EXPECT_GT(sim.threshold(), 0.1f);
  EXPECT_LT(sim.threshold(), 0.5f);
  const geom::Grid mask = wire_mask(64, 16);
  const geom::Grid wafer = sim.simulate(mask);
  std::int64_t on = 0;
  for (float v : wafer.data) on += v >= 0.5f;
  EXPECT_GT(on, 0);
  // Gradient path also runs (flipped kernels present).
  const geom::Grid grad = sim.gradient(mask, mask);
  EXPECT_EQ(grad.rows, 64);
}

TEST(Tcc, RejectsBadParameters) {
  EXPECT_THROW(compute_tcc_kernels(base_optics(), 100, 16, 8), Error);  // not pow2
  EXPECT_THROW(compute_tcc_kernels(base_optics(), 64, 64, 8), Error);   // too coarse
  EXPECT_THROW(compute_tcc_kernels(base_optics(), 64, 16, 0), Error);
}

TEST(Tcc, DeterministicAcrossCalls) {
  const auto a = compute_tcc_kernels(base_optics(), 32, 32, 4);
  const auto b = compute_tcc_kernels(base_optics(), 32, 32, 4);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i)
    EXPECT_EQ(a.weights[i], b.weights[i]);
}

TEST(Tcc, DeterministicForNonDefaultOptions) {
  // The full option surface (seed, source_samples) must stay bitwise
  // reproducible — kernels too, not just eigenvalues: the equivalence tier
  // and the batch journal both assume identical kernels per configuration.
  TccOptions opts;
  opts.seed = 99;
  opts.source_samples = 128;
  const auto a = compute_tcc_kernels(base_optics(), 32, 32, 4, opts);
  const auto b = compute_tcc_kernels(base_optics(), 32, 32, 4, opts);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  ASSERT_EQ(a.kernels_hat.size(), b.kernels_hat.size());
  EXPECT_EQ(a.captured_energy, b.captured_energy);
  for (std::size_t k = 0; k < a.kernels_hat.size(); ++k) {
    EXPECT_EQ(a.weights[k], b.weights[k]);
    ASSERT_EQ(a.kernels_hat[k].size(), b.kernels_hat[k].size());
    for (std::size_t i = 0; i < a.kernels_hat[k].size(); ++i)
      EXPECT_EQ(a.kernels_hat[k][i], b.kernels_hat[k][i]) << "kernel " << k;
  }
}

TEST(Tcc, SeedOnlyChoosesStartBlockNotConvergedSpectrum) {
  // The seed randomizes the subspace-iteration start block; after the
  // configured sweeps the leading eigenvalues (and the retained trace) must
  // agree across seeds — the spectrum belongs to the operator, not the RNG.
  TccOptions a_opts, b_opts;
  a_opts.seed = 7;
  b_opts.seed = 20260807;
  const auto a = compute_tcc_kernels(base_optics(), 64, 16, 6, a_opts);
  const auto b = compute_tcc_kernels(base_optics(), 64, 16, 6, b_opts);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  // Subspace iteration converges to ~1e-4 in the trailing eigenvalues at the
  // default sweep count; the retained trace inherits that residual.
  EXPECT_NEAR(a.captured_energy, b.captured_energy, 5e-4);
  for (std::size_t i = 0; i < a.weights.size(); ++i)
    EXPECT_NEAR(a.weights[i], b.weights[i],
                1e-3f * std::max(a.weights[0], 1e-6f))
        << "eigenvalue " << i << " drifts with the start-block seed";
}

TEST(Tcc, CapturedEnergyMonotoneInKernelCount) {
  // Retained trace fraction is a prefix sum of a fixed nonnegative spectrum:
  // it must be nondecreasing in k, and each set's own weights nonincreasing.
  double previous = 0.0;
  for (const int k : {2, 4, 8, 12, 16}) {
    const auto set = compute_tcc_kernels(base_optics(), 64, 16, k);
    ASSERT_EQ(set.weights.size(), static_cast<std::size_t>(k));
    for (std::size_t i = 1; i < set.weights.size(); ++i)
      EXPECT_LE(set.weights[i], set.weights[i - 1] + 1e-5f) << "k=" << k;
    EXPECT_GE(set.captured_energy, previous - 1e-6) << "k=" << k;
    EXPECT_LE(set.captured_energy, 1.0 + 1e-9);
    previous = set.captured_energy;
  }
}

TEST(Tcc, RejectsPoisonedOptics) {
  // NaN compares false against every range bound, so finiteness must be an
  // explicit gate — otherwise it silently poisons the whole eigensolve.
  OpticsConfig nan_defocus = base_optics();
  nan_defocus.defocus_nm = std::nan("");
  EXPECT_THROW(compute_tcc_kernels(nan_defocus, 64, 16, 8), Error);

  OpticsConfig inf_na = base_optics();
  inf_na.na = std::numeric_limits<double>::infinity();
  EXPECT_THROW(compute_tcc_kernels(inf_na, 64, 16, 8), Error);

  OpticsConfig nan_sigma = base_optics();
  nan_sigma.sigma_outer = std::nan("");
  EXPECT_THROW(compute_tcc_kernels(nan_sigma, 64, 16, 8), Error);

  // Injected source points are validated too (the equivalence-tier path).
  TccOptions poisoned_points;
  poisoned_points.source_points = sample_annular_source(base_optics(), 24);
  poisoned_points.source_points[3].fx = std::nan("");
  EXPECT_THROW(compute_tcc_kernels(base_optics(), 64, 16, 8, poisoned_points),
               Error);
}

}  // namespace
}  // namespace ganopc::litho
