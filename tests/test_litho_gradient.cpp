// Validation of the Eq. (14) gradient: finite differences and descent,
// including the workspace/batched code path and the dose-corner (PV-aware)
// objective.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/prng.hpp"
#include "gradcheck.hpp"
#include "litho/lithosim.hpp"
#include "obs/metrics.hpp"

namespace ganopc::litho {
namespace {

LithoSim small_sim() {
  OpticsConfig optics;
  optics.num_kernels = 6;
  return LithoSim(optics, ResistConfig{}, 32, 32);
}

geom::Grid center_block(std::int32_t grid, std::int32_t pixel) {
  geom::Grid g(grid, grid, pixel);
  for (std::int32_t r = grid / 4; r < 3 * grid / 4; ++r)
    for (std::int32_t c = grid * 3 / 8; c < grid * 5 / 8; ++c) g.at(r, c) = 1.0f;
  return g;
}

// A smooth mask strictly inside (0, 1) so the sigmoid resist is sensitive.
geom::Grid soft_mask(const geom::Grid& target) {
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.2f + 0.6f * v;
  return mask;
}

TEST(LithoGradient, MatchesFiniteDifferences) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);
  const geom::Grid grad = sim.gradient(mask, target);
  Prng rng(3);
  testing::check_grid_gradient(
      [&](const geom::Grid& m) { return sim.forward_relaxed(m, target).error; }, mask,
      grad, rng);
}

TEST(LithoGradient, WorkspacePathMatchesWrapperBitExactly) {
  // gradient() is a thin wrapper over gradient_into with a per-thread
  // workspace; an explicit (reused) workspace must produce identical bits.
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);
  const geom::Grid via_wrapper = sim.gradient(mask, target);

  LithoWorkspace ws;
  geom::Grid via_ws;
  const float doses[1] = {1.0f};
  sim.gradient_into(mask, target, doses, via_ws, ws);
  const std::size_t before = ws.bytes();
  geom::Grid again;
  sim.gradient_into(mask, target, doses, again, ws);

  ASSERT_EQ(via_ws.data.size(), via_wrapper.data.size());
  EXPECT_EQ(0, std::memcmp(via_ws.data.data(), via_wrapper.data.data(),
                           via_ws.data.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(again.data.data(), via_ws.data.data(),
                           via_ws.data.size() * sizeof(float)));
  // Warm workspace: the second call must not have grown the scratch buffers.
  EXPECT_EQ(ws.bytes(), before);
}

// The `fft.transforms` work counter pins the band-limited transform count of
// one single-dose gradient (DESIGN.md §7): the mask rfft_2d (n/2 packed rows,
// n/2 + 1 columns), then per kernel the forward field (R + n), the adjoint's
// column-pruned forward transform (n + C) and its row-pruned inverse (R + n).
// Extra transforms fail here on any host, however fast each one got.
TEST(LithoGradient, TransformCounterMatchesKernelSupports) {
  const std::int32_t n = 256;
  const LithoSim sim(OpticsConfig{}, ResistConfig{}, n, 8);
  const geom::Grid target = center_block(n, 8);
  const geom::Grid mask = soft_mask(target);
  const auto un = static_cast<std::size_t>(n);
  std::uint64_t expected = un / 2 + (un / 2 + 1);
  const SocsKernels& kernels = sim.kernels();
  for (int k = 0; k < kernels.count(); ++k) {
    const auto& fwd = kernels.support(k);
    const auto& adj = kernels.support_flipped(k);
    expected += (fwd.rows.size() + un) + (un + adj.cols.size()) + (adj.rows.size() + un);
  }
  const float dose[1] = {1.0f};
  geom::Grid grad;
  obs::Counter& transforms = obs::counter("fft.transforms");

  obs::set_metrics_enabled(true);
  const std::uint64_t before = transforms.value();
  sim.gradient_into(mask, target, dose, grad, thread_workspace());
  const std::uint64_t counted = transforms.value() - before;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(counted, expected);

  // Counting is off with metrics off.
  sim.gradient_into(mask, target, dose, grad, thread_workspace());
  EXPECT_EQ(transforms.value(), before + counted);
}

TEST(LithoGradient, MultiDoseMatchesFiniteDifferences) {
  // The PV-aware objective: mean over dose corners of ||Z_d - Z_t||^2. The
  // fused gradient_into shares one forward-field pass across corners; its
  // output must still match finite differences of the summed objective.
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);
  const std::vector<float> doses = {0.95f, 1.0f, 1.05f};

  LithoWorkspace ws;
  geom::Grid grad;
  sim.gradient_into(mask, target, doses, grad, ws);

  auto loss = [&](const geom::Grid& m) {
    double total = 0.0;
    for (const float d : doses) total += sim.forward_relaxed(m, target, d).error;
    return total / static_cast<double>(doses.size());
  };
  Prng rng(7);
  testing::check_grid_gradient(loss, mask, grad, rng);
}

TEST(LithoGradient, MultiDoseAveragesSingleDoseGradients) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);

  LithoWorkspace ws;
  geom::Grid fused;
  const std::vector<float> doses = {0.97f, 1.03f};
  sim.gradient_into(mask, target, doses, fused, ws);
  const geom::Grid lo = sim.gradient(mask, target, 0.97f);
  const geom::Grid hi = sim.gradient(mask, target, 1.03f);
  for (std::size_t i = 0; i < fused.data.size(); ++i) {
    const float avg = 0.5f * (lo.data[i] + hi.data[i]);
    EXPECT_NEAR(fused.data[i], avg, 1e-6f + 1e-5f * std::fabs(avg)) << i;
  }
}

TEST(LithoGradient, DescentStepReducesError) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);

  const double e0 = sim.forward_relaxed(mask, target).error;
  const geom::Grid grad = sim.gradient(mask, target);
  float max_abs = 0.0f;
  for (float v : grad.data) max_abs = std::max(max_abs, std::fabs(v));
  ASSERT_GT(max_abs, 0.0f);
  geom::Grid stepped = mask;
  const float lr = 0.05f / max_abs;
  for (std::size_t i = 0; i < mask.data.size(); ++i) {
    stepped.data[i] = std::clamp(mask.data[i] - lr * grad.data[i], 0.0f, 1.0f);
  }
  const double e1 = sim.forward_relaxed(stepped, target).error;
  EXPECT_LT(e1, e0);
}

TEST(LithoGradient, DoseCornerDescentReducesPvObjective) {
  // One steepest-descent step on the dose-corner objective must reduce the
  // summed corner error — the property the PV-aware ILT mode relies on.
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);
  const std::vector<float> doses = {0.95f, 1.05f};

  auto objective = [&](const geom::Grid& m) {
    double total = 0.0;
    for (const float d : doses) total += sim.forward_relaxed(m, target, d).error;
    return total;
  };

  LithoWorkspace ws;
  geom::Grid grad;
  sim.gradient_into(mask, target, doses, grad, ws);
  float max_abs = 0.0f;
  for (float v : grad.data) max_abs = std::max(max_abs, std::fabs(v));
  ASSERT_GT(max_abs, 0.0f);
  geom::Grid stepped = mask;
  const float lr = 0.05f / max_abs;
  for (std::size_t i = 0; i < mask.data.size(); ++i)
    stepped.data[i] = std::clamp(mask.data[i] - lr * grad.data[i], 0.0f, 1.0f);
  EXPECT_LT(objective(stepped), objective(mask));
}

TEST(LithoGradient, ZeroWhereWaferMatchesTargetExactly) {
  // If Z == Z_t everywhere (error 0), the gradient must vanish.
  const LithoSim sim = small_sim();
  geom::Grid mask(32, 32, 32);
  for (auto& v : mask.data) v = 1.0f;  // open frame
  geom::Grid target(32, 32, 32);
  const auto fwd = sim.forward_relaxed(mask, target);
  // Z_relaxed saturates to ~1 (open frame, I >> threshold); set the target
  // to that wafer so the residual is identically zero.
  const geom::Grid grad = sim.gradient(mask, fwd.wafer_relaxed);
  for (float v : grad.data) EXPECT_NEAR(v, 0.0f, 1e-6f);
}

TEST(LithoGradient, GradientGeometryMatchesMask) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid grad = sim.gradient(target, target);
  EXPECT_EQ(grad.rows, 32);
  EXPECT_EQ(grad.cols, 32);
  EXPECT_EQ(grad.pixel_nm, 32);
}

}  // namespace
}  // namespace ganopc::litho
