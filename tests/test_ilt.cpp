#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "ilt/ilt.hpp"
#include "obs/ledger.hpp"

namespace ganopc::ilt {
namespace {

litho::LithoSim make_sim(std::int32_t grid = 64, std::int32_t pixel = 32) {
  litho::OpticsConfig optics;
  optics.num_kernels = 8;
  return litho::LithoSim(optics, litho::ResistConfig{}, grid, pixel);
}

geom::Grid wire_target(std::int32_t grid, std::int32_t pixel) {
  geom::Layout l(geom::Rect{0, 0, grid * pixel, grid * pixel});
  const std::int32_t mid = grid * pixel / 2;
  l.add({mid - 60, mid - 500, mid + 60, mid + 500});
  return geom::rasterize(l, pixel, /*threshold=*/true);
}

TEST(Ilt, ImprovesOverUncorrectedMask) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 80;
  cfg.check_every = 5;
  const IltEngine engine(sim, cfg);
  const IltResult result = engine.optimize(target);

  const double uncorrected = sim.l2_error(target, target);
  EXPECT_LT(result.l2_px, uncorrected);
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.runtime_s, 0.0);
}

TEST(Ilt, HistoryIsRecordedAndBestIsMin) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 60;
  cfg.check_every = 5;
  const IltEngine engine(sim, cfg);
  const IltResult result = engine.optimize(target);
  ASSERT_GE(result.l2_history.size(), 2u);
  double min_seen = result.l2_history.front();
  for (double v : result.l2_history) min_seen = std::min(min_seen, v);
  EXPECT_DOUBLE_EQ(result.l2_px, min_seen);
}

TEST(Ilt, HistoryHasFixedStrideWithIterationIndices) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 23;  // deliberately not a multiple of check_every
  cfg.check_every = 5;
  cfg.patience = 1000;
  cfg.target_l2_px = -1.0;  // run the full budget
  const IltResult result = IltEngine(sim, cfg).optimize(target);
  // Entry 0 is the start, then every check_every, then the final state:
  // 0, 5, 10, 15, 20, 23.
  ASSERT_EQ(result.history_iters.size(), result.l2_history.size());
  const std::vector<int> expect = {0, 5, 10, 15, 20, 23};
  EXPECT_EQ(result.history_iters, expect);
}

TEST(Ilt, LedgerCarriesPvbForEveryCheck) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 20;
  cfg.check_every = 5;
  cfg.patience = 1000;
  cfg.target_l2_px = -1.0;
  const std::string path =
      (std::filesystem::temp_directory_path() / "ganopc_ilt_pvb_ledger.jsonl").string();
  std::filesystem::remove(path);
  obs::ledger_open(path);
  const IltResult result = IltEngine(sim, cfg).optimize(target);
  obs::ledger_close();
  const obs::LedgerFile ledger = obs::read_ledger(path);
  std::filesystem::remove(path);

  std::size_t checks = 0;
  for (const json::Value& ev : ledger.events) {
    if (ev.string_or("type", "") != "ilt_iter") continue;
    ASSERT_NE(ev.find("pvb"), nullptr);
    const double pvb = ev.number_or("pvb", -1.0);
    EXPECT_TRUE(std::isfinite(pvb));
    EXPECT_GE(pvb, 0.0);
    ++checks;
  }
  EXPECT_EQ(checks, result.l2_history.size());
}

TEST(Ilt, HistoryEndsOnTheStateTheLoopExitedWith) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 500;
  cfg.check_every = 5;
  cfg.patience = 4;
  cfg.target_l2_px = -1.0;
  const IltResult result = IltEngine(sim, cfg).optimize(target);
  ASSERT_FALSE(result.history_iters.empty());
  EXPECT_EQ(result.history_iters.back(), result.iterations);
  for (std::size_t i = 1; i < result.history_iters.size(); ++i)
    EXPECT_GT(result.history_iters[i], result.history_iters[i - 1]);
}

TEST(Ilt, MaskIsBinary) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 30;
  const IltEngine engine(sim, cfg);
  const IltResult result = engine.optimize(target);
  for (float v : result.mask.data) EXPECT_TRUE(v == 0.0f || v == 1.0f);
}

TEST(Ilt, WarmStartConvergesFasterOrEqual) {
  // The core Table 2 mechanism: initializing from an already-good mask
  // must not need more iterations than starting from the raw target.
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 200;
  cfg.check_every = 5;
  cfg.patience = 4;
  const IltEngine engine(sim, cfg);
  const IltResult cold = engine.optimize(target);
  // Warm start: the cold run's own solution.
  const IltResult warm = engine.optimize(target, cold.mask_relaxed);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LE(warm.l2_px, cold.l2_px * 1.1);
}

TEST(Ilt, TargetL2StopsEarly) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 500;
  cfg.check_every = 1;
  cfg.target_l2_px = 1e12;  // absurdly lax: stop at first check
  const IltEngine engine(sim, cfg);
  const IltResult result = engine.optimize(target);
  EXPECT_LE(result.iterations, 1);
}

TEST(Ilt, GeometryMismatchThrows) {
  const auto sim = make_sim();
  geom::Grid small_target(32, 32, 32);
  const IltEngine engine(sim, IltConfig{});
  EXPECT_THROW(engine.optimize(small_target), ganopc::Error);
}

TEST(Ilt, InvalidConfigRejected) {
  const auto sim = make_sim();
  IltConfig bad;
  bad.step_size = -1.0f;
  EXPECT_THROW(IltEngine(sim, bad), ganopc::Error);
}

TEST(IltSmoothness, GradientMatchesFiniteDifferences) {
  Prng rng(9);
  geom::Grid mask(8, 8, 16);
  for (auto& v : mask.data) v = static_cast<float>(rng.uniform(0, 1));
  const geom::Grid grad = IltEngine::smoothness_gradient(mask);

  auto energy = [&](const geom::Grid& m) {
    double e = 0.0;
    for (std::int32_t r = 0; r < m.rows; ++r)
      for (std::int32_t c = 0; c < m.cols; ++c) {
        if (r + 1 < m.rows) e += std::pow(m.at(r, c) - m.at(r + 1, c), 2);
        if (c + 1 < m.cols) e += std::pow(m.at(r, c) - m.at(r, c + 1), 2);
      }
    return e;
  };
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < mask.data.size(); i += 7) {
    geom::Grid mp = mask, mm = mask;
    mp.data[i] += eps;
    mm.data[i] -= eps;
    const double fd = (energy(mp) - energy(mm)) / (2.0 * eps);
    EXPECT_NEAR(grad.data[i], fd, 1e-2) << i;
  }
}

TEST(IltSmoothness, ZeroForConstantMask) {
  geom::Grid mask(8, 8, 16);
  for (auto& v : mask.data) v = 0.7f;
  const geom::Grid grad = IltEngine::smoothness_gradient(mask);
  for (float v : grad.data) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(IltSmoothness, RegularizationReducesFragmentCount) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig plain;
  plain.max_iterations = 80;
  IltConfig reg = plain;
  reg.smoothness_lambda = 0.5f;
  const IltResult r_plain = IltEngine(sim, plain).optimize(target);
  const IltResult r_reg = IltEngine(sim, reg).optimize(target);

  std::int32_t frag_plain = 0, frag_reg = 0;
  geom::connected_components(r_plain.mask, frag_plain);
  geom::connected_components(r_reg.mask, frag_reg);
  EXPECT_LE(frag_reg, frag_plain);
  // The regularized mask is still at least as good as the uncorrected print
  // (this easy target prints nearly clean to begin with).
  EXPECT_LE(r_reg.l2_px, sim.l2_error(target, target));
}

TEST(IltPvAware, CornerObjectiveRuns) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 40;
  cfg.dose_corners = {0.98f, 1.0f, 1.02f};
  const IltEngine engine(sim, cfg);
  const IltResult result = engine.optimize(target);
  EXPECT_LE(result.l2_px, sim.l2_error(target, target));
}

TEST(IltPvAware, PvbNotWorseOnIsolatedWire) {
  // Averaging the gradient over dose corners should produce a mask whose
  // dose sensitivity is no worse than the nominal-only mask's.
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig nominal;
  nominal.max_iterations = 80;
  IltConfig pv = nominal;
  pv.dose_corners = {0.96f, 1.0f, 1.04f};
  const IltResult r_nom = IltEngine(sim, nominal).optimize(target);
  const IltResult r_pv = IltEngine(sim, pv).optimize(target);
  EXPECT_LE(sim.pv_band(r_pv.mask).area_nm2,
            sim.pv_band(r_nom.mask).area_nm2 * 12 / 10);  // within 20%, usually better
}

TEST(IltPvAware, RejectsEmptyOrInvalidCorners) {
  const auto sim = make_sim();
  IltConfig bad;
  bad.dose_corners = {};
  EXPECT_THROW(IltEngine(sim, bad), ganopc::Error);
  bad.dose_corners = {1.0f, -0.5f};
  EXPECT_THROW(IltEngine(sim, bad), ganopc::Error);
}

// Every exit path of IltEngine::optimize must report a TerminationReason
// (ISSUE acceptance criterion); one test per reason.
class IltWatchdog : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

TEST_F(IltWatchdog, BudgetExhaustionReportsConverged) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 10;
  cfg.check_every = 5;
  cfg.patience = 1000;
  cfg.target_l2_px = -1.0;  // unreachable: the easy wire hits hard L2 = 0
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kConverged);
  EXPECT_EQ(r.iterations, 10);
}

TEST_F(IltWatchdog, LaxTargetReportsTargetReached) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 500;
  cfg.check_every = 1;
  cfg.target_l2_px = 1e12;
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kTargetReached);
  EXPECT_LE(r.iterations, 1);
}

TEST_F(IltWatchdog, NoImprovementReportsPatience) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 500;
  cfg.check_every = 5;
  cfg.patience = 4;
  cfg.target_l2_px = -1.0;  // unreachable, so only patience can stop it
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kPatience);
  EXPECT_LT(r.iterations, cfg.max_iterations);
}

TEST_F(IltWatchdog, TinyDeadlineReportsDeadlineExceeded) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 500;
  cfg.deadline_s = 1e-9;  // expires before the first gradient step
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(r.iterations, 0);
  // The best-so-far mask (the initial checkpoint) is still returned.
  EXPECT_TRUE(std::isfinite(r.l2_px));
}

TEST_F(IltWatchdog, InjectedGradientNaNReportsDiverged) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 50;
  failpoint::arm("litho.gradient_nan", /*skip=*/0, /*count=*/-1);
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kDiverged);
  EXPECT_EQ(r.iterations, 0);
  // The poisoned step was abandoned: the result is the initial checkpoint,
  // finite and binary, never a NaN-corrupted mask.
  EXPECT_TRUE(std::isfinite(r.l2_px));
  for (const float v : r.mask.data) EXPECT_TRUE(v == 0.0f || v == 1.0f);
}

TEST_F(IltWatchdog, LateGradientNaNKeepsBestCheckpoint) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 50;
  cfg.check_every = 5;
  cfg.target_l2_px = -1.0;  // keep iterating so the late NaN is reached
  failpoint::arm("litho.gradient_nan", /*skip=*/12, /*count=*/-1);
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kDiverged);
  EXPECT_EQ(r.iterations, 12);
  EXPECT_TRUE(std::isfinite(r.l2_px));
  // Progress from the 12 clean iterations is retained, not discarded.
  EXPECT_LE(r.l2_px, sim.l2_error(target, target));
}

TEST_F(IltWatchdog, NaNInputPoisonsEveryPixelAndDiverges) {
  // The SOCS passes transform only the rows and columns a kernel's pupil
  // touches. A NaN must still reach every pixel, as it does through dense
  // transforms, so the watchdog sees it wherever it started.
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto all_nonfinite = [](const geom::Grid& g) {
    for (const float v : g.data)
      if (std::isfinite(v)) return false;
    return true;
  };

  geom::Grid mask = target;
  mask.at(17, 41) = nan;
  EXPECT_TRUE(all_nonfinite(sim.aerial(mask)));
  EXPECT_TRUE(all_nonfinite(sim.gradient(mask, target)));

  geom::Grid bad_target = target;
  bad_target.at(50, 3) = nan;
  EXPECT_TRUE(all_nonfinite(sim.gradient(target, bad_target)));

  IltConfig cfg;
  cfg.max_iterations = 20;
  const IltResult r = IltEngine(sim, cfg).optimize(target, mask);
  EXPECT_EQ(r.termination, TerminationReason::kDiverged);
}

TEST_F(IltWatchdog, DivergenceFactorTripsOnExplodingL2) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 200;
  cfg.check_every = 1;
  cfg.step_size = 1e6f;          // absurd step: the mask leaves the basin
  cfg.divergence_factor = 4.0f;  // trip when L2 > 4x the initial value
  const IltResult r = IltEngine(sim, cfg).optimize(target);
  EXPECT_EQ(r.termination, TerminationReason::kDiverged);
  EXPECT_LT(r.iterations, cfg.max_iterations);
}

TEST_F(IltWatchdog, EveryReasonHasAName) {
  const TerminationReason reasons[] = {
      TerminationReason::kConverged,  TerminationReason::kTargetReached,
      TerminationReason::kPatience,   TerminationReason::kDiverged,
      TerminationReason::kDeadlineExceeded,
  };
  for (const TerminationReason reason : reasons)
    EXPECT_STRNE(termination_reason_name(reason), "?");
}

TEST(Ilt, DeterministicAcrossRuns) {
  const auto sim = make_sim();
  const geom::Grid target = wire_target(64, 32);
  IltConfig cfg;
  cfg.max_iterations = 20;
  const IltEngine engine(sim, cfg);
  const IltResult a = engine.optimize(target);
  const IltResult b = engine.optimize(target);
  EXPECT_EQ(a.l2_px, b.l2_px);
  EXPECT_EQ(a.mask.data, b.mask.data);
}

}  // namespace
}  // namespace ganopc::ilt
