#include "ilt/ilt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "ilt/ilt_kernels.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace ganopc::ilt {

namespace {

/// `ilt.termination.<reason>` counter for every exit path, registered once.
obs::Counter& termination_counter(TerminationReason reason) {
  static const auto counters = [] {
    constexpr int kReasons = static_cast<int>(TerminationReason::kDeadlineExceeded) + 1;
    std::array<obs::Counter*, kReasons> out{};
    for (int r = 0; r < kReasons; ++r)
      out[static_cast<std::size_t>(r)] = &obs::counter(
          std::string("ilt.termination.") +
          termination_reason_name(static_cast<TerminationReason>(r)));
    return out;
  }();
  return *counters[static_cast<std::size_t>(reason)];
}

}  // namespace

const char* termination_reason_name(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kConverged: return "converged";
    case TerminationReason::kTargetReached: return "target-reached";
    case TerminationReason::kPatience: return "patience";
    case TerminationReason::kDiverged: return "diverged";
    case TerminationReason::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

IltEngine::IltEngine(const litho::LithoSim& sim, const IltConfig& config)
    : sim_(sim), config_(config) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     config.max_iterations > 0 && config.step_size > 0.0f &&
                         config.beta > 0.0f,
                     "ILT: iterations/step/beta must be positive");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     config.check_every > 0 && config.patience > 0,
                     "ILT: check_every/patience must be positive");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, !config.dose_corners.empty(),
                     "ILT needs at least one dose corner");
  for (const float d : config.dose_corners)
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, d > 0.0f,
                       "ILT dose corners must be positive");
}

geom::Grid IltEngine::smoothness_gradient(const geom::Grid& mask) {
  // E = sum over horizontal+vertical neighbour pairs of (M_a - M_b)^2 with
  // clamped boundaries; dE/dM_p = 2 * sum_{q ~ p} (M_p - M_q).
  geom::Grid grad(mask.rows, mask.cols, mask.pixel_nm, mask.origin_x, mask.origin_y);
  for (std::int32_t r = 0; r < mask.rows; ++r) {
    for (std::int32_t c = 0; c < mask.cols; ++c) {
      const float m = mask.at(r, c);
      float acc = 0.0f;
      if (r > 0) acc += m - mask.at(r - 1, c);
      if (r + 1 < mask.rows) acc += m - mask.at(r + 1, c);
      if (c > 0) acc += m - mask.at(r, c - 1);
      if (c + 1 < mask.cols) acc += m - mask.at(r, c + 1);
      grad.at(r, c) = 2.0f * acc;
    }
  }
  return grad;
}

double IltEngine::smoothness_energy(const geom::Grid& mask) {
  double e = 0.0;
  for (std::int32_t r = 0; r < mask.rows; ++r)
    for (std::int32_t c = 0; c < mask.cols; ++c) {
      const double m = mask.at(r, c);
      if (r + 1 < mask.rows) e += (m - mask.at(r + 1, c)) * (m - mask.at(r + 1, c));
      if (c + 1 < mask.cols) e += (m - mask.at(r, c + 1)) * (m - mask.at(r, c + 1));
    }
  return e;
}

IltResult IltEngine::optimize(const geom::Grid& target,
                              const geom::Grid& initial_mask) const {
  GANOPC_OBS_SPAN("ilt.optimize");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     target.rows == sim_.grid_size() && target.cols == sim_.grid_size(),
                     "ILT: target geometry mismatch");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     initial_mask.rows == target.rows && initial_mask.cols == target.cols,
                     "ILT: initial mask geometry mismatch");
  WallTimer timer;
  const std::size_t npx = target.data.size();
  const float beta = config_.beta;

  // Unbounded parameter P such that M_b = sigmoid(beta * P). Map the initial
  // mask's [0,1] values to P = 2m - 1, clamped away from saturation.
  std::vector<float> p(npx);
  for (std::size_t i = 0; i < npx; ++i)
    p[i] = 2.0f * std::clamp(initial_mask.data[i], 0.0f, 1.0f) - 1.0f;

  geom::Grid mask_b(target.rows, target.cols, target.pixel_nm, target.origin_x,
                    target.origin_y);
  // `hard` is refreshed by every hard_l2() call, so the PVB evaluation and
  // the history recorder below can reuse it without re-thresholding.
  geom::Grid hard(target.rows, target.cols, target.pixel_nm, target.origin_x,
                  target.origin_y);
  auto hard_l2 = [&]() -> double {
    hard = mask_b;
    for (auto& v : hard.data) v = v >= 0.5f ? 1.0f : 0.0f;
    return sim_.l2_error(hard, target);
  };

  IltResult result;
  float last_scale = 0.0f;
  // Record one convergence sample at `iteration`: history vectors (fixed
  // stride = check_every, indices attached) and, when a ledger is open, one
  // ilt_iter event with L2/PVB/step-size/wall-time.
  auto record_check = [&](int iteration, double l2) {
    result.l2_history.push_back(l2);
    result.history_iters.push_back(iteration);
    if (obs::ledger_enabled()) {
      const double pvb = static_cast<double>(sim_.pv_band(hard).area_nm2);
      obs::LedgerRecord rec("ilt_iter");
      rec.field("iter", iteration)
          .field("l2", l2)
          .field("pvb", pvb)
          .field("step", static_cast<double>(last_scale))
          .field("wall_s", timer.seconds());
      obs::ledger_emit(rec);
    }
  };
  sigmoid_relax(p.data(), beta, mask_b.data.data(), npx);
  // Checkpoint selection scores iterates by the same objective the gradient
  // descends: thresholded L2 plus (when enabled) the weighted smoothness
  // energy of the relaxed mask. Scoring by L2 alone would let a regularized
  // solve checkpoint a speckled iterate whose print happens to be marginally
  // better — exactly what the regularizer exists to forbid.
  auto objective = [&](double l2) {
    return config_.smoothness_lambda > 0.0f
               ? l2 + static_cast<double>(config_.smoothness_lambda) *
                          smoothness_energy(mask_b)
               : l2;
  };
  double best_l2 = hard_l2();
  double best_obj = objective(best_l2);
  geom::Grid best_mask_b = mask_b;
  std::vector<float> best_p = p;
  // Backtracking: a check that fails to improve the best objective means the
  // normalized step overshot — restart from the best checkpoint with half the
  // step. Without this the solve orbits chaotically around the optimum and
  // which iterate a checkpoint samples becomes a coin flip (and diverges
  // between SIMD dispatch arms from sub-ULP rounding differences).
  float step_backoff = 1.0f;
  record_check(0, best_l2);
  const double initial_l2 = best_l2;
  int checks_since_best = 0;  // consecutive checks without a new best (patience)
  int iter = 0;
  TerminationReason reason = TerminationReason::kConverged;
  if (!std::isfinite(best_l2)) {
    reason = TerminationReason::kDiverged;
  }
  // One workspace and one gradient grid serve every iteration: after the
  // first step the litho engine allocates nothing. The dose corners share
  // one forward-field computation inside gradient_into. The default is the
  // calling thread's workspace, which the L2 checks and PV band also use, so
  // later solves on the same thread start with warm buffers.
  litho::LithoWorkspace& ws =
      config_.workspace ? *config_.workspace : litho::thread_workspace();
  geom::Grid grad_mb;
  std::vector<float> grad_p(npx);
  for (; reason == TerminationReason::kConverged && iter < config_.max_iterations;
       ++iter) {
    if (config_.deadline_s > 0.0 && timer.seconds() >= config_.deadline_s) {
      reason = TerminationReason::kDeadlineExceeded;
      break;
    }
    // dE/dM_b (Eq. 14 core), averaged over the configured dose corners,
    // plus the optional smoothness term; chained through the mask
    // relaxation (Eq. 13).
    sim_.gradient_into(mask_b, target, config_.dose_corners, grad_mb, ws);
    if (config_.smoothness_lambda > 0.0f) {
      const geom::Grid reg = smoothness_gradient(mask_b);
      for (std::size_t i = 0; i < npx; ++i)
        grad_mb.data[i] += config_.smoothness_lambda * reg.data[i];
    }
    // Chain rule through the Eq. 13 relaxation, fused with the max/finite
    // reduction in one sweep (grad_p = dE/dP, max_abs for normalization).
    float max_abs = 0.0f;
    bool grad_finite = true;
    chain_rule(mask_b.data.data(), grad_mb.data.data(), beta, grad_p.data(), npx,
               &max_abs, &grad_finite);
    if (!grad_finite) {
      // A NaN/Inf anywhere in the step direction would silently corrupt P
      // (the max reduction does not propagate NaN) — abandon the step, keep
      // the best checkpoint, and report the numeric fault.
      reason = TerminationReason::kDiverged;
      break;
    }
    const float scale =
        step_backoff * (max_abs > 0.0f ? config_.step_size / max_abs : config_.step_size);
    last_scale = scale;
    // Fused descent step + sigmoid refresh — the former two pixel sweeps.
    update_sigmoid(p.data(), grad_p.data(), scale, beta, mask_b.data.data(), npx);

    if ((iter + 1) % config_.check_every == 0) {
      const double l2 = hard_l2();
      record_check(iter + 1, l2);
      if (!std::isfinite(l2) ||
          (config_.divergence_factor > 0.0f &&
           l2 > static_cast<double>(config_.divergence_factor) *
                    std::max(initial_l2, 1.0))) {
        reason = TerminationReason::kDiverged;
        ++iter;
        break;
      }
      const double obj = objective(l2);
      if (obj < best_obj) {
        best_obj = obj;
        best_l2 = l2;
        best_mask_b = mask_b;
        best_p = p;
        checks_since_best = 0;
      } else {
        ++checks_since_best;
        p = best_p;
        mask_b = best_mask_b;
        step_backoff *= 0.5f;
      }
      if (best_l2 <= config_.target_l2_px) {
        reason = TerminationReason::kTargetReached;
        ++iter;
        break;
      }
      if (checks_since_best >= config_.patience) {
        reason = TerminationReason::kPatience;
        ++iter;
        break;
      }
    }
  }
  // The trajectory must end on the state the loop actually exited with; exits
  // between checks (deadline, non-finite gradient, max_iterations not a
  // multiple of check_every) record one final sample here.
  if (result.history_iters.back() != iter) record_check(iter, hard_l2());
  result.termination = reason;
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("ilt_done");
    rec.field("termination", termination_reason_name(reason))
        .field("iterations", iter)
        .field("l2", best_l2)
        .field("wall_s", timer.seconds());
    obs::ledger_emit(rec);
    if (reason == TerminationReason::kDiverged ||
        reason == TerminationReason::kDeadlineExceeded)
      obs::flight_dump(std::string("ilt.") + termination_reason_name(reason));
  }
  if (obs::metrics_enabled()) {
    obs::counter("ilt.iterations").inc(static_cast<std::uint64_t>(iter));
    termination_counter(reason).inc();
    if (reason == TerminationReason::kDiverged ||
        reason == TerminationReason::kDeadlineExceeded)
      obs::counter("ilt.watchdog.terminations").inc();
  }

  result.iterations = iter;
  result.mask_relaxed = std::move(best_mask_b);
  result.mask = result.mask_relaxed;
  for (auto& v : result.mask.data) v = v >= 0.5f ? 1.0f : 0.0f;
  result.l2_px = best_l2;
  result.runtime_s = timer.seconds();
  return result;
}

IltResult IltEngine::optimize(const geom::Grid& target) const {
  return optimize(target, target);
}

}  // namespace ganopc::ilt
