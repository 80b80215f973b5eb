// Inverse lithography technique (ILT) engine — Eq. (11)-(14) of the paper,
// i.e. the MOSAIC-style [7] pixel-based steepest-descent solver.
//
// The mask is parameterized by an unbounded field P with
//   M_b = sigmoid(beta * P)                                  (Eq. 13)
// and descends dE/dP = dE/dM_b .* beta M_b (1 - M_b), where dE/dM_b is the
// lithography-error gradient (Eq. 14) supplied by LithoSim::gradient.
//
// The engine plays three roles in the repo:
//   * the paper's baseline flow ("ILT [7]" column of Table 2),
//   * the ground-truth mask generator for GAN training data,
//   * the refinement stage after generator inference (Fig. 6).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/grid.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::ilt {

struct IltConfig {
  int max_iterations = 400;
  /// Step on the unbounded parameter; every step is scaled by 1 / max|grad|
  /// so tuning is grid-size independent.
  float step_size = 0.8f;
  /// Mask relaxation steepness (beta in Eq. 13).
  float beta = 4.0f;
  /// Evaluate the hard-resist L2 every this many iterations. Every check is
  /// recorded in IltResult::l2_history with its iteration index in
  /// history_iters, so the convergence trajectory has a fixed, known stride.
  /// While the run ledger is open, each check also evaluates the PV band
  /// (two extra simulations) for the ilt_iter record's pvb field.
  int check_every = 10;
  /// Stop when the best hard L2 has not improved for this many checks.
  int patience = 6;
  /// Stop immediately when hard L2 (pixels) drops to or below this.
  double target_l2_px = 0.0;
  /// Mask-complexity regularization: adds lambda * ||grad M_b||_2^2 to the
  /// objective (quadratic smoothness). Penalizes fragmented, hard-to-write
  /// masks — the manufacturability term of MOSAIC-family solvers. 0 = off.
  float smoothness_lambda = 0.0f;
  /// Process-variation-aware objective: the lithography error is summed over
  /// these dose corners instead of the nominal dose only — the
  /// process-window extension the paper's conclusion points to ([4][5],
  /// MOSAIC's PW-aware mode). Default: nominal-only, matching the paper.
  std::vector<float> dose_corners = {1.0f};

  // --- watchdog (all default-off except non-finite detection) ---
  /// Wall-clock budget for one optimize() call in seconds; <= 0 disables.
  /// Checked before every gradient step, so a run never overshoots the
  /// deadline by more than one iteration.
  double deadline_s = 0.0;
  /// Terminate Diverged when a checked hard L2 exceeds this multiple of the
  /// starting L2 (the loop is blowing up, not descending); <= 0 disables.
  /// Non-finite gradients / L2 always terminate Diverged regardless.
  float divergence_factor = 0.0f;

  /// Optional caller-owned litho workspace reused across optimize() calls
  /// (nullptr = the calling thread's `litho::thread_workspace()`, which
  /// stays warm across solves, so steady-state calls allocate nothing). The
  /// buffers only grow, so one workspace serves any same-or-smaller grid.
  /// Not thread-safe: a shared workspace serializes optimize() calls.
  litho::LithoWorkspace* workspace = nullptr;
};

/// Why optimize() returned — every exit path reports exactly one of these.
enum class TerminationReason {
  kConverged,         ///< ran the full max_iterations budget normally
  kTargetReached,     ///< best hard L2 dropped to target_l2_px or below
  kPatience,          ///< best not improved for `patience` checks
  kDiverged,          ///< watchdog: non-finite values or L2 blow-up
  kDeadlineExceeded,  ///< watchdog: wall-clock deadline hit (keep last: the
                      ///< journal decoder and counter table bound on it)
};

/// Stable machine-readable name ("converged", "deadline-exceeded", ...).
const char* termination_reason_name(TerminationReason reason);

struct IltResult {
  geom::Grid mask;            ///< binarized final mask
  geom::Grid mask_relaxed;    ///< continuous M_b at the best checkpoint
  double l2_px = 0.0;         ///< hard-resist squared L2 vs target (pixels)
  int iterations = 0;         ///< gradient steps actually taken
  double runtime_s = 0.0;
  /// Convergence trajectory, one entry per check: hard L2 at iteration
  /// history_iters[k] (entry 0 is the starting mask at iteration 0, then
  /// every check_every iterations, then the final state — so the last entry
  /// always reflects the mask the loop ended on).
  std::vector<double> l2_history;
  std::vector<int> history_iters;   ///< iteration index of each history entry
  TerminationReason termination = TerminationReason::kConverged;
};

class IltEngine {
 public:
  IltEngine(const litho::LithoSim& sim, const IltConfig& config);

  /// Optimize a mask for `target`, starting from `initial_mask` (values in
  /// [0, 1]; typically the target itself, or a generator output).
  IltResult optimize(const geom::Grid& target, const geom::Grid& initial_mask) const;

  /// Convenience: start from the target pattern itself (the conventional
  /// ILT flow of [7]).
  IltResult optimize(const geom::Grid& target) const;

  const IltConfig& config() const { return config_; }

  /// d(||grad M||^2)/dM on a clamped-boundary grid (exposed for tests):
  /// 2 * (degree * M - sum of 4-neighbours).
  static geom::Grid smoothness_gradient(const geom::Grid& mask);

  /// The energy smoothness_gradient differentiates: sum over horizontal and
  /// vertical neighbour pairs of (M_a - M_b)^2, each pair counted once.
  static double smoothness_energy(const geom::Grid& mask);

 private:
  const litho::LithoSim& sim_;
  IltConfig config_;
};

}  // namespace ganopc::ilt
