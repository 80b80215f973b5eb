// LithoSim: the lithography simulation facade (stand-in for lithosim_v4).
//
// Pipeline (paper Eq. (2)-(3), (11)-(14)):
//   aerial   I = sum_k w_k |M (x) h_k|^2          — Hopkins / SOCS
//   print    Z = 1[I * dose >= I_th]              — constant-threshold resist
//   relaxed  Z = sigmoid(alpha * (I - I_th))      — Eq. (12) for ILT
//   gradient dE/dM_b for E = ||Z - Z_t||_2^2      — Eq. (14) core
//   pv_band  XOR of prints at dose 1 +/- delta    — Table 2 "PVB" column
//
// All images are geom::Grid at the simulator's grid_size/pixel_nm geometry.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/grid.hpp"
#include "litho/kernels.hpp"
#include "litho/workspace.hpp"

namespace ganopc::litho {

struct ResistConfig {
  /// Exposure threshold I_th. Set <= 0 to auto-calibrate so that the edge of
  /// a large feature prints exactly in place (recommended).
  float threshold = -1.0f;
  /// Steepness of the relaxed resist sigmoid (alpha in Eq. (12)).
  float sigmoid_alpha = 50.0f;
};

class LithoSim {
 public:
  LithoSim(const OpticsConfig& optics, const ResistConfig& resist,
           std::int32_t grid_size, std::int32_t pixel_nm);

  /// Adopt a prebuilt kernel set (from a litho backend, DESIGN.md §15). The
  /// resist threshold is auto-calibrated against *these* kernels unless the
  /// config pins one, so each backend prints a wide feature edge in place.
  LithoSim(SocsKernels kernels, const ResistConfig& resist);

  const SocsKernels& kernels() const { return kernels_; }
  std::int32_t grid_size() const { return kernels_.grid_size(); }
  std::int32_t pixel_nm() const { return kernels_.pixel_nm(); }
  float threshold() const { return threshold_; }

  /// Aerial image of a (possibly continuous-valued) mask in [0, 1].
  /// Convenience wrapper over `aerial_into` using a per-thread workspace.
  geom::Grid aerial(const geom::Grid& mask) const;

  /// Aerial image into a caller-owned output grid using caller-owned scratch
  /// buffers; repeated calls allocate nothing once `ws` is warm. The SOCS
  /// per-kernel loop runs on the shared thread pool with a fixed-order
  /// per-pixel reduction: results are bit-identical at any thread count.
  void aerial_into(const geom::Grid& mask, geom::Grid& aerial_image,
                   LithoWorkspace& ws) const;

  /// Hard resist print of an aerial image at the given dose.
  geom::Grid print(const geom::Grid& aerial_image, float dose = 1.0f) const;

  /// aerial + print in one call.
  geom::Grid simulate(const geom::Grid& mask, float dose = 1.0f) const;

  /// Hard resist prints of a batch of masks at one dose. Masks are simulated
  /// concurrently on the shared thread pool (each worker reuses a per-thread
  /// workspace); a single-element batch falls back to intra-mask parallelism.
  /// Output order matches input order regardless of scheduling.
  std::vector<geom::Grid> simulate_batch(std::span<const geom::Grid> masks,
                                         float dose = 1.0f) const;

  /// Relaxed wafer image (Eq. (12)).
  geom::Grid relaxed_wafer(const geom::Grid& aerial_image, float dose = 1.0f) const;

  struct ForwardResult {
    geom::Grid aerial_image;
    geom::Grid wafer_relaxed;
    double error = 0.0;  ///< ||Z_relaxed - Z_t||_2^2
  };

  /// Forward pass with the relaxed resist; used inside ILT iterations.
  /// `dose` scales the exposure (1.0 = nominal; PV-aware flows pass corner
  /// doses).
  ForwardResult forward_relaxed(const geom::Grid& mask_b, const geom::Grid& target,
                                float dose = 1.0f) const;

  /// Workspace-explicit variant of `forward_relaxed` (no scratch allocation).
  ForwardResult forward_relaxed(const geom::Grid& mask_b, const geom::Grid& target,
                                float dose, LithoWorkspace& ws) const;

  /// dE/dM_b with E = ||Z - Z_t||_2^2 through the relaxed resist — the
  /// convolutional core of Eq. (14), evaluated at the given dose. The caller
  /// chains the mask-relaxation factor beta * M_b (1 - M_b) (Eq. (13)) if it
  /// optimizes an unbounded mask parameterization.
  geom::Grid gradient(const geom::Grid& mask_b, const geom::Grid& target,
                      float dose = 1.0f) const;

  /// Eq. (14) gradient averaged over `doses` (the PV-aware dose-corner
  /// objective; a single dose reproduces `gradient`). The coherent fields A_k
  /// are computed once and shared by every dose corner, so D corners cost
  /// one mask FFT, N_h field transforms and 2*D*N_h adjoint transforms, all
  /// but the first band-limited to a kernel's support (DESIGN.md §7).
  /// Per-kernel loops run on the thread pool; reductions are fixed-order
  /// (deterministic at any thread count). `grad_out` is resized to the mask
  /// geometry.
  void gradient_into(const geom::Grid& mask_b, const geom::Grid& target,
                     std::span<const float> doses, geom::Grid& grad_out,
                     LithoWorkspace& ws) const;

  struct PvBand {
    geom::Grid outer;          ///< print at dose (1 + delta)
    geom::Grid inner;          ///< print at dose (1 - delta)
    std::int64_t area_nm2 = 0; ///< XOR area between the two contours
  };

  /// Process-variation band under +/- dose error (paper: +/-2%).
  PvBand pv_band(const geom::Grid& mask, float dose_delta = 0.02f) const;

  /// Squared L2 error between the nominal print of `mask` and `target`
  /// measured in pixels (multiply by pixel_nm^2 for nm^2).
  double l2_error(const geom::Grid& mask, const geom::Grid& target) const;

 private:
  void check_geometry(const geom::Grid& g) const;

  SocsKernels kernels_;
  ResistConfig resist_;
  float threshold_;
};

}  // namespace ganopc::litho
