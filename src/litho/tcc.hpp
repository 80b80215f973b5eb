// Transmission cross coefficient (TCC) kernel factory — the Hopkins/SVD
// route of Eq. (1) ([19] Hopkins, [20] Cobb).
//
// The partially coherent image is I(x) = sum over (f1, f2) of
//   TCC(f1, f2) M_hat(f1) M_hat*(f2) e^{2 pi i (f1 - f2) x},
// with TCC(f1, f2) = integral J(s) P(s + f1) P*(s + f2) ds. Diagonalizing
// the Hermitian PSD TCC operator gives the optimal sum-of-coherent-systems:
//   I = sum_k lambda_k |M (x) phi_k|^2,
// which converges in far fewer kernels than direct Abbe source sampling —
// the reason production simulators ship SVD kernels (as lithosim_v4 does).
//
// The operator lives on the pupil-limited frequency support (a disk of
// |f| < (1 + sigma_out) NA/lambda, a few thousand samples on our grids) and
// is never assembled: with S source samples it is TCC = sum_s w_s p_s p_s^H,
// p_s the pupil shifted by source point s, so the subspace iteration that
// extracts the leading eigenpairs applies it from those S sparse factors.
// Memory is O(S n) in the n support samples, not O(n^2).
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "litho/optics.hpp"

namespace ganopc::litho {

struct TccKernelSet {
  /// Frequency-domain kernels on the full grid (unshifted FFT layout).
  std::vector<std::vector<std::complex<float>>> kernels_hat;
  /// Eigenvalues lambda_k (nonincreasing, nonnegative); the SOCS weights.
  std::vector<float> weights;
  /// Fraction of the TCC trace captured by the retained kernels in [0, 1].
  double captured_energy = 0.0;
};

struct TccOptions {
  int source_samples = 256;  ///< dense source discretization for the TCC
  std::uint64_t seed = 7;    ///< deterministic start block
  /// When non-empty, build the TCC from exactly these source points
  /// (weights need not sum to 1; they are normalized) instead of the dense
  /// polar discretization. Passing the Abbe sampling here makes the truncated
  /// SOCS converge to the Abbe reference image as k grows, so the retained
  /// trace fraction (`captured_energy`) bounds the Abbe-vs-TCC image error —
  /// the property the backend-equivalence tier pins (DESIGN.md §15).
  std::vector<SourcePoint> source_points;
};

/// Compute the top `num_kernels` TCC eigen-kernels for the given optics and
/// simulation grid. grid_size must be a power of two and the pixel fine
/// enough to hold the pupil support (same constraint as SocsKernels).
TccKernelSet compute_tcc_kernels(const OpticsConfig& config, std::int32_t grid_size,
                                 std::int32_t pixel_nm, int num_kernels,
                                 const TccOptions& options = {});

}  // namespace ganopc::litho
