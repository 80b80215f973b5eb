// SOCS kernel set on a concrete simulation grid.
//
// Kernels are stored in the frequency domain (unshifted FFT layout), so the
// aerial image of Eq. (2) is one forward FFT of the mask, num_kernels complex
// multiplies, and num_kernels inverse FFTs:
//   A_k = IFFT( H_k_hat .* FFT(M) ),   I = sum_k w_k |A_k|^2.
// Each H_k_hat is a pupil disk shifted by its Abbe source point, with an
// optional paraxial defocus phase. Each kernel records the rows and columns
// its disk touches, and their mirrors: the support of the flipped kernel
// H_k_hat(-f) that the ILT gradient (Eq. 14) reads from H_k_hat in place.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "litho/optics.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {

class SocsKernels {
 public:
  /// Build kernels for a grid_size x grid_size simulation window with the
  /// given physical pixel size. grid_size must be a power of two.
  SocsKernels(const OpticsConfig& config, std::int32_t grid_size, std::int32_t pixel_nm);

  /// Adopt a prebuilt kernel set (e.g. truncated TCC eigen-kernels from a
  /// litho backend). The set's weights must be nonincreasing and finite; the
  /// supports for both SOCS passes are scanned here so every consumer of the
  /// hot paths sees the same invariants as the Abbe constructor.
  SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
              std::int32_t pixel_nm, TccKernelSet set);

  std::int32_t grid_size() const { return grid_; }
  std::int32_t pixel_nm() const { return pixel_nm_; }
  int count() const { return static_cast<int>(weights_.size()); }
  const OpticsConfig& config() const { return config_; }

  /// Fraction of the imaging operator's trace the kernel set retains, in
  /// [0, 1]. Exactly 1 for the Abbe construction (every sampled source point
  /// keeps its kernel); < 1 for truncated TCC sets, where `1 - captured
  /// energy` bounds the relative aerial-image L2 error against the
  /// untruncated reference (DESIGN.md §15).
  double captured_energy() const { return captured_energy_; }

  /// Frequency-domain kernel k (grid*grid complex values, unshifted layout).
  const std::vector<std::complex<float>>& freq_kernel(int k) const;

  float weight(int k) const { return weights_.at(static_cast<std::size_t>(k)); }

  /// The rows and columns of a kernel spectrum that hold a nonzero bin, each
  /// ascending. A pupil disk covers ~30 of 256 rows and columns, so the SOCS
  /// passes transform only these (DESIGN.md §7).
  struct Support {
    std::vector<std::size_t> rows;
    std::vector<std::size_t> cols;
  };

  /// Support of freq_kernel(k), read from its data.
  const Support& support(int k) const { return supports_.at(static_cast<std::size_t>(k)); }

  /// Support of the flipped kernel H_k_hat[(-f) mod N], the transfer
  /// function of h_k(-x): the mirror (N - i) mod N of support(k), ascending.
  const Support& support_flipped(int k) const {
    return supports_flipped_.at(static_cast<std::size_t>(k));
  }

  /// Spatial-domain kernel (centered via fftshift) — used by tests and for
  /// kernel visualization; the hot paths never leave the frequency domain.
  std::vector<std::complex<float>> spatial_kernel(int k) const;

 private:
  void validate_geometry() const;
  void push_kernel(std::vector<std::complex<float>> hat, Support support, float weight);

  OpticsConfig config_;
  std::int32_t grid_;
  std::int32_t pixel_nm_;
  double captured_energy_ = 1.0;
  std::vector<float> weights_;
  std::vector<std::vector<std::complex<float>>> freq_kernels_;
  std::vector<Support> supports_;
  std::vector<Support> supports_flipped_;
};

}  // namespace ganopc::litho
