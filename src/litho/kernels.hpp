// SOCS kernel set on a concrete simulation grid.
//
// The aerial image of Eq. (2) is one forward FFT of the mask, num_kernels
// complex multiplies, and num_kernels inverse FFTs:
//   A_k = IFFT( H_k_hat .* FFT(M) ),   I = sum_k w_k |A_k|^2.
// Each H_k_hat (a pupil disk shifted by its Abbe source point, with an
// optional paraxial defocus phase, or a TCC eigen-kernel) is zero outside a
// few rows and columns, so it is stored only as the operands of the two SOCS
// products: H_k_hat on its support and, for the ILT gradient (Eq. 14), the
// flipped kernel H_k_hat(-f) on the mirrored support.
#pragma once

#include <cstdint>
#include <span>
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
  /// supports and operands of both SOCS passes are taken here so every
  /// consumer of the hot paths sees the same invariants as the Abbe one.
  SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
              std::int32_t pixel_nm, TccKernelSet set);

  std::int32_t grid_size() const { return grid_; }
  std::int32_t pixel_nm() const { return pixel_nm_; }
  int count() const { return static_cast<int>(kernels_.size()); }
  const OpticsConfig& config() const { return config_; }

  /// Fraction of the imaging operator's trace the kernel set retains, in
  /// [0, 1]. Exactly 1 for the Abbe construction (every sampled source point
  /// keeps its kernel); < 1 for truncated TCC sets, where `1 - captured
  /// energy` bounds the relative aerial-image L2 error against the
  /// untruncated reference (DESIGN.md §15).
  double captured_energy() const { return captured_energy_; }

  float weight(int k) const { return at(k).weight; }

  /// The rows and columns of a kernel spectrum that hold a nonzero bin, each
  /// ascending. A pupil disk covers ~30 of 256 rows and columns, so the SOCS
  /// passes transform only these (DESIGN.md §7).
  struct Support {
    std::vector<std::size_t> rows;
    std::vector<std::size_t> cols;
  };

  /// Support of H_k_hat, read from its data.
  const Support& support(int k) const { return at(k).support; }

  /// Support of the flipped kernel H_k_hat[(-f) mod N], the transfer
  /// function of h_k(-x): the mirror (N - i) mod N of support(k), ascending.
  const Support& support_flipped(int k) const { return at(k).support_flipped; }

  /// H_k_hat at support(k) as the forward product's operands: per batch b of
  /// up to 8 support rows, one split-complex block per support column (batch
  /// b at b * cols.size() * fft::kBlock), lane j holding row rows[8b + j] and
  /// lanes past the last row +0.0f.
  std::span<const float> operand(int k) const { return at(k).operand; }

  /// The same blocks for the flipped kernel H_k_hat(-f) over
  /// support_flipped(k): the adjoint's operand.
  std::span<const float> operand_flipped(int k) const { return at(k).operand_flipped; }

 private:
  struct Kernel {
    float weight = 0.0f;
    Support support, support_flipped;
    std::vector<float> operand, operand_flipped;
  };

  const Kernel& at(int k) const { return kernels_.at(static_cast<std::size_t>(k)); }
  void validate_geometry() const;
  /// Append a kernel whose spectrum is `bin(r, c)`, zero outside rows x cols.
  template <typename Bin>
  void push_kernel(std::span<const std::size_t> rows, std::span<const std::size_t> cols,
                   const Bin& bin, float weight);

  OpticsConfig config_;
  std::int32_t grid_;
  std::int32_t pixel_nm_;
  double captured_energy_ = 1.0;
  std::vector<Kernel> kernels_;
};

}  // namespace ganopc::litho
