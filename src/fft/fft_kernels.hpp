// Dispatched inner kernels of the FFT family (DESIGN.md §12).
//
// Two arms per kernel, selected by ganopc::SimdLevel:
//   - scalar: portable C++, the conformance reference; compiled everywhere.
//   - avx2:   AVX2+FMA implementations in fft_avx2.cpp (a TU built with
//             -mavx2 -mfma). On non-x86 builds the avx2 symbols forward to
//             scalar so the table is always complete; dispatch never selects
//             them unless the cpuid probe passed.
//
// `fft_inplace` is the whole-transform butterfly kernel of every row pass.
// `fft_cols4` is the column-pass kernel of every 2-D transform: it transforms
// four grid columns side by side, one complex per lane, and each lane's output
// is bitwise equal to `fft_inplace` of the same arm on that column, so moving
// a transform between the two kernels never moves a bit. The VecOps entries
// are the complex element-wise loops of the SOCS forward/adjoint passes
// (src/litho): they live here because they operate on spectra and share the
// complex-arithmetic SIMD layout with the butterflies. All kernels are deterministic: fixed evaluation order, no
// data-dependent shortcuts, so each arm is bit-reproducible run-to-run.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "common/cpu.hpp"

namespace ganopc::fft {

using cfloat = std::complex<float>;
struct FftPlan;

/// In-place radix-2 transform of plan.n points (bit-reversal + butterflies +
/// inverse 1/n scaling). Both arms implement the identical algorithm.
using FftInplaceFn = void (*)(cfloat* a, const FftPlan& plan, bool inverse);

void fft_inplace_scalar(cfloat* a, const FftPlan& plan, bool inverse);
void fft_inplace_avx2(cfloat* a, const FftPlan& plan, bool inverse);

/// Up to four columns of a row-major complex grid, transformed as one group.
struct ColumnGroup {
  cfloat* data = nullptr;   ///< grid base
  std::size_t width = 0;    ///< row stride in elements
  std::size_t cols[4] = {}; ///< column of each lane, ascending
  std::size_t lanes = 4;    ///< lanes in use, 1..4; the rest stay unwritten
  /// Rows read (ascending); every other row enters the transform as an exact
  /// zero, whatever it holds. nullptr reads every row.
  const std::span<const std::size_t>* live_rows = nullptr;
};

/// In-place plan.n-point transform of each column of `group`: every row of
/// the group is one 4-lane vector in `scratch` (4 * plan.n elements), the
/// bit-reversal permutation is folded into the gather, and all plan.n rows of
/// each used lane are written back. Lane j's result is bitwise equal to
/// `fft_inplace` of the same arm on column cols[j].
using FftCols4Fn = void (*)(const ColumnGroup& group, const FftPlan& plan, bool inverse,
                            cfloat* scratch);

void fft_cols4_scalar(const ColumnGroup& group, const FftPlan& plan, bool inverse,
                      cfloat* scratch);
void fft_cols4_avx2(const ColumnGroup& group, const FftPlan& plan, bool inverse,
                    cfloat* scratch);

/// Gather and scatter shared by both fft_cols4 arms: slot p of `buf` holds
/// row bitrev[p] of the group (zeros in unused lanes and unread rows), and
/// the scatter writes slot r back to row r of each used lane.
void gather_cols4(const ColumnGroup& group, const FftPlan& plan, cfloat* buf);
void scatter_cols4(const ColumnGroup& group, std::size_t n, const cfloat* buf);

/// Element-wise spectrum kernels. Ranges are [0, n) over raw pointers; the
/// litho layer calls them on deterministic per-thread chunks.
struct VecOps {
  /// out[i] = a[i] * b[i]
  void (*cmul)(const cfloat* a, const cfloat* b, cfloat* out, std::size_t n);
  /// out[i] = x[i] * conj(a[i])   (x real)
  void (*cmul_conj_real)(const float* x, const cfloat* a, cfloat* out, std::size_t n);
  /// acc[i] += w * |f[i]|^2       (norm computed in float, accumulated in double)
  void (*norm_weighted_accum)(const cfloat* f, double w, double* acc, std::size_t n);
  /// acc[i] += w * Re(f[i])
  void (*real_weighted_accum)(const cfloat* f, double w, double* acc, std::size_t n);
};

/// Kernel table for an explicit arm — the conformance tier's entry point.
const VecOps& vec_ops(SimdLevel level);

/// The AVX2 element-wise table (forwards to scalar on non-x86 builds).
const VecOps& vec_ops_avx2();
FftInplaceFn fft_inplace_for(SimdLevel level);
FftCols4Fn fft_cols4_for(SimdLevel level);

/// Tables for the active process-wide level (resolves ganopc::simd_level()).
inline const VecOps& vec_ops() { return vec_ops(simd_level()); }

}  // namespace ganopc::fft
