// Dispatched inner kernels of the FFT family (DESIGN.md §12).
//
// Two arms per kernel, selected by ganopc::SimdLevel:
//   - scalar: portable C++, the conformance reference; compiled everywhere.
//   - avx2:   AVX2+FMA implementations in lanes8_avx2.cpp (a TU built with
//             -mavx2 -mfma). On non-x86 builds the avx2 symbols forward to
//             scalar so the table is always complete; dispatch never selects
//             them unless the cpuid probe passed.
//
// `fft_lanes8` is the one butterfly kernel: every row and column pass of the
// 2-D transforms and of the SOCS passes (src/litho) runs on it. It transforms
// eight signals side by side in split-complex form (eight reals, then eight
// imaginaries per point), so a butterfly is whole-vector arithmetic with no
// shuffles. On the scalar arm each lane is bitwise `fft_inplace_scalar`, the
// single-signal reference. The LaneOps entries are the element-wise loops of
// the SOCS forward/adjoint passes on the same split blocks; they live here
// because they share the split-complex SIMD layout with the butterflies. All
// kernels are deterministic: fixed evaluation order, no data-dependent
// shortcuts, so each arm is bit-reproducible run-to-run.
//
// lanes8_avx2.cpp is built with -ffp-contract=off: GCC's default contraction
// would fuse a separate multiply and add (a norm re*re + im*im) into one FMA
// and move the pinned output bytes. Every product that must fuse is an
// explicit fma intrinsic.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "common/cpu.hpp"

namespace ganopc::fft {

using cfloat = std::complex<float>;
struct FftPlan;

/// In-place radix-2 transform of plan.n interleaved points (bit-reversal +
/// butterflies + inverse 1/n scaling): the single-signal reference that each
/// lane of fft_lanes8_scalar reproduces bit for bit.
void fft_inplace_scalar(cfloat* a, const FftPlan& plan, bool inverse);

/// Lanes of the split-complex batch kernel, and floats per point of a batch:
/// kLanes real parts, then kLanes imaginary parts.
inline constexpr std::size_t kLanes = 8;
inline constexpr std::size_t kBlock = 2 * kLanes;

/// In-place plan.n-point transforms of kLanes independent signals held
/// split-complex: `blocks` is plan.n blocks of kBlock floats, block p holding
/// point p of every lane (lane j's real part at [j], its imaginary part at
/// [kLanes + j]). The input is in bit-reversed order — block p holds input
/// point bitrev[p], which the gathers fold in — and the output in natural
/// order. On the scalar arm lane j's result is bitwise fft_inplace_scalar of
/// that lane's signal, one stage per pass over the blocks; the AVX2 arm forms
/// each twiddle product v*w as (fma(vr, wr, -vi*wi), fma(vr, wi, vi*wr)) and
/// runs two stages per pass, the inverse's 1/n folded into the last pass's
/// stores, with every butterfly's arithmetic unchanged (DESIGN.md §12).
/// Lanes never mix, so which lane or batch a signal lands in never moves a
/// bit.
using FftLanes8Fn = void (*)(float* blocks, const FftPlan& plan, bool inverse);

void fft_lanes8_scalar(float* blocks, const FftPlan& plan, bool inverse);
void fft_lanes8_avx2(float* blocks, const FftPlan& plan, bool inverse);

/// Batches of kLanes covering `count` transforms; equally, the kLanes-column
/// groups of a `count`-column grid.
constexpr std::size_t lane_groups(std::size_t count) { return (count + kLanes - 1) / kLanes; }

/// The calling thread's scratch buffer `slot` (0 .. kScratchSlots-1), at
/// least `floats` long and 64-byte aligned, so no 32-byte AVX2 access splits
/// a cache line: grown on first use and kept, so warm passes allocate
/// nothing. A pass holds its slots only until it returns.
inline constexpr std::size_t kScratchSlots = 3;
float* lane_scratch(std::size_t floats, std::size_t slot = 0);

/// Add `n` 1-D transforms to the `fft.transforms` work counter: one call per
/// pass, and nothing at all while metrics are off.
void count_transforms(std::size_t n);

/// Up to kLanes strided complex signals of one interleaved grid, batched for
/// fft_lanes8: columns (stride = row width) or rows (stride 1).
struct LaneGroup {
  cfloat* lane[kLanes] = {};    ///< point 0 of each used lane
  std::size_t lanes = kLanes;   ///< lanes in use, 1..kLanes; the rest hold zeros
  std::size_t stride = 1;       ///< elements between consecutive points of a lane
};

/// Load every point of `g` into plan.n blocks in the bit-reversed order
/// fft_lanes8 takes (zeros in unused lanes), and store natural-order blocks
/// back to every point of each used lane. Pure data movement, shared by both
/// arms, like every gather and scatter below.
void gather_lanes(const LaneGroup& g, const FftPlan& plan, float* blocks);
void scatter_lanes(const LaneGroup& g, std::size_t n, const float* blocks);

/// A complex grid held split-complex in kLanes-column groups, the layout of
/// the SOCS passes' fields and band-limited rows (src/litho): the block of
/// row r and group g — the reals of columns kLanes*g .. kLanes*g + kLanes-1,
/// then their imaginaries — starts at base + r * row_step + g * group_step.
/// Blocks stored row by row have (row_step, group_step) = (groups * kBlock,
/// kBlock); group by group, (kBlock, rows * kBlock).
struct SplitGrid {
  float* base = nullptr;
  std::size_t row_step = 0;
  std::size_t group_step = 0;

  float* block(std::size_t r, std::size_t g) const { return base + r * row_step + g * group_step; }
};

/// Blocks src, src + step, src + 2*step, ... as points points[0], points[1],
/// ... of plan.n-point signals, in the bit-reversed order fft_lanes8 takes;
/// every other point is zero. Copies whole blocks, so lanes stay lanes: a
/// column group of a SplitGrid (step = row_step) or a product of
/// load_rows (step = kBlock).
void spread_blocks(const float* src, std::size_t step, std::span<const std::size_t> points,
                   const FftPlan& plan, float* blocks);

/// Rows become lanes, in list order and not bit-reversed — the operands of
/// a LaneOps product at a few listed points. With a SplitGrid: row rows[j],
/// columns [0, count), into lane j of blocks out[0 .. count). With an
/// interleaved row-major grid of row length `width`: row rows[j] at columns
/// cols[c] into lane j of block c. Lanes past rows.size() are zero.
void load_rows(const SplitGrid& grid, std::span<const std::size_t> rows, std::size_t count,
               float* out);
void load_rows(const cfloat* grid, std::size_t width, std::span<const std::size_t> rows,
               std::span<const std::size_t> cols, float* out);

/// Rows become lanes, bit-reversed: a kLanes x kLanes tile (block j holding
/// row j of column group g) into lanes 0..lanes-1 of plan.n-point signals,
/// column kLanes*g + i landing at its bit-reversed slot. Lanes past `lanes`
/// and columns past plan.n are not touched.
void load_row_tile(const float* tile, std::size_t lanes, std::size_t g, const FftPlan& plan,
                   float* blocks);

/// Lanes become rows: lane j of natural-order blocks[0 .. n) into row
/// first_row + j, columns [0, n), of `grid`, for j < lanes. Below n = kLanes
/// the group's unused columns are written as zeros.
void store_rows(const float* blocks, std::size_t n, std::size_t lanes, const SplitGrid& grid,
                std::size_t first_row);

/// Lanes become columns, bit-reversed: point points[c] of lane j of
/// natural-order blocks into column batch c / kLanes, lane c % kLanes, at the
/// bit-reversed slot of point first + j. Batch b is the plan.n blocks at
/// batches + b * plan.n * kBlock, ready for an in-place fft_lanes8 transform
/// once every point has been stored.
void store_columns(const float* blocks, std::span<const std::size_t> points, std::size_t lanes,
                   std::size_t first, const FftPlan& plan, float* batches);

/// Element-wise kernels on split-complex blocks for the SOCS passes
/// (src/litho). Each lane's arithmetic is fixed per arm (std::complex
/// expressions on the scalar arm, fma forms on the AVX2 arm), so batching
/// changes no bit. `count` is in blocks; accumulators hold kLanes doubles per
/// block.
struct LaneOps {
  FftLanes8Fn fft;
  /// out = a * b
  void (*cmul)(const float* a, const float* b, float* out, std::size_t count);
  /// out = x * conj(a), x holding kLanes reals per block
  void (*cmul_conj_real)(const float* x, const float* a, float* out, std::size_t count);
  /// acc += w * |f|^2   (norm in float, accumulated in double)
  void (*norm_weighted_accum)(const float* f, double w, double* acc, std::size_t count);
  /// acc += w * Re(f)
  void (*real_weighted_accum)(const float* f, double w, double* acc, std::size_t count);
};

/// The kernel table for an explicit arm — the conformance tier's entry point.
const LaneOps& lane_ops(SimdLevel level);

/// The AVX2 table (forwards to scalar on non-x86 builds).
const LaneOps& lane_ops_avx2();

/// The table for the active process-wide level (resolves ganopc::simd_level()).
inline const LaneOps& lane_ops() { return lane_ops(simd_level()); }

}  // namespace ganopc::fft
