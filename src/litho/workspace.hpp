// LithoWorkspace: reusable scratch buffers for the SOCS forward and adjoint
// passes.
//
// One aerial image costs 1 mask FFT + N_h kernel IFFTs; one gradient adds
// 2*N_h more transforms per dose corner. Allocating the mask spectrum, the
// coherent fields and the accumulators afresh on every call (as the seed
// engine did) dominates small-grid runtimes and fragments the heap under
// ILT's hundreds of iterations. A workspace owns those buffers and is resized
// only when the simulator geometry changes, so repeated `aerial_into` /
// `gradient_into` calls allocate nothing.
//
// Bytes at 256 px with 24 kernels (DESIGN.md §7): the gradient keeps the
// N_h fields (12.6 MB) plus compact support rows (~1.5 MB) and one n^2
// accumulator. An aerial-only call holds no fields at all. The transforms'
// own batch buffers are per thread (fft::lane_scratch), and the kernels
// belong to SocsKernels, as the operands of both products (0.35 MB). The
// buffers the split-block kernels stream (fields, compact, x, acc) are
// 64-byte aligned, so no 32-byte AVX2 access into them splits a cache line.
//
// A workspace is NOT thread-safe: it belongs to one simulation call at a
// time. Each thread owns one (`thread_workspace`): LithoSim's wrappers and
// threshold calibration and the ILT loop all use the calling thread's, so a
// thread holds one set of litho buffers however many of them it calls.
#pragma once

#include <cstddef>
#include <vector>

#include "common/aligned.hpp"
#include "fft/fft.hpp"
#include "geometry/grid.hpp"

namespace ganopc::litho {

class LithoWorkspace {
 public:
  LithoWorkspace() = default;

  /// Total bytes currently held by the scratch buffers (diagnostics/tests).
  std::size_t bytes() const {
    return mask_hat.capacity() * sizeof(fft::cfloat) +
           (fields.capacity() + compact.capacity() + weights.capacity() + x.capacity()) *
               sizeof(float) +
           acc.capacity() * sizeof(double) + compact_offset.capacity() * sizeof(std::size_t);
  }

  /// Grow (never shrink) the forward-pass buffers: an `npx`-pixel spectrum,
  /// `kernels` weights and compact-row offsets, `compact_floats` of compact
  /// rows, `acc_len` accumulator entries and `field_floats` of stored fields
  /// (0 for an aerial-only call). Returns true when any buffer actually grew
  /// — the caller bumps the `litho.workspace.grows` counter, which the engine
  /// contract test asserts stays flat across steady-state submits.
  bool ensure_forward(int kernels, std::size_t npx, std::size_t compact_floats,
                      std::size_t acc_len, std::size_t field_floats) {
    const std::size_t before = bytes();
    const auto nk = static_cast<std::size_t>(kernels);
    if (mask_hat.size() < npx) mask_hat.resize(npx);
    if (weights.size() < nk) weights.resize(nk);
    if (compact_offset.size() < nk) compact_offset.resize(nk);
    if (compact.size() < compact_floats) compact.resize(compact_floats);
    if (acc.size() < acc_len) acc.resize(acc_len);
    if (fields.size() < field_floats) fields.resize(field_floats);
    return bytes() != before;
  }

  /// Grow the adjoint-pass buffer (gradient only) to `x_len` entries.
  /// Returns true when it actually grew.
  bool ensure_adjoint(std::size_t x_len) {
    const std::size_t before = bytes();
    if (x.size() < x_len) x.resize(x_len);
    return bytes() != before;
  }

  /// FFT of the mask (unshifted layout).
  std::vector<fft::cfloat> mask_hat;
  /// Coherent fields A_k = IFFT(H_k_hat .* mask_hat), stored by the gradient's
  /// forward pass for its adjoint: per kernel, per 8-column group, the n rows
  /// of the group as n split-complex blocks (fft::kBlock floats: eight reals,
  /// then eight imaginaries). Aerial-only calls never touch it.
  AlignedVector<float> fields;
  /// Per kernel, its band-limited rows between the row and column passes:
  /// R_k rows of n points, each row as 8-column split-complex blocks. The
  /// forward pass fills it with the row-transformed support rows of
  /// H_k_hat .* mask_hat, the adjoint with its row-transformed support rows;
  /// kernel k starts at compact_offset[k].
  AlignedVector<float> compact;
  std::vector<std::size_t> compact_offset;
  /// Per-kernel SOCS weights, gathered once per call for tight inner loops.
  std::vector<float> weights;
  /// dE/dI (real), one entry per pixel, in the accumulator's block order.
  AlignedVector<float> x;
  /// Double-precision per-pixel accumulator (intensity, then gradient), in
  /// block order: per 8-column group, n rows of 8 pixels.
  AlignedVector<double> acc;
  /// Aerial image scratch for gradient calls (the caller never sees it).
  geom::Grid aerial_scratch;
};

/// The calling thread's workspace, created on first use and kept warm for
/// the thread's lifetime. Worker threads of the shared pool keep theirs warm
/// across batches.
LithoWorkspace& thread_workspace();

}  // namespace ganopc::litho
