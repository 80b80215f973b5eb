// LithoWorkspace: reusable scratch buffers for the SOCS forward and adjoint
// passes.
//
// One aerial image costs 1 mask FFT + N_h kernel IFFTs; one gradient adds
// 2*N_h more transforms per dose corner. Allocating the mask spectrum, the
// N_h coherent-field buffers and the accumulators afresh on every call (as
// the seed engine did) dominates small-grid runtimes and fragments the heap
// under ILT's hundreds of iterations. A workspace owns those buffers and is
// resized only when the simulator geometry changes, so repeated
// `aerial_into` / `gradient_into` calls allocate nothing.
//
// A workspace is NOT thread-safe: it belongs to one simulation call at a
// time. Each thread owns one (`thread_workspace`): the convenience wrappers
// in LithoSim and the ILT loop all use the calling thread's, so a thread
// holds one set of litho buffers however many of them it calls.
#pragma once

#include <cstddef>
#include <vector>

#include "fft/fft.hpp"
#include "geometry/grid.hpp"

namespace ganopc::litho {

class LithoWorkspace {
 public:
  LithoWorkspace() = default;

  /// Total bytes currently held by the scratch buffers (diagnostics/tests).
  std::size_t bytes() const {
    std::size_t total = mask_hat.capacity() * sizeof(fft::cfloat) +
                        x.capacity() * sizeof(float) + acc.capacity() * sizeof(double);
    for (const auto& f : fields) total += f.capacity() * sizeof(fft::cfloat);
    for (const auto& f : adjoint) total += f.capacity() * sizeof(fft::cfloat);
    return total;
  }

  /// Grow (never shrink) the forward-pass buffers to `kernels` x `npx`.
  /// Returns true when any buffer actually grew — the caller bumps the
  /// `litho.workspace.grows` counter, which the engine contract test asserts
  /// stays flat across steady-state submits.
  bool ensure_forward(int kernels, std::size_t npx) {
    const std::size_t before = bytes();
    if (mask_hat.size() < npx) mask_hat.resize(npx);
    if (fields.size() < static_cast<std::size_t>(kernels))
      fields.resize(static_cast<std::size_t>(kernels));
    for (auto& f : fields)
      if (f.size() < npx) f.resize(npx);
    if (weights.size() < static_cast<std::size_t>(kernels))
      weights.resize(static_cast<std::size_t>(kernels));
    if (acc.size() < npx) acc.resize(npx);
    return bytes() != before;
  }

  /// Grow the adjoint-pass buffers (gradient only) to `kernels` x `npx`.
  /// Returns true when any buffer actually grew.
  bool ensure_adjoint(int kernels, std::size_t npx) {
    const std::size_t before = bytes();
    if (adjoint.size() < static_cast<std::size_t>(kernels))
      adjoint.resize(static_cast<std::size_t>(kernels));
    for (auto& f : adjoint)
      if (f.size() < npx) f.resize(npx);
    if (x.size() < npx) x.resize(npx);
    return bytes() != before;
  }

  /// FFT of the mask (unshifted layout).
  std::vector<fft::cfloat> mask_hat;
  /// Per-kernel coherent fields A_k = IFFT(H_k_hat .* mask_hat).
  std::vector<std::vector<fft::cfloat>> fields;
  /// Per-kernel adjoint buffers for the Eq. (14) backward pass. Kept separate
  /// from `fields` so multi-dose gradients can reuse the forward fields.
  std::vector<std::vector<fft::cfloat>> adjoint;
  /// Per-kernel SOCS weights, gathered once per call for tight inner loops.
  std::vector<float> weights;
  /// dE/dI (real), one entry per pixel.
  std::vector<float> x;
  /// Double-precision per-pixel accumulator (intensity, then gradient).
  std::vector<double> acc;
  /// Aerial image scratch for gradient calls (the caller never sees it).
  geom::Grid aerial_scratch;
};

/// The calling thread's workspace, created on first use and kept warm for
/// the thread's lifetime. Worker threads of the shared pool keep theirs warm
/// across batches.
LithoWorkspace& thread_workspace();

}  // namespace ganopc::litho
