// Pixel-pass kernels of the ILT descent loop (DESIGN.md §12).
//
// One descent iteration used to sweep the pixel arrays three times: chain
// rule (dE/dM_b -> dE/dP) with max/finite reduction, the P update, and a
// separate sigmoid refresh of M_b. The kernels below fuse the update and the
// refresh into one pass (`update_sigmoid`) and keep the chain-rule sweep a
// single fused pass (`chain_rule`), halving memory traffic per iteration.
//
// Plain scalar loops with std::exp, in a fixed order, so every call is
// bit-deterministic. They are not dispatched: a vector exp would move the
// masks, so it is a separate change with its own pinned bytes.
#pragma once

#include <cstddef>

namespace ganopc::ilt {

/// mask_b[i] = sigmoid(beta * p[i]) — the Eq. 13 relaxation.
void sigmoid_relax(const float* p, float beta, float* mask_b, std::size_t n);

/// Chain rule of Eq. 14 through the relaxation:
///   grad_p[i] = grad_mb[i] * beta * mask_b[i] * (1 - mask_b[i])
/// Returns max_i |grad_p[i]| and whether every entry was finite. A NaN
/// makes *finite false (the max value is then unspecified — callers must
/// abandon the step, matching the watchdog contract).
void chain_rule(const float* mask_b, const float* grad_mb, float beta, float* grad_p,
                std::size_t n, float* max_abs, bool* finite);

/// Fused descent step + relaxation refresh:
///   p[i] -= scale * grad_p[i];  mask_b[i] = sigmoid(beta * p[i])
void update_sigmoid(float* p, const float* grad_p, float scale, float beta,
                    float* mask_b, std::size_t n);

}  // namespace ganopc::ilt
