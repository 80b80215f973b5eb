#include "ilt/ilt_kernels.hpp"

#include <algorithm>
#include <cmath>

namespace ganopc::ilt {

void sigmoid_relax(const float* p, float beta, float* mask_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    mask_b[i] = 1.0f / (1.0f + std::exp(-beta * p[i]));
}

void chain_rule(const float* mask_b, const float* grad_mb, float beta, float* grad_p,
                std::size_t n, float* max_abs, bool* finite) {
  float mx = 0.0f;
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const float mb = mask_b[i];
    const float g = grad_mb[i] * beta * mb * (1.0f - mb);
    grad_p[i] = g;
    if (!std::isfinite(g)) ok = false;
    mx = std::max(mx, std::fabs(g));
  }
  *max_abs = mx;
  *finite = ok;
}

void update_sigmoid(float* p, const float* grad_p, float scale, float beta,
                    float* mask_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float pn = p[i] - scale * grad_p[i];
    p[i] = pn;
    mask_b[i] = 1.0f / (1.0f + std::exp(-beta * pn));
  }
}

}  // namespace ganopc::ilt
