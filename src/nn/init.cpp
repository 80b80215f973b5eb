#include "nn/init.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ganopc::nn {

void init_normal(Tensor& t, Prng& rng, float stddev) {
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
}

void init_he_normal(Tensor& t, Prng& rng, std::int64_t fan_in) {
  GANOPC_CHECK(fan_in > 0);
  init_normal(t, rng, std::sqrt(2.0f / static_cast<float>(fan_in)));
}

void init_network(Layer& net, Prng& rng) {
  for (auto& p : net.parameters()) {
    const bool is_bn = p.name.find("gamma") != std::string::npos ||
                       p.name.find("beta") != std::string::npos;
    if (is_bn) continue;
    const bool is_bias = p.name.find("bias") != std::string::npos;
    if (is_bias) {
      p.value->zero();
      continue;
    }
    Tensor& w = *p.value;
    std::int64_t fan_in = 1;
    if (w.dim() == 4) {
      // Conv [Cout,Cin,K,K] -> fan_in Cin*K*K; ConvT [Cin,Cout,K,K] -> the
      // receptive fan per output is also dim1*K*K under our layouts.
      fan_in = w.shape(1) * w.shape(2) * w.shape(3);
    } else if (w.dim() == 2) {
      fan_in = w.shape(1);
    }
    init_he_normal(w, rng, fan_in);
  }
}

}  // namespace ganopc::nn
