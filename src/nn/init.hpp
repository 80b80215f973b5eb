// Deterministic weight initialization driven by the library-wide Prng.
#pragma once

#include "common/prng.hpp"
#include "nn/layer.hpp"

namespace ganopc::nn {

/// Fill with N(0, stddev).
void init_normal(Tensor& t, Prng& rng, float stddev);

/// He/Kaiming normal given fan-in (for ReLU-family activations).
void init_he_normal(Tensor& t, Prng& rng, std::int64_t fan_in);

/// Initialize every parameter of a network: conv / linear weights get He
/// normal (fan-in inferred from shape), biases get zero, BN gamma/beta keep
/// their (1, 0) defaults. Names containing "gamma"/"beta" are skipped.
void init_network(Layer& net, Prng& rng);

}  // namespace ganopc::nn
