// Stateless / lightweight layers: activations, pooling, linear, flatten.
#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace ganopc::nn {

/// max(0, x).
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;  // 1 where input > 0
};

/// x > 0 ? x : slope*x.
class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.2f) : slope_(slope) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "LeakyReLU"; }

 private:
  float slope_;
  Tensor input_;
};

/// Logistic sigmoid; used as the generator's output nonlinearity so masks
/// land in (0, 1) — the paper's relaxed mask representation (Eq. 13).
class Sigmoid final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor output_;
};

class Tanh final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor output_;
};

/// Fully connected layer: input [N x in], output [N x out].
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> parameters() override;
  std::string name() const override { return "Linear"; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_features_, out_features_;
  bool has_bias_;
  Tensor weight_, weight_grad_;  // [out x in]
  Tensor bias_, bias_grad_;      // [out]
  Tensor input_;                 // cached [N x in]
};

/// Collapse [N, C, H, W] (or any rank >= 2) into [N, rest].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::int64_t> in_shape_;
};

}  // namespace ganopc::nn
