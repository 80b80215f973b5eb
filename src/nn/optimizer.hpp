// The gradient-descent optimizer behind every trained network: Adam, the
// adaptive form of the mini-batch update
//   W <- W - (lambda/m) * dW   (Eq. 15)
// with lr = lambda and the caller scaling gradients by 1/m (or equivalently
// using mean losses).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace ganopc::nn {

/// Adam (Kingma & Ba) with bias correction.
class Adam {
 public:
  Adam(std::vector<Param> params, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f);

  /// Apply one update from the accumulated gradients, then zero them.
  void step();

  void zero_grad();

  void set_learning_rate(float lr);

  // --- state access for checkpoint / resume ---
  // Adam's update depends on (t, m, v); a checkpoint that omits them would
  // silently restart bias correction and momentum, breaking bit-identical
  // resume. restore_state validates moment shapes against the live params.
  std::int64_t step_count() const { return t_; }
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }
  void restore_state(std::int64_t t, std::vector<Tensor> m, std::vector<Tensor> v);

 private:
  std::vector<Param> params_;
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace ganopc::nn
