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

  /// Global L2 gradient-norm clipping (applied by callers before step()).
  /// Returns the pre-clip norm.
  float clip_grad_norm(float max_norm);

  float learning_rate() const { return lr_; }
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

/// Learning-rate schedules, applied by calling update(iteration) before each
/// optimizer step. Both scale a base rate; Warmup composes linearly at the
/// start (standard GAN stabilization practice).
class LrSchedule {
 public:
  enum class Kind { Constant, StepDecay, Cosine };

  /// Constant schedule (optionally with warmup).
  explicit LrSchedule(float base_lr, int warmup_iterations = 0);

  /// StepDecay: lr *= factor every `period` iterations.
  static LrSchedule step_decay(float base_lr, int period, float factor,
                               int warmup_iterations = 0);

  /// Cosine annealing from base_lr to floor_lr over total_iterations.
  static LrSchedule cosine(float base_lr, int total_iterations, float floor_lr = 0.0f,
                           int warmup_iterations = 0);

  /// Learning rate for the given 0-based iteration.
  float at(int iteration) const;

  /// Convenience: set an Adam optimizer's rate for the iteration.
  void apply(Adam& optimizer, int iteration) const {
    optimizer.set_learning_rate(at(iteration));
  }

 private:
  Kind kind_ = Kind::Constant;
  float base_lr_;
  int warmup_ = 0;
  int period_ = 1;
  float factor_ = 1.0f;
  int total_ = 1;
  float floor_ = 0.0f;
};

}  // namespace ganopc::nn
