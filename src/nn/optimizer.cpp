#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ganopc::nn {

void Adam::zero_grad() {
  for (auto& p : params_)
    if (p.grad) p.grad->zero();
}

float Adam::clip_grad_norm(float max_norm) {
  GANOPC_CHECK(max_norm > 0.0f);
  double sq = 0.0;
  for (auto& p : params_) sq += p.grad->squared_l2();
  const auto norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm) {
    const float scale = max_norm / norm;
    for (auto& p : params_) p.grad->mul_(scale);
  }
  return norm;
}

Adam::Adam(std::vector<Param> params, float lr, float beta1, float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  GANOPC_CHECK(lr > 0.0f && beta1 >= 0.0f && beta1 < 1.0f && beta2 >= 0.0f && beta2 < 1.0f);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(p.value->shape());
    v_.emplace_back(p.value->shape());
  }
}

void Adam::set_learning_rate(float lr) {
  GANOPC_CHECK(lr > 0.0f);
  lr_ = lr;
}

void Adam::restore_state(std::int64_t t, std::vector<Tensor> m, std::vector<Tensor> v) {
  GANOPC_CHECK_MSG(t >= 0, "Adam: negative step count");
  GANOPC_CHECK_MSG(m.size() == params_.size() && v.size() == params_.size(),
                   "Adam: state has " << m.size() << "/" << v.size()
                                      << " moment tensors, optimizer has "
                                      << params_.size() << " params");
  for (std::size_t i = 0; i < params_.size(); ++i)
    GANOPC_CHECK_MSG(m[i].shape() == params_[i].value->shape() &&
                         v[i].shape() == params_[i].value->shape(),
                     "Adam: moment shape mismatch for param " << i);
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

LrSchedule::LrSchedule(float base_lr, int warmup_iterations)
    : base_lr_(base_lr), warmup_(warmup_iterations) {
  GANOPC_CHECK(base_lr > 0.0f && warmup_iterations >= 0);
}

LrSchedule LrSchedule::step_decay(float base_lr, int period, float factor,
                                  int warmup_iterations) {
  GANOPC_CHECK(period > 0 && factor > 0.0f && factor <= 1.0f);
  LrSchedule s(base_lr, warmup_iterations);
  s.kind_ = Kind::StepDecay;
  s.period_ = period;
  s.factor_ = factor;
  return s;
}

LrSchedule LrSchedule::cosine(float base_lr, int total_iterations, float floor_lr,
                              int warmup_iterations) {
  GANOPC_CHECK(total_iterations > 0 && floor_lr >= 0.0f && floor_lr < base_lr);
  LrSchedule s(base_lr, warmup_iterations);
  s.kind_ = Kind::Cosine;
  s.total_ = total_iterations;
  s.floor_ = floor_lr;
  return s;
}

float LrSchedule::at(int iteration) const {
  GANOPC_CHECK(iteration >= 0);
  float scale = 1.0f;
  switch (kind_) {
    case Kind::Constant:
      break;
    case Kind::StepDecay:
      scale = std::pow(factor_, static_cast<float>(iteration / period_));
      break;
    case Kind::Cosine: {
      const float t = std::min(1.0f, static_cast<float>(iteration) /
                                         static_cast<float>(total_));
      scale = (floor_ / base_lr_) +
              (1.0f - floor_ / base_lr_) * 0.5f * (1.0f + std::cos(M_PI * t));
      break;
    }
  }
  float lr = base_lr_ * scale;
  if (warmup_ > 0 && iteration < warmup_)
    lr *= static_cast<float>(iteration + 1) / static_cast<float>(warmup_);
  return lr;
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& w = *params_[i].value;
    Tensor& g = *params_[i].grad;
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::int64_t j = 0; j < w.numel(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    g.zero();
  }
}

}  // namespace ganopc::nn
