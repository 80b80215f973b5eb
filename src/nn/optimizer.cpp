#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ganopc::nn {

void Adam::zero_grad() {
  for (auto& p : params_)
    if (p.grad) p.grad->zero();
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
