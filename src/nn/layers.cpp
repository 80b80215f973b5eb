#include "nn/layers.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/gemm.hpp"

namespace ganopc::nn {

// ---------------------------------------------------------------- Layer base

void Layer::zero_grad() {
  for (auto& p : parameters())
    if (p.grad) p.grad->zero();
}

// --------------------------------------------------------------- Sequential

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  GANOPC_CHECK(layer != nullptr);
  layer->set_training(training_);
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::ensure_obs_sites() {
  if (obs_sites_.size() == layers_.size()) return;
  obs_sites_.clear();
  obs_sites_.reserve(layers_.size());
  for (const auto& l : layers_) {
    const std::string base = "nn.layer." + l->name();
    obs_sites_.push_back({&obs::span_site(base + ".forward"),
                          &obs::span_site(base + ".backward")});
  }
}

Tensor Sequential::forward(const Tensor& input) {
  if (!obs::active()) {
    Tensor x = input;
    for (auto& l : layers_) x = l->forward(x);
    return x;
  }
  GANOPC_OBS_SPAN("nn.forward");
  ensure_obs_sites();
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    obs::ObsSpan span(*obs_sites_[i].forward);
    x = layers_[i]->forward(x);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  if (!obs::active()) {
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
    return g;
  }
  GANOPC_OBS_SPAN("nn.backward");
  ensure_obs_sites();
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    obs::ObsSpan span(*obs_sites_[i].backward);
    g = layers_[i]->backward(g);
  }
  return g;
}

std::vector<Param> Sequential::parameters() {
  std::vector<Param> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (auto& p : layers_[i]->parameters()) {
      p.name = std::to_string(i) + "." + p.name;
      out.push_back(p);
    }
  }
  return out;
}

std::vector<Param> Sequential::buffers() {
  std::vector<Param> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (auto& b : layers_[i]->buffers()) {
      b.name = std::to_string(i) + "." + b.name;
      out.push_back(b);
    }
  }
  return out;
}

void Sequential::on_mode_change() {
  for (auto& l : layers_) l->set_training(training_);
}

// --------------------------------------------------------------------- ReLU

Tensor ReLU::forward(const Tensor& input) {
  Tensor out(input.shape());
  if (training_) mask_ = Tensor(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const bool pos = input[i] > 0.0f;
    out[i] = pos ? input[i] : 0.0f;
    if (training_) mask_[i] = pos ? 1.0f : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  GANOPC_CHECK_MSG(grad_output.same_shape(mask_), "ReLU backward without forward");
  Tensor g(grad_output.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i) g[i] = grad_output[i] * mask_[i];
  return g;
}

// ---------------------------------------------------------------- LeakyReLU

Tensor LeakyReLU::forward(const Tensor& input) {
  if (training_) input_ = input;
  Tensor out(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i)
    out[i] = input[i] > 0.0f ? input[i] : slope_ * input[i];
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  GANOPC_CHECK_MSG(grad_output.same_shape(input_), "LeakyReLU backward without forward");
  Tensor g(grad_output.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i)
    g[i] = grad_output[i] * (input_[i] > 0.0f ? 1.0f : slope_);
  return g;
}

// ------------------------------------------------------------------ Sigmoid

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i)
    out[i] = 1.0f / (1.0f + std::exp(-input[i]));
  if (training_) output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  GANOPC_CHECK_MSG(grad_output.same_shape(output_), "Sigmoid backward without forward");
  Tensor g(grad_output.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i)
    g[i] = grad_output[i] * output_[i] * (1.0f - output_[i]);
  return g;
}

// --------------------------------------------------------------------- Tanh

Tensor Tanh::forward(const Tensor& input) {
  Tensor out(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i) out[i] = std::tanh(input[i]);
  if (training_) output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  GANOPC_CHECK_MSG(grad_output.same_shape(output_), "Tanh backward without forward");
  Tensor g(grad_output.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i)
    g[i] = grad_output[i] * (1.0f - output_[i] * output_[i]);
  return g;
}

// ------------------------------------------------------------------- Linear

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_({out_features, in_features}),
      weight_grad_({out_features, in_features}),
      bias_({out_features}),
      bias_grad_({out_features}) {
  GANOPC_CHECK(in_features > 0 && out_features > 0);
}

Tensor Linear::forward(const Tensor& input) {
  GANOPC_CHECK_MSG(input.dim() == 2 && input.shape(1) == in_features_,
                   "Linear: bad input " << input.shape_str());
  if (training_) input_ = input;
  const auto N = input.shape(0);
  Tensor out({N, out_features_});
  // out = input * W^T
  sgemm(false, true, static_cast<std::size_t>(N), static_cast<std::size_t>(out_features_),
        static_cast<std::size_t>(in_features_), 1.0f, input.data(),
        static_cast<std::size_t>(in_features_), weight_.data(),
        static_cast<std::size_t>(in_features_), 0.0f, out.data(),
        static_cast<std::size_t>(out_features_));
  if (has_bias_) {
    for (std::int64_t n = 0; n < N; ++n)
      for (std::int64_t o = 0; o < out_features_; ++o)
        out[n * out_features_ + o] += bias_[o];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  GANOPC_CHECK_MSG(input_.dim() == 2, "Linear backward without forward");
  const auto N = input_.shape(0);
  GANOPC_CHECK(grad_output.shape(0) == N && grad_output.shape(1) == out_features_);
  // dW += g^T * x
  sgemm(true, false, static_cast<std::size_t>(out_features_),
        static_cast<std::size_t>(in_features_), static_cast<std::size_t>(N), 1.0f,
        grad_output.data(), static_cast<std::size_t>(out_features_), input_.data(),
        static_cast<std::size_t>(in_features_), 1.0f, weight_grad_.data(),
        static_cast<std::size_t>(in_features_));
  if (has_bias_) {
    for (std::int64_t n = 0; n < N; ++n)
      for (std::int64_t o = 0; o < out_features_; ++o)
        bias_grad_[o] += grad_output[n * out_features_ + o];
  }
  // dx = g * W
  Tensor grad_in({N, in_features_});
  sgemm(false, false, static_cast<std::size_t>(N), static_cast<std::size_t>(in_features_),
        static_cast<std::size_t>(out_features_), 1.0f, grad_output.data(),
        static_cast<std::size_t>(out_features_), weight_.data(),
        static_cast<std::size_t>(in_features_), 0.0f, grad_in.data(),
        static_cast<std::size_t>(in_features_));
  return grad_in;
}

std::vector<Param> Linear::parameters() {
  std::vector<Param> out{{"weight", &weight_, &weight_grad_}};
  if (has_bias_) out.push_back({"bias", &bias_, &bias_grad_});
  return out;
}

// ------------------------------------------------------------------ Flatten

Tensor Flatten::forward(const Tensor& input) {
  GANOPC_CHECK_MSG(input.dim() >= 2, "Flatten expects rank >= 2");
  in_shape_ = input.shape();
  const auto N = input.shape(0);
  return input.reshaped({N, input.numel() / N});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  GANOPC_CHECK_MSG(!in_shape_.empty(), "Flatten backward without forward");
  return grad_output.reshaped(in_shape_);
}

}  // namespace ganopc::nn
