// The discriminator D: classifies (target, mask) PAIRS, not bare masks.
//
// §3.2 of the paper: a discriminator on masks alone cannot enforce the
// one-one target->mask mapping (any reference mask M*_i maximizes Eq. 4);
// feeding the pair (Z_t, M) as a two-channel image makes "real" mean
// "this mask belongs to this target", which forces G(Z_t_i) ~= M*_i.
#pragma once

#include <cstdint>

#include "common/prng.hpp"
#include "nn/layer.hpp"

namespace ganopc::core {

class Discriminator {
 public:
  /// `paired` selects the paper's pair-input scheme; false gives the naive
  /// mask-only discriminator (kept for the §3.2 ablation).
  Discriminator(std::int64_t image_size, std::int64_t base_channels, Prng& rng,
                bool paired = true);

  /// Forward. Paired: targets+masks stacked as 2-channel input. Unpaired:
  /// masks only. Returns logits [N, 1] (no sigmoid — losses are
  /// logit-based for numerical stability).
  nn::Tensor forward(const nn::Tensor& targets, const nn::Tensor& masks);

  /// Back-propagate dLoss/dLogits; returns dLoss/dInput split into the mask
  /// channel's gradient [N, 1, S, S] (the target channel's gradient is
  /// discarded — targets are data, not optimized).
  nn::Tensor backward_to_mask(const nn::Tensor& grad_logits);

  nn::Sequential& net() { return net_; }
  std::vector<nn::Param> parameters() { return net_.parameters(); }
  std::vector<nn::Param> buffers() { return net_.buffers(); }
  void set_training(bool training) { net_.set_training(training); }
  bool paired() const { return paired_; }

 private:
  std::int64_t image_size_;
  bool paired_;
  nn::Sequential net_;
};

}  // namespace ganopc::core
