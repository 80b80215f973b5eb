#include "core/discriminator.hpp"

#include "common/error.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"

namespace ganopc::core {

Discriminator::Discriminator(std::int64_t image_size, std::int64_t base_channels, Prng& rng,
                             bool paired)
    : image_size_(image_size), paired_(paired) {
  GANOPC_CHECK_MSG(image_size % 8 == 0, "discriminator image size must divide by 8");
  const std::int64_t c = base_channels;
  const std::int64_t in_ch = paired ? 2 : 1;
  net_.emplace<nn::Conv2d>(in_ch, c, 3, 2, 1);
  net_.emplace<nn::LeakyReLU>(0.2f);
  net_.emplace<nn::Conv2d>(c, 2 * c, 3, 2, 1);
  net_.emplace<nn::BatchNorm2d>(2 * c);
  net_.emplace<nn::LeakyReLU>(0.2f);
  net_.emplace<nn::Conv2d>(2 * c, 4 * c, 3, 2, 1);
  net_.emplace<nn::BatchNorm2d>(4 * c);
  net_.emplace<nn::LeakyReLU>(0.2f);
  net_.emplace<nn::Flatten>();
  const std::int64_t s8 = image_size / 8;
  net_.emplace<nn::Linear>(4 * c * s8 * s8, 1);
  nn::init_network(net_, rng);
}

nn::Tensor Discriminator::forward(const nn::Tensor& targets, const nn::Tensor& masks) {
  GANOPC_CHECK_MSG(masks.dim() == 4 && masks.shape(1) == 1 &&
                       masks.shape(2) == image_size_ && masks.shape(3) == image_size_,
                   "discriminator: bad mask input " << masks.shape_str());
  if (!paired_) return net_.forward(masks);
  GANOPC_CHECK_MSG(targets.same_shape(masks), "discriminator: target/mask shape mismatch");
  const auto N = masks.shape(0);
  const std::int64_t plane = image_size_ * image_size_;
  nn::Tensor stacked({N, 2, image_size_, image_size_});
  for (std::int64_t n = 0; n < N; ++n) {
    std::copy(targets.data() + n * plane, targets.data() + (n + 1) * plane,
              stacked.data() + n * 2 * plane);
    std::copy(masks.data() + n * plane, masks.data() + (n + 1) * plane,
              stacked.data() + n * 2 * plane + plane);
  }
  return net_.forward(stacked);
}

nn::Tensor Discriminator::backward_to_mask(const nn::Tensor& grad_logits) {
  const nn::Tensor grad_in = net_.backward(grad_logits);
  if (!paired_) return grad_in;
  const auto N = grad_in.shape(0);
  const std::int64_t plane = image_size_ * image_size_;
  nn::Tensor grad_mask({N, 1, image_size_, image_size_});
  for (std::int64_t n = 0; n < N; ++n) {
    // Channel 1 is the mask channel.
    std::copy(grad_in.data() + n * 2 * plane + plane, grad_in.data() + (n + 1) * 2 * plane,
              grad_mask.data() + n * plane);
  }
  return grad_mask;
}

}  // namespace ganopc::core
