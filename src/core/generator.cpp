#include "core/generator.hpp"

#include "common/error.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"

namespace ganopc::core {

namespace {

std::unique_ptr<nn::Sequential> make_autoencoder(std::int64_t c) {
  auto net = std::make_unique<nn::Sequential>();
  // Encoder: hierarchical abstraction, spatial size /8.
  net->emplace<nn::Conv2d>(1, c, 3, 2, 1);
  net->emplace<nn::BatchNorm2d>(c);
  net->emplace<nn::LeakyReLU>(0.2f);
  net->emplace<nn::Conv2d>(c, 2 * c, 3, 2, 1);
  net->emplace<nn::BatchNorm2d>(2 * c);
  net->emplace<nn::LeakyReLU>(0.2f);
  net->emplace<nn::Conv2d>(2 * c, 4 * c, 3, 2, 1);
  net->emplace<nn::BatchNorm2d>(4 * c);
  net->emplace<nn::LeakyReLU>(0.2f);
  // Decoder: mirrored up-sampling back to full resolution.
  net->emplace<nn::ConvTranspose2d>(4 * c, 2 * c, 4, 2, 1);
  net->emplace<nn::BatchNorm2d>(2 * c);
  net->emplace<nn::ReLU>();
  net->emplace<nn::ConvTranspose2d>(2 * c, c, 4, 2, 1);
  net->emplace<nn::BatchNorm2d>(c);
  net->emplace<nn::ReLU>();
  net->emplace<nn::ConvTranspose2d>(c, 1, 4, 2, 1);
  net->emplace<nn::Sigmoid>();
  return net;
}

}  // namespace

// ------------------------------------------------------------ UNetBackbone

UNetBackbone::UNetBackbone(std::int64_t image_size, std::int64_t base_channels,
                           Prng& rng)
    : channels_(base_channels) {
  GANOPC_CHECK_MSG(image_size % 8 == 0, "UNet image size must divide by 8");
  const std::int64_t c = base_channels;
  enc1_.emplace<nn::Conv2d>(1, c, 3, 2, 1);
  enc1_.emplace<nn::BatchNorm2d>(c);
  enc1_.emplace<nn::LeakyReLU>(0.2f);
  enc2_.emplace<nn::Conv2d>(c, 2 * c, 3, 2, 1);
  enc2_.emplace<nn::BatchNorm2d>(2 * c);
  enc2_.emplace<nn::LeakyReLU>(0.2f);
  enc3_.emplace<nn::Conv2d>(2 * c, 4 * c, 3, 2, 1);
  enc3_.emplace<nn::BatchNorm2d>(4 * c);
  enc3_.emplace<nn::LeakyReLU>(0.2f);
  dec3_.emplace<nn::ConvTranspose2d>(4 * c, 2 * c, 4, 2, 1);
  dec3_.emplace<nn::BatchNorm2d>(2 * c);
  dec3_.emplace<nn::ReLU>();
  // Inputs are concatenated with the matching encoder activation.
  dec2_.emplace<nn::ConvTranspose2d>(4 * c, c, 4, 2, 1);
  dec2_.emplace<nn::BatchNorm2d>(c);
  dec2_.emplace<nn::ReLU>();
  dec1_.emplace<nn::ConvTranspose2d>(2 * c, 1, 4, 2, 1);
  dec1_.emplace<nn::Sigmoid>();
  for (nn::Sequential* block : {&enc1_, &enc2_, &enc3_, &dec3_, &dec2_, &dec1_})
    nn::init_network(*block, rng);
}

nn::Tensor UNetBackbone::forward(const nn::Tensor& input) {
  const nn::Tensor e1 = enc1_.forward(input);
  const nn::Tensor e2 = enc2_.forward(e1);
  const nn::Tensor e3 = enc3_.forward(e2);
  const nn::Tensor d3 = dec3_.forward(e3);
  const nn::Tensor d2 = dec2_.forward(nn::concat_channels(d3, e2));
  return dec1_.forward(nn::concat_channels(d2, e1));
}

nn::Tensor UNetBackbone::backward(const nn::Tensor& grad_output) {
  const std::int64_t c = channels_;
  nn::Tensor g_cat2 = dec1_.backward(grad_output);
  nn::Tensor g_d2, g_e1_skip;
  nn::split_channels(g_cat2, c, g_d2, g_e1_skip);
  nn::Tensor g_cat3 = dec2_.backward(g_d2);
  nn::Tensor g_d3, g_e2_skip;
  nn::split_channels(g_cat3, 2 * c, g_d3, g_e2_skip);
  nn::Tensor g_e3 = dec3_.backward(g_d3);
  nn::Tensor g_e2 = enc3_.backward(g_e3);
  g_e2.add_(g_e2_skip);
  nn::Tensor g_e1 = enc2_.backward(g_e2);
  g_e1.add_(g_e1_skip);
  return enc1_.backward(g_e1);
}

std::vector<nn::Param> UNetBackbone::parameters() {
  std::vector<nn::Param> out;
  const std::pair<const char*, nn::Sequential*> blocks[] = {
      {"enc1", &enc1_}, {"enc2", &enc2_}, {"enc3", &enc3_},
      {"dec3", &dec3_}, {"dec2", &dec2_}, {"dec1", &dec1_}};
  for (const auto& [prefix, block] : blocks) {
    for (auto p : block->parameters()) {
      p.name = std::string(prefix) + "." + p.name;
      out.push_back(p);
    }
  }
  return out;
}

std::vector<nn::Param> UNetBackbone::buffers() {
  std::vector<nn::Param> out;
  const std::pair<const char*, nn::Sequential*> blocks[] = {
      {"enc1", &enc1_}, {"enc2", &enc2_}, {"enc3", &enc3_},
      {"dec3", &dec3_}, {"dec2", &dec2_}, {"dec1", &dec1_}};
  for (const auto& [prefix, block] : blocks) {
    for (auto b : block->buffers()) {
      b.name = std::string(prefix) + "." + b.name;
      out.push_back(b);
    }
  }
  return out;
}

void UNetBackbone::on_mode_change() {
  for (nn::Sequential* block : {&enc1_, &enc2_, &enc3_, &dec3_, &dec2_, &dec1_})
    block->set_training(training_);
}

// ---------------------------------------------------------------- Generator

Generator::Generator(std::int64_t image_size, std::int64_t base_channels, Prng& rng,
                     GeneratorArch arch)
    : image_size_(image_size) {
  GANOPC_CHECK_MSG(image_size % 8 == 0, "generator image size must divide by 8");
  GANOPC_CHECK(base_channels > 0);
  if (arch == GeneratorArch::UNet) {
    net_ = std::make_unique<UNetBackbone>(image_size, base_channels, rng);
  } else {
    auto net = make_autoencoder(base_channels);
    nn::init_network(*net, rng);
    net_ = std::move(net);
  }
}

nn::Tensor Generator::forward(const nn::Tensor& targets) {
  GANOPC_CHECK_MSG(targets.dim() == 4 && targets.shape(1) == 1 &&
                       targets.shape(2) == image_size_ && targets.shape(3) == image_size_,
                   "generator: bad input " << targets.shape_str());
  return net_->forward(targets);
}

void Generator::backward(const nn::Tensor& grad_masks) { net_->backward(grad_masks); }

geom::Grid Generator::infer(const geom::Grid& target) {
  GANOPC_CHECK_MSG(target.rows == image_size_ && target.cols == image_size_,
                   "generator: grid size mismatch");
  const bool was_training = net_->training();
  net_->set_training(false);
  const nn::Tensor out = forward(grid_to_tensor(target));
  if (was_training) net_->set_training(true);
  return tensor_to_grid(out, target);
}

nn::Tensor grid_to_tensor(const geom::Grid& grid) {
  nn::Tensor t({1, 1, grid.rows, grid.cols});
  std::copy(grid.data.begin(), grid.data.end(), t.data());
  return t;
}

geom::Grid tensor_to_grid(const nn::Tensor& tensor, const geom::Grid& like) {
  GANOPC_CHECK(tensor.numel() == static_cast<std::int64_t>(like.size()));
  geom::Grid g(like.rows, like.cols, like.pixel_nm, like.origin_x, like.origin_y);
  std::copy(tensor.data(), tensor.data() + tensor.numel(), g.data.begin());
  return g;
}

}  // namespace ganopc::core
