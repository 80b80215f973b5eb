// The generator G: maps a target image Z_t to a quasi-optimal mask M (§3.1).
//
// Two backbones are provided:
//  * AutoEncoder — the paper's architecture: a stacked-conv encoder doing
//    hierarchical feature abstraction and a mirrored transposed-conv decoder
//    predicting the pixel-based mask correction; sigmoid output keeps the
//    mask in (0, 1).
//  * UNet — the same encoder/decoder with skip connections, the variant
//    adopted by GAN-OPC's follow-up work; kept here for the architecture
//    ablation (bench/ablation_generator).
#pragma once

#include <cstdint>
#include <memory>

#include "common/prng.hpp"
#include "geometry/grid.hpp"
#include "nn/layer.hpp"

namespace ganopc::core {

enum class GeneratorArch { AutoEncoder, UNet };

/// Encoder-decoder with channel-concat skip connections. Exposed as a Layer
/// so tests can grad-check it like any other.
class UNetBackbone final : public nn::Layer {
 public:
  UNetBackbone(std::int64_t image_size, std::int64_t base_channels, Prng& rng);

  nn::Tensor forward(const nn::Tensor& input) override;
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Param> parameters() override;
  std::vector<nn::Param> buffers() override;
  std::string name() const override { return "UNetBackbone"; }

 private:
  void on_mode_change() override;

  std::int64_t channels_;
  nn::Sequential enc1_, enc2_, enc3_;
  nn::Sequential dec3_, dec2_, dec1_;
};

class Generator {
 public:
  /// image_size must divide by 8 (three stride-2 stages).
  Generator(std::int64_t image_size, std::int64_t base_channels, Prng& rng,
            GeneratorArch arch = GeneratorArch::AutoEncoder);

  /// Forward: targets [N, 1, S, S] -> masks [N, 1, S, S] in (0, 1).
  nn::Tensor forward(const nn::Tensor& targets);

  /// Back-propagate dLoss/dMask, accumulating parameter gradients.
  void backward(const nn::Tensor& grad_masks);

  nn::Layer& net() { return *net_; }
  std::vector<nn::Param> parameters() { return net_->parameters(); }
  std::vector<nn::Param> buffers() { return net_->buffers(); }
  void set_training(bool training) { net_->set_training(training); }
  std::int64_t image_size() const { return image_size_; }

  /// Single-image convenience used by the inference flow: grid in, mask out.
  geom::Grid infer(const geom::Grid& target);

 private:
  std::int64_t image_size_;
  std::unique_ptr<nn::Layer> net_;
};

/// Grid <-> Tensor helpers shared by the trainer and the flow.
nn::Tensor grid_to_tensor(const geom::Grid& grid);
geom::Grid tensor_to_grid(const nn::Tensor& tensor, const geom::Grid& like);

}  // namespace ganopc::core
