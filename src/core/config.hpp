// Configuration for the GAN-OPC framework and reproduction-scale presets.
//
// The paper trains at 256x256 (2048nm clips, 8x8 average-pooled from 1nm
// rasters) for ~10 GPU-hours. The presets scale image sizes and iteration
// counts so the same pipeline reproduces the paper's *trends* on a CPU in
// seconds (Quick), minutes (Default) or hours (Paper).
#pragma once

#include <cstdint>
#include <string>

#include "ilt/ilt.hpp"
#include "litho/optics.hpp"

namespace ganopc::core {

struct GanOpcConfig {
  // --- geometry ---
  std::int32_t clip_nm = 2048;        ///< physical clip window (paper: 2048)
  std::int32_t litho_grid = 256;      ///< lithography simulation grid (pow2)
  std::int32_t gan_grid = 64;         ///< generator/discriminator image size (pow2)

  // --- network ---
  std::int64_t base_channels = 8;     ///< width of the first conv block

  // --- training (Algorithm 1 / 2) ---
  int batch_size = 4;                 ///< m, the mini-batch clip count
  int gan_iterations = 300;           ///< adversarial training iterations
  int pretrain_iterations = 60;       ///< ILT-guided pre-training iterations
  float lr_generator = 1e-3f;         ///< lambda for G (Adam)
  float lr_discriminator = 1e-3f;     ///< lambda for D (Adam)
  float alpha_l2 = 1.0f;              ///< alpha: weight of ||M* - M||_2^2 in l_g
  float pretrain_lr = 1e-3f;

  // --- substrates ---
  litho::OpticsConfig optics;         ///< shared by litho-grid and gan-grid sims
  ilt::IltConfig ilt;                 ///< refinement / ground-truth engine config

  // --- dataset ---
  std::size_t library_size = 64;      ///< training clips (paper: 4000)
  std::uint64_t seed = 1847;

  std::int32_t litho_pixel_nm() const { return clip_nm / litho_grid; }
  std::int32_t gan_pixel_nm() const { return clip_nm / gan_grid; }
  std::int32_t pool_factor() const { return litho_grid / gan_grid; }

  void validate() const;
};

enum class ReproScale { Quick, Default, Paper };

/// Preset configurations. Quick: unit-test scale (~seconds). Default: bench
/// scale (~minutes). Paper: the publication's geometry (hours on CPU).
GanOpcConfig make_config(ReproScale scale);

/// Parse "quick" / "default" / "paper" (case-insensitive).
ReproScale parse_scale(const std::string& name);
const char* scale_name(ReproScale scale);

}  // namespace ganopc::core
