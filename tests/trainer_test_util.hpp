// Shared fixture for the robustness tier: a trainer small enough that full
// pretrain/train runs take milliseconds, with a hand-built dataset so no
// ILT ground-truth generation is needed.
#pragma once

#include "common/prng.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "geometry/bitmap_ops.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::core::testutil {

inline GanOpcConfig make_tiny_config() {
  GanOpcConfig cfg;
  cfg.litho_grid = 64;  // 32nm pixels — the coarsest the pupil allows
  cfg.gan_grid = 16;
  cfg.base_channels = 2;
  cfg.batch_size = 2;
  cfg.library_size = 4;
  cfg.seed = 99;
  cfg.validate();
  return cfg;
}

/// Four synthetic examples: an off-center rectangle per clip, pooled to GAN
/// resolution; the "reference mask" is the pooled target itself (good enough
/// for exercising the training loops).
inline Dataset make_tiny_dataset(const GanOpcConfig& cfg) {
  Dataset ds;
  const std::int32_t pool = cfg.pool_factor();
  for (int i = 0; i < 4; ++i) {
    geom::Grid target(cfg.litho_grid, cfg.litho_grid, cfg.litho_pixel_nm());
    const std::int32_t r0 = 8 + 4 * i, c0 = 12 + 2 * i;
    for (std::int32_t r = r0; r < r0 + 20; ++r)
      for (std::int32_t c = c0; c < c0 + 16; ++c) target.at(r, c) = 1.0f;
    TrainingExample ex;
    ex.target_gan = geom::downsample_avg(target, pool);
    ex.mask_gan = ex.target_gan;
    ex.target_litho = std::move(target);
    ds.add(std::move(ex));
  }
  return ds;
}

/// A complete training stack with deterministic seeding; every Rig built
/// from the same config starts bit-identical.
struct Rig {
  GanOpcConfig cfg;
  litho::LithoSim sim;
  Dataset dataset;
  Prng init_rng;
  Generator generator;
  Discriminator discriminator;
  Prng train_rng;
  GanOpcTrainer trainer;

  explicit Rig(const GanOpcConfig& config)
      : cfg(config),
        sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid, cfg.litho_pixel_nm()),
        dataset(make_tiny_dataset(cfg)),
        init_rng(cfg.seed),
        generator(cfg.gan_grid, cfg.base_channels, init_rng),
        discriminator(cfg.gan_grid, cfg.base_channels, init_rng),
        train_rng(cfg.seed + 1),
        trainer(cfg, generator, discriminator, dataset, sim, train_rng) {}
};

}  // namespace ganopc::core::testutil
