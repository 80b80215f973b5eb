// GAN-OPC training example: Algorithm 2 (ILT-guided pre-training) followed by
// Algorithm 1 (adversarial training), at a laptop-friendly scale.
//
// Run:  ./gan_training [scale]        (scale: quick | default | paper)
#include <cstdio>

#include "common/prng.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "nn/serialize.hpp"

int main(int argc, char** argv) {
  using namespace ganopc;
  const core::ReproScale scale =
      argc > 1 ? core::parse_scale(argv[1]) : core::ReproScale::Quick;
  core::GanOpcConfig cfg = core::make_config(scale);
  std::printf("scale=%s: litho %dx%d @%dnm, GAN %dx%d, %zu training clips\n",
              core::scale_name(scale), cfg.litho_grid, cfg.litho_grid,
              cfg.litho_pixel_nm(), cfg.gan_grid, cfg.gan_grid, cfg.library_size);

  const litho::LithoSim sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid,
                            cfg.litho_pixel_nm());
  std::printf("generating dataset (synthesis + ILT ground truth)...\n");
  const core::Dataset dataset = core::Dataset::generate(cfg, sim);

  Prng rng(cfg.seed);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng);
  Prng train_rng(cfg.seed + 1);
  core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);

  std::printf("ILT-guided pre-training (%d iterations, Algorithm 2)...\n",
              cfg.pretrain_iterations);
  const core::TrainStats pre = trainer.pretrain(cfg.pretrain_iterations);
  if (!pre.litho_history.empty())
    std::printf("  litho error: %.1f -> %.1f (%.1fs)\n", pre.litho_history.front(),
                pre.litho_history.back(), pre.seconds);

  std::printf("adversarial training (%d iterations, Algorithm 1)...\n",
              cfg.gan_iterations);
  const core::TrainStats adv = trainer.train(cfg.gan_iterations);
  if (!adv.l2_history.empty())
    std::printf("  L2 to reference masks: %.1f -> %.1f (%.1fs)\n",
                adv.l2_history.front(), adv.l2_history.back(), adv.seconds);

  nn::save_parameters(generator.net(), "pgan_generator.bin");
  std::printf("saved pgan_generator.bin — load it with full_flow\n");
  return 0;
}
