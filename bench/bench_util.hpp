// Shared plumbing for the reproduction benches.
//
// All table/figure binaries run at a "bench" scale that finishes in minutes
// on a CPU; set GANOPC_SCALE=quick|default|paper to override. Expensive
// artifacts (the ILT ground-truth dataset, trained generators) are cached in
// ./ganopc_bench_cache keyed by the geometry, so running the whole bench
// directory reuses work:
//   figure7_training_curves  trains GAN-OPC + PGAN-OPC and saves both
//   figure8_visuals/table2   load the saved generators when present
// The Table 2 flows themselves run as engine::Engine sessions (flow_options).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/engine.hpp"
#include "litho/lithosim.hpp"
#include "nn/serialize.hpp"

namespace ganopc::bench {

inline core::GanOpcConfig bench_config() {
  if (const char* env = std::getenv("GANOPC_SCALE"))
    return core::make_config(core::parse_scale(env));
  // Bench default: 128 litho grid (16nm pixels) with a 64 GAN grid and a
  // meatier training budget than the unit-test preset.
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.litho_grid = 128;
  cfg.gan_grid = 64;
  cfg.base_channels = 8;
  cfg.library_size = 32;
  cfg.batch_size = 4;
  cfg.gan_iterations = 500;
  cfg.pretrain_iterations = 60;
  cfg.ilt.max_iterations = 200;
  cfg.ilt.check_every = 5;
  cfg.ilt.patience = 4;
  cfg.validate();
  return cfg;
}

inline std::string cache_dir() {
  const std::string dir = "ganopc_bench_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string geometry_tag(const core::GanOpcConfig& cfg) {
  return "l" + std::to_string(cfg.litho_grid) + "_g" + std::to_string(cfg.gan_grid) +
         "_c" + std::to_string(cfg.base_channels) + "_n" +
         std::to_string(cfg.library_size);
}

/// Load the cached dataset for this geometry or generate (and cache) it.
inline core::Dataset get_dataset(const core::GanOpcConfig& cfg,
                                 const litho::LithoSim& sim) {
  const std::string path = cache_dir() + "/dataset_" + geometry_tag(cfg) + ".bin";
  if (std::filesystem::exists(path)) {
    std::printf("[cache] loading dataset from %s\n", path.c_str());
    return core::Dataset::load(path, cfg);
  }
  std::printf("[cache] generating dataset (%zu clips, ILT ground truth)...\n",
              cfg.library_size);
  core::Dataset ds = core::Dataset::generate(cfg, sim);
  ds.save(path);
  return ds;
}

inline std::string generator_path(const core::GanOpcConfig& cfg, bool pretrained) {
  return cache_dir() + "/" + (pretrained ? "pgan" : "gan") + "_generator_" +
         geometry_tag(cfg) + ".bin";
}

/// Train a generator (optionally with ILT-guided pre-training) and cache it,
/// or load it when already cached. `stats_out` receives the adversarial
/// l2 history only when training actually runs.
inline core::Generator get_generator(const core::GanOpcConfig& cfg,
                                     const litho::LithoSim& sim,
                                     const core::Dataset& dataset, bool pretrained,
                                     core::TrainStats* stats_out = nullptr,
                                     bool force_train = false) {
  Prng rng(cfg.seed + (pretrained ? 100 : 200));
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  const std::string path = generator_path(cfg, pretrained);
  if (!force_train && std::filesystem::exists(path)) {
    std::printf("[cache] loading %s generator from %s\n",
                pretrained ? "PGAN-OPC" : "GAN-OPC", path.c_str());
    nn::load_parameters(generator.net(), path);
    return generator;
  }
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng);
  Prng train_rng(cfg.seed + (pretrained ? 300 : 400));
  core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);
  if (pretrained) {
    std::printf("[train] ILT-guided pre-training: %d iterations\n",
                cfg.pretrain_iterations);
    trainer.pretrain(cfg.pretrain_iterations);
  }
  std::printf("[train] adversarial training: %d iterations\n", cfg.gan_iterations);
  const core::TrainStats stats = trainer.train(cfg.gan_iterations);
  if (stats_out != nullptr) *stats_out = stats;
  nn::save_parameters(generator.net(), path);
  return generator;
}

/// The Table 2 flows as Engine sessions: with a generator the session runs
/// the Figure 6 flow (inference, then ILT from that mask); without one it
/// runs ILT from the target (the [7] baseline). One attempt, no fallback
/// rung, and any finite L2 is accepted, so a row reports exactly what the
/// flow produced.
inline engine::EngineOptions flow_options(const core::GanOpcConfig& cfg,
                                          core::Generator* generator) {
  engine::EngineOptions opts;
  opts.config = cfg;
  opts.generator = generator;
  opts.policy.allow_fallback = false;
  opts.policy.max_retries = 0;
  opts.policy.l2_accept_factor = 0.0f;
  return opts;
}

/// Run one benchmark clip through a flow session; a failed row aborts the
/// bench. The row's runtime_s is the submit wall time (Table 2's RT).
inline engine::MaskResult run_flow(const engine::Engine& eng, const geom::Layout& clip,
                                   bool want_mask = false) {
  engine::BatchClip item;
  item.id = "clip";
  item.layout = clip;
  engine::SubmitOptions opts;
  opts.want_mask = want_mask;
  engine::MaskResult result = eng.submit(item, opts);
  GANOPC_CHECK_MSG(result.row.ok(), "flow failed: " << result.row.error);
  return result;
}

}  // namespace ganopc::bench
