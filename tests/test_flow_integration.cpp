// Integration: the Figure 6 inference flow against the ILT baseline, both run
// as single-rung Engine sessions (no retry, no fallback, any finite L2
// accepted); the ILT baseline is the session without a generator.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/trainer.hpp"
#include "engine/engine.hpp"
#include "geometry/raster.hpp"
#include "layout/synthesizer.hpp"

namespace ganopc::core {
namespace {

GanOpcConfig flow_config() {
  GanOpcConfig cfg = make_config(ReproScale::Quick);
  cfg.library_size = 4;
  cfg.batch_size = 2;
  cfg.ilt.max_iterations = 30;
  cfg.ilt.check_every = 5;
  return cfg;
}

engine::EngineOptions flow_options(Generator* generator) {
  engine::EngineOptions opts;
  opts.config = flow_config();
  opts.generator = generator;
  opts.policy.allow_fallback = false;
  opts.policy.max_retries = 0;
  opts.policy.l2_accept_factor = 0.0f;
  return opts;
}

engine::MaskResult run_flow(const engine::Engine& eng, const geom::Layout& clip) {
  engine::BatchClip item;
  item.id = "clip";
  item.layout = clip;
  engine::SubmitOptions opts;
  opts.want_mask = true;
  return eng.submit(item, opts);
}

TEST(FlowIntegration, IltOnlyFlowProducesValidResult) {
  const GanOpcConfig cfg = flow_config();
  const engine::Engine eng(flow_options(nullptr));

  layout::SynthesisConfig synth;
  synth.clip_nm = cfg.clip_nm;
  Prng rng(11);
  const auto clip = layout::synthesize_clip(synth, rng);
  const engine::MaskResult result = run_flow(eng, clip);
  const engine::BatchClipResult& row = result.row;

  ASSERT_TRUE(row.ok()) << row.error;
  EXPECT_EQ(row.stage, engine::BatchStage::Ilt);
  EXPECT_EQ(result.mask.rows, cfg.litho_grid);
  EXPECT_GT(row.ilt_iterations, 0);
  EXPECT_GT(row.l2_px, 0.0);
  EXPECT_DOUBLE_EQ(row.l2_nm2, row.l2_px * cfg.litho_pixel_nm() * cfg.litho_pixel_nm());
  // The optimized mask must beat the uncorrected target-as-mask print.
  const geom::Grid target =
      geom::rasterize(clip, cfg.litho_pixel_nm(), /*threshold=*/true);
  EXPECT_LT(row.l2_px, eng.sim().l2_error(target, target));
}

TEST(FlowIntegration, GanFlowRunsAndRefines) {
  const GanOpcConfig cfg = flow_config();
  Prng rng(12);
  Generator g(cfg.gan_grid, cfg.base_channels, rng);
  Discriminator d(cfg.gan_grid, cfg.base_channels, rng);
  const engine::Engine eng(flow_options(&g));
  const Dataset dataset = Dataset::generate(cfg, eng.sim());
  Prng train_rng(13);
  GanOpcTrainer trainer(cfg, g, d, dataset, eng.sim(), train_rng);
  trainer.train(10);  // brief training; flow must still work end-to-end

  layout::SynthesisConfig synth;
  synth.clip_nm = cfg.clip_nm;
  Prng clip_rng(14);
  const auto clip = layout::synthesize_clip(synth, clip_rng);
  const engine::MaskResult result = run_flow(eng, clip);
  const engine::BatchClipResult& row = result.row;
  ASSERT_TRUE(row.ok()) << row.error;
  EXPECT_EQ(row.stage, engine::BatchStage::GanIlt);
  EXPECT_GT(row.runtime_s, 0.0);
  EXPECT_GT(row.ilt_iterations, 0);
  EXPECT_GT(row.pvb_nm2, 0);
  for (float v : result.mask.data) EXPECT_TRUE(v == 0.0f || v == 1.0f);
}

}  // namespace
}  // namespace ganopc::core
