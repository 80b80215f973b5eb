// The complete Figure 6 flow on a benchmark clip, compared to the ILT-only
// baseline: generator inference produces a quasi-optimal mask that the ILT
// engine refines in fewer iterations. Both flows are engine::Engine sessions
// with a single rung (no retry, no fallback, any finite L2 accepted); the
// ILT-only session simply has no generator attached.
//
// Run:  ./full_flow [generator.bin]
// With no checkpoint argument, a generator is trained on the spot (quick
// scale); pass the file written by gan_training to skip that.
#include <cstdio>

#include "common/image_io.hpp"
#include "common/prng.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/trainer.hpp"
#include "engine/engine.hpp"
#include "geometry/raster.hpp"
#include "layout/benchmark_suite.hpp"
#include "nn/serialize.hpp"

int main(int argc, char** argv) {
  using namespace ganopc;
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.library_size = 12;
  cfg.gan_iterations = 150;
  cfg.pretrain_iterations = 20;

  Prng rng(cfg.seed);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  engine::EngineOptions opts;
  opts.config = cfg;
  opts.policy.allow_fallback = false;
  opts.policy.max_retries = 0;
  opts.policy.l2_accept_factor = 0.0f;
  const engine::Engine ilt_flow(opts);
  opts.generator = &generator;
  const engine::Engine gan_flow(opts);
  const litho::LithoSim& sim = ilt_flow.sim();

  if (argc > 1) {
    nn::load_parameters(generator.net(), argv[1]);
    std::printf("loaded generator from %s\n", argv[1]);
  } else {
    std::printf("no checkpoint given — training a quick generator...\n");
    const core::Dataset dataset = core::Dataset::generate(cfg, sim);
    core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng, true, cfg.d_dropout);
    Prng train_rng(cfg.seed + 1);
    core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);
    trainer.pretrain(cfg.pretrain_iterations);
    trainer.train(cfg.gan_iterations);
  }

  // Benchmark case 1 from the Table 2 suite.
  const auto suite = layout::make_benchmark_suite(cfg.clip_nm);
  const auto& clip = suite.front().layout;
  std::printf("benchmark case 1: area %ld nm^2 (paper: %ld)\n",
              static_cast<long>(clip.union_area()),
              static_cast<long>(suite.front().target_area));

  engine::BatchClip item;
  item.id = "case1";
  item.layout = clip;
  engine::SubmitOptions submit;
  submit.want_mask = true;
  const engine::MaskResult ilt_only = ilt_flow.submit(item, submit);
  const engine::MaskResult gan = gan_flow.submit(item, submit);
  if (!ilt_only.row.ok() || !gan.row.ok()) {
    std::printf("flow failed: %s%s\n", ilt_only.row.error.c_str(), gan.row.error.c_str());
    return 1;
  }

  std::printf("%-10s %10s %12s %8s %6s\n", "flow", "L2(nm^2)", "PVB(nm^2)", "RT(s)",
              "iters");
  const auto print_row = [](const char* name, const engine::BatchClipResult& r) {
    std::printf("%-10s %10.0f %12ld %8.2f %6d\n", name, r.l2_nm2,
                static_cast<long>(r.pvb_nm2), r.runtime_s, r.ilt_iterations);
  };
  print_row("ILT-only", ilt_only.row);
  print_row("GAN-OPC", gan.row);

  const auto dump = [](const geom::Grid& g, const char* name) {
    write_pgm(name, to_gray(g.data.data(), g.cols, g.rows));
  };
  dump(geom::rasterize(clip, cfg.litho_pixel_nm(), /*threshold=*/true), "flow_target.pgm");
  dump(gan.mask, "flow_mask.pgm");
  dump(sim.simulate(gan.mask), "flow_wafer.pgm");
  std::printf("wrote flow_target.pgm, flow_mask.pgm, flow_wafer.pgm\n");
  return 0;
}
