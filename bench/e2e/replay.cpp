#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "engine/clip_io.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "ilt/ilt.hpp"
#include "obs/metrics.hpp"

namespace e2e {

namespace {

double hist_sum(const ganopc::obs::Snapshot& snap, const char* name) {
  const auto* h = snap.find_histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

/// Seconds of litho work the ILT loop does itself: its gradient and
/// simulate calls. litho.aerial nests inside both and is never added.
double ilt_litho_seconds(const ganopc::obs::Snapshot& snap) {
  return hist_sum(snap, "litho.gradient.seconds") +
         hist_sum(snap, "litho.simulate.seconds");
}

}  // namespace

Replayer::Replayer(const ganopc::engine::Engine& engine, SpanLog& spans)
    : engine_(engine), spans_(spans) {}

ClipRun Replayer::run(const ClipFile& clip, std::uint64_t clip_id, Report& report) {
  using namespace ganopc;
  const core::GanOpcConfig& cfg = engine_.config();
  const litho::LithoSim& sim = engine_.sim();
  const engine::BatchClip work{clip.id, clip.path, {}};
  engine::SubmitOptions opts;
  opts.want_mask = true;

  ClipRun out;
  obs::set_metrics_enabled(false);
  std::uint64_t t = now_ns();
  const engine::MaskResult plain = engine_.submit(work, opts);
  out.untraced_s = seconds_since(t);
  out.row = plain.row;
  if (plain.row.ok()) out.pgm = engine::encode_mask_pgm(plain.mask);
  sums_.untraced += out.untraced_s;

  obs::set_metrics_enabled(true);
  const std::uint64_t misses_before =
      obs::snapshot().counter_value("fft.plan_cache.misses");
  const std::uint64_t clip_start = now_ns();
  // Times one call as a span of this clip and adds it to `total`.
  auto stage = [&](const char* name, double& total, auto&& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    spans_.add(name, clip_id, t0, t1);
    total += static_cast<double>(t1 - t0) * 1e-9;
  };
  auto finish = [&] {
    spans_.add("e2e.clip", clip_id, clip_start, now_ns());
    sums_.plan_cache_misses +=
        obs::snapshot().counter_value("fft.plan_cache.misses") - misses_before;
    obs::set_metrics_enabled(false);
    return out;
  };

  engine::MaskResult traced;
  double traced_s = 0.0;
  stage("engine.submit", traced_s, [&] { traced = engine_.submit(work, opts); });
  sums_.traced += traced_s;
  const engine::BatchClipResult& row = traced.row;
  report.check(row.ok(), "traced submit of " + clip.id + " failed: " + row.error);
  const std::string submitted_pgm = row.ok() ? engine::encode_mask_pgm(traced.mask) : "";
  report.check(plain.row.ok() == row.ok() && plain.row.l2_nm2 == row.l2_nm2 &&
                   plain.row.pvb_nm2 == row.pvb_nm2 && out.pgm == submitted_pgm,
               "traced and untraced submits of " + clip.id + " differ");
  if (!row.ok() || row.retries > 0 || row.fallbacks > 0 ||
      engine_.generator() == nullptr) {
    ++skipped_;
    return finish();
  }
  sums_.submit += traced_s;

  geom::Layout layout;
  geom::Grid target, seed_mask, gan_in, gan_out;
  double uncorrected = 0.0;
  stage("engine.decode", sums_.decode,
        [&] { layout = engine::load_layout_file(clip.path, cfg.clip_nm); });
  stage("geometry.rasterize", sums_.rasterize, [&] {
    target = geom::rasterize(layout, cfg.litho_pixel_nm(), /*threshold=*/true);
  });
  stage("litho.gate", sums_.gate, [&] { uncorrected = sim.l2_error(target, target); });
  stage("geometry.downsample", sums_.resample,
        [&] { gan_in = geom::downsample_avg(target, cfg.pool_factor()); });
  stage("nn.infer", sums_.infer, [&] { gan_out = engine_.generator()->infer(gan_in); });
  stage("geometry.upsample", sums_.resample,
        [&] { seed_mask = geom::upsample_bilinear(gan_out, cfg.pool_factor()); });

  ilt::IltConfig icfg = cfg.ilt;
  icfg.workspace = &workspace_;
  const float nominal[1] = {1.0f};
  geom::Grid grad;
  if (replayed_ == 0)  // grow the workspace once, as the engine's first submit did
    sim.gradient_into(seed_mask, target, nominal, grad, workspace_);

  ilt::IltResult ilt;
  const obs::Snapshot before = obs::snapshot();
  stage("ilt.optimize", sums_.ilt,
        [&] { ilt = ilt::IltEngine(sim, icfg).optimize(target, seed_mask); });
  const obs::Snapshot after = obs::snapshot();
  sums_.ilt_litho += ilt_litho_seconds(after) - ilt_litho_seconds(before);
  sums_.iterations += ilt.iterations;

  std::int64_t pvb = 0;
  std::string pgm;
  stage("litho.pv_band", sums_.pv_band, [&] { pvb = sim.pv_band(ilt.mask).area_nm2; });
  stage("engine.encode", sums_.encode, [&] { pgm = engine::encode_mask_pgm(ilt.mask); });

  // One ILT gradient call on this clip's seed mask, warm workspace.
  std::vector<double> calls;
  for (int k = 0; k < 3; ++k) {
    t = now_ns();
    sim.gradient_into(seed_mask, target, nominal, grad, workspace_);
    calls.push_back(seconds_since(t));
  }
  sums_.gradient_call += percentile(calls, 0.5);

  const double px_area = static_cast<double>(sim.pixel_nm()) * sim.pixel_nm();
  report.check(pgm == submitted_pgm,
               "replayed mask of " + clip.id + " differs from the submitted mask");
  report.check(ilt.l2_px * px_area == row.l2_nm2 && pvb == row.pvb_nm2 &&
                   ilt.iterations == row.ilt_iterations &&
                   row.stage == engine::BatchStage::GanIlt &&
                   ilt.l2_px <= std::max(uncorrected, 1.0),
               "replayed L2/PVB/iterations/stage of " + clip.id +
                   " differ from the submitted row");
  ++replayed_;
  return finish();
}

}  // namespace e2e
