#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "common/backoff.hpp"
#include "common/failpoint.hpp"
#include "common/prng.hpp"
#include "engine/clip_io.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "mbopc/mbopc.hpp"
#include "nn/serialize.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace ganopc::engine {

namespace {

/// Uniform noise amplitude added to the mask on each perturbed restart.
constexpr float kPerturbAmplitude = 0.08f;
/// Ceiling of the retry backoff sleep.
constexpr double kRetryBackoffCapS = 1.0;

std::string format_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

litho::LithoSim Engine::build_sim(const EngineOptions& options) {
  options.config.validate();
  const auto backend = litho::make_litho_backend(options.backend);
  return litho::LithoSim(
      backend->build(options.config.optics, options.config.litho_grid,
                     options.config.litho_pixel_nm()),
      options.resist);
}

Engine::Engine(EngineOptions options)
    : config_(options.config),
      policy_(options.policy),
      backend_name_(litho::litho_backend_name(options.backend)),
      sim_(build_sim(options)) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     policy_.max_retries >= 0 && policy_.clip_deadline_s >= 0.0 &&
                         policy_.l2_accept_factor >= 0.0f &&
                         policy_.retry_backoff_base_s >= 0.0,
                     "engine: retries/deadline/accept-factor/backoff must be >= 0");
  if (options.generator != nullptr) {
    generator_ = options.generator;
  } else if (!options.generator_path.empty()) {
    // Typed up front: an embedder probing a bad weights path gets kIo from
    // the constructor, not an untyped invariant failure from the file layer.
    GANOPC_TYPED_CHECK(StatusCode::kIo,
                       std::ifstream(options.generator_path).good(),
                       "engine: cannot read generator weights at " +
                           options.generator_path);
    Prng rng(config_.seed);
    owned_generator_ = std::make_unique<core::Generator>(
        config_.gan_grid, config_.base_channels, rng);
    nn::load_parameters(owned_generator_->net(), options.generator_path);
    generator_ = owned_generator_.get();
  }
  if (generator_ != nullptr)
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       generator_->image_size() == config_.gan_grid,
                       "engine: generator size mismatch");
}

MaskResult Engine::submit(const BatchClip& clip, const SubmitOptions& opts) const {
  // Adopt the caller's trace context (if any) before the first span opens,
  // so batch.clip and everything beneath it nest under the request span.
  std::optional<obs::TraceContextScope> trace_scope;
  if (opts.trace_id != 0)
    trace_scope.emplace(obs::TraceContext{opts.trace_id, opts.parent_span});
  GANOPC_OBS_SPAN("batch.clip");
  // Every ledger event emitted while this clip is in flight — including the
  // ILT engine's ilt_iter records — carries scope = the clip id.
  obs::LedgerScope ledger_scope(clip.id);
  WallTimer timer;
  MaskResult out;
  BatchClipResult& res = out.row;
  res.id = clip.id;
  res.source = clip.path.empty() ? "<memory>" : clip.path;
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("clip_start");
    rec.field("source", res.source);
    obs::ledger_emit(rec);
  }
  // A per-request deadline (serve) overrides the session-wide one; both flow
  // into the ILT watchdog.
  const double deadline_s =
      opts.deadline_s >= 0.0 ? opts.deadline_s : policy_.clip_deadline_s;
  // Test hook: poisoning a clip arms a persistent NaN fault in the litho
  // gradient for exactly this clip's lifetime, so the isolation tests can
  // target clip k of N without touching the others.
  const bool poisoned = GANOPC_FAILPOINT("batch.poison_clip");
  if (poisoned) failpoint::arm("litho.gradient_nan", 0, -1);
  try {
    geom::Layout loaded;
    const geom::Layout* layout = clip.layout ? &*clip.layout : nullptr;
    if (layout == nullptr) {
      GANOPC_OBS_SPAN("batch.load_clip");
      loaded = load_layout_file(clip.path, config_.clip_nm);
      layout = &loaded;
    }
    optimize_clip(*layout, deadline_s, res, timer, opts.start_rung,
                  opts.want_mask ? &out.mask : nullptr);
  } catch (const std::exception& e) {
    const Status s = status_from_exception(e);
    res.code = s.code();
    res.error = s.message();
    res.stage = BatchStage::Failed;
    // A typed Status is handled (retry/fallback chains already ran); anything
    // that still reaches here ended the clip — snapshot the recent event ring
    // so the failure's lead-up survives even if the process dies next.
    if (obs::ledger_enabled())
      obs::flight_dump(std::string("batch.clip_failed.") + status_code_name(s.code()));
  }
  if (poisoned) failpoint::disarm("litho.gradient_nan");
  res.runtime_s = timer.seconds();
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("clip_end");
    rec.field("ok", res.ok())
        .field("code", status_code_name(res.code))
        .field("stage", batch_stage_name(res.stage))
        .field("retries", res.retries)
        .field("fallbacks", res.fallbacks)
        .field("l2_px", res.l2_px)
        .field("pvb_nm2", static_cast<double>(res.pvb_nm2))
        .field("wall_s", timer.seconds());
    if (!res.error.empty()) rec.field("error", res.error);
    obs::ledger_emit(rec);
  }
  return out;
}

void Engine::optimize_clip(const geom::Layout& clip, double clip_deadline_s,
                           BatchClipResult& res, const WallTimer& timer,
                           int start_rung, geom::Grid* mask_out) const {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     clip.clip().width() == config_.clip_nm &&
                         clip.clip().height() == config_.clip_nm,
                     "clip window must be " << config_.clip_nm << "x"
                                            << config_.clip_nm << " nm");
  const geom::Grid target =
      geom::rasterize(clip, config_.litho_pixel_nm(), /*threshold=*/true);
  // The acceptance gate is relative to how badly the *uncorrected* target
  // would print: any rung whose mask does not beat that bar by the configured
  // factor is treated as a failed attempt, not a success.
  const double uncorrected = sim_.l2_error(target, target);
  const double accept_l2 =
      policy_.l2_accept_factor > 0.0f
          ? static_cast<double>(policy_.l2_accept_factor) * std::max(uncorrected, 1.0)
          : std::numeric_limits<double>::infinity();

  std::vector<BatchStage> chain;
  if (generator_ != nullptr) chain.push_back(BatchStage::GanIlt);
  chain.push_back(BatchStage::Ilt);
  chain.push_back(BatchStage::MbOpc);
  if (!policy_.allow_fallback) chain.resize(1);
  // Supervised mode retries a crash-survivor one rung down its chain per
  // prior crash (a clip whose GAN+ILT segfaulted a worker restarts at plain
  // ILT, then MB-OPC) — skipped rungs count as fallbacks like any other
  // abandonment. The last rung is never skipped; quarantine caps the loop.
  const int skip = std::min(std::max(start_rung, 0),
                            static_cast<int>(chain.size()) - 1);
  chain.erase(chain.begin(), chain.begin() + skip);
  res.fallbacks += skip;

  Status last(StatusCode::kInternal, "no optimization attempt ran");
  for (std::size_t si = 0; si < chain.size(); ++si) {
    if (si > 0) ++res.fallbacks;
    const BatchStage stage = chain[si];
    // MB-OPC is deterministic in its inputs — a retry would replay the same
    // trajectory, so only the gradient-based rungs get perturbed restarts.
    const int attempts =
        stage == BatchStage::MbOpc ? 1 : 1 + std::max(0, policy_.max_retries);
    for (int attempt = 0; attempt < attempts; ++attempt) {
      double remaining = std::numeric_limits<double>::infinity();
      if (clip_deadline_s > 0.0) {
        remaining = clip_deadline_s - timer.seconds();
        if (remaining <= 0.0) {
          res.code = StatusCode::kDeadlineExceeded;
          res.error = "clip budget of " + format_g(clip_deadline_s) +
                      "s exhausted before " + batch_stage_name(stage);
          res.stage = BatchStage::Failed;
          return;
        }
      }
      if (attempt > 0) {
        ++res.retries;
        // Perturbed restarts back off exponentially with deterministic
        // jitter (keyed on seed + clip id, see common/backoff) instead of
        // re-entering the engine back-to-back: transient pressure — page
        // cache, sibling supervised workers — gets a chance to clear, and
        // the delay sequence is reproducible run-to-run.
        double delay = backoff_delay_s(policy_.retry_backoff_base_s, kRetryBackoffCapS,
                                       attempt, policy_.seed ^ fnv1a64(res.id));
        // Never sleep away more than half the clip's remaining budget.
        if (std::isfinite(remaining)) delay = std::min(delay, remaining * 0.5);
        if (delay > 0.0) {
          if (obs::metrics_enabled())
            obs::histogram("batch.retry_delay_s", obs::time_buckets())
                .observe(delay);
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        }
      }
      try {
        const bool done =
            stage == BatchStage::MbOpc
                ? attempt_mbopc(clip, accept_l2, res, last, mask_out)
                : attempt_ilt(stage, target, accept_l2, remaining, attempt, res,
                              last, mask_out);
        if (done) return;
        if (last.code() == StatusCode::kDeadlineExceeded) {
          // The watchdog already ate the whole budget; neither a retry nor a
          // fallback rung has any time left to run in.
          res.code = last.code();
          res.error = last.message();
          res.stage = BatchStage::Failed;
          return;
        }
      } catch (const std::exception& e) {
        last = status_from_exception(e);
      }
    }
  }
  res.code = last.code() == StatusCode::kOk ? StatusCode::kInternal : last.code();
  res.error = last.message();
  res.stage = BatchStage::Failed;
}

bool Engine::attempt_ilt(BatchStage stage, const geom::Grid& target,
                         double accept_l2, double remaining_s, int attempt,
                         BatchClipResult& res, Status& last,
                         geom::Grid* mask_out) const {
  GANOPC_OBS_SPAN("batch.attempt_ilt");
  ilt::IltConfig icfg = config_.ilt;
  if (std::isfinite(remaining_s))
    icfg.deadline_s =
        icfg.deadline_s > 0.0 ? std::min(icfg.deadline_s, remaining_s) : remaining_s;
  const ilt::IltEngine engine(sim_, icfg);

  geom::Grid init =
      stage == BatchStage::GanIlt ? gan_initial_mask(target) : target;
  if (attempt > 0) perturb(init, res.id, attempt);

  const ilt::IltResult r = engine.optimize(target, init);
  res.has_termination = true;
  res.termination = r.termination;
  res.ilt_iterations = r.iterations;

  if (r.termination == ilt::TerminationReason::kDiverged) {
    last = Status(StatusCode::kLithoNumeric,
                  "ILT diverged (non-finite lithography output) on clip '" +
                      res.id + "'");
    return false;
  }
  if (std::isfinite(r.l2_px) && r.l2_px <= accept_l2) {
    accept(stage, r.mask, r.l2_px, res, mask_out);
    return true;
  }
  if (r.termination == ilt::TerminationReason::kDeadlineExceeded) {
    last = Status(StatusCode::kDeadlineExceeded,
                  "clip '" + res.id +
                      "' hit its deadline before reaching an acceptable mask");
    return false;
  }
  last = Status(StatusCode::kIltStalled,
                std::string("ILT finished (") +
                    ilt::termination_reason_name(r.termination) + ") at L2 " +
                    format_g(r.l2_px) + " px, above the acceptance gate " +
                    format_g(accept_l2) + " px");
  return false;
}

bool Engine::attempt_mbopc(const geom::Layout& clip, double accept_l2,
                           BatchClipResult& res, Status& last,
                           geom::Grid* mask_out) const {
  GANOPC_OBS_SPAN("batch.attempt_mbopc");
  const mbopc::MbOpcEngine engine(sim_, mbopc::MbOpcConfig{});
  const mbopc::MbOpcResult r = engine.optimize(clip);
  if (!std::isfinite(r.l2_px)) {
    last = Status(StatusCode::kLithoNumeric,
                  "MB-OPC produced a non-finite L2 on clip '" + res.id + "'");
    return false;
  }
  if (r.l2_px <= accept_l2) {
    accept(BatchStage::MbOpc, r.mask, r.l2_px, res, mask_out);
    return true;
  }
  last = Status(StatusCode::kIltStalled,
                "MB-OPC fallback finished at L2 " + format_g(r.l2_px) +
                    " px, above the acceptance gate " + format_g(accept_l2) + " px");
  return false;
}

void Engine::accept(BatchStage stage, const geom::Grid& mask, double l2_px,
                    BatchClipResult& res, geom::Grid* mask_out) const {
  res.code = StatusCode::kOk;
  res.error.clear();
  res.stage = stage;
  res.l2_px = l2_px;
  const double px_area =
      static_cast<double>(sim_.pixel_nm()) * static_cast<double>(sim_.pixel_nm());
  res.l2_nm2 = l2_px * px_area;
  res.pvb_nm2 = sim_.pv_band(mask).area_nm2;
  if (mask_out != nullptr) *mask_out = mask;
}

geom::Grid Engine::gan_initial_mask(const geom::Grid& target) const {
  const geom::Grid target_gan = geom::downsample_avg(target, config_.pool_factor());
  const geom::Grid mask_gan = generator_->infer(target_gan);
  return geom::upsample_bilinear(mask_gan, config_.pool_factor());
}

void Engine::perturb(geom::Grid& mask, const std::string& id, int attempt) const {
  // FNV-1a over the clip id keeps the perturbation stream deterministic per
  // (seed, clip, attempt) and independent of batch order or platform.
  Prng rng(policy_.seed ^ fnv1a64(id) ^
           (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt)));
  const double amp = kPerturbAmplitude;
  for (auto& v : mask.data)
    v = std::clamp(v + static_cast<float>(rng.uniform(-amp, amp)), 0.0f, 1.0f);
}

}  // namespace ganopc::engine
