#include "core/trainer.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "geometry/bitmap_ops.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace ganopc::core {

namespace {

bool tensor_finite(const nn::Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i)
    if (!std::isfinite(t[i])) return false;
  return true;
}

bool grads_finite(const std::vector<nn::Param>& params) {
  for (const auto& p : params)
    if (p.grad && !tensor_finite(*p.grad)) return false;
  return true;
}

std::vector<nn::Tensor> copy_values(const std::vector<nn::Param>& params) {
  std::vector<nn::Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(*p.value);
  return out;
}

void restore_values(const std::vector<nn::Param>& params,
                    const std::vector<nn::Tensor>& values) {
  GANOPC_CHECK(params.size() == values.size());
  for (std::size_t i = 0; i < params.size(); ++i) *params[i].value = values[i];
}

}  // namespace

/// Everything a retried step must rewind: weights, batch-norm buffers,
/// already-stepped Adam moments (adversarial phase only — D steps before
/// G's guard fires) and the Prng stream position.
struct GanOpcTrainer::StepSnapshot {
  std::vector<nn::Tensor> gen_values, gen_buffers;
  std::vector<nn::Tensor> disc_values, disc_buffers;
  std::int64_t g_t = 0, d_t = 0;
  std::vector<nn::Tensor> g_m, g_v, d_m, d_v;
  Prng::State rng{};
  bool has_discriminator = false;
};

GanOpcTrainer::GanOpcTrainer(const GanOpcConfig& config, Generator& generator,
                             Discriminator& discriminator, const Dataset& dataset,
                             const litho::LithoSim& sim, Prng& rng)
    : config_(config),
      generator_(generator),
      discriminator_(discriminator),
      dataset_(dataset),
      sim_(sim),
      rng_(rng) {
  config.validate();
  GANOPC_CHECK_MSG(dataset.size() > 0, "trainer: empty dataset");
  GANOPC_CHECK_MSG(generator.image_size() == config.gan_grid,
                   "trainer: generator size mismatch");
  g_opt_ = std::make_unique<nn::Adam>(generator_.parameters(), config.lr_generator);
  d_opt_ = std::make_unique<nn::Adam>(discriminator_.parameters(), config.lr_discriminator);
  pre_opt_ = std::make_unique<nn::Adam>(generator_.parameters(), config.pretrain_lr);
}

GanOpcTrainer::StepSnapshot GanOpcTrainer::capture_step_state(
    bool include_discriminator) const {
  StepSnapshot snap;
  snap.gen_values = copy_values(generator_.parameters());
  snap.gen_buffers = copy_values(generator_.buffers());
  snap.rng = rng_.state();
  if (include_discriminator) {
    snap.has_discriminator = true;
    snap.disc_values = copy_values(discriminator_.parameters());
    snap.disc_buffers = copy_values(discriminator_.buffers());
    snap.g_t = g_opt_->step_count();
    snap.g_m = g_opt_->first_moments();
    snap.g_v = g_opt_->second_moments();
    snap.d_t = d_opt_->step_count();
    snap.d_m = d_opt_->first_moments();
    snap.d_v = d_opt_->second_moments();
  }
  return snap;
}

void GanOpcTrainer::rollback_step(const StepSnapshot& snapshot, TrainStats& stats,
                                  int iteration, int attempts, const char* what) {
  restore_values(generator_.parameters(), snapshot.gen_values);
  restore_values(generator_.buffers(), snapshot.gen_buffers);
  generator_.net().zero_grad();
  if (snapshot.has_discriminator) {
    restore_values(discriminator_.parameters(), snapshot.disc_values);
    restore_values(discriminator_.buffers(), snapshot.disc_buffers);
    discriminator_.net().zero_grad();
    g_opt_->restore_state(snapshot.g_t, snapshot.g_m, snapshot.g_v);
    d_opt_->restore_state(snapshot.d_t, snapshot.d_m, snapshot.d_v);
  }
  rng_.set_state(snapshot.rng);
  lr_scale_ *= kDivergenceLrBackoff;
  ++stats.divergence_rollbacks;
  if (obs::metrics_enabled()) obs::counter("trainer.rollbacks").inc();
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("rollback");
    rec.field("phase", phase_ == TrainPhase::Pretrain ? "pretrain" : "adversarial")
        .field("iter", iteration)
        .field("attempt", attempts)
        .field("what", what)
        .field("lr_scale", static_cast<double>(lr_scale_));
    obs::ledger_emit(rec);
    obs::flight_dump("trainer.rollback");
  }
  GANOPC_WARN("trainer: non-finite " << what << " at iteration " << iteration
                                     << "; rolled back (attempt " << attempts
                                     << "), lr scale now " << lr_scale_);
}

TrainStats GanOpcTrainer::run_phase(TrainPhase phase, int iterations,
                                    const TrainRunOptions& options, const StepFn& step) {
  const bool adversarial = phase == TrainPhase::Adversarial;
  const char* call = adversarial ? "train" : "pretrain";
  GANOPC_CHECK(iterations >= 0);
  GANOPC_CHECK(options.checkpoint_every >= 0);
  // Resume rule: a later phase's checkpoint is rejected, the same phase's
  // continues where it stopped, and the earlier phase's must be complete;
  // this phase then starts with an empty history.
  int start = 0;
  if (resume_pending_) {
    GANOPC_CHECK_MSG(phase_ <= phase,
                     "resumed checkpoint is in the adversarial phase; call train()");
    if (phase_ == phase) {
      GANOPC_CHECK_MSG(next_iteration_ <= iterations,
                       "resumed " << (adversarial ? "adversarial" : "pretrain")
                                  << " checkpoint is at iteration " << next_iteration_
                                  << ", beyond the requested " << iterations);
      start = next_iteration_;
    } else {
      GANOPC_CHECK_MSG(next_iteration_ >= total_iterations_,
                       "resumed checkpoint is mid-pretrain (iteration "
                           << next_iteration_ << "/" << total_iterations_
                           << "); run pretrain() first");
      phase_stats_ = TrainStats{};
    }
    resume_pending_ = false;
  } else {
    phase_stats_ = TrainStats{};
  }
  phase_ = phase;
  total_iterations_ = iterations;
  next_iteration_ = start;

  TrainStats& stats = phase_stats_;
  WallTimer timer;
  generator_.set_training(true);
  if (adversarial) discriminator_.set_training(true);
  const obs::SpanSite& step_site = obs::span_site(std::string("trainer.") + call + ".step");

  for (int it = start; it < iterations; ++it) {
    const obs::ObsSpan span(step_site);
    if (options.stop && options.stop->load()) {
      stats.interrupted = true;
      stats.seconds += timer.seconds();
      if (!options.checkpoint_path.empty()) {
        save_checkpoint(options.checkpoint_path);
        GANOPC_INFO(call << " interrupted at iteration " << it << "; checkpoint flushed to "
                         << options.checkpoint_path);
      }
      return stats;
    }
    next_iteration_ = it;
    const StepSnapshot snapshot = capture_step_state(adversarial);
    int attempts = 0;
    while (const char* what = step(it, stats)) {
      ++attempts;
      GANOPC_CHECK_MSG(attempts <= kMaxDivergenceRetries,
                       call << " diverged: non-finite " << what << " at iteration " << it
                            << " after " << attempts << " rollbacks");
      rollback_step(snapshot, stats, it, attempts, what);
    }
    next_iteration_ = it + 1;
    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (it + 1) % options.checkpoint_every == 0 && it + 1 < iterations)
      save_checkpoint(options.checkpoint_path);
  }
  stats.seconds += timer.seconds();
  next_iteration_ = iterations;
  if (!options.checkpoint_path.empty()) save_checkpoint(options.checkpoint_path);
  return stats;
}

TrainStats GanOpcTrainer::pretrain(int iterations, const TrainRunOptions& options) {
  const int m = config_.batch_size;
  const std::int32_t pool = config_.pool_factor();
  const std::int64_t gan_plane =
      static_cast<std::int64_t>(config_.gan_grid) * config_.gan_grid;
  const WallTimer timer;
  const auto step = [&](int it, TrainStats& stats) -> const char* {
    pre_opt_->set_learning_rate(config_.pretrain_lr * lr_scale_);
    nn::Tensor targets, masks_ref;
    dataset_.sample_batch(rng_, m, targets, masks_ref);
    // M <- G(Z_t)
    const nn::Tensor masks = generator_.forward(targets);
    // For each instance: upsample, simulate, compute E, pull dE/dM back down.
    nn::Tensor grad_masks(masks.shape());
    double litho_err = 0.0;
    for (int j = 0; j < m; ++j) {
      geom::Grid mask_gan(config_.gan_grid, config_.gan_grid, config_.gan_pixel_nm());
      std::copy(masks.data() + j * gan_plane, masks.data() + (j + 1) * gan_plane,
                mask_gan.data.begin());
      const geom::Grid mask_litho = geom::upsample_bilinear(mask_gan, pool);

      // The litho-resolution target is the sampled GAN-resolution target
      // nearest-upsampled by the pool factor and thresholded at 0.5 (the
      // pooled target is fractional along edges).
      geom::Grid target_gan(config_.gan_grid, config_.gan_grid, config_.gan_pixel_nm());
      std::copy(targets.data() + j * gan_plane, targets.data() + (j + 1) * gan_plane,
                target_gan.data.begin());
      geom::Grid target_litho = geom::upsample_nearest(target_gan, pool);
      geom::binarize(target_litho);

      const auto fwd = sim_.forward_relaxed(mask_litho, target_litho);
      litho_err += fwd.error;
      // dE/dM at litho res (Eq. 14 core), then through the interpolation.
      const geom::Grid grad_litho = sim_.gradient(mask_litho, target_litho);
      const geom::Grid grad_gan = geom::upsample_bilinear_adjoint(grad_litho, pool, mask_gan);
      // Mean over the mini-batch (Eq. 15's 1/m).
      for (std::int64_t i = 0; i < gan_plane; ++i)
        grad_masks[j * gan_plane + i] = grad_gan.data[i] / static_cast<float>(m);
    }
    if (GANOPC_FAILPOINT("trainer.pretrain_grad"))
      grad_masks[0] = std::numeric_limits<float>::quiet_NaN();
    if (!std::isfinite(litho_err) || !tensor_finite(grad_masks)) return "litho gradient";
    generator_.backward(grad_masks);
    if (!grads_finite(generator_.parameters())) return "parameter gradient";
    pre_opt_->step();
    stats.litho_history.push_back(static_cast<float>(litho_err / m));

    // Also record the Eq. (9) L2 to ground truth for curve comparability.
    float l2 = 0.0f;
    for (std::int64_t i = 0; i < masks.numel(); ++i) {
      const float d = masks[i] - masks_ref[i];
      l2 += d * d;
    }
    stats.l2_history.push_back(l2 / static_cast<float>(m));
    if (obs::ledger_enabled()) {
      obs::LedgerRecord rec("train_step");
      rec.field("phase", "pretrain")
          .field("iter", it)
          .field("loss", static_cast<double>(stats.litho_history.back()))
          .field("l2", static_cast<double>(stats.l2_history.back()))
          .field("lr", static_cast<double>(config_.pretrain_lr * lr_scale_))
          .field("wall_s", timer.seconds());
      obs::ledger_emit(rec);
    }
    return nullptr;
  };
  return run_phase(TrainPhase::Pretrain, iterations, options, step);
}

TrainStats GanOpcTrainer::train(int iterations, const TrainRunOptions& options) {
  const int m = config_.batch_size;
  nn::Tensor real_labels({static_cast<std::int64_t>(m), 1});
  real_labels.fill(1.0f);
  const nn::Tensor fake_labels({static_cast<std::int64_t>(m), 1});
  const WallTimer timer;
  const auto step = [&](int it, TrainStats& stats) -> const char* {
    g_opt_->set_learning_rate(config_.lr_generator * lr_scale_);
    d_opt_->set_learning_rate(config_.lr_discriminator * lr_scale_);
    nn::Tensor targets, masks_ref;
    dataset_.sample_batch(rng_, m, targets, masks_ref);

    // ---- discriminator update: push D(Z_t, M*) -> 1, D(Z_t, G(Z_t)) -> 0.
    const nn::Tensor masks_fake = generator_.forward(targets);
    nn::Tensor grad_logits;
    const nn::Tensor logits_fake = discriminator_.forward(targets, masks_fake);
    const float d_loss_fake = nn::bce_with_logits_loss(logits_fake, fake_labels, grad_logits);
    discriminator_.backward_to_mask(grad_logits);  // mask grad discarded: detached G
    const nn::Tensor logits_real = discriminator_.forward(targets, masks_ref);
    const float d_loss_real = nn::bce_with_logits_loss(logits_real, real_labels, grad_logits);
    discriminator_.backward_to_mask(grad_logits);
    if (!std::isfinite(d_loss_fake) || !std::isfinite(d_loss_real) ||
        !grads_finite(discriminator_.parameters()))
      return "discriminator loss";
    d_opt_->step();

    // ---- generator update: l_g = -log D(Z_t, M) + alpha ||M* - M||_2^2.
    const nn::Tensor masks = generator_.forward(targets);
    const nn::Tensor logits = discriminator_.forward(targets, masks);
    nn::Tensor grad_adv_logits;
    const float g_adv = nn::generator_adv_loss(logits, grad_adv_logits);
    nn::Tensor grad_mask_adv = discriminator_.backward_to_mask(grad_adv_logits);
    d_opt_->zero_grad();  // discard D gradients produced on G's behalf

    // Algorithm 1 line 7 uses the *un-normalized* squared L2 per instance;
    // average over the mini-batch only (Eq. 15's 1/m).
    nn::Tensor grad_mask_l2;
    const float l2_total = nn::sse_loss(masks, masks_ref, grad_mask_l2);
    grad_mask_adv.add_scaled_(grad_mask_l2, config_.alpha_l2 / static_cast<float>(m));
    if (GANOPC_FAILPOINT("trainer.train_grad"))
      grad_mask_adv[0] = std::numeric_limits<float>::quiet_NaN();
    if (!std::isfinite(g_adv) || !std::isfinite(l2_total) || !tensor_finite(grad_mask_adv))
      return "generator loss/gradient";
    generator_.backward(grad_mask_adv);
    g_opt_->step();

    // Figure 7's y-axis: mean per-instance squared L2 to the reference mask.
    stats.l2_history.push_back(l2_total / static_cast<float>(m));
    stats.g_adv_history.push_back(g_adv);
    stats.d_loss_history.push_back(d_loss_fake + d_loss_real);
    if (obs::ledger_enabled()) {
      obs::LedgerRecord rec("train_step");
      rec.field("phase", "adversarial")
          .field("iter", it)
          .field("l2", static_cast<double>(stats.l2_history.back()))
          .field("g_adv", static_cast<double>(g_adv))
          .field("d_loss", static_cast<double>(stats.d_loss_history.back()))
          .field("lr", static_cast<double>(config_.lr_generator * lr_scale_))
          .field("wall_s", timer.seconds());
      obs::ledger_emit(rec);
    }
    return nullptr;
  };
  return run_phase(TrainPhase::Adversarial, iterations, options, step);
}

}  // namespace ganopc::core
