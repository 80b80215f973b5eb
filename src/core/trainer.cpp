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

TrainStats GanOpcTrainer::pretrain(int iterations, const TrainRunOptions& options) {
  GANOPC_CHECK(iterations >= 0);
  GANOPC_CHECK(options.checkpoint_every >= 0);
  int start = 0;
  if (resume_pending_) {
    GANOPC_CHECK_MSG(phase_ != TrainPhase::Adversarial,
                     "resumed checkpoint is in the adversarial phase; call train()");
    GANOPC_CHECK_MSG(next_iteration_ <= iterations,
                     "resumed pretrain checkpoint is at iteration "
                         << next_iteration_ << ", beyond the requested " << iterations);
    start = next_iteration_;
    resume_pending_ = false;
  } else {
    phase_stats_ = TrainStats{};
  }
  phase_ = TrainPhase::Pretrain;
  total_iterations_ = iterations;
  next_iteration_ = start;

  TrainStats& stats = phase_stats_;
  WallTimer timer;
  const int m = config_.batch_size;
  const std::int32_t pool = config_.pool_factor();
  const std::int64_t gan_plane =
      static_cast<std::int64_t>(config_.gan_grid) * config_.gan_grid;
  generator_.set_training(true);

  for (int it = start; it < iterations; ++it) {
    GANOPC_OBS_SPAN("trainer.pretrain.step");
    if (options.stop && options.stop->load()) {
      stats.interrupted = true;
      stats.seconds += timer.seconds();
      if (!options.checkpoint_path.empty()) {
        save_checkpoint(options.checkpoint_path);
        GANOPC_INFO("pretrain interrupted at iteration " << it << "; checkpoint flushed to "
                                                         << options.checkpoint_path);
      }
      return stats;
    }
    next_iteration_ = it;
    const StepSnapshot snapshot = capture_step_state(false);
    int attempts = 0;
    for (;;) {
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

        // Target at litho resolution: use the example's own pooled target
        // up-threshold? The dataset stores litho targets; match by content.
        // Here we reconstruct the litho target from the GAN-resolution target
        // by nearest up-sampling of the binary pattern — the pooled target is
        // fractional at edges, so threshold at 0.5.
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

      bool bad = !std::isfinite(litho_err) || !tensor_finite(grad_masks);
      const char* what = "litho gradient";
      if (!bad) {
        generator_.backward(grad_masks);
        if (!grads_finite(generator_.parameters())) {
          bad = true;
          what = "parameter gradient";
        }
      }
      if (bad) {
        ++attempts;
        GANOPC_CHECK_MSG(attempts <= kMaxDivergenceRetries,
                         "pretrain diverged: non-finite " << what << " at iteration " << it
                                                          << " after " << attempts
                                                          << " rollbacks");
        rollback_step(snapshot, stats, it, attempts, what);
        continue;
      }
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
      break;
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

TrainStats GanOpcTrainer::train(int iterations, const TrainRunOptions& options) {
  GANOPC_CHECK(iterations >= 0);
  GANOPC_CHECK(options.checkpoint_every >= 0);
  int start = 0;
  if (resume_pending_) {
    if (phase_ == TrainPhase::Pretrain) {
      GANOPC_CHECK_MSG(next_iteration_ >= total_iterations_,
                       "resumed checkpoint is mid-pretrain (iteration "
                           << next_iteration_ << "/" << total_iterations_
                           << "); run pretrain() first");
      phase_stats_ = TrainStats{};  // pretrain complete; adversarial starts fresh
    } else {
      GANOPC_CHECK_MSG(next_iteration_ <= iterations,
                       "resumed adversarial checkpoint is at iteration "
                           << next_iteration_ << ", beyond the requested " << iterations);
      start = next_iteration_;
    }
    resume_pending_ = false;
  } else {
    phase_stats_ = TrainStats{};
  }
  phase_ = TrainPhase::Adversarial;
  total_iterations_ = iterations;
  next_iteration_ = start;

  TrainStats& stats = phase_stats_;
  WallTimer timer;
  const int m = config_.batch_size;
  generator_.set_training(true);
  discriminator_.set_training(true);

  nn::Tensor real_labels({static_cast<std::int64_t>(m), 1});
  real_labels.fill(1.0f);
  nn::Tensor fake_labels({static_cast<std::int64_t>(m), 1});

  for (int it = start; it < iterations; ++it) {
    GANOPC_OBS_SPAN("trainer.train.step");
    if (options.stop && options.stop->load()) {
      stats.interrupted = true;
      stats.seconds += timer.seconds();
      if (!options.checkpoint_path.empty()) {
        save_checkpoint(options.checkpoint_path);
        GANOPC_INFO("train interrupted at iteration " << it << "; checkpoint flushed to "
                                                      << options.checkpoint_path);
      }
      return stats;
    }
    next_iteration_ = it;
    const StepSnapshot snapshot = capture_step_state(true);
    int attempts = 0;
    for (;;) {
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
          !grads_finite(discriminator_.parameters())) {
        ++attempts;
        GANOPC_CHECK_MSG(attempts <= kMaxDivergenceRetries,
                         "train diverged: non-finite discriminator loss at iteration "
                             << it << " after " << attempts << " rollbacks");
        rollback_step(snapshot, stats, it, attempts, "discriminator loss");
        continue;
      }
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
      if (!std::isfinite(g_adv) || !std::isfinite(l2_total) ||
          !tensor_finite(grad_mask_adv)) {
        ++attempts;
        GANOPC_CHECK_MSG(attempts <= kMaxDivergenceRetries,
                         "train diverged: non-finite generator loss/gradient at iteration "
                             << it << " after " << attempts << " rollbacks");
        rollback_step(snapshot, stats, it, attempts, "generator loss/gradient");
        continue;
      }
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
      break;
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

}  // namespace ganopc::core
