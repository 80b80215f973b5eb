// Training strategies for GAN-OPC.
//
// GanOpcTrainer::pretrain  — Algorithm 2 (ILT-guided pre-training): the
//   lithography error gradient dE/dM flows from the litho engine through the
//   bilinear-interpolation adjoint into the generator's weights.
// GanOpcTrainer::train     — Algorithm 1 (adversarial training with the
//   combined objective Eq. 10): alternating D / G mini-batch updates, with
//   l_g = -log D(Z_t, G(Z_t)) + alpha ||M* - G(Z_t)||_2^2.
//
// Both phases hold only their step body and run it through one crash-safe
// loop, run_phase() (DESIGN.md §8): it resumes from a GOPCNET2 checkpoint of
// the complete training state (weights, batch-norm buffers, Adam moments,
// Prng stream, iteration counter, loss history), honors a cooperative stop
// flag by flushing a final checkpoint, checkpoints periodically, and guards
// every step with a non-finite loss/gradient check that rolls the step back
// and backs off the learning rate before retrying.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "litho/lithosim.hpp"
#include "nn/optimizer.hpp"

namespace ganopc::core {

struct TrainStats {
  /// Mean per-instance ||M* - G(Z_t)||_2^2 at each iteration (the y-axis of
  /// Figure 7).
  std::vector<float> l2_history;
  std::vector<float> g_adv_history;   ///< generator adversarial loss
  std::vector<float> d_loss_history;  ///< discriminator loss
  std::vector<float> litho_history;   ///< pretraining litho error E (Alg. 2)
  double seconds = 0.0;
  bool interrupted = false;           ///< stopped early via TrainRunOptions::stop
  int divergence_rollbacks = 0;       ///< non-finite steps rolled back + retried
};

/// Non-finite loss/gradient guard, armed in every run: rollbacks allowed per
/// iteration before the run throws ganopc::Error.
inline constexpr int kMaxDivergenceRetries = 3;
/// Learning-rate multiplier applied at each rollback (persists for the rest
/// of the run and across resume).
inline constexpr float kDivergenceLrBackoff = 0.5f;

/// Per-run checkpoint and stop options for pretrain() / train(). The defaults
/// do no checkpointing.
struct TrainRunOptions {
  /// Checkpoint file; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Save every N completed iterations (0 = only on stop / completion).
  int checkpoint_every = 0;
  /// Cooperative stop: when *stop becomes true the run flushes a final
  /// checkpoint (if a path is set) and returns with interrupted = true.
  const std::atomic<bool>* stop = nullptr;
};

/// Where a checkpoint was taken. Pretrain is Algorithm 2, Adversarial is
/// Algorithm 1; a checkpoint in the Adversarial phase implies pre-training
/// already completed.
enum class TrainPhase : std::uint32_t { None = 0, Pretrain = 1, Adversarial = 2 };

/// Summary returned by GanOpcTrainer::resume().
struct ResumeInfo {
  TrainPhase phase = TrainPhase::None;
  int next_iteration = 0;   ///< first iteration not yet run in that phase
  int total_iterations = 0; ///< the phase's planned length when checkpointed
};

class GanOpcTrainer {
 public:
  /// `sim` must run at config.litho_grid resolution; it is used only by
  /// pretrain(). Generator/discriminator operate at config.gan_grid.
  GanOpcTrainer(const GanOpcConfig& config, Generator& generator,
                Discriminator& discriminator, const Dataset& dataset,
                const litho::LithoSim& sim, Prng& rng);

  /// Algorithm 2: ILT-guided pre-training of the generator.
  TrainStats pretrain(int iterations, const TrainRunOptions& options = {});

  /// Algorithm 1: adversarial training with fixed-rate Adam. Records the
  /// Eq. (9) L2 per iteration for the Figure 7 curves.
  TrainStats train(int iterations, const TrainRunOptions& options = {});

  /// Restore a GOPCNET2 training checkpoint written by a previous run. The
  /// next pretrain()/train() call continues from the saved iteration with
  /// bit-identical weights, optimizer moments, Prng stream and loss history.
  /// Throws ganopc::Error if the file is corrupt or was written for a
  /// different configuration.
  ResumeInfo resume(const std::string& path);

  /// Snapshot the complete training state to `path` (atomic write). Called
  /// automatically per TrainRunOptions; public for ad-hoc saves.
  void save_checkpoint(const std::string& path) const;

 private:
  friend struct TrainerCheckpointCodec;

  /// One training iteration: runs iteration `it`, appending to `stats`, and
  /// returns nullptr, or the name of the non-finite value that makes the
  /// step roll back and retry.
  using StepFn = std::function<const char*(int it, TrainStats& stats)>;
  /// The crash-safe loop both phases share: resume, stop flush, per-step
  /// snapshot/rollback/retry, periodic and final checkpoints.
  TrainStats run_phase(TrainPhase phase, int iterations, const TrainRunOptions& options,
                       const StepFn& step);

  struct StepSnapshot;
  StepSnapshot capture_step_state(bool include_discriminator) const;
  void rollback_step(const StepSnapshot& snapshot, TrainStats& stats, int iteration,
                     int attempts, const char* what);

  const GanOpcConfig& config_;
  Generator& generator_;
  Discriminator& discriminator_;
  const Dataset& dataset_;
  const litho::LithoSim& sim_;
  Prng& rng_;
  std::unique_ptr<nn::Adam> g_opt_;
  std::unique_ptr<nn::Adam> d_opt_;
  std::unique_ptr<nn::Adam> pre_opt_;

  // Crash-safety bookkeeping (persisted in checkpoints).
  TrainPhase phase_ = TrainPhase::None;  ///< phase of the state below
  int next_iteration_ = 0;               ///< first iteration not yet run
  int total_iterations_ = 0;             ///< planned length of the phase
  float lr_scale_ = 1.0f;                ///< cumulative divergence backoff
  TrainStats phase_stats_;               ///< history accumulated in phase_
  bool resume_pending_ = false;          ///< resume() loaded state not yet consumed
};

}  // namespace ganopc::core
