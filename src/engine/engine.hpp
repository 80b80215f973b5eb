// ganopc::engine::Engine — the embeddable mask-optimization session
// (DESIGN.md §15).
//
// An Engine is one long-lived session that owns everything a mask
// optimization needs: the validated GanOpcConfig, the lithography simulator
// (built once through a pluggable litho backend — Abbe reference kernels or
// truncated-TCC eigen-kernels) and the optional generator weights. Litho
// scratch is the calling thread's `litho::thread_workspace()`, whose buffers
// stay warm across submissions.
// `submit(clip, options) -> MaskResult` is the single entry point; the CLI's
// one-shot `ganopc optimize`, the batch runner, and the serve daemon's
// sandboxed workers all call it, so a clip produces bit-identical results no
// matter which front-end carried it in (the tier-1 contract test pins this).
//
// Each submission walks the graceful degradation chain
//
//   GAN+ILT (when a generator is attached)
//     -> ILT from scratch (the conventional [7] flow)
//       -> MB-OPC (gradient-free, immune to litho numeric faults)
//         -> reported failure with diagnostics
//
// with bounded perturbed-restart retries at each gradient-based rung (paced
// by exponential backoff with deterministic jitter) and a per-clip wall-clock
// deadline threaded into the ILT watchdog. Faults never escape submit(): a
// corrupt clip file, a numeric fault, a blown deadline each land as a typed
// Status on the returned row.
//
// An Engine is NOT thread-safe: callers serialize submit() (batch mode runs
// clips sequentially per process; supervised/serve workers are separate
// forked processes, each with its own copy of the session).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "core/generator.hpp"
#include "engine/result.hpp"
#include "geometry/layout.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::engine {

/// Per-submission policy: retries, fallback, acceptance gate, pacing. Owned
/// by the session (it shapes every submission identically, which is what
/// makes journal replay and the bit-identity contract possible); the batch
/// journal records these fields in its meta section.
struct SubmitPolicy {
  double clip_deadline_s = 0.0;    ///< wall-clock budget per clip (0 = none)
  int max_retries = 1;             ///< perturbed restarts per gradient rung
  bool allow_fallback = true;      ///< walk the chain past the first rung
  /// Accept a mask when its L2 <= factor * L2(uncorrected print of target).
  /// 0 accepts any finite L2.
  float l2_accept_factor = 1.0f;
  std::uint64_t seed = 1847;       ///< perturbation stream seed

  /// Base of the retry backoff sleep before each perturbed restart
  /// (deterministic jitter keyed on seed + clip id; see common/backoff).
  double retry_backoff_base_s = 0.025;
};

/// Everything needed to open a session. `config` is validated on
/// construction; the litho simulator is built through `backend`
/// (parse_litho_backend understands the --litho-backend spelling). A
/// generator is attached either by loading `generator_path` into
/// session-owned weights or by pointing `generator` at caller-owned weights
/// (the non-null pointer wins; both empty/null = no GAN rung).
struct EngineOptions {
  core::GanOpcConfig config;
  litho::ResistConfig resist;
  litho::LithoBackendSpec backend;
  std::string generator_path;
  core::Generator* generator = nullptr;
  SubmitPolicy policy;
};

/// Per-submission knobs beyond the session policy.
struct SubmitOptions {
  /// Overrides SubmitPolicy::clip_deadline_s when >= 0 (0 = no deadline); a
  /// serve request's remaining budget lands here and flows into the ILT
  /// watchdog unchanged.
  double deadline_s = -1.0;
  /// Drops this many rungs off the front of the degradation chain (counted
  /// as fallbacks) — supervised mode passes the clip's crash count so a clip
  /// that killed a worker retries one rung more conservatively.
  int start_rung = 0;
  /// Also return the accepted mask pixels (empty on failure). Batch mode
  /// leaves this off — only metrics reach the manifest.
  bool want_mask = false;
  /// Request trace context (DESIGN.md §16): when trace_id != 0, submit()
  /// installs it thread-locally so its batch.*/litho.*/ilt.* spans nest
  /// under `parent_span` — the serve worker threads the context it received
  /// over the proc wire through here, the CLI mints a fresh root.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// What a submission returns: the manifest row plus (on request) the mask.
struct MaskResult {
  BatchClipResult row;
  geom::Grid mask;  ///< filled when SubmitOptions::want_mask and row.ok()
};

class Engine {
 public:
  /// Opens the session: validates the config, builds the litho kernels
  /// through the backend, loads/attaches the generator. Throws a typed
  /// StatusError on an invalid config/policy, an unreadable generator file,
  /// or a TCC backend that cannot meet its captured-energy floor.
  explicit Engine(EngineOptions options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Optimize one clip through the degradation chain. Never throws for
  /// per-clip faults — the row's code/error carry the diagnosis. Not
  /// thread-safe (see file comment).
  MaskResult submit(const BatchClip& clip, const SubmitOptions& opts = {}) const;

  const core::GanOpcConfig& config() const { return config_; }
  const SubmitPolicy& policy() const { return policy_; }
  const litho::LithoSim& sim() const { return sim_; }
  core::Generator* generator() const { return generator_; }
  /// Stable backend display name ("abbe", "tcc", "tcc:<k>").
  const std::string& backend_name() const { return backend_name_; }

 private:
  static litho::LithoSim build_sim(const EngineOptions& options);

  void optimize_clip(const geom::Layout& clip, double deadline_s,
                     BatchClipResult& res, const WallTimer& timer,
                     int start_rung, geom::Grid* mask_out) const;
  bool attempt_ilt(BatchStage stage, const geom::Grid& target, double accept_l2,
                   double remaining_s, int attempt, BatchClipResult& res,
                   Status& last, geom::Grid* mask_out) const;
  bool attempt_mbopc(const geom::Layout& clip, double accept_l2,
                     BatchClipResult& res, Status& last,
                     geom::Grid* mask_out) const;
  void accept(BatchStage stage, const geom::Grid& mask, double l2_px,
              BatchClipResult& res, geom::Grid* mask_out) const;
  geom::Grid gan_initial_mask(const geom::Grid& target) const;
  void perturb(geom::Grid& mask, const std::string& id, int attempt) const;

  core::GanOpcConfig config_;
  SubmitPolicy policy_;
  std::string backend_name_;
  litho::LithoSim sim_;
  std::unique_ptr<core::Generator> owned_generator_;
  core::Generator* generator_ = nullptr;
};

}  // namespace ganopc::engine
