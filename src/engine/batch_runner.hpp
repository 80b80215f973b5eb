// Fault-tolerant batch orchestration over an Engine session (DESIGN.md §9).
//
// BatchRunner executes N clips with per-clip isolation by driving
// Engine::submit for each one: a clip's failure — a corrupt GDS, a numeric
// fault inside the litho engine, a stalled or diverging ILT run — is captured
// as a typed Status on that clip's manifest row while every other clip
// completes normally. The degradation chain, retries, acceptance gate and
// deadlines live in the Engine's SubmitPolicy; this layer owns everything
// batch-shaped: input ordering, the crash-safe journal, resume replay,
// graceful drain, and the supervised worker pool.
//
// When a journal path is set the runner atomically rewrites a sectioned
// container (magic GOPCBAT1, per-section + whole-file CRC32) after every
// clip, so a SIGKILL mid-batch loses at most the in-flight clip: rerunning
// with resume=true replays journaled results and recomputes only the rest.
//
// Supervised mode (workers > 0, DESIGN.md §13) adds *process* isolation on
// top: clips are dispatched to N sandboxed forked workers via
// proc::Supervisor, so a SIGSEGV / OOM kill / hang destroys one worker —
// which is restarted — instead of the batch. A clip that crashes
// `quarantine_kills` workers is quarantined (StatusCode::kQuarantined row),
// and each crash a clip survives drops one rung off its degradation chain
// (a clip that killed a worker during GAN+ILT restarts at plain ILT).
// Results are journaled in completion order as they stream back, keyed by
// clip id, so a supervised run resumes exactly like a sequential one.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/result.hpp"

namespace ganopc {
class ByteWriter;
}

namespace ganopc::engine {

/// Batch-level knobs. Per-clip policy (deadline, retries, acceptance gate,
/// perturbation) lives in the Engine's SubmitPolicy.
struct BatchConfig {
  std::string journal_path;        ///< crash-safe journal ("" disables it)
  bool resume = false;             ///< replay clips already in the journal
  /// Zero every wall-clock field before journaling/manifesting so an
  /// interrupted-and-resumed run is bit-identical to an uninterrupted one.
  bool deterministic_manifest = false;

  // ---- supervised mode (process isolation via proc::Supervisor) ----
  /// 0 = run clips in-process (the default); >= 1 forks that many sandboxed
  /// worker subprocesses and dispatches clips over pipes.
  int workers = 0;
  /// A clip that crashes this many workers is quarantined, not retried.
  int quarantine_kills = 3;
  /// Per-clip wall deadline enforced by supervisor SIGKILL (0 = none).
  /// Unlike the policy's clip_deadline_s — which the in-process watchdog
  /// honors cooperatively — this one catches a wedged worker that stopped
  /// checking.
  double task_deadline_s = 0.0;
  int worker_mem_mb = 0;  ///< per-worker RLIMIT_DATA cap in MiB (0 = none)
  int worker_cpu_s = 0;   ///< per-worker RLIMIT_CPU cap in seconds (0 = none)

  /// Optional graceful-drain flag (SIGTERM handler). Once it reads true the
  /// run stops starting new clips, lets in-flight work finish (bounded by the
  /// usual deadlines), and reports the untouched remainder as kCancelled rows
  /// that are *not* journaled — a later --resume run recomputes exactly them.
  const std::atomic<bool>* stop = nullptr;
};

struct BatchSummary {
  std::vector<BatchClipResult> clips;  ///< one row per input, input order
  int succeeded = 0;
  int failed = 0;
  int resumed = 0;      ///< rows replayed from the journal
  int quarantined = 0;  ///< rows with code kQuarantined (subset of failed)
  int cancelled = 0;    ///< rows drained as kCancelled (subset of failed)
  int worker_deaths = 0;  ///< supervised mode: worker processes lost
  bool drained = false;   ///< the stop flag ended the run early
};

class BatchRunner {
 public:
  /// The engine must outlive the runner; its SubmitPolicy shapes every clip.
  BatchRunner(const Engine& engine, BatchConfig batch);

  /// Process every clip in order. Throws StatusError only for batch-level
  /// faults (empty/duplicate inputs, incompatible resume journal, unwritable
  /// journal); per-clip faults land in the returned rows.
  BatchSummary run(const std::vector<BatchClip>& clips) const;

  /// Convenience: ids are derived from the file stems (deduplicated).
  BatchSummary run_files(const std::vector<std::string>& paths) const;

  /// Machine-readable CSV manifest (one row per clip, input order).
  static void write_manifest(const std::string& path, const BatchSummary& summary);

 private:
  /// Engine::submit + the batch-level runtime zeroing.
  BatchClipResult process_clip(const BatchClip& clip, int start_rung) const;

  /// The journal's `meta` payload: the batch identity a resume must match.
  void write_meta(ByteWriter& w, const std::vector<BatchClip>& clips) const;
  std::vector<BatchClipResult> load_journal(const std::vector<BatchClip>& clips) const;

  const Engine& engine_;
  BatchConfig batch_;
};

}  // namespace ganopc::engine
