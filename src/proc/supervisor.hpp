// Process-isolated supervised worker pool (DESIGN.md §13).
//
// A Supervisor forks N sandboxed worker subprocesses and drives a task queue
// through them over the pipe protocol in proc/wire.hpp. It is the crash
// containment layer *around* the in-process fault tolerance the repo already
// has (watchdog, divergence guard, per-clip Status isolation): a SIGSEGV in
// a vectorized kernel, an OOM kill, or a stuck syscall destroys one worker,
// not the batch.
//
//   - Workers run the user-supplied WorkerFn; per-worker setrlimit caps
//     (RLIMIT_DATA / RLIMIT_CPU) bound memory and CPU, and each worker
//     reopens its own ledger (`<ledger>.w<id>`) with a collision-free
//     crash-dump path (obs::crash_report_path_for_worker).
//   - Liveness: a heartbeat thread in each worker ticks the result pipe; the
//     supervisor also enforces a per-task wall deadline, so both a frozen
//     process (no beats) and a wedged computation (beats, no result) are
//     detected and SIGKILLed.
//   - On any worker death the supervisor reaps the pid with wait4, records a
//     structured CrashReport (signal/exit code, in-flight task, rusage, the
//     worker's forensics paths) plus a `worker_death` ledger event, re-queues
//     the in-flight task at the front, and respawns the slot after a bounded
//     exponential backoff with deterministic jitter (common/backoff).
//   - Observability crosses the process boundary (DESIGN.md §16): each kTask
//     frame carries the request's trace context + dispatch clock, and workers
//     ship registry increments (kMetricsDelta) and completed spans
//     (kSpanBatch) back before every result and on each heartbeat. The
//     supervisor merges complete frames into its own registry/trace buffer,
//     so `/metrics` and `--trace-out` reflect the whole fleet; a torn frame
//     from a dying worker is dropped whole, never half-merged.
//   - A task whose processing has killed `quarantine_kills` workers is not
//     re-queued again: it is surfaced as a quarantined TaskResult so the
//     caller can emit a typed Status row instead of looping forever on a
//     poison input. The crash count is also passed to the WorkerFn on each
//     retry, letting the caller degrade (BatchRunner skips one rung of its
//     GAN+ILT -> ILT -> MB-OPC ladder per prior crash).
//
// The Supervisor is deliberately generic over (id, payload-bytes) tasks —
// it is the process-management skeleton the `ganopc serve` daemon will
// reuse; BatchRunner is its first client.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "proc/wire.hpp"

namespace ganopc::proc {

struct WorkerLimits {
  /// RLIMIT_DATA cap in MiB (0 = unlimited). RLIMIT_DATA rather than
  /// RLIMIT_AS so the cap composes with sanitizer shadow mappings.
  int mem_mb = 0;
  /// RLIMIT_CPU cap in seconds (0 = unlimited); overrun delivers SIGXCPU.
  int cpu_s = 0;
};

struct SupervisorConfig {
  int workers = 1;            ///< worker subprocesses (>= 1)
  /// A task that has crashed this many workers is quarantined, not re-queued.
  int quarantine_kills = 3;
  /// A worker slot that has died this many times is retired for the run.
  int max_restarts = 16;
  double heartbeat_interval_s = 0.25;  ///< worker-side beat period
  double heartbeat_timeout_s = 30.0;   ///< no frames for this long -> SIGKILL
  double task_deadline_s = 0.0;        ///< per-task wall cap (0 = none) -> SIGKILL
  double restart_backoff_base_s = 0.05;
  double restart_backoff_cap_s = 2.0;
  std::uint64_t seed = 1847;  ///< restart-jitter stream
  WorkerLimits limits;
  /// Optional drain flag polled by run(): once it reads true the dispatcher
  /// stops handing out queued tasks, lets in-flight tasks finish (still
  /// bounded by the task deadline / heartbeat kills), resolves the remaining
  /// queue as `cancelled` TaskResults, and shuts the pool down cleanly —
  /// the SIGTERM-drain hook for `ganopc batch`.
  const std::atomic<bool>* stop = nullptr;
  /// Runs in each worker child right after fork() (after sibling pipe ends
  /// are closed, before rlimits). The serve daemon closes its listen socket,
  /// signal pipe and every client connection here so a long-lived worker
  /// cannot hold a dup of a connection the daemon already hung up on.
  std::function<void()> child_setup;

  void validate() const;
};

struct Task {
  std::string id;       ///< unique; quarantine counting is keyed on it
  std::string payload;  ///< opaque bytes handed to the WorkerFn
  /// Per-task wall cap once dispatched, overriding the pool-wide
  /// task_deadline_s (0 = use the pool default). The serve front-end plumbs
  /// each request's remaining deadline budget through this.
  double deadline_s = 0.0;
  /// Request trace identity (DESIGN.md §16), carried in the kTask frame
  /// header: the worker installs it thread-locally around the WorkerFn so
  /// every span recorded inside nests under `parent_span`. 0 = untraced.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// Header of the task currently executing in this worker process (all-zero
/// outside a WorkerFn). Front-ends read `dispatch_ns` for queue/dispatch
/// stage attribution without widening the WorkerFn signature.
TaskHeader current_task_header();

struct TaskResult {
  std::string id;
  std::string payload;      ///< WorkerFn return value ("" when not run)
  std::string error;        ///< WorkerFn exception text ("" = clean)
  int crashes = 0;          ///< workers this task killed before completing
  bool quarantined = false; ///< crashes reached quarantine_kills; no payload
  bool cancelled = false;   ///< drained from the queue before dispatch
};

/// One entry per worker death, in death order — the forensics trail the
/// batch layer surfaces and the kill-matrix tests assert on.
struct CrashReport {
  int worker = -1;          ///< slot index (stable across restarts)
  long pid = 0;
  bool signaled = false;    ///< died of a signal (vs exit())
  int code = 0;             ///< signal number or exit status
  std::string task_id;      ///< in-flight task ("" if idle)
  std::string reason;       ///< "signal" | "exit" | "heartbeat_timeout" | "task_deadline"
  long max_rss_kb = 0;      ///< wait4 rusage
  double user_s = 0.0;
  double sys_s = 0.0;
  std::string worker_ledger;  ///< per-worker ledger path ("" when ledger off)
  std::string crash_dump;     ///< worker's flight-recorder dump destination
  std::string report_path;    ///< supervisor-written death report ("" when ledger off)
};

/// Runs inside the worker process. `crashes` is how many workers this task
/// has already killed (0 on first delivery) — the degradation hook.
/// Exceptions are caught, marshalled back, and surfaced as TaskResult::error.
using WorkerFn = std::function<std::string(const std::string& payload, int crashes)>;

class Supervisor {
 public:
  Supervisor(const SupervisorConfig& config, WorkerFn fn);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Process every task; returns results in task order. `on_result` (may be
  /// empty) fires in the supervisor process as each task completes or is
  /// quarantined — completion order — so the caller can journal
  /// incrementally. Throws StatusError(kInternal) only for pool-level faults
  /// (every worker slot retired with work remaining, fork failure storms);
  /// per-task faults land in the TaskResults. When `config.stop` flips true
  /// mid-run the batch drains: in-flight tasks finish, queued tasks come back
  /// as `cancelled` results. Implemented on top of the persistent session
  /// API below; a batch run and a session must not overlap.
  std::vector<TaskResult> run(
      const std::vector<Task>& tasks,
      const std::function<void(const TaskResult&)>& on_result = {});

  // ---- persistent session mode (the `ganopc serve` front-end) -----------
  //
  // start() opens a long-lived dispatch session; submit() enqueues work at
  // any time; pump() performs one dispatch iteration (spawn due workers,
  // hand out tasks, poll result pipes for up to timeout_s, reap deaths,
  // enforce liveness) and fires `on_result` for every task that completed.
  // shutdown() ends the session. Workers are forked lazily on first demand.

  /// Open a persistent session. `on_result` fires from within pump() in
  /// completion order. Throws if a session is already open.
  void start(std::function<void(const TaskResult&)> on_result);

  /// Enqueue one task (FIFO; crash-requeues go to the front as in run()).
  void submit(Task task);

  /// One dispatch iteration; blocks in poll() for at most timeout_s when no
  /// result pipe is readable. Throws StatusError(kInternal) on pool-level
  /// faults (every slot retired with work pending) — the caller owns the
  /// policy for that (serve fails pending requests and reports unready).
  void pump(double timeout_s = 0.02);

  /// Queued + in-flight tasks not yet resolved.
  std::size_t pending() const;

  /// Tasks currently executing in a worker.
  std::size_t inflight() const;

  /// When disabled, queued tasks stay queued (in-flight ones still finish) —
  /// the drain half-step between "stop accepting" and cancel_queued().
  void set_dispatch_enabled(bool enabled);

  /// Resolve every queued (not yet dispatched) task as cancelled, with
  /// `reason` as the error text. Fires on_result for each.
  void cancel_queued(const std::string& reason);

  /// Append the session's live worker result fds (events=POLLIN) so an outer
  /// event loop can merge them into its own poll() set and call pump(0) only
  /// when something is actually readable.
  void collect_poll_fds(std::vector<struct pollfd>& out) const;

  /// End the session: send Shutdown frames, give workers grace_s to exit,
  /// SIGKILL stragglers, reap everything. Safe to call with work pending
  /// (it is abandoned — cancel or drain first if results matter).
  void shutdown(double grace_s = 5.0);

  /// Every worker death observed by the last run() / the open session.
  const std::vector<CrashReport>& crash_reports() const { return crash_reports_; }

  /// Total worker processes forked by the last run() / the open session.
  int spawn_count() const { return spawn_count_; }

 private:
  struct Engine;

  SupervisorConfig config_;
  WorkerFn fn_;
  std::vector<CrashReport> crash_reports_;
  int spawn_count_ = 0;
  std::unique_ptr<Engine> engine_;
};

}  // namespace ganopc::proc
