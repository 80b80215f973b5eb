#include "proc/supervisor.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/backoff.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/remote.hpp"
#include "obs/trace.hpp"
#include "proc/wire.hpp"

namespace ganopc::proc {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// One worker slot. The slot index is stable across restarts; the pid, pipes
// and parse buffer belong to the current incarnation.
struct Slot {
  int id = 0;
  pid_t pid = -1;
  int task_fd = -1;    ///< supervisor write end
  int result_fd = -1;  ///< supervisor read end (O_NONBLOCK)
  FrameBuffer rx;
  std::int64_t inflight = -1;  ///< task sequence number, -1 = idle
  double task_start_s = 0.0;
  double inflight_deadline_s = 0.0;  ///< effective wall cap for the task (0 = none)
  double last_frame_s = 0.0;  ///< heartbeat/result recency
  int restarts = 0;           ///< deaths so far
  double respawn_at_s = 0.0;
  bool retired = false;
  std::string kill_reason;  ///< set when the supervisor SIGKILLs on purpose

  bool live() const { return pid > 0; }
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  GANOPC_TYPED_CHECK(StatusCode::kInternal,
                     flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                     "supervisor: fcntl(O_NONBLOCK) failed");
}

void apply_rlimit(int resource, rlim_t cap) {
  struct rlimit lim {};
  lim.rlim_cur = cap;
  lim.rlim_max = cap;
  // Best-effort: a container may forbid raising/altering limits; the
  // heartbeat + task-deadline layer still contains an unbounded worker.
  (void)::setrlimit(resource, &lim);
}

// RAII SIGPIPE suppression: a worker dying between poll() and our task write
// must surface as a failed write, not kill the supervisor process.
class SigpipeGuard {
 public:
  SigpipeGuard() { previous_ = ::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { ::signal(SIGPIPE, previous_); }

 private:
  using Handler = void (*)(int);
  Handler previous_ = SIG_DFL;
};

// ------------------------------------------------------------- worker side

struct WorkerContext {
  int slot_id = 0;
  int task_fd = -1;
  int result_fd = -1;
  double heartbeat_interval_s = 0.25;
  std::string parent_ledger;
};

thread_local TaskHeader g_current_task_header;

// Worker-side observability shipper: computes registry deltas against an
// advancing baseline (captured at construction, i.e. right after fork, so
// the supervisor's inherited values are subtracted out) and writes
// kMetricsDelta / kSpanBatch frames. Callers hold the pipe-write mutex, which
// also serializes the tracker between the task loop and the heartbeat thread.
struct ObsShipper {
  obs::MetricsDeltaTracker tracker;

  // Returns false when the pipe is unwritable (supervisor gone).
  bool ship(int fd) {
    if (obs::metrics_enabled()) {
      const std::string delta = tracker.take_delta();
      if (!delta.empty() &&
          !write_frame(fd, FrameType::kMetricsDelta, delta))
        return false;
    }
    if (obs::trace_enabled()) {
      const std::string spans = obs::encode_span_batch();
      if (!spans.empty() && !write_frame(fd, FrameType::kSpanBatch, spans))
        return false;
    }
    return true;
  }
};

// Runs the task loop inside the forked worker. Never returns to the caller's
// stack frame logic — the caller _Exit()s with what this returns.
int worker_main(const WorkerFn& fn, const WorkerContext& ctx) {
  if (!ctx.parent_ledger.empty()) {
    // The inherited ledger handle belongs to the supervisor: appending from
    // two processes would interleave seq counters. Each worker narrates into
    // its own `<ledger>.w<id>` file, and its flight recorder dumps to a
    // per-(worker, pid) path so simultaneous deaths never clobber forensics.
    obs::ledger_close();
    obs::ledger_open(ctx.parent_ledger + ".w" + std::to_string(ctx.slot_id));
    obs::set_crash_report_path(obs::crash_report_path_for_worker(
        ctx.parent_ledger, ctx.slot_id, static_cast<long>(::getpid())));
    obs::LedgerRecord rec("worker_start");
    rec.field("worker", ctx.slot_id)
        .field("pid", static_cast<std::int64_t>(::getpid()));
    obs::ledger_emit(rec);
  }

  // The result pipe is shared by this loop and the heartbeat thread; the
  // mutex keeps frames whole (and serializes the obs shipper's baseline).
  // Both are leaked on purpose: the heartbeat thread may still hold them
  // when the process _Exit()s.
  auto* write_mu = new std::mutex();
  auto* shipper = new ObsShipper();
  {
    std::lock_guard lock(*write_mu);
    std::int64_t pid = ::getpid();
    if (!write_frame(ctx.result_fd, FrameType::kHello,
                     {reinterpret_cast<const char*>(&pid), sizeof pid}))
      return 1;
  }
  std::thread([write_mu, shipper, fd = ctx.result_fd,
               interval = ctx.heartbeat_interval_s] {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      std::lock_guard lock(*write_mu);
      // Ship pending metric/span increments with every beat so a long task
      // (or an imminent crash) still surfaces its progress fleet-wide.
      if (!shipper->ship(fd)) return;  // peer gone
      if (!write_frame(fd, FrameType::kHeartbeat, {})) return;
    }
  }).detach();

  for (;;) {
    Frame frame;
    if (!read_frame(ctx.task_fd, frame)) break;  // supervisor closed the pipe
    if (frame.type == FrameType::kShutdown) break;
    if (frame.type != FrameType::kTask) continue;
    std::string payload;
    const TaskHeader header = decode_task_payload(frame.payload, payload);
    const std::uint64_t recv_ns = obs::monotonic_ns();

    std::string response(1, '\x01');  // u8 ok | result-or-error bytes
    {
      // Install the request's trace context so every span the WorkerFn opens
      // (engine/litho/ILT sites) nests under the supervisor-side parent.
      obs::TraceContextScope trace_scope(
          obs::TraceContext{header.trace_id, header.parent_span});
      g_current_task_header = header;
      if (header.trace_id != 0 && header.dispatch_ns != 0 &&
          header.dispatch_ns <= recv_ns) {
        static const obs::SpanSite& dispatch_site =
            obs::span_site("proc.dispatch");
        obs::record_span(dispatch_site, header.dispatch_ns, recv_ns,
                         header.trace_id, obs::next_span_id(),
                         header.parent_span);
      }
      static const obs::SpanSite& task_site = obs::span_site("proc.task");
      obs::ObsSpan task_span(task_site);
      try {
        response += fn(payload, static_cast<int>(header.crashes));
      } catch (const std::exception& e) {
        response.assign(1, '\x00');
        response += e.what();
        obs::flight_dump("worker.task_exception");
      } catch (...) {
        response.assign(1, '\x00');
        response += "unknown exception in worker fn";
      }
      g_current_task_header = TaskHeader{};
    }
    std::lock_guard lock(*write_mu);
    // Deltas and spans go out before the result so the supervisor's registry
    // already reflects this task when its on_result callback fires.
    if (!shipper->ship(ctx.result_fd)) break;
    if (!write_frame(ctx.result_fd, FrameType::kResult, response)) break;
  }
  return 0;
}

}  // namespace

TaskHeader current_task_header() { return g_current_task_header; }

void SupervisorConfig::validate() const {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     workers >= 1 && quarantine_kills >= 1 && max_restarts >= 1,
                     "supervisor: workers/quarantine_kills/max_restarts must be >= 1");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     heartbeat_interval_s > 0.0 &&
                         heartbeat_timeout_s > heartbeat_interval_s,
                     "supervisor: heartbeat timeout must exceed the interval");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     task_deadline_s >= 0.0 && restart_backoff_base_s >= 0.0 &&
                         restart_backoff_cap_s >= 0.0 && limits.mem_mb >= 0 &&
                         limits.cpu_s >= 0,
                     "supervisor: deadlines/backoff/limits must be >= 0");
}

Supervisor::Supervisor(const SupervisorConfig& config, WorkerFn fn)
    : config_(config), fn_(std::move(fn)) {
  config_.validate();
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, static_cast<bool>(fn_),
                     "supervisor: a worker function is required");
}

// One queued-or-in-flight task plus its crash tally (quarantine counting).
struct PendingTask {
  Task task;
  int crashes = 0;
};

// The dispatch session: slots, queue, and the per-iteration state machine.
// run() builds an ephemeral Engine over a fixed task list; the persistent
// session API (start/submit/pump/shutdown) keeps one alive across calls so a
// daemon can feed requests in as they arrive.
struct Supervisor::Engine {
  SupervisorConfig config;
  const WorkerFn& fn;
  std::vector<CrashReport>& crash_reports;
  int& spawn_count;
  std::function<void(const TaskResult&)> on_result;

  std::string parent_ledger;
  bool metrics = false;
  std::size_t worker_threads = 1;
  SigpipeGuard sigpipe;  ///< suppressed for the whole session
  std::vector<Slot> slots;
  std::deque<std::uint64_t> queue;            ///< queued (not dispatched) seqs
  std::map<std::uint64_t, PendingTask> tasks; ///< every unresolved seq
  std::uint64_t next_seq = 1;
  bool dispatch_enabled = true;

  Engine(const SupervisorConfig& cfg, const WorkerFn& worker_fn,
         std::vector<CrashReport>& reports, int& spawns,
         std::function<void(const TaskResult&)> cb)
      : config(cfg),
        fn(worker_fn),
        crash_reports(reports),
        spawn_count(spawns),
        on_result(std::move(cb)) {
    parent_ledger = obs::ledger_path();
    metrics = obs::metrics_enabled();
    // Each worker gets hardware threads / workers (at least 1) so N workers
    // do not oversubscribe the machine N-fold.
    worker_threads =
        std::max<std::size_t>(1, ThreadPool::default_thread_count() /
                                     static_cast<std::size_t>(config.workers));
    slots.resize(static_cast<std::size_t>(config.workers));
    for (std::size_t i = 0; i < slots.size(); ++i)
      slots[i].id = static_cast<int>(i);
  }

  std::uint64_t submit(Task task) {
    const std::uint64_t seq = next_seq++;
    tasks.emplace(seq, PendingTask{std::move(task), 0});
    queue.push_back(seq);
    return seq;
  }

  std::size_t inflight_count() const {
    std::size_t n = 0;
    for (const Slot& slot : slots) n += slot.inflight >= 0 ? 1 : 0;
    return n;
  }

  void finalize(std::uint64_t seq, TaskResult res) {
    const auto it = tasks.find(seq);
    if (it == tasks.end()) return;
    res.id = it->second.task.id;
    res.crashes = it->second.crashes;
    tasks.erase(it);
    if (on_result) on_result(res);
  }

  /// Decode a kResult frame's payload ('\x01' + payload on success, '\x00' +
  /// error text otherwise) and finalize the slot's in-flight task with it.
  void finish_inflight(Slot& slot, const std::string& payload) {
    TaskResult res;
    if (!payload.empty() && payload[0] == '\x01')
      res.payload = payload.substr(1);
    else
      res.error = payload.empty() ? "empty worker response" : payload.substr(1);
    finalize(static_cast<std::uint64_t>(slot.inflight), std::move(res));
    slot.inflight = -1;
  }

  void cancel_queued(const std::string& reason) {
    while (!queue.empty()) {
      const std::uint64_t seq = queue.front();
      queue.pop_front();
      if (metrics) obs::counter("proc.tasks.cancelled").inc();
      TaskResult res;
      res.cancelled = true;
      res.error = reason;
      finalize(seq, std::move(res));
    }
  }

  void spawn(Slot& slot) {
    int task_pipe[2], result_pipe[2];
    GANOPC_TYPED_CHECK(StatusCode::kInternal,
                       ::pipe(task_pipe) == 0 && ::pipe(result_pipe) == 0,
                       "supervisor: pipe() failed: " << std::strerror(errno));
    // Any buffered stdio duplicated into the child would be flushed twice.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    GANOPC_TYPED_CHECK(StatusCode::kInternal, pid >= 0,
                       "supervisor: fork() failed: " << std::strerror(errno));
    if (pid == 0) {
      // ---- child ----
      ::close(task_pipe[1]);
      ::close(result_pipe[0]);
      // Drop every other worker's pipe ends: a sibling holding a stray write
      // end would defeat the supervisor's EOF detection for that worker.
      for (const Slot& other : slots) {
        if (other.task_fd >= 0) ::close(other.task_fd);
        if (other.result_fd >= 0) ::close(other.result_fd);
      }
      if (config.child_setup) config.child_setup();
      if (config.limits.mem_mb > 0)
        apply_rlimit(RLIMIT_DATA,
                     static_cast<rlim_t>(config.limits.mem_mb) << 20);
      if (config.limits.cpu_s > 0)
        apply_rlimit(RLIMIT_CPU, static_cast<rlim_t>(config.limits.cpu_s));
      // The parent's pool threads do not exist in this process; install a
      // fresh pool sized so N workers share the machine instead of each
      // claiming every hardware thread.
      ThreadPool::reinit_after_fork(worker_threads);
      WorkerContext ctx;
      ctx.slot_id = slot.id;
      ctx.task_fd = task_pipe[0];
      ctx.result_fd = result_pipe[1];
      ctx.heartbeat_interval_s = config.heartbeat_interval_s;
      ctx.parent_ledger = parent_ledger;
      int rc = 1;
      try {
        rc = worker_main(fn, ctx);
      } catch (const std::exception&) {
        obs::flight_dump("worker.fatal");
      }
      // _Exit: no static destructors, no inherited atexit hooks, no double
      // stdio flush — the worker's state is the supervisor's to mourn.
      std::_Exit(rc);
    }
    // ---- parent ----
    ::close(task_pipe[0]);
    ::close(result_pipe[1]);
    slot.pid = pid;
    slot.task_fd = task_pipe[1];
    slot.result_fd = result_pipe[0];
    set_nonblocking(slot.result_fd);
    slot.rx = FrameBuffer();
    slot.inflight = -1;
    slot.last_frame_s = now_s();
    slot.kill_reason.clear();
    ++spawn_count;
    if (metrics) {
      obs::counter("proc.worker.spawns").inc();
      obs::gauge("proc.worker." + std::to_string(slot.id) + ".restarts")
          .set(slot.restarts);
    }
    if (obs::ledger_enabled()) {
      obs::LedgerRecord rec("worker_spawn");
      rec.field("worker", slot.id)
          .field("pid", static_cast<std::int64_t>(pid))
          .field("restarts", slot.restarts);
      obs::ledger_emit(rec);
    }
  }

  void send_task(Slot& slot, std::uint64_t seq) {
    const PendingTask& pt = tasks.at(seq);
    TaskHeader header;
    header.crashes = static_cast<std::uint32_t>(pt.crashes);
    header.trace_id = pt.task.trace_id;
    header.parent_span = pt.task.parent_span;
    header.dispatch_ns = obs::monotonic_ns();
    const std::string payload = encode_task_payload(header, pt.task.payload);
    if (!write_frame(slot.task_fd, FrameType::kTask, payload)) {
      // Worker is unwritable (dying or dead); the reaper below will requeue.
      queue.push_front(seq);
      return;
    }
    slot.inflight = static_cast<std::int64_t>(seq);
    slot.task_start_s = now_s();
    slot.inflight_deadline_s =
        pt.task.deadline_s > 0.0 ? pt.task.deadline_s : config.task_deadline_s;
  }

  // Merge a worker-shipped observability frame into this process's registry /
  // trace buffer. Returns true when the frame was an obs frame (consumed).
  // FrameBuffer only yields complete frames and the apply functions decode
  // fully before touching the registry, so a dying worker's last delta is
  // either fully applied or fully dropped.
  bool apply_obs_frame(const Frame& frame) {
    if (frame.type == FrameType::kMetricsDelta) {
      try {
        obs::apply_metrics_delta(frame.payload);
        if (metrics) obs::counter("proc.obs.delta_applied").inc();
      } catch (...) {
        if (metrics) obs::counter("proc.obs.delta_dropped").inc();
      }
      return true;
    }
    if (frame.type == FrameType::kSpanBatch) {
      try {
        obs::apply_span_batch(frame.payload);
      } catch (...) {
        if (metrics) obs::counter("proc.obs.spans_dropped").inc();
      }
      return true;
    }
    return false;
  }

  void write_death_report(const Slot& slot, CrashReport& report) {
    if (parent_ledger.empty()) return;
    report.worker_ledger = parent_ledger + ".w" + std::to_string(slot.id);
    report.crash_dump =
        obs::crash_report_path_for_worker(parent_ledger, slot.id, report.pid);
    report.report_path = parent_ledger + ".death.w" + std::to_string(slot.id) +
                         ".pid" + std::to_string(report.pid) + ".json";
    std::string json = "{\"schema\":1,\"worker\":" + std::to_string(report.worker) +
                       ",\"pid\":" + std::to_string(report.pid) + ",\"reason\":\"";
    json::escape_into(json, report.reason);
    json += "\",\"signaled\":";
    json += report.signaled ? "true" : "false";
    json += ",\"code\":" + std::to_string(report.code) + ",\"task\":\"";
    json::escape_into(json, report.task_id);
    json += "\",\"rusage\":{\"max_rss_kb\":" + std::to_string(report.max_rss_kb) +
            ",\"user_s\":" + format_double(report.user_s) +
            ",\"sys_s\":" + format_double(report.sys_s) + "},\"worker_ledger\":\"";
    json::escape_into(json, report.worker_ledger);
    json += "\",\"crash_dump\":\"";
    json::escape_into(json, report.crash_dump);
    json += "\"}\n";
    try {
      atomic_write_file(report.report_path,
                        [&](std::ostream& out) { out << json; });
    } catch (...) {
      // Forensics are best-effort; the in-memory CrashReport survives.
      report.report_path.clear();
    }
  }

  void handle_death(Slot& slot, int status, const struct rusage& ru) {
    // A result written before the crash is still sitting in the pipe; honor
    // it — the task completed, the worker merely died afterwards.
    if (slot.result_fd >= 0) {
      try {
        slot.rx.fill(slot.result_fd);
        Frame frame;
        while (slot.rx.next(frame)) {
          if (apply_obs_frame(frame)) continue;  // dead worker's last deltas
          if (frame.type != FrameType::kResult || slot.inflight < 0) continue;
          finish_inflight(slot, frame.payload);
        }
      } catch (...) {
        // Torn tail from a mid-write death: the in-flight task did not
        // complete; fall through to the requeue path.
      }
    }
    CrashReport report;
    report.worker = slot.id;
    report.pid = static_cast<long>(slot.pid);
    report.signaled = WIFSIGNALED(status);
    report.code = report.signaled ? WTERMSIG(status) : WEXITSTATUS(status);
    report.task_id =
        slot.inflight >= 0
            ? tasks.at(static_cast<std::uint64_t>(slot.inflight)).task.id
            : "";
    report.reason = !slot.kill_reason.empty() ? slot.kill_reason
                    : report.signaled         ? "signal"
                                              : "exit";
    report.max_rss_kb = static_cast<long>(ru.ru_maxrss);
    report.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    report.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    write_death_report(slot, report);
    if (metrics) obs::counter("proc.worker.deaths").inc();
    if (obs::ledger_enabled()) {
      obs::LedgerRecord rec("worker_death");
      rec.field("worker", slot.id)
          .field("pid", static_cast<std::int64_t>(slot.pid))
          .field("reason", report.reason)
          .field("signaled", report.signaled)
          .field("code", report.code)
          .field("task", report.task_id)
          .field("max_rss_kb", static_cast<std::int64_t>(report.max_rss_kb))
          .field("user_s", report.user_s)
          .field("sys_s", report.sys_s);
      if (!report.report_path.empty()) rec.field("report", report.report_path);
      obs::ledger_emit(rec);
    }
    crash_reports.push_back(report);

    if (slot.inflight >= 0) {
      const auto seq = static_cast<std::uint64_t>(slot.inflight);
      slot.inflight = -1;
      PendingTask& pt = tasks.at(seq);
      ++pt.crashes;
      if (pt.crashes >= config.quarantine_kills) {
        if (metrics) obs::counter("proc.tasks.quarantined").inc();
        TaskResult res;
        res.quarantined = true;
        finalize(seq, std::move(res));
      } else {
        if (metrics) obs::counter("proc.tasks.requeued").inc();
        queue.push_front(seq);
      }
    }

    close_fd(slot.task_fd);
    close_fd(slot.result_fd);
    slot.pid = -1;
    ++slot.restarts;
    if (slot.restarts >= config.max_restarts) {
      slot.retired = true;
      return;
    }
    const double delay =
        backoff_delay_s(config.restart_backoff_base_s, config.restart_backoff_cap_s,
                        slot.restarts,
                        config.seed ^ (0x9E3779B97F4A7C15ULL *
                                       static_cast<std::uint64_t>(slot.id + 1)));
    slot.respawn_at_s = now_s() + delay;
    if (metrics)
      obs::histogram("proc.restart_delay_s", obs::time_buckets()).observe(delay);
  }

  // One dispatch iteration: spawn due slots, hand out queued tasks, poll the
  // result pipes for up to timeout_s, parse frames, reap deaths, and enforce
  // heartbeat/deadline liveness.
  void pump(double timeout_s) {
    const double now = now_s();

    for (Slot& slot : slots)
      if (!slot.live() && !slot.retired && dispatch_enabled && !queue.empty() &&
          now >= slot.respawn_at_s)
        spawn(slot);

    if (dispatch_enabled) {
      for (Slot& slot : slots) {
        if (!slot.live() || slot.inflight >= 0 || queue.empty()) continue;
        const std::uint64_t seq = queue.front();
        queue.pop_front();
        send_task(slot, seq);
      }
    }

    std::vector<struct pollfd> fds;
    std::vector<Slot*> fd_slots;
    for (Slot& slot : slots) {
      if (!slot.live()) continue;
      fds.push_back({slot.result_fd, POLLIN, 0});
      fd_slots.push_back(&slot);
    }
    if (fds.empty()) {
      if (!tasks.empty() && dispatch_enabled) {
        bool any_pending = false;
        for (const Slot& slot : slots) any_pending |= !slot.retired;
        GANOPC_TYPED_CHECK(StatusCode::kInternal, any_pending,
                           "supervisor: every worker slot retired with "
                               << tasks.size() << " task(s) unfinished");
      }
      if (timeout_s > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(timeout_s, 0.010)));
    } else {
      const int timeout_ms =
          std::max(0, static_cast<int>(timeout_s * 1000.0 + 0.5));
      (void)::poll(fds.data(), fds.size(), timeout_ms);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Slot& slot = *fd_slots[i];
        // EOF or an unreadable pipe means the worker is gone; the reaper
        // below handles its death.
        try {
          slot.rx.fill(slot.result_fd);
        } catch (...) {
        }
        Frame frame;
        while (slot.rx.next(frame)) {
          slot.last_frame_s = now_s();
          if (apply_obs_frame(frame)) continue;
          if (frame.type != FrameType::kResult) continue;  // hello/heartbeat
          if (slot.inflight < 0) continue;  // stale frame from a shutdown race
          finish_inflight(slot, frame.payload);
        }
      }
    }

    // Reap every child that has exited since the last pass.
    for (;;) {
      int status = 0;
      struct rusage ru {};
      const pid_t pid = ::wait4(-1, &status, WNOHANG, &ru);
      if (pid <= 0) break;
      for (Slot& slot : slots)
        if (slot.pid == pid) {
          handle_death(slot, status, ru);
          break;
        }
    }

    // Liveness enforcement: a frozen process stops heartbeating; a wedged
    // computation heartbeats forever but never returns its task.
    const double t = now_s();
    for (Slot& slot : slots) {
      if (!slot.live() || !slot.kill_reason.empty()) continue;
      if (t - slot.last_frame_s > config.heartbeat_timeout_s)
        slot.kill_reason = "heartbeat_timeout";
      else if (slot.inflight >= 0 && slot.inflight_deadline_s > 0.0 &&
               t - slot.task_start_s > slot.inflight_deadline_s)
        slot.kill_reason = "task_deadline";
      else
        continue;
      ::kill(slot.pid, SIGKILL);
    }
  }

  void collect_poll_fds(std::vector<struct pollfd>& out) const {
    for (const Slot& slot : slots)
      if (slot.live()) out.push_back({slot.result_fd, POLLIN, 0});
  }

  void shutdown(double grace_s) {
    for (Slot& slot : slots) {
      if (!slot.live()) continue;
      (void)write_frame(slot.task_fd, FrameType::kShutdown, {});
      close_fd(slot.task_fd);
    }
    const double grace_until = now_s() + grace_s;
    for (Slot& slot : slots) {
      if (!slot.live()) continue;
      for (;;) {
        int status = 0;
        const pid_t pid = ::waitpid(slot.pid, &status, WNOHANG);
        if (pid == slot.pid || (pid < 0 && errno == ECHILD)) break;
        if (now_s() > grace_until) {
          ::kill(slot.pid, SIGKILL);
          (void)::waitpid(slot.pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      slot.pid = -1;
      close_fd(slot.result_fd);
    }
  }
};

Supervisor::~Supervisor() {
  if (engine_) {
    try {
      engine_->shutdown(0.5);
    } catch (...) {
      // Destructor cleanup is best-effort; workers get SIGKILLed regardless.
    }
    engine_.reset();
  }
}

std::vector<TaskResult> Supervisor::run(
    const std::vector<Task>& tasks,
    const std::function<void(const TaskResult&)>& on_result) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, !engine_,
                     "supervisor: run() while a persistent session is open");
  crash_reports_.clear();
  spawn_count_ = 0;
  if (tasks.empty()) return {};
  std::map<std::string, int> index_of;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       index_of.emplace(tasks[i].id, static_cast<int>(i)).second,
                       "supervisor: duplicate task id '" << tasks[i].id << "'");

  std::vector<TaskResult> results(tasks.size());
  std::vector<bool> have(tasks.size(), false);
  Engine engine(config_, fn_, crash_reports_, spawn_count_,
                [&](const TaskResult& res) {
                  const auto idx =
                      static_cast<std::size_t>(index_of.at(res.id));
                  results[idx] = res;
                  have[idx] = true;
                  if (on_result) on_result(results[idx]);
                });
  for (const Task& task : tasks) engine.submit(task);

  bool draining = false;
  while (!engine.tasks.empty()) {
    if (!draining && config_.stop &&
        config_.stop->load(std::memory_order_relaxed)) {
      draining = true;
      engine.dispatch_enabled = false;
      if (obs::ledger_enabled()) {
        obs::LedgerRecord rec("supervisor_drain");
        rec.field("inflight", static_cast<std::int64_t>(engine.inflight_count()))
            .field("queued", static_cast<std::int64_t>(engine.queue.size()));
        obs::ledger_emit(rec);
      }
    }
    if (draining && engine.inflight_count() == 0) {
      engine.cancel_queued("cancelled: drain requested before dispatch");
      break;
    }
    engine.pump(0.020);
  }
  engine.shutdown(5.0);

  for (std::size_t i = 0; i < tasks.size(); ++i)
    GANOPC_TYPED_CHECK(StatusCode::kInternal, have[i],
                       "supervisor: task '" << tasks[i].id << "' never resolved");
  return results;
}

void Supervisor::start(std::function<void(const TaskResult&)> on_result) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, !engine_,
                     "supervisor: session already open");
  crash_reports_.clear();
  spawn_count_ = 0;
  engine_ = std::make_unique<Engine>(config_, fn_, crash_reports_, spawn_count_,
                                     std::move(on_result));
}

void Supervisor::submit(Task task) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, engine_ != nullptr,
                     "supervisor: submit() without an open session");
  engine_->submit(std::move(task));
}

void Supervisor::pump(double timeout_s) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, engine_ != nullptr,
                     "supervisor: pump() without an open session");
  engine_->pump(timeout_s);
}

std::size_t Supervisor::pending() const {
  return engine_ ? engine_->tasks.size() : 0;
}

std::size_t Supervisor::inflight() const {
  return engine_ ? engine_->inflight_count() : 0;
}

void Supervisor::set_dispatch_enabled(bool enabled) {
  if (engine_) engine_->dispatch_enabled = enabled;
}

void Supervisor::cancel_queued(const std::string& reason) {
  if (engine_) engine_->cancel_queued(reason);
}

void Supervisor::collect_poll_fds(std::vector<struct pollfd>& out) const {
  if (engine_) engine_->collect_poll_fds(out);
}

void Supervisor::shutdown(double grace_s) {
  if (!engine_) return;
  engine_->shutdown(grace_s);
  engine_.reset();
}

}  // namespace ganopc::proc
