// `ganopc serve` — a fault-tolerant mask-optimization daemon (DESIGN.md §14).
//
// One poll()-driven event loop multiplexes the listening socket, every client
// connection and the supervisor's worker result pipes. Requests (layout text,
// JSON, or raw GDS) are admission-controlled against a bounded queue and the
// request's deadline, spooled to disk, and dispatched to proc::Supervisor
// workers that run the Engine degradation chain in a sandboxed child —
// a SIGSEGV / OOM kill / hang while optimizing one request costs that worker,
// never the daemon, and the requester still gets a typed answer.
//
// Robustness surface, end to end:
//   - admission: bounded queue (503 + Retry-After), deadline feasibility
//     check against an EWMA of recent optimization times (429 + Retry-After)
//   - deadline propagation: the request deadline is stamped as an absolute
//     monotonic instant, so queue wait burns budget; the worker passes the
//     remainder into the ILT watchdog (SubmitOptions::deadline_s) and the
//     supervisor holds a SIGKILL backstop slightly above it
//   - degradation: each worker crash drops one rung (supervisor crash count);
//     a circuit breaker trips to MB-OPC-only mode after `breaker_kills`
//     consecutive worker deaths, and responses report the rung that answered
//   - slow/hostile clients: header/body caps (413/431), read timeout kills a
//     slow-loris (408 when the request had started), write timeout kills a
//     stalled reader; a lost worker pool degrades to typed 503s, not an exit
//   - drain: the stop flag (SIGTERM) closes the listener, finishes in-flight
//     work within drain_grace_s, answers stragglers 503/504, flushes the
//     ledger, exits 0
//
// Endpoints: POST /v1/optimize (JSON {"layout": "..."} | text/plain layout |
// raw GDS with ?format=gds; ?mask=pgm returns the mask as a PGM body),
// GET /healthz, GET /readyz, GET /metrics (Prometheus text).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "engine/engine.hpp"
#include "proc/supervisor.hpp"
#include "serve/http.hpp"

namespace ganopc::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";
  int port = 0;             ///< TCP listen port (0 = kernel-assigned)
  std::string unix_socket;  ///< when set, listen here instead of TCP
  std::string port_file;    ///< write the bound TCP port here (test sync)
  int max_conns = 64;
  /// Requests admitted but not yet dispatched to a worker; one past this
  /// sheds with 503 + Retry-After.
  int max_queue = 8;
  double default_deadline_s = 60.0;  ///< when the request names none
  double max_deadline_s = 600.0;     ///< requested deadlines clamp to this
  double read_timeout_s = 10.0;      ///< full request must arrive within this
  double write_timeout_s = 10.0;     ///< response must drain within this
  std::size_t max_body_bytes = 64u << 20;  ///< proc::wire parity
  int breaker_kills = 3;             ///< consecutive deaths that trip the breaker
  double breaker_cooldown_s = 30.0;  ///< degraded-only window after a trip
  double drain_grace_s = 30.0;       ///< SIGTERM: budget for in-flight work
  std::string spool_dir;  ///< request spool ("" = /tmp/ganopc-serve-<pid>)

  // Worker pool (mirrors `ganopc batch` supervised mode).
  int workers = 1;
  int quarantine_kills = 3;
  double heartbeat_timeout_s = 30.0;
  int worker_mem_mb = 0;
  int worker_cpu_s = 0;
  std::uint64_t seed = 1847;

  /// SIGTERM/SIGINT drain flag (the CLI's signal handler owns it).
  const std::atomic<bool>* stop = nullptr;
};

class Server {
 public:
  /// `engine` is the shared mask-optimization session (litho backend,
  /// generator, SubmitPolicy acceptance gate / retry pacing); it must outlive
  /// the server. Its per-clip deadline is ignored — every request carries its
  /// own budget into Engine::submit. Process-level policy (workers, journal,
  /// drain) is the daemon's, not the engine's.
  Server(const engine::Engine& engine, ServeConfig serve);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, serve until the stop flag drains the daemon, and return the
  /// process exit code (0 = clean drain). Throws StatusError only for
  /// startup faults (bad address, unwritable spool dir).
  int run();

  /// Requests fully answered (including typed errors) — exposed for the
  /// final report and tests.
  std::int64_t completed() const { return completed_; }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t serial = 0;   ///< guards against fd reuse across requests
    HttpRequestParser parser;
    std::string out;            ///< pending response bytes
    std::size_t out_off = 0;
    double io_deadline_s = 0.0; ///< read or write deadline (0 = none)
    bool close_after_flush = false;
    bool awaiting_result = false;  ///< an optimize request is in the pool
    bool slow_trickle = false;     ///< serve.slow_client failpoint
  };

  using Headers = std::vector<std::pair<std::string, std::string>>;

  struct PendingReq {
    int conn_fd = -1;
    std::uint64_t conn_serial = 0;
    bool want_mask = false;
    bool degraded = false;     ///< breaker was open at admission
    double deadline_s = 0.0;   ///< granted budget (already clamped)
    double submit_s = 0.0;
    std::string spool_path;
    std::uint64_t trace_id = 0;  ///< minted at admission (DESIGN.md §16)
    std::uint64_t span_id = 0;   ///< the request root span
    std::uint64_t admit_ns = 0;  ///< obs::monotonic_ns() at admission
  };

  /// How an admitted request ended: the answer and what the ledger records.
  struct Ending {
    int http = 500;
    StatusCode code = StatusCode::kInternal;
    std::string_view stage = "Failed";  ///< rung that answered
    int crashes = 0;
    std::span<const double> stage_s;    ///< per-stage seconds, if the worker sent them
    std::string body;
    std::string_view content_type = "application/json";
    Headers headers;  ///< after the trace and stage headers
  };

  void setup_listener();
  void setup_spool();
  proc::SupervisorConfig supervisor_config();
  std::string worker_entry(const std::string& payload, int crashes) const;

  void accept_clients();
  void read_conn(Conn& conn);
  void flush_conn(Conn& conn);
  void sweep_timeouts(double now);
  void close_conn(int fd);

  void handle_request(Conn& conn, const HttpRequest& req);
  void handle_optimize(Conn& conn, const HttpRequest& req);
  void respond(Conn& conn, int code, const std::string& body,
               std::string_view content_type = "application/json",
               const Headers& extra = {});
  void on_result(const proc::TaskResult& result);
  void fail_all_pending(int http_code, const std::string& error);
  /// The one path that ends an admitted request: unlinks its spool file,
  /// counts it, records serve.request_s, the stage histograms, the
  /// serve.request root span and the request_end ledger event, then
  /// answers the client if it is still connected (DESIGN.md §14.3).
  void complete(std::map<std::string, PendingReq>::iterator it, double wall_s,
                Ending end);
  void observe_deaths();
  void begin_drain();

  bool breaker_open(double now) const;
  std::size_t queued_depth() const;

  const engine::Engine& engine_;
  ServeConfig serve_;
  std::unique_ptr<proc::Supervisor> supervisor_;

  int listen_fd_ = -1;
  std::string spool_dir_;
  std::map<int, Conn> conns_;
  std::map<std::string, PendingReq> pending_;
  std::uint64_t next_serial_ = 1;

  bool draining_ = false;
  double drain_deadline_s_ = 0.0;
  bool pool_dead_ = false;
  int consecutive_deaths_ = 0;
  std::size_t seen_deaths_ = 0;
  double breaker_until_s_ = 0.0;
  double ewma_task_s_ = 0.0;
  std::int64_t completed_ = 0;
  std::int64_t requests_ = 0;
};

}  // namespace ganopc::serve
