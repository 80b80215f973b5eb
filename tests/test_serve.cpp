// End-to-end robustness for the mask-optimization daemon (`ganopc serve`,
// DESIGN.md §14): runs the real CLI as a subprocess and drives it over raw
// TCP sockets. Proves the ISSUE acceptance criteria — hostile/malformed/slow
// clients cost one typed response each, a full queue sheds with 503 +
// Retry-After, an unmeetable deadline sheds with 429, a deadline that expires
// in the queue comes back 504 (never a silent drop), a worker SIGSEGV or hang
// mid-request never takes the daemon down, a poison request is quarantined
// with 502 while the circuit breaker degrades subsequent requests, and a
// SIGTERM under load drains every admitted request to a typed answer, records
// it in the ledger, and exits 0.
//
// Worker faults are armed via the `proc.clip_fault` failpoint and selected by
// request-id suffix (batch_runner.cpp): `x_segv1` crashes one worker then
// succeeds, `x_hang1` wedges until the supervisor's task-deadline SIGKILL,
// `x_kill` crashes every worker until quarantined.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "geometry/layout.hpp"
#include "obs/ledger.hpp"

#ifndef GANOPC_CLI_PATH
#error "GANOPC_CLI_PATH must point at the ganopc CLI binary"
#endif

namespace ganopc {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Leading status code of a raw HTTP/1.1 response ("" when unparseable).
std::string status_of(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0 || response.size() < 12) return "";
  return response.substr(9, 3);
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ganopc_serve_test").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    if (daemon_pid_ > 0) {
      ::kill(daemon_pid_, SIGKILL);
      int status = 0;
      ::waitpid(daemon_pid_, &status, 0);
    }
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }
  std::string daemon_log() const { return read_bytes(path("daemon.log")); }

  // A single-wire clip in the geom::Layout text format; `variant` shifts the
  // wire so distinct requests carry distinct geometry.
  std::string clip_text(int variant) const {
    geom::Layout l(geom::Rect{0, 0, 2048, 2048});
    const std::int32_t mid = 1024 + 64 * (variant - 2);
    l.add({mid - 60, mid - 500, mid + 60, mid + 500});
    return l.to_text();
  }

  void start_daemon(const std::string& extra, const std::string& failpoints = "") {
    std::string cmd;
    if (!failpoints.empty()) cmd += "GANOPC_FAILPOINTS='" + failpoints + "' ";
    // `exec` so the daemon replaces the shell and our pid/SIGTERM hit it
    // directly.
    cmd += std::string("exec '") + GANOPC_CLI_PATH +
           "' serve --scale quick --grid 64 --iters 6 --port 0 --port-file " +
           path("port.txt") + " --spool-dir " + path("spool") +
           " --ledger-out " + path("serve.jsonl") + " " + extra + " > " +
           path("daemon.log") + " 2>&1";
    daemon_pid_ = ::fork();
    ASSERT_GE(daemon_pid_, 0);
    if (daemon_pid_ == 0) {
      ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int i = 0; i < 300; ++i) {
      std::ifstream in(path("port.txt"));
      if (in >> port_ && port_ > 0) return;
      int status = 0;
      ASSERT_EQ(::waitpid(daemon_pid_, &status, WNOHANG), 0)
          << "daemon exited during startup: " << daemon_log();
      ::usleep(100 * 1000);
    }
    FAIL() << "daemon never published its port: " << daemon_log();
  }

  // SIGTERM the daemon and return its raw wait status.
  int stop_daemon() {
    ::kill(daemon_pid_, SIGTERM);
    int status = 0;
    ::waitpid(daemon_pid_, &status, 0);
    daemon_pid_ = -1;
    return status;
  }

  int connect_daemon() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    // A stuck daemon should fail the assertion, not wedge the test binary.
    timeval tv{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
  }

  static void send_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Requests all say `Connection: close`, so the response is simply
  // everything until EOF. Closes the socket.
  static std::string read_response(int fd) {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  }

  std::string transact(const std::string& request) const {
    const int fd = connect_daemon();
    EXPECT_GE(fd, 0);
    if (fd < 0) return "";
    send_all(fd, request);
    return read_response(fd);
  }

  static std::string get_request(const std::string& target) {
    return "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  }

  std::string optimize_request(const std::string& id, int variant,
                               const std::string& query = "") const {
    const std::string body = clip_text(variant);
    return "POST /v1/optimize" + query + " HTTP/1.1\r\nHost: t\r\n" +
           "X-Request-Id: " + id + "\r\nConnection: close\r\n" +
           "Content-Type: text/plain\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  // Fire an optimize request and leave the socket open awaiting the result.
  int send_optimize(const std::string& id, int variant,
                    const std::string& query = "") const {
    const int fd = connect_daemon();
    EXPECT_GE(fd, 0) << id;
    if (fd >= 0) send_all(fd, optimize_request(id, variant, query));
    return fd;
  }

  std::string dir_;
  pid_t daemon_pid_ = -1;
  int port_ = 0;
};

TEST_F(ServeTest, EndpointsOptimizeAndMaskRoundTrip) {
  start_daemon("--workers 1");

  const std::string health = transact(get_request("/healthz"));
  EXPECT_EQ(status_of(health), "200") << health;
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
  const std::string ready = transact(get_request("/readyz"));
  EXPECT_EQ(status_of(ready), "200") << ready;
  EXPECT_NE(ready.find("\"ready\":true"), std::string::npos);

  const std::string opt = transact(optimize_request("clip_a", 0));
  ASSERT_EQ(status_of(opt), "200") << opt << daemon_log();
  EXPECT_NE(opt.find("\"id\":\"clip_a\""), std::string::npos);
  EXPECT_NE(opt.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(opt.find("\"stage\":"), std::string::npos);
  EXPECT_NE(opt.find("\"crashes\":0"), std::string::npos);

  // ?mask=pgm returns the optimized mask itself, metadata moved to headers.
  const std::string mask = transact(optimize_request("clip_b", 1, "?mask=pgm"));
  ASSERT_EQ(status_of(mask), "200") << mask;
  EXPECT_NE(mask.find("Content-Type: image/x-portable-graymap"), std::string::npos);
  EXPECT_NE(mask.find("X-Ganopc-Stage: "), std::string::npos);
  EXPECT_NE(mask.find("\r\n\r\nP5\n"), std::string::npos);

  const std::string metrics = transact(get_request("/metrics"));
  EXPECT_EQ(status_of(metrics), "200");
  EXPECT_NE(metrics.find("ganopc_serve_requests_total 2"), std::string::npos)
      << metrics;

  EXPECT_EQ(status_of(transact(get_request("/no/such/route"))), "404");
  EXPECT_EQ(status_of(transact(get_request("/v1/optimize"))), "405");

  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();

  // The ledger pairs a request_end with every request_start and brackets the
  // run with serve_start/serve_stop.
  const obs::LedgerFile lf = obs::read_ledger(path("serve.jsonl"));
  int starts = 0, ends = 0, serve_start = 0, serve_stop = 0;
  for (const auto& ev : lf.events) {
    const std::string type = ev.string_or("type", "");
    if (type == "request_start") ++starts;
    if (type == "request_end") ++ends;
    if (type == "serve_start") ++serve_start;
    if (type == "serve_stop") ++serve_stop;
  }
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(serve_start, 1);
  EXPECT_EQ(serve_stop, 1);
}

// One header value out of a raw HTTP response ("" when absent).
std::string header_of(const std::string& response, const std::string& name) {
  const std::size_t at = response.find(name + ": ");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + name.size() + 2;
  return response.substr(begin, response.find("\r\n", begin) - begin);
}

// Value of a `ganopc_...` sample in a /metrics exposition (-1 when absent).
double prom_value(const std::string& metrics, const std::string& sample) {
  const std::size_t at = metrics.find("\n" + sample + " ");
  if (at == std::string::npos) return -1.0;
  return std::atof(metrics.c_str() + at + 1 + sample.size() + 1);
}

TEST_F(ServeTest, FleetMetricsStageHeadersAndTraceCrossTheWorkerBoundary) {
  start_daemon("--workers 2 --trace-out " + path("trace.json"));

  // /readyz carries build/runtime identity for fleet-skew triage.
  const std::string ready = transact(get_request("/readyz"));
  ASSERT_EQ(status_of(ready), "200") << ready;
  EXPECT_NE(ready.find("\"version\":"), std::string::npos) << ready;
  EXPECT_NE(ready.find("\"simd\":"), std::string::npos);
  EXPECT_NE(ready.find("\"litho_backend\":"), std::string::npos);
  EXPECT_NE(ready.find("\"tcc_kernels\":"), std::string::npos);
  EXPECT_NE(ready.find("\"workers\":2"), std::string::npos) << ready;

  const std::string opt = transact(optimize_request("traced_a", 0));
  ASSERT_EQ(status_of(opt), "200") << opt << daemon_log();
  // Per-request stage attribution rides the response headers; litho time is
  // measured inside the *worker* and shipped back with the result.
  const std::string trace_hex = header_of(opt, "X-Ganopc-Trace");
  ASSERT_FALSE(trace_hex.empty()) << opt;
  EXPECT_FALSE(header_of(opt, "X-Ganopc-Stage-Queue-S").empty()) << opt;
  EXPECT_GT(std::atof(header_of(opt, "X-Ganopc-Stage-Litho-S").c_str()), 0.0)
      << opt;
  EXPECT_FALSE(header_of(opt, "X-Ganopc-Stage-Ilt-S").empty());
  EXPECT_FALSE(header_of(opt, "X-Ganopc-Stage-Encode-S").empty());

  // Worker-side litho/ILT/engine counters merged into the daemon's /metrics:
  // nonzero after one request, monotonic across a second.
  const std::string m1 = transact(get_request("/metrics"));
  EXPECT_GT(prom_value(m1, "ganopc_litho_simulate_calls"), 0.0) << m1;
  EXPECT_GT(prom_value(m1, "ganopc_ilt_optimize_calls"), 0.0);
  EXPECT_GT(prom_value(m1, "ganopc_batch_clip_calls"), 0.0);
  EXPECT_GT(prom_value(m1, "ganopc_serve_stage_litho_s_count"), 0.0) << m1;

  ASSERT_EQ(status_of(transact(optimize_request("traced_b", 1))), "200");
  const std::string m2 = transact(get_request("/metrics"));
  EXPECT_GE(prom_value(m2, "ganopc_litho_simulate_calls"),
            prom_value(m1, "ganopc_litho_simulate_calls"));
  EXPECT_GE(prom_value(m2, "ganopc_ilt_optimize_calls"),
            prom_value(m1, "ganopc_ilt_optimize_calls"));

  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();

  // The exit trace holds the supervisor's request span plus worker-recorded
  // spans for the same trace id — the raw material tools/trace_stitch
  // assembles into one nested tree (CI gates on that with --check).
  const std::string trace = read_bytes(path("trace.json"));
  ASSERT_FALSE(trace.empty()) << daemon_log();
  EXPECT_NE(trace.find("\"name\":\"serve.request\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"proc.task\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"ilt.optimize\""), std::string::npos);
  std::size_t traced_spans = 0;
  for (std::size_t at = trace.find("\"trace\":\"" + trace_hex + "\"");
       at != std::string::npos;
       at = trace.find("\"trace\":\"" + trace_hex + "\"", at + 1))
    ++traced_spans;
  EXPECT_GE(traced_spans, 3u) << "request root + worker spans expected";

  // Every sink reports the same stage seconds: the request_end ledger row
  // matches the response headers (printed at %.6f), and /metrics carries
  // each stage histogram.
  const obs::LedgerFile lf = obs::read_ledger(path("serve.jsonl"));
  const json::Value* end = nullptr;
  for (const auto& ev : lf.events)
    if (ev.string_or("type", "") == "request_end" &&
        ev.string_or("id", "") == "traced_a")
      end = &ev;
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end->string_or("trace", ""), trace_hex);
  const std::pair<const char*, const char*> stages[] = {
      {"queue", "Queue"}, {"dispatch", "Dispatch"}, {"decode", "Decode"},
      {"litho", "Litho"}, {"ilt", "Ilt"},           {"encode", "Encode"}};
  for (const auto& [key, header] : stages) {
    const std::string field = std::string(key) + "_s";
    ASSERT_NE(end->find(field), nullptr) << field;
    const std::string h = header_of(opt, std::string("X-Ganopc-Stage-") + header + "-S");
    ASSERT_FALSE(h.empty()) << header;
    EXPECT_NEAR(end->number_or(field, -1.0), std::atof(h.c_str()), 1e-6) << key;
    EXPECT_GE(prom_value(m2, "ganopc_serve_stage_" + field + "_count"), 1.0) << key;
  }
}

// The litho stage sums the outermost litho entry points only; litho.aerial
// (nested in simulate and pv_band) and simulate_batch (wrapping simulate)
// must not count the same seconds twice.
TEST_F(ServeTest, LithoStageIsTheSumOfTheOutermostLithoSpans) {
  start_daemon("--workers 1");
  const std::string opt = transact(optimize_request("litho_a", 0));
  ASSERT_EQ(status_of(opt), "200") << opt << daemon_log();
  const std::string litho = header_of(opt, "X-Ganopc-Stage-Litho-S");
  ASSERT_FALSE(litho.empty()) << opt;

  const std::string metrics = transact(get_request("/metrics"));
  double sum = 0.0;
  for (const char* span : {"simulate", "forward_relaxed", "gradient", "pv_band"})
    sum += std::max(0.0, prom_value(metrics, std::string("ganopc_litho_") + span +
                                                 "_seconds_sum"));
  EXPECT_GT(sum, 0.0) << metrics;
  EXPECT_NEAR(std::atof(litho.c_str()), sum, 1e-5) << metrics;

  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();
}

TEST_F(ServeTest, HostileClientsGetTypedErrorsAndTheDaemonSurvives) {
  start_daemon("--workers 1 --max-body-mb 1 --read-timeout-s 1");

  // Garbage that never was HTTP.
  EXPECT_EQ(status_of(transact("BOGUS\r\n\r\n")), "400");
  // A Content-Length over the cap is refused before any body byte arrives.
  EXPECT_EQ(status_of(transact("POST /v1/optimize HTTP/1.1\r\n"
                               "Content-Length: 2000000\r\n\r\n")),
            "413");
  EXPECT_EQ(status_of(transact("POST /v1/optimize HTTP/1.1\r\n"
                               "Transfer-Encoding: chunked\r\n\r\n")),
            "501");
  // An empty body is a typed 400, not a worker dispatch.
  EXPECT_EQ(status_of(transact("POST /v1/optimize HTTP/1.1\r\n"
                               "Content-Length: 0\r\nConnection: close\r\n\r\n")),
            "400");

  // Truncated request: client gives up mid-header. The daemon just reaps the
  // connection.
  {
    const int fd = connect_daemon();
    ASSERT_GE(fd, 0);
    send_all(fd, "POST /v1/optimize HTT");
    ::close(fd);
  }

  // Slow-loris: a connection with partial progress is answered 408 when the
  // read timeout fires.
  {
    const int fd = connect_daemon();
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /he");
    const std::string resp = read_response(fd);  // blocks until the sweep
    EXPECT_EQ(status_of(resp), "408") << resp;
  }

  // A connection that never sends a byte is reaped silently (idle, not loris).
  {
    const int fd = connect_daemon();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(read_response(fd), "");
  }

  // After all of the above the daemon still serves.
  EXPECT_EQ(status_of(transact(get_request("/healthz"))), "200");
  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();
}

TEST_F(ServeTest, QueueShedsDeadlinesPropagateAndWorkerDeathsAreContained) {
  start_daemon("--workers 1 --max-queue 1 --breaker-kills 10 --accept-factor 100",
               "proc.clip_fault:0:-1");

  // A wedges the only worker: the hang burns its whole 2 s budget, the
  // supervisor SIGKILLs the worker at the task-deadline backstop, and the
  // retry finds the deadline already spent -> 504, never a silent drop.
  const int fd_a = send_optimize("wedge_hang1", 0, "?deadline_s=2");
  ::usleep(300 * 1000);  // let A reach the worker
  // B is admitted behind A; its 1 s budget expires in the queue -> 504.
  const int fd_b = send_optimize("queued_b", 1, "?deadline_s=1");
  ::usleep(200 * 1000);
  // C finds the queue full -> immediate 503 with an honest Retry-After.
  const std::string shed = transact(optimize_request("shed_c", 2));
  EXPECT_EQ(status_of(shed), "503") << shed;
  EXPECT_NE(shed.find("Retry-After: "), std::string::npos);
  EXPECT_NE(shed.find("queue full"), std::string::npos);

  const std::string resp_a = read_response(fd_a);
  EXPECT_EQ(status_of(resp_a), "504") << resp_a << daemon_log();
  EXPECT_NE(resp_a.find("DeadlineExceeded"), std::string::npos);
  const std::string resp_b = read_response(fd_b);
  EXPECT_EQ(status_of(resp_b), "504") << resp_b;

  // Deadline-aware admission: with the observed task time (EWMA now holds
  // A/B's multi-second walls) a 1 s budget behind another wedged request is
  // known-unmeetable -> shed up front with 429.
  const int fd_d = send_optimize("wedge2_hang1", 3, "?deadline_s=2");
  ::usleep(300 * 1000);
  const std::string infeasible =
      transact(optimize_request("feas_e", 0, "?deadline_s=1"));
  EXPECT_EQ(status_of(infeasible), "429") << infeasible;
  EXPECT_NE(infeasible.find("Retry-After: "), std::string::npos);
  EXPECT_NE(infeasible.find("deadline unmeetable"), std::string::npos);
  EXPECT_EQ(status_of(read_response(fd_d)), "504");

  // A worker SIGSEGV mid-request costs one rung, not the daemon: the retry
  // answers from the MB-OPC fallback with the crash count reported.
  const std::string crashed = transact(optimize_request("boom_segv1", 1));
  ASSERT_EQ(status_of(crashed), "200") << crashed << daemon_log();
  EXPECT_NE(crashed.find("\"crashes\":1"), std::string::npos);
  EXPECT_NE(crashed.find("\"stage\":\"mbopc\""), std::string::npos);

  // Three worker deaths later (two hang kills, one segv) the daemon is
  // healthy and accounting for its losses.
  const std::string ready = transact(get_request("/readyz"));
  EXPECT_EQ(status_of(ready), "200") << ready;
  EXPECT_NE(ready.find("\"workers_lost\":3"), std::string::npos) << ready;

  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();
}

TEST_F(ServeTest, PoisonRequestIsQuarantinedAndTheBreakerDegrades) {
  start_daemon("--workers 1 --breaker-kills 2 --breaker-cooldown-s 300"
               " --accept-factor 100",
               "proc.clip_fault:0:-1");

  // boom_kill SIGKILLs every worker it meets: three kills -> quarantined,
  // answered 502 — and the daemon survived all three deaths.
  const std::string poison = transact(optimize_request("boom_kill", 0));
  EXPECT_EQ(status_of(poison), "502") << poison << daemon_log();
  EXPECT_NE(poison.find("Quarantined"), std::string::npos);

  // Two consecutive deaths tripped the breaker: subsequent requests are
  // admitted degraded-only (straight to MB-OPC) and say so.
  const std::string ready = transact(get_request("/readyz"));
  EXPECT_NE(ready.find("\"breaker\":\"open\""), std::string::npos) << ready;
  const std::string degraded = transact(optimize_request("after_poison", 1));
  ASSERT_EQ(status_of(degraded), "200") << degraded << daemon_log();
  EXPECT_NE(degraded.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(degraded.find("\"stage\":\"mbopc\""), std::string::npos);

  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();
}

TEST_F(ServeTest, SigtermUnderLoadDrainsEveryAdmittedRequestAndExitsZero) {
  start_daemon("--workers 1 --drain-grace-s 60", "proc.clip_fault:0:-1");

  // A wedges the worker (so work is genuinely in flight at SIGTERM); B waits
  // in the queue with budget to spare.
  const int fd_a = send_optimize("wedge_hang1", 0, "?deadline_s=2");
  ::usleep(300 * 1000);
  const int fd_b = send_optimize("drain_b", 1);
  ::usleep(200 * 1000);

  ::kill(daemon_pid_, SIGTERM);

  // The listener closes promptly: new connections are refused while the
  // admitted requests keep draining.
  bool refused = false;
  for (int i = 0; i < 50 && !refused; ++i) {
    const int fd = connect_daemon();
    if (fd < 0) {
      refused = true;
    } else {
      ::close(fd);
      ::usleep(100 * 1000);
    }
  }
  EXPECT_TRUE(refused);

  // Both in-flight requests still get their typed answers: A's budget died
  // with the hang (504), B completes normally (200).
  const std::string resp_a = read_response(fd_a);
  EXPECT_EQ(status_of(resp_a), "504") << resp_a << daemon_log();
  const std::string resp_b = read_response(fd_b);
  EXPECT_EQ(status_of(resp_b), "200") << resp_b << daemon_log();
  EXPECT_NE(resp_b.find("\"id\":\"drain_b\""), std::string::npos);

  int status = 0;
  ::waitpid(daemon_pid_, &status, 0);
  daemon_pid_ = -1;
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();

  // Ledger completeness under drain: every admitted request has both its
  // request_start and its request_end, and the drain itself is recorded.
  const obs::LedgerFile lf = obs::read_ledger(path("serve.jsonl"));
  int starts = 0, ends = 0, drains = 0;
  for (const auto& ev : lf.events) {
    const std::string type = ev.string_or("type", "");
    if (type == "request_start") ++starts;
    if (type == "request_end") ++ends;
    if (type == "serve_drain") ++drains;
  }
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(drains, 1);
}

// A request still running when the drain grace runs out is ended by the
// daemon, not by its worker, and keeps its trace on every sink.
TEST_F(ServeTest, DrainGraceExpiryEndsAHungRequestWithItsTrace) {
  start_daemon("--workers 1 --drain-grace-s 1", "proc.clip_fault:0:-1");
  const int fd = send_optimize("stuck_hang", 0, "?deadline_s=30");
  ::usleep(300 * 1000);  // let it reach the worker
  const int status = stop_daemon();
  ASSERT_TRUE(WIFEXITED(status)) << daemon_log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << daemon_log();

  const std::string resp = read_response(fd);
  EXPECT_EQ(status_of(resp), "504") << resp << daemon_log();
  const std::string trace_hex = header_of(resp, "X-Ganopc-Trace");
  EXPECT_FALSE(trace_hex.empty()) << resp;

  const obs::LedgerFile lf = obs::read_ledger(path("serve.jsonl"));
  int ends = 0;
  for (const auto& ev : lf.events) {
    if (ev.string_or("type", "") != "request_end") continue;
    ++ends;
    EXPECT_EQ(ev.string_or("id", ""), "stuck_hang");
    EXPECT_EQ(ev.number_or("http", 0.0), 504.0);
    EXPECT_NE(ev.string_or("trace", ""), "");
    EXPECT_EQ(ev.string_or("trace", ""), trace_hex);
  }
  EXPECT_EQ(ends, 1);
}

}  // namespace
}  // namespace ganopc
