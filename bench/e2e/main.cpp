// e2e_bench — runs one benchmark workload through ganopc's public API in this
// process (or, for serve, against a `ganopc serve` child) and reports its
// metrics. run.py builds it and starts one fresh process per workload.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --fixture FILE --fixture-fnv1a HEX --ganopc PATH --work-dir DIR
//             [--trace-out FILE] [--smoke 0|1]
//
// --trace 0 measures the end-to-end metrics with observability off. --trace 1
// is the separate traced run: it skips the timed window (serve keeps its load,
// which the serve layer metrics come from) and reports the per-layer metrics.
// Both check every output they produce.
//
// Progress goes to stderr. The last stdout line is one JSON object: every
// metric this run measured (value, unit, sample count), the attempted and
// failed counts and the failed correctness checks. Exit status: 0 when every
// check passed, 1 when one failed, 2 on a usage or fixture error.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "engine/batch_runner.hpp"
#include "engine/clip_io.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "litho/backend.hpp"
#include "loadgen.hpp"
#include "probes.hpp"
#include "replay.hpp"

namespace {

using namespace ganopc;
using namespace e2e;

constexpr int kPoolWorkers = 4;         // batch-8nm-pool: one thread per worker
constexpr int kServeWorkers = 2;        // serve-16nm-mixed daemon workers
constexpr int kServeConnections = 4;    // closed-loop callers
constexpr double kServeHotShare = 0.5;  // share of requests repeating a hot clip

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string fixture, fixture_fnv1a, ganopc, work_dir, trace_out;
};

Options parse_options(int argc, char** argv) {
  if (argc % 2 == 0) throw std::runtime_error("every flag takes one value");
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("expected --flag, got " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error(std::string("missing --") + k);
    return it->second;
  };
  Options o;
  o.workload = need("workload");
  o.seed = std::stoull(need("seed"));
  o.seconds = std::stod(need("seconds"));
  o.trace = kv.count("trace") != 0 && kv["trace"] != "0";
  o.smoke = kv.count("smoke") != 0 && kv["smoke"] != "0";
  o.fixture = need("fixture");
  o.fixture_fnv1a = need("fixture-fnv1a");
  o.ganopc = need("ganopc");
  o.work_dir = need("work-dir");
  if (kv.count("trace-out") != 0) o.trace_out = kv["trace-out"];
  return o;
}

/// Sample counts of one run. Smoke mode shrinks them so the self-test stays
/// short while still exercising every code path and metric.
struct Plan {
  int setup_reps = 3;      ///< set-ups timed for setup_s (at least)
  int quality = 0;
  int min_items = 0;
  int trace_clips = 0;
  int warmup_requests = 40;
  int pool_check = 2;      ///< pool rows re-run in-process and compared
  double probe_s = 0.3;    ///< per machine/kernel probe
  int clip_pool = 0;       ///< distinct timed clips generated up front
  int ilt_iterations = 0;  ///< 0 = the quick preset's 60
};

Plan make_plan(const Workload& w, bool smoke) {
  Plan p;
  p.quality = w.quality_clips;
  p.min_items = w.min_items;
  p.trace_clips = w.trace_clips;
  // Enough distinct clips for a run several times faster than today's.
  p.clip_pool = w.litho_grid >= 256 ? 256 : 2048;
  if (smoke) {
    p.setup_reps = 1;
    p.quality = w.front == Front::Serve ? 2 : 1;
    p.min_items = w.front == Front::Serve ? 4 : 1;
    p.trace_clips = 1;
    p.warmup_requests = 2;
    p.pool_check = 1;
    p.probe_s = 0.02;
    p.clip_pool = 8;
    p.ilt_iterations = 6;
  }
  return p;
}

int pool_threads() { return static_cast<int>(ThreadPool::instance().size()); }

void log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "[e2e] ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
}

/// Opens the session repeatedly and keeps the last one: at least `min_reps`
/// times, and up to 15 while the constructions total under a second, for a
/// steady setup_s median. A null `rep` (the traced run) opens it once and
/// reports nothing.
std::unique_ptr<engine::Engine> open_engine(const engine::EngineOptions& o, int min_reps,
                                            Report* rep) {
  std::unique_ptr<engine::Engine> eng;
  std::vector<double> times;
  const std::uint64_t start = now_ns();
  const std::size_t floor = rep == nullptr ? 1 : static_cast<std::size_t>(min_reps);
  while (times.size() < floor ||
         (floor > 1 && seconds_since(start) < 1.0 && times.size() < 15)) {
    eng.reset();
    const std::uint64_t t = now_ns();
    eng = std::make_unique<engine::Engine>(o);
    times.push_back(seconds_since(t));
  }
  if (rep != nullptr) {
    rep->set("setup_s", percentile(times, 0.5), "s", times.size());
    log("setup: %zu Engine constructions, median %.4f s", times.size(),
        percentile(times, 0.5));
  }
  return eng;
}

bool same_row(const engine::BatchClipResult& a, const engine::BatchClipResult& b) {
  return a.code == b.code && a.stage == b.stage && a.l2_nm2 == b.l2_nm2 &&
         a.pvb_nm2 == b.pvb_nm2 && a.ilt_iterations == b.ilt_iterations &&
         a.retries == b.retries && a.fallbacks == b.fallbacks;
}

void count_rows(Report& rep, const std::vector<engine::BatchClipResult>& rows) {
  for (const auto& r : rows) {
    ++rep.attempted;
    if (!r.ok()) {
      ++rep.failed;
      rep.check(false, "clip " + r.id + " failed: " + r.error);
    }
  }
}

/// Quality metrics come from the fixed quality set only, so they repeat
/// exactly across seeds and runs of one build.
void set_quality(Report& rep, const std::vector<engine::BatchClipResult>& rows) {
  count_rows(rep, rows);
  std::vector<double> l2, pvb;
  for (const auto& r : rows) {
    if (!r.ok()) continue;
    l2.push_back(r.l2_nm2);
    pvb.push_back(static_cast<double>(r.pvb_nm2));
  }
  rep.set("l2_nm2_mean", mean(l2), "nm2", l2.size());
  rep.set("pvb_nm2_mean", mean(pvb), "nm2", pvb.size());
  log("quality set: %zu clips, mean L2 %.1f nm^2, mean PVB %.1f nm^2", l2.size(),
      mean(l2), mean(pvb));
}

void set_latency(Report& rep, const std::vector<double>& latency, double window_s,
                 double cpu_s, double rss_mb) {
  const std::size_t n = latency.size();
  rep.set("latency_p50_s", percentile(latency, 0.5), "s", n);
  rep.set("latency_p90_s", percentile(latency, 0.9), "s", n);
  rep.set("throughput_per_s", window_s > 0.0 ? static_cast<double>(n) / window_s : 0.0,
          "1/s", n);
  rep.set("cpu_s_per_item", n > 0 ? cpu_s / static_cast<double>(n) : 0.0, "s", n);
  rep.set("peak_rss_mb", rss_mb, "MB", 1);
  log("timed: %zu items in %.2f s, p50 %.4f s, p90 %.4f s", n, window_s,
      percentile(latency, 0.5), percentile(latency, 0.9));
}

/// The proc and serve layer metrics of the traced run; a workload without
/// that front-end reports 0.
void set_front_metrics(Report& rep, double pool_efficiency, double dispatch_s,
                       double queue_s, double worker_s, double residual_s,
                       std::size_t n) {
  rep.set("proc.pool_efficiency", pool_efficiency, "ratio", n);
  rep.set("proc.dispatch_s", dispatch_s, "s", n);
  rep.set("serve.queue_s", queue_s, "s", n);
  rep.set("serve.worker_s", worker_s, "s", n);
  rep.set("serve.residual_s", residual_s, "s", n);
}

std::vector<ClipFile> first(const std::vector<ClipFile>& clips, std::size_t n) {
  return {clips.begin(), clips.begin() + static_cast<long>(std::min(n, clips.size()))};
}

// ---------------------------------------------------------------- traced run

void set_probe_metrics(Report& rep, const engine::Engine& eng, double probe_s) {
  const MachinePeak m =
      probe_machine(static_cast<int>(ThreadPool::default_thread_count()), probe_s);
  log("machine: FMA loop %.1f GFLOP/s on 1 core, %.1f on %d cores "
      "(flops = 16 per 8-wide FMA)",
      m.fma_gflops_1core, m.fma_gflops_all, m.threads);
  log("machine: triad a=b+s*c %.1f GB/s, 3 arrays x %zu MiB of doubles "
      "(bytes = 3 * 8 * n), last-level cache reported %ld KiB",
      m.triad_gbs, m.triad_array_bytes >> 20, ::sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024);
  rep.set("machine.fma_peak_gflops_1core", m.fma_gflops_1core, "GFLOP/s", 1);
  rep.set("machine.fma_peak_gflops_allcores", m.fma_gflops_all, "GFLOP/s", 1);
  rep.set("machine.triad_gbs", m.triad_gbs, "GB/s", 1);
  // The kernels run on the shared pool; their ceiling is the FMA peak of
  // that many cores.
  const int threads = pool_threads();
  const double peak =
      threads >= m.threads ? m.fma_gflops_all : m.fma_gflops_1core * threads;
  for (const int n : {128, 256}) {
    const KernelRate r = probe_rfft(n, probe_s);
    log("fft: rfft_2d %dx%d %.6f s/call, %.2f GFLOP/s on %d threads "
        "(flops = 2.5 * n^2 * log2(n^2))",
        n, n, r.seconds_per_call, r.gflops, threads);
    if (n == eng.config().litho_grid) {
      rep.set("fft.rfft2d_s", r.seconds_per_call, "s", 1);
      rep.set("fft.gflops", r.gflops, "GFLOP/s", 1);
      rep.set("fft.peak_ratio", r.gflops / peak, "ratio", 1);
    }
  }
  const auto& cfg = eng.config();
  const KernelRate g =
      probe_generator_sgemm(cfg.gan_grid, static_cast<int>(cfg.base_channels), probe_s);
  log("nn: sgemm over the %dx%d generator's 6 forward GEMMs %.6f s/pass, "
      "%.3f GFLOP/s (flops = sum of 2*M*N*K)",
      cfg.gan_grid, cfg.gan_grid, g.seconds_per_call, g.gflops);
  rep.set("nn.sgemm_gflops", g.gflops, "GFLOP/s", 1);
  rep.set("nn.sgemm_peak_ratio", g.gflops / peak, "ratio", 1);
}

void set_stage_metrics(Report& rep, const Replayer& rp, const engine::Engine& eng,
                       const engine::EngineOptions& opts) {
  const int n = rp.replayed();
  const StageSums& s = rp.sums();
  auto per = [n](double v) { return n > 0 ? v / n : 0.0; };
  const auto un = static_cast<std::size_t>(n);
  rep.set("engine.submit_s", per(s.submit), "s", un);
  rep.set("engine.decode_s", per(s.decode), "s", un);
  rep.set("engine.encode_s", per(s.encode), "s", un);
  const double stages =
      s.decode + s.rasterize + s.gate + s.resample + s.infer + s.ilt + s.pv_band;
  rep.set("engine.unattributed_s", per(s.submit - stages), "s", un);
  rep.set("geometry.rasterize_s", per(s.rasterize), "s", un);
  rep.set("geometry.resample_s", per(s.resample), "s", un);
  rep.set("nn.infer_s", per(s.infer), "s", un);
  rep.set("nn.infer_share", s.submit > 0 ? s.infer / s.submit : 0.0, "ratio", un);
  rep.set("litho.gate_s", per(s.gate), "s", un);
  rep.set("litho.pv_band_s", per(s.pv_band), "s", un);
  rep.set("litho.gradient_call_s", per(s.gradient_call), "s", un);
  rep.set("litho.ilt_share", s.ilt > 0 ? s.ilt_litho / s.ilt : 0.0, "ratio", un);
  rep.set("ilt.optimize_s", per(s.ilt), "s", un);
  rep.set("ilt.iterations", per(static_cast<double>(s.iterations)), "count", un);
  rep.set("ilt.s_per_iter",
          s.iterations > 0 ? s.ilt / static_cast<double>(s.iterations) : 0.0, "s", un);
  rep.set("trace.overhead_ratio", s.untraced > 0 ? s.traced / s.untraced : 0.0, "ratio",
          un + static_cast<std::size_t>(rp.skipped()));
  log("replay: %d clips replayed, %d skipped (retry/fallback); stages sum to "
      "%.1f%% of engine.submit_s; traced/untraced submit %.3f",
      n, rp.skipped(), s.submit > 0 ? 100.0 * stages / s.submit : 0.0,
      s.untraced > 0 ? s.traced / s.untraced : 0.0);

  const std::uint64_t t = now_ns();
  (void)litho::make_litho_backend(opts.backend)
      ->build(eng.config().optics, eng.config().litho_grid, eng.config().litho_pixel_nm());
  rep.set("litho.build_s", seconds_since(t), "s", 1);
}

/// The traced section every workload ends with: the probes, then each of
/// `clips` submitted untraced, submitted traced and replayed (replay.hpp).
/// Returns the untraced submissions.
std::vector<ClipRun> run_traced(Report& rep, const engine::Engine& eng,
                                const engine::EngineOptions& opts,
                                const std::vector<ClipFile>& clips, const Plan& plan,
                                SpanLog& spans) {
  set_probe_metrics(rep, eng, plan.probe_s);
  Replayer rp(eng, spans);
  std::vector<ClipRun> runs;
  for (std::size_t i = 0; i < clips.size(); ++i) runs.push_back(rp.run(clips[i], i + 1, rep));
  // Every plan was built by the submits before: a miss here means some call
  // builds a plan per invocation.
  rep.check(rp.sums().plan_cache_misses == 0,
            "fft plan cache missed " + std::to_string(rp.sums().plan_cache_misses) +
                " time(s) in steady state");
  set_stage_metrics(rep, rp, eng, opts);
  return runs;
}

// ------------------------------------------------------------------- direct

void run_direct(const Workload& w, const Options& opt, const Plan& plan, Report& rep,
                SpanLog& spans) {
  const engine::EngineOptions eopts = engine_options(w, opt.fixture, plan.ilt_iterations);
  const auto eng = open_engine(eopts, plan.setup_reps, opt.trace ? nullptr : &rep);
  // A traced run only needs one clip to warm the session.
  const auto quality =
      make_clips(kQualitySeed, opt.trace ? 1 : plan.quality, opt.work_dir, "q");
  const auto clips = make_clips(timed_seed(opt.seed),
                                opt.trace ? plan.trace_clips : plan.clip_pool,
                                opt.work_dir, "c");
  engine::SubmitOptions so;
  so.want_mask = true;
  std::vector<engine::BatchClipResult> qrows;
  for (const auto& q : quality) qrows.push_back(eng->submit({q.id, q.path, {}}, so).row);
  if (opt.trace) {
    count_rows(rep, qrows);
    set_front_metrics(rep, 0, 0, 0, 0, 0, 0);
    run_traced(rep, *eng, eopts, clips, plan, spans);
    return;
  }
  set_quality(rep, qrows);

  // One caller, closed loop: decode (inside submit) -> submit -> encode.
  std::vector<double> latency;
  const double cpu0 = cpu_seconds_self();
  const std::uint64_t t0 = now_ns();
  for (const ClipFile& c : clips) {
    if (seconds_since(t0) >= opt.seconds && static_cast<int>(latency.size()) >= plan.min_items)
      break;
    const std::uint64_t t = now_ns();
    const engine::MaskResult r = eng->submit({c.id, c.path, {}}, so);
    const std::string pgm = r.row.ok() ? engine::encode_mask_pgm(r.mask) : "";
    latency.push_back(seconds_since(t));
    ++rep.attempted;
    if (!r.row.ok() || pgm.empty()) {
      ++rep.failed;
      rep.check(false, c.id + " failed: " + r.row.error);
    }
  }
  set_latency(rep, latency, seconds_since(t0), cpu_seconds_self() - cpu0,
              peak_rss_mb_self());
  if (latency.size() == clips.size())
    log("warning: all %zu generated clips used", clips.size());
}

// --------------------------------------------------------------------- pool

std::vector<engine::BatchClip> as_batch(const std::vector<ClipFile>& clips) {
  std::vector<engine::BatchClip> out;
  for (const ClipFile& c : clips) out.push_back({c.id, c.path, {}});
  return out;
}

void run_pool(const Workload& w, const Options& opt, const Plan& plan, Report& rep,
              SpanLog& spans) {
  const engine::EngineOptions eopts = engine_options(w, opt.fixture, plan.ilt_iterations);
  const auto eng = open_engine(eopts, plan.setup_reps, opt.trace ? nullptr : &rep);
  const auto quality = make_clips(kQualitySeed, plan.quality, opt.work_dir, "q");
  engine::BatchConfig bc;
  bc.workers = kPoolWorkers;
  const engine::BatchRunner runner(*eng, bc);

  // The quality batch, one clip per worker, warms the pool path and sizes
  // the timed batch so it lasts about --seconds.
  const std::uint64_t tq = now_ns();
  const engine::BatchSummary qs = runner.run(as_batch(quality));
  const double quality_rate = static_cast<double>(quality.size()) / seconds_since(tq);
  set_quality(rep, qs.clips);
  rep.check(qs.worker_deaths == 0, "quality batch lost a worker");

  // The pool's rows must equal in-process submits of the same clips. The
  // traced run makes them on one thread — a pool worker's configuration —
  // which also gives the single-thread time the pool efficiency divides by.
  std::vector<ClipRun> runs;
  if (opt.trace) {
    const auto threads = static_cast<std::size_t>(pool_threads());
    ThreadPool::reset(1);
    runs = run_traced(rep, *eng, eopts, first(quality, plan.trace_clips), plan, spans);
    ThreadPool::reset(threads);
  } else {
    for (const ClipFile& q : first(quality, static_cast<std::size_t>(plan.pool_check)))
      runs.push_back({eng->submit({q.id, q.path, {}}).row, 0.0, ""});
  }
  std::vector<double> one_thread_s;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ++rep.attempted;
    rep.check(same_row(runs[i].row, qs.clips[i]),
              "pool row of " + quality[i].id + " differs from its in-process submit");
    one_thread_s.push_back(runs[i].untraced_s);
  }
  if (opt.trace) {
    // On the quality batch: each worker ran one clip, so this is the share
    // of the ideal workers-fold speed-up one round of the pool achieves.
    set_front_metrics(rep, quality_rate / (kPoolWorkers / mean(one_thread_s)), 0, 0, 0,
                      0, one_thread_s.size());
    return;
  }

  const auto clips = make_clips(timed_seed(opt.seed), plan.clip_pool, opt.work_dir, "c");
  const int rounds = static_cast<int>(std::ceil(quality_rate * opt.seconds / kPoolWorkers));
  const auto n = static_cast<std::size_t>(std::max(plan.min_items, rounds * kPoolWorkers));
  const double cpu0 = cpu_seconds_self() + cpu_seconds_children();
  const std::uint64_t t0 = now_ns();
  const engine::BatchSummary s = runner.run(as_batch(first(clips, n)));
  const double window = seconds_since(t0);
  const double cpu = cpu_seconds_self() + cpu_seconds_children() - cpu0;
  std::vector<double> latency;  // each clip's submit time inside its worker
  for (const auto& row : s.clips) {
    latency.push_back(row.runtime_s);
    ++rep.attempted;
    if (!row.ok()) {
      ++rep.failed;
      rep.check(false, row.id + " failed in the pool: " + row.error);
    }
  }
  rep.check(s.worker_deaths == 0,
            "pool lost " + std::to_string(s.worker_deaths) + " worker(s)");
  set_latency(rep, latency, window, cpu,
              std::max(peak_rss_mb_self(), peak_rss_mb_children()));
}

// -------------------------------------------------------------------- serve

/// A `ganopc serve` child: started in the constructor, stopped (SIGTERM,
/// then SIGKILL after a grace period) and reaped by stop() or the destructor.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log_path) {
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Dies with the harness, so an aborted run leaves no daemon behind.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(args[0], args.data());
      std::_Exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// Waits for the port file, then for /readyz to answer 200.
  int wait_ready(const std::string& port_file, double timeout_s) {
    const std::uint64_t t = now_ns();
    int port = 0;
    while (seconds_since(t) < timeout_s) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("ganopc serve exited during start-up");
      }
      if (port == 0) std::ifstream(port_file) >> port;
      if (port > 0 && http_get_status(port, "/readyz") == 200) return port;
      ::usleep(5000);
    }
    throw std::runtime_error("ganopc serve not ready within timeout");
  }

  /// Returns the exit status (128 + signal when killed), -1 if not running.
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::uint64_t t = now_ns();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t) > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(5000);
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

 private:
  int pid_ = -1;
};

double header_seconds(const LoadResponse& r, const char* name) {
  const auto it = r.headers.find(name);
  return it == r.headers.end() ? 0.0 : std::atof(it->second.c_str());
}

void run_serve(const Workload& w, const Options& opt, const Plan& plan, Report& rep,
               SpanLog& spans) {
  const engine::EngineOptions eopts = engine_options(w, opt.fixture, plan.ilt_iterations);
  const auto hot = make_clips(kQualitySeed, plan.quality, opt.work_dir, "h");
  const auto unique = make_clips(timed_seed(opt.seed), plan.clip_pool, opt.work_dir, "u");
  const auto& cfg = eopts.config;
  auto argv_for = [&](const std::string& port_file) {
    return std::vector<std::string>{
        opt.ganopc, "serve", "--scale", "quick",
        "--grid", std::to_string(cfg.litho_grid),
        "--iters", std::to_string(cfg.ilt.max_iterations),
        "--litho-backend", w.backend, "--generator", opt.fixture,
        "--workers", std::to_string(kServeWorkers), "--host", "127.0.0.1",
        "--port", "0", "--port-file", port_file,
        "--spool-dir", opt.work_dir + "/spool"};
  };
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  int port = 0;
  for (int r = 0; r < (opt.trace ? 1 : plan.setup_reps); ++r) {
    if (daemon) daemon->stop();
    const std::string port_file = opt.work_dir + "/port" + std::to_string(r);
    const std::uint64_t t = now_ns();
    daemon = std::make_unique<Daemon>(argv_for(port_file), opt.work_dir + "/serve.log");
    port = daemon->wait_ready(port_file, 120.0);
    setup.push_back(seconds_since(t));
  }
  if (!opt.trace) {
    rep.set("setup_s", percentile(setup, 0.5), "s", setup.size());
    log("setup: %zu daemon starts to /readyz 200, median %.4f s", setup.size(),
        percentile(setup, 0.5));
  }

  // Half the requests repeat one of the hot clips, half are distinct.
  Prng pick(opt.seed ^ 0x5e57e2e0ULL);
  std::size_t next_unique = 0, sent = 0;
  auto next = [&]() {
    LoadRequest req;
    req.id = "r" + std::to_string(sent++);
    if (pick.uniform() < kServeHotShare || next_unique >= unique.size()) {
      req.clip = static_cast<int>(pick() % hot.size());
      req.body = hot[static_cast<std::size_t>(req.clip)].text;
    } else {
      req.clip = static_cast<int>(hot.size() + next_unique);
      req.body = unique[next_unique++].text;
    }
    return req;
  };
  double cpu0 = 0.0;
  LoadConfig lc;
  lc.port = port;
  lc.connections = kServeConnections;
  lc.warmup = plan.warmup_requests;
  lc.seconds = opt.seconds;
  lc.min_requests = plan.min_items;
  lc.on_measure_start = [&] { cpu0 = cpu_seconds_tree(daemon->pid()) + cpu_seconds_self(); };
  const LoadResult load = run_closed_loop(lc, next);
  const double cpu = cpu_seconds_tree(daemon->pid()) + cpu_seconds_self() - cpu0;
  const double rss = std::max(peak_rss_mb_self(), peak_rss_mb_tree(daemon->pid()));
  const int exit_code = daemon->stop();
  rep.check(exit_code == 0, "ganopc serve exited " + std::to_string(exit_code) +
                                " after SIGTERM (expected a clean drain)");

  // In-process reference for the hot set, made after the daemon is gone so
  // it never competes with the load. The traced run's untraced submits are
  // that reference.
  const auto eng = open_engine(eopts, 1, nullptr);
  std::vector<ClipRun> refs;
  if (opt.trace) {
    refs = run_traced(rep, *eng, eopts, hot, plan, spans);
  } else {
    engine::SubmitOptions so;
    so.want_mask = true;
    for (const auto& h : hot) {
      const engine::MaskResult r = eng->submit({h.id, h.path, {}}, so);
      refs.push_back({r.row, 0.0, r.row.ok() ? engine::encode_mask_pgm(r.mask) : ""});
    }
  }
  std::vector<engine::BatchClipResult> ref_rows;
  for (const ClipRun& r : refs) ref_rows.push_back(r.row);
  set_quality(rep, ref_rows);

  std::vector<double> latency, queue, dispatch, worker, residual;
  std::size_t hot_served = 0, mismatched = 0;
  for (const LoadResponse& r : load.responses) {
    ++rep.attempted;
    bool ok = r.status == 200;
    if (ok && r.clip < static_cast<int>(hot.size())) {
      const ClipRun& ref = refs[static_cast<std::size_t>(r.clip)];
      const auto l2 = r.headers.find("x-ganopc-l2-nm2");
      ok = r.body == ref.pgm && l2 != r.headers.end() &&
           l2->second == std::to_string(ref.row.l2_nm2);
      if (!ok) ++mismatched;
      ++hot_served;
    } else if (ok) {
      ok = r.body.rfind("P5\n" + std::to_string(cfg.litho_grid) + " ", 0) == 0;
    }
    if (!ok) {
      ++rep.failed;
      if (rep.failures.size() < 5)
        rep.check(false, "request for clip " + std::to_string(r.clip) + " got HTTP " +
                             std::to_string(r.status) + " " + r.error +
                             (r.status == 200 ? " with a wrong mask" : ""));
    }
    if (r.warmup) continue;
    latency.push_back(r.latency_s);
    const double q = header_seconds(r, "x-ganopc-stage-queue-s");
    const double d = header_seconds(r, "x-ganopc-stage-dispatch-s");
    const double wk = header_seconds(r, "x-ganopc-stage-decode-s") +
                      header_seconds(r, "x-ganopc-stage-ilt-s") +
                      header_seconds(r, "x-ganopc-stage-encode-s");
    queue.push_back(q);
    dispatch.push_back(d);
    worker.push_back(wk);
    residual.push_back(r.latency_s - q - d - wk);
  }
  log("serve: %zu responses (%zu warm-up), %zu hot, %zu hot mismatches",
      load.responses.size(), load.responses.size() - latency.size(), hot_served,
      mismatched);
  if (opt.trace)
    set_front_metrics(rep, 0, percentile(dispatch, 0.5), percentile(queue, 0.5),
                      percentile(worker, 0.5), percentile(residual, 0.5), latency.size());
  else
    set_latency(rep, latency, load.window_s, cpu, rss);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const Workload* w = nullptr;
  try {
    opt = parse_options(argc, argv);
    w = find_workload(opt.workload);
    if (w == nullptr) throw std::runtime_error("unknown workload " + opt.workload);
    const std::uint64_t want = std::stoull(opt.fixture_fnv1a, nullptr, 16);
    const std::uint64_t got = fnv1a64_bytes(read_file(opt.fixture));
    if (got != want) {
      std::fprintf(stderr,
                   "[e2e] fixture %s has FNV-1a %016llx, expected %016llx: "
                   "refusing to run on changed inputs\n",
                   opt.fixture.c_str(), static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2e] error: %s\n", e.what());
    return 2;
  }

  const Plan plan = make_plan(*w, opt.smoke);
  Report rep;
  SpanLog spans;
  log("workload %s seed %llu, %.0f s, trace %d, %d threads", w->name,
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
      pool_threads());
  try {
    switch (w->front) {
      case Front::Direct: run_direct(*w, opt, plan, rep, spans); break;
      case Front::Pool: run_pool(*w, opt, plan, rep, spans); break;
      case Front::Serve: run_serve(*w, opt, plan, rep, spans); break;
    }
    if (opt.trace && !opt.trace_out.empty()) {
      spans.write_chrome(opt.trace_out);
      log("wrote %s", opt.trace_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2e] error: %s\n", e.what());
    return 1;
  }
  for (const auto& f : rep.failures) log("CHECK FAILED: %s", f.c_str());
  std::printf("%s\n", rep.to_json(w->name, opt.seed).c_str());
  std::fflush(stdout);
  return rep.failures.empty() && rep.failed == 0 ? 0 : 1;
}
