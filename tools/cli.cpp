// ganopc — command-line driver for the mask-optimization flows.
//
//   ganopc <synth|sraf|mbopc|eval|train|optimize|batch|serve|txt2gds|gds2txt|report>
//          [--flag value ...]
//
// The command table at the bottom of this file lists the flags each command
// reads; `ganopc` without arguments prints it. Any other flag fails the run
// (exit 1) before the command does any work, and so does a numeric value
// that does not parse in full.
//
// Layout files use the text format of geom::Layout (clip/rect lines), GDSII
// (.gds extension, loaded with --clipsize window), or contest GLP; masks are
// 8-bit PGM at the simulation grid. `train` is crash-safe: Ctrl-C flushes a
// checkpoint that --resume continues from bit-identically (DESIGN.md §8).
//
// `optimize`, `batch` and `serve` all route through the same
// ganopc::engine::Engine session (DESIGN.md §15), so one clip produces
// bit-identical results no matter which front-end carried it in. The Figure 6
// flow is `optimize --generator G --fallback 0`; plain ILT from the target is
// `optimize --fallback 0 --accept-factor 0` (one rung, any finite L2). The litho
// model behind any command is chosen with --litho-backend (DESIGN.md §15):
//   abbe    exact Abbe source-point kernels (the default, the reference)
//   tcc     TCC eigen-kernels auto-truncated at >= 99% captured energy
//   tcc:K   exactly K TCC eigen-kernels (caller owns the accuracy trade-off)
// `batch` is fault-tolerant: clips fail individually with typed codes in the
// manifest, and its journal makes a killed run resumable (DESIGN.md §9).
// With --workers N it adds *process* isolation (DESIGN.md §13): clips are
// dispatched to N sandboxed forked workers; a SIGSEGV/OOM/hang kills one
// worker (restarted with backoff), a clip that kills K workers in a row is
// quarantined with status Quarantined, and every crash a clip survives drops
// one rung off its GAN+ILT -> ILT -> MB-OPC degradation chain.
// Every command also accepts the observability flags (DESIGN.md §10-11):
//   --metrics-out FILE   Prometheus text snapshot (JSON when FILE is *.json)
//   --trace-out FILE     chrome://tracing span JSON
//   --ledger-out FILE    append-mode JSONL run ledger: run_start header with
//                        build version + config fingerprint, per-clip and
//                        per-iteration convergence events, run_end with a
//                        metrics snapshot; arms the flight recorder, which
//                        dumps FILE.crash.json on watchdog/fatal exits
// all default-off; enabling them costs one atomic flag check per site.
// `report` diffs a baseline BENCH_*.json (and/or ledger) pair against a
// current one and exits 0/4 on the PASS/FAIL regression verdict; CI's
// regress-gate, supervised-ledger and trace-overhead gates all run it.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/image_io.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/batch_runner.hpp"
#include "engine/clip_io.hpp"
#include "engine/engine.hpp"
#include "geometry/raster.hpp"
#include "layout/synthesizer.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "mbopc/mbopc.hpp"
#include "metrics/printability.hpp"
#include "gds/gds.hpp"
#include "nn/serialize.hpp"
#include "obs/ledger.hpp"
#include "obs/regress.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "sraf/sraf.hpp"

namespace {

using namespace ganopc;

// Separated list -> items ("A,B" -> {"A","B"}); empty items dropped.
std::vector<std::string> split_list(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    const std::string item = text.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (!item.empty()) out.push_back(item);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      GANOPC_CHECK_MSG(key.rfind("--", 0) == 0, "expected --flag, got '" << key << "'");
      GANOPC_CHECK_MSG(i + 1 < argc, "missing value for " << key);
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string require(const std::string& key) const {
    auto it = values_.find(key);
    GANOPC_CHECK_MSG(it != values_.end(), "missing required --" << key);
    return it->second;
  }

  int get_int(const std::string& key, int fallback) const {
    return get_number(key, fallback, "an integer");
  }

  double get_double(const std::string& key, double fallback) const {
    return get_number(key, fallback, "a number");
  }

  /// Throws on the first flag not in the space-separated `accepted` list.
  void check_flags(const std::string& cmd, const std::string& accepted) const {
    const std::vector<std::string> known = split_list(accepted, ' ');
    for (const auto& [key, value] : values_)
      GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                         std::find(known.begin(), known.end(), key) != known.end(),
                         "unknown flag --" << key << " for '" << cmd
                                           << "' (run ganopc without arguments for "
                                              "each command's flags)");
  }

 private:
  // The whole value must parse: "four" or "8x" is an error, never 0 or 8.
  template <typename T>
  T get_number(const std::string& key, T fallback, const char* what) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       ec == std::errc() && end == text.data() + text.size(),
                       "--" << key << " expects " << what << ", got '" << text << "'");
    return value;
  }

  std::map<std::string, std::string> values_;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Load a layout from text, GDSII, or contest GLP, by extension (the decode
// itself lives in engine/clip_io so every front-end agrees on the formats).
geom::Layout load_layout(const Args& args, const std::string& key = "layout") {
  return engine::load_layout_file(
      args.require(key), args.get_int("clipsize", 2048), args.get("cell", ""),
      static_cast<std::int16_t>(args.get_int("layer", 1)));
}

litho::LithoBackendSpec backend_spec(const Args& args) {
  return litho::parse_litho_backend(args.get("litho-backend", "abbe"));
}

// Standalone simulator for the direct commands (mbopc/eval), built
// from the same backend spec the Engine uses.
litho::LithoSim make_sim(const geom::Layout& clip, int grid, const Args& args) {
  GANOPC_CHECK_MSG(clip.clip().width() == clip.clip().height(),
                   "clip window must be square");
  GANOPC_CHECK_MSG(clip.clip().width() % grid == 0,
                   "grid " << grid << " does not divide the clip extent");
  litho::OpticsConfig optics;
  return litho::LithoSim(backend_spec(args).build(optics, grid, clip.clip().width() / grid),
                         litho::ResistConfig{});
}

void dump(const geom::Grid& g, const std::string& name) {
  engine::write_mask_pgm(name, g);
  std::printf("wrote %s (%dx%d @%dnm)\n", name.c_str(), g.cols, g.rows, g.pixel_nm);
}

int cmd_synth(const Args& args) {
  const int count = args.get_int("count", 4);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1847));
  const std::string prefix = args.get("out", "clip");
  layout::SynthesisConfig cfg;
  const auto library = layout::synthesize_library(cfg, static_cast<std::size_t>(count),
                                                  seed);
  for (std::size_t i = 0; i < library.size(); ++i) {
    const std::string path = prefix + std::to_string(i) + ".txt";
    library[i].save(path);
    std::printf("wrote %s (%zu shapes, %ld nm^2)\n", path.c_str(), library[i].size(),
                static_cast<long>(library[i].union_area()));
  }
  return 0;
}

int cmd_sraf(const Args& args) {
  const geom::Layout clip = load_layout(args);
  const auto result = sraf::insert_srafs(clip);
  const std::string out = args.get("out", "decorated.txt");
  result.decorated.save(out);
  std::printf("inserted %zu scatter bars; wrote %s\n", result.bars.size(), out.c_str());
  return 0;
}

int cmd_mbopc(const Args& args) {
  const geom::Layout clip = load_layout(args);
  const litho::LithoSim sim = make_sim(clip, args.get_int("grid", 256), args);
  mbopc::MbOpcConfig cfg;
  cfg.max_iterations = args.get_int("iters", 12);
  const mbopc::MbOpcEngine engine(sim, cfg);
  const mbopc::MbOpcResult result = engine.optimize(clip);
  std::printf("MB-OPC: %d iterations (%s), max |EPE| %dnm, L2 %.0f px\n",
              result.iterations, result.converged ? "converged" : "budget exhausted",
              result.max_epe_nm, result.l2_px);
  const std::string prefix = args.get("out", "mbopc");
  dump(result.mask, prefix + "_mask.pgm");
  dump(sim.simulate(result.mask), prefix + "_wafer.pgm");
  return 0;
}

int cmd_eval(const Args& args) {
  const geom::Layout clip = load_layout(args);
  const litho::LithoSim sim = make_sim(clip, args.get_int("grid", 256), args);
  const geom::Grid target = geom::rasterize(clip, sim.pixel_nm(), /*threshold=*/true);
  const geom::Grid mask =
      engine::load_mask_pgm(args.require("mask"), sim.grid_size(), sim.pixel_nm());
  const auto report = metrics::evaluate_printability(sim, mask, clip, target);
  std::printf("%s\n", report.str().c_str());
  return 0;
}

// Set by the SIGINT handler; the trainer polls it between iterations and
// flushes a final checkpoint before returning.
std::atomic<bool> g_stop{false};

extern "C" void handle_sigint(int) { g_stop.store(true); }

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

int cmd_train(const Args& args) {
  const core::GanOpcConfig cfg =
      core::make_config(core::parse_scale(args.get("scale", "quick")));
  const litho::LithoSim sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid,
                            cfg.litho_pixel_nm());

  const std::string dataset_path = args.get("dataset", "ganopc_dataset.bin");
  core::Dataset dataset;
  if (file_exists(dataset_path)) {
    dataset = core::Dataset::load(dataset_path, cfg);
    std::printf("loaded %zu cached examples from %s\n", dataset.size(),
                dataset_path.c_str());
  } else {
    std::printf("generating dataset (synthesis + ILT ground truth)...\n");
    dataset = core::Dataset::generate(cfg, sim);
    dataset.save(dataset_path);
    std::printf("cached %zu examples to %s\n", dataset.size(), dataset_path.c_str());
  }

  Prng rng(cfg.seed);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng);
  Prng train_rng(cfg.seed + 1);
  core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);

  core::TrainRunOptions run;
  run.checkpoint_path = args.get("checkpoint", "ganopc_train.ckpt");
  run.checkpoint_every = args.get_int("checkpoint-every", 10);
  run.stop = &g_stop;

  core::TrainPhase resumed_phase = core::TrainPhase::None;
  const std::string resume_path = args.get("resume", "");
  if (!resume_path.empty()) {
    const core::ResumeInfo info = trainer.resume(resume_path);
    resumed_phase = info.phase;
    std::printf("resuming from %s (%s, iteration %d/%d)\n", resume_path.c_str(),
                info.phase == core::TrainPhase::Pretrain ? "pretrain" : "train",
                info.next_iteration, info.total_iterations);
  }

  std::signal(SIGINT, handle_sigint);

  const int pretrain_iters = args.get_int("pretrain-iters", cfg.pretrain_iterations);
  const int train_iters = args.get_int("train-iters", cfg.gan_iterations);

  if (resumed_phase != core::TrainPhase::Adversarial) {
    std::printf("ILT-guided pre-training (%d iterations, Algorithm 2)...\n",
                pretrain_iters);
    const core::TrainStats pre = trainer.pretrain(pretrain_iters, run);
    if (!pre.litho_history.empty())
      std::printf("  litho error: %.1f -> %.1f (%.1fs, %d rollbacks)\n",
                  pre.litho_history.front(), pre.litho_history.back(), pre.seconds,
                  pre.divergence_rollbacks);
    if (pre.interrupted) {
      std::printf("interrupted; resume with --resume %s\n", run.checkpoint_path.c_str());
      return 130;
    }
  }

  std::printf("adversarial training (%d iterations, Algorithm 1)...\n", train_iters);
  const core::TrainStats adv = trainer.train(train_iters, run);
  if (!adv.l2_history.empty())
    std::printf("  L2 to reference masks: %.1f -> %.1f (%.1fs, %d rollbacks)\n",
                adv.l2_history.front(), adv.l2_history.back(), adv.seconds,
                adv.divergence_rollbacks);
  if (adv.interrupted) {
    std::printf("interrupted; resume with --resume %s\n", run.checkpoint_path.c_str());
    return 130;
  }

  const std::string out = args.get("out", "pgan_generator.bin");
  nn::save_parameters(generator.net(), out);
  std::printf("saved %s — load it with `ganopc optimize --generator %s`\n",
              out.c_str(), out.c_str());
  return 0;
}

// One Engine session configured from the shared command-line vocabulary —
// optimize/batch/serve all build their session here, which is what keeps a
// clip's result bit-identical across the three front-ends.
engine::EngineOptions engine_options_from_args(const Args& args) {
  engine::EngineOptions opts;
  opts.config = core::make_config(core::parse_scale(args.get("scale", "quick")));
  opts.config.litho_grid = args.get_int("grid", opts.config.litho_grid);
  opts.config.ilt.max_iterations =
      args.get_int("iters", opts.config.ilt.max_iterations);
  opts.backend = backend_spec(args);
  opts.generator_path = args.get("generator", "");
  engine::SubmitPolicy& policy = opts.policy;
  policy.clip_deadline_s = args.get_double("deadline-s", 0.0);
  policy.max_retries = args.get_int("max-retries", 1);
  policy.allow_fallback = args.get_int("fallback", 1) != 0;
  policy.l2_accept_factor = static_cast<float>(args.get_double("accept-factor", 1.0));
  policy.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<int>(opts.config.seed)));
  policy.retry_backoff_base_s =
      args.get_double("retry-backoff-s", policy.retry_backoff_base_s);
  return opts;
}

// One-shot mask optimization through the Engine session — exactly the
// degradation chain a batch clip or serve request walks, so its mask bytes
// are the contract the engine test pins against the embedded API. Exit 0
// when the mask was accepted, 3 when the clip failed (typed code printed).
int cmd_optimize(const Args& args) {
  const engine::Engine eng(engine_options_from_args(args));
  engine::BatchClip clip;
  clip.path = args.require("layout");
  clip.id = args.get("id", "clip");
  engine::SubmitOptions opts;
  opts.want_mask = true;
  // Observability parity with serve (DESIGN.md §16): the one-shot path mints
  // the same trace root and request_start/request_end ledger events a daemon
  // request gets, so a clip traced via `optimize --trace-out` and one traced
  // through `serve --trace-out` produce the same span tree shape.
  opts.trace_id = obs::next_span_id();
  opts.parent_span = obs::next_span_id();
  char trace_hex[32];
  std::snprintf(trace_hex, sizeof trace_hex, "%llx",
                static_cast<unsigned long long>(opts.trace_id));
  const std::uint64_t admit_ns = obs::monotonic_ns();
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("request_start");
    rec.field("id", clip.id).field("trace", trace_hex);
    obs::ledger_emit(rec);
  }
  const engine::MaskResult result = eng.submit(clip, opts);
  const std::uint64_t done_ns = obs::monotonic_ns();
  {
    static const obs::SpanSite& request_site = obs::span_site("cli.request");
    obs::record_span(request_site, admit_ns, done_ns, opts.trace_id,
                     opts.parent_span, 0);
  }
  const engine::BatchClipResult& row = result.row;
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("request_end");
    rec.field("id", row.id)
        .field("code", status_code_name(row.code))
        .field("stage", engine::batch_stage_name(row.stage))
        .field("wall_s", static_cast<double>(done_ns - admit_ns) * 1e-9)
        .field("trace", trace_hex);
    obs::ledger_emit(rec);
  }
  if (!row.ok()) {
    std::printf("%s: FAILED %s: %s\n", row.id.c_str(), status_code_name(row.code),
                row.error.c_str());
    return 3;
  }
  std::printf("%s: ok stage=%s%s L2 %.0f nm^2, PVB %ld nm^2 (%d ILT iters, "
              "backend %s)\n",
              row.id.c_str(), engine::batch_stage_name(row.stage),
              row.retries > 0 ? " (retried)" : "", row.l2_nm2,
              static_cast<long>(row.pvb_nm2), row.ilt_iterations,
              eng.backend_name().c_str());
  const std::string out =
      args.get("mask-out", args.get("out", "optimize") + "_mask.pgm");
  dump(result.mask, out);
  return 0;
}

// Fault-tolerant batch mask optimization over many clip files. Exit code 0
// when every clip produced an accepted mask, 3 when the batch completed but
// some clips failed (their manifest rows carry the typed error code).
int cmd_batch(const Args& args) {
  std::vector<std::string> paths;
  const std::string list = args.get("list", "");
  if (!list.empty()) {
    std::ifstream in(list);
    GANOPC_CHECK_MSG(in.good(), "cannot open clip list " << list);
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
        line.pop_back();
      if (!line.empty() && line[0] != '#') paths.push_back(line);
    }
  } else {
    paths = split_list(args.require("clips"), ',');
  }
  GANOPC_CHECK_MSG(!paths.empty(), "no clips given (use --list or --clips)");

  const engine::Engine eng(engine_options_from_args(args));

  engine::BatchConfig bcfg;
  const std::string resume = args.get("resume", "");
  bcfg.journal_path = resume.empty() ? args.get("journal", "") : resume;
  bcfg.resume = !resume.empty();
  bcfg.deterministic_manifest = args.get_int("deterministic-manifest", 0) != 0;
  bcfg.workers = args.get_int("workers", 0);
  bcfg.quarantine_kills = args.get_int("quarantine-kills", bcfg.quarantine_kills);
  bcfg.task_deadline_s = args.get_double("task-deadline-s", 0.0);
  bcfg.worker_mem_mb = args.get_int("worker-mem-mb", 0);
  bcfg.worker_cpu_s = args.get_int("worker-cpu-s", 0);
  // Graceful drain: SIGTERM/SIGINT stops dispatching new clips, lets
  // in-flight ones finish (bounded by their deadlines), journals what
  // completed, and reports the untouched remainder as Cancelled rows.
  bcfg.stop = &g_stop;
  std::signal(SIGINT, handle_sigint);
  std::signal(SIGTERM, handle_sigint);

  const engine::BatchRunner runner(eng, bcfg);
  const engine::BatchSummary summary = runner.run_files(paths);

  for (const auto& c : summary.clips) {
    if (c.ok())
      std::printf("  %-16s ok      stage=%s%s L2 %.0f nm^2, PVB %ld nm^2%s\n",
                  c.id.c_str(), engine::batch_stage_name(c.stage),
                  c.retries > 0 ? " (retried)" : "", c.l2_nm2,
                  static_cast<long>(c.pvb_nm2), c.from_journal ? " [journal]" : "");
    else
      std::printf("  %-16s FAILED  %s: %s\n", c.id.c_str(),
                  status_code_name(c.code), c.error.c_str());
  }
  const std::string manifest = args.get("manifest", "batch_manifest.csv");
  engine::BatchRunner::write_manifest(manifest, summary);
  std::printf("batch: %d ok, %d failed, %d resumed from journal; wrote %s\n",
              summary.succeeded, summary.failed, summary.resumed, manifest.c_str());
  if (bcfg.workers > 0)
    std::printf("batch: supervised with %d worker(s): %d worker death(s), "
                "%d clip(s) quarantined\n",
                bcfg.workers, summary.worker_deaths, summary.quarantined);
  if (summary.drained) {
    // A drained run exits 0 when everything that actually ran succeeded;
    // the cancelled remainder is not a failure — it is resumable work.
    std::printf("batch: drained on SIGTERM/SIGINT; %d clip(s) cancelled%s\n",
                summary.cancelled,
                bcfg.journal_path.empty()
                    ? ""
                    : " (rerun with --resume to finish them)");
    return summary.failed == summary.cancelled ? 0 : 3;
  }
  return summary.failed == 0 ? 0 : 3;
}

// Fault-tolerant mask-optimization daemon (DESIGN.md §14): HTTP/1.1 over TCP
// or a Unix socket, bounded-queue admission control with deadline-aware
// shedding, per-request degradation (GAN+ILT -> ILT -> MB-OPC) across
// sandboxed workers, a circuit breaker after consecutive worker deaths, and
// graceful SIGTERM drain (exit 0).
int cmd_serve(const Args& args) {
  // The daemon always collects metrics: /metrics must reflect the whole
  // fleet (worker deltas merge into this registry) whether or not the
  // operator also asked for a --metrics-out exit snapshot.
  obs::set_metrics_enabled(true);
  const engine::Engine eng(engine_options_from_args(args));

  serve::ServeConfig scfg;
  scfg.host = args.get("host", "127.0.0.1");
  scfg.port = args.get_int("port", 8347);
  scfg.unix_socket = args.get("socket", "");
  scfg.port_file = args.get("port-file", "");
  scfg.max_conns = args.get_int("max-conns", scfg.max_conns);
  scfg.max_queue = args.get_int("max-queue", scfg.max_queue);
  scfg.default_deadline_s =
      args.get_double("default-deadline-s", scfg.default_deadline_s);
  scfg.max_deadline_s = args.get_double("max-deadline-s", scfg.max_deadline_s);
  scfg.read_timeout_s = args.get_double("read-timeout-s", scfg.read_timeout_s);
  scfg.write_timeout_s =
      args.get_double("write-timeout-s", scfg.write_timeout_s);
  scfg.max_body_bytes =
      static_cast<std::size_t>(args.get_int("max-body-mb", 64)) << 20;
  scfg.breaker_kills = args.get_int("breaker-kills", scfg.breaker_kills);
  scfg.breaker_cooldown_s =
      args.get_double("breaker-cooldown-s", scfg.breaker_cooldown_s);
  scfg.drain_grace_s = args.get_double("drain-grace-s", scfg.drain_grace_s);
  scfg.spool_dir = args.get("spool-dir", "");
  scfg.workers = args.get_int("workers", 1);
  scfg.quarantine_kills = args.get_int("quarantine-kills", scfg.quarantine_kills);
  scfg.heartbeat_timeout_s =
      args.get_double("heartbeat-timeout-s", scfg.heartbeat_timeout_s);
  scfg.worker_mem_mb = args.get_int("worker-mem-mb", 0);
  scfg.worker_cpu_s = args.get_int("worker-cpu-s", 0);
  scfg.seed = eng.policy().seed;
  scfg.stop = &g_stop;
  std::signal(SIGINT, handle_sigint);
  std::signal(SIGTERM, handle_sigint);

  serve::Server server(eng, scfg);
  return server.run();
}

int cmd_txt2gds(const Args& args) {
  const geom::Layout clip = geom::Layout::load(args.require("layout"));
  const std::string out = args.get("out", "layout.gds");
  gds::write_gds(out, gds::layout_to_gds(clip, args.get("cell", "CLIP"),
                                         static_cast<std::int16_t>(args.get_int("layer", 1))));
  std::printf("wrote %s (%zu boundaries)\n", out.c_str(), clip.size());
  return 0;
}

int cmd_gds2txt(const Args& args) {
  const std::int32_t clip_nm = args.get_int("clipsize", 2048);
  const geom::Layout clip = gds::gds_to_layout(
      gds::read_gds(args.require("gds")), geom::Rect{0, 0, clip_nm, clip_nm},
      args.get("cell", ""), static_cast<std::int16_t>(args.get_int("layer", 1)));
  const std::string out = args.get("out", "layout.txt");
  clip.save(out);
  std::printf("wrote %s (%zu rects, %ld nm^2)\n", out.c_str(), clip.size(),
              static_cast<long>(clip.union_area()));
  return 0;
}

// Regression verdict over baseline/current BENCH_*.json and/or ledger pairs.
// Exit 0 = PASS, 4 = FAIL (so CI can distinguish a regression from a crash).
int cmd_report(const Args& args) {
  obs::RegressThresholds thresholds;
  thresholds.max_runtime_ratio =
      args.get_double("max-runtime-ratio", thresholds.max_runtime_ratio);
  thresholds.max_quality_ratio =
      args.get_double("max-quality-ratio", thresholds.max_quality_ratio);

  const std::vector<std::string> bench_base = split_list(args.get("bench-base", ""), ',');
  const std::vector<std::string> bench_cur = split_list(args.get("bench-cur", ""), ',');
  GANOPC_CHECK_MSG(bench_base.size() == bench_cur.size(),
                   "--bench-base and --bench-cur need the same number of files");
  const std::string ledger_base = args.get("ledger-base", "");
  const std::string ledger_cur = args.get("ledger-cur", "");
  GANOPC_CHECK_MSG(ledger_base.empty() == ledger_cur.empty(),
                   "--ledger-base and --ledger-cur must be given together");
  GANOPC_CHECK_MSG(!bench_base.empty() || !ledger_base.empty(),
                   "nothing to compare (use --bench-base/--bench-cur and/or "
                   "--ledger-base/--ledger-cur)");

  obs::RegressReport report;
  for (std::size_t i = 0; i < bench_base.size(); ++i)
    obs::compare_bench(obs::load_bench_file(bench_base[i]),
                       obs::load_bench_file(bench_cur[i]), thresholds, report);
  if (!ledger_base.empty())
    obs::compare_ledgers(obs::read_ledger(ledger_base),
                         obs::read_ledger(ledger_cur), thresholds, report);
  std::printf("%s", report.summary().c_str());
  return report.pass ? 0 : 4;
}

// Observability sink (DESIGN.md §10): --metrics-out / --trace-out work on
// every command. Flags are enabled before dispatch and the files are written
// on the way out — also after a command error, so a failed run still leaves
// its counters and spans behind for diagnosis.
class ObsSink {
 public:
  explicit ObsSink(const Args& args)
      : metrics_path_(args.get("metrics-out", "")),
        trace_path_(args.get("trace-out", "")) {
    if (!metrics_path_.empty()) obs::set_metrics_enabled(true);
    if (!trace_path_.empty()) obs::set_trace_enabled(true);
  }

  ~ObsSink() {
    if (!metrics_path_.empty()) {
      const obs::Snapshot snap = obs::snapshot();
      write_file(metrics_path_, ends_with(metrics_path_, ".json")
                                    ? obs::to_json(snap)
                                    : obs::to_prometheus(snap));
    }
    if (!trace_path_.empty())
      write_file(trace_path_, obs::trace_to_chrome_json(obs::trace_events()));
  }

 private:
  static void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    if (out.good())
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
    else
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  }

  std::string metrics_path_;
  std::string trace_path_;
};

// Run ledger sink (DESIGN.md §11): --ledger-out opens the JSONL ledger in
// append mode before dispatch and writes the run_start header — build
// version, full command line and its FNV-1a config fingerprint — so every
// run in the file is self-identifying. finish()/fail() append the run_end
// record (exit code + embedded metrics snapshot); a fatal error additionally
// dumps the flight-recorder ring to FILE.crash.json before the process dies.
class LedgerSink {
 public:
  LedgerSink(const std::string& cmd, const Args& args, int argc, char** argv)
      : path_(args.get("ledger-out", "")) {
    if (path_.empty()) return;
    obs::ledger_open(path_);
    // The run_end record embeds a metrics snapshot; without the registry
    // collecting it would be all zeros, so the ledger implies --metrics.
    obs::set_metrics_enabled(true);
    std::string cmdline;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) cmdline += ' ';
      cmdline += argv[i];
    }
    obs::LedgerRecord rec("run_start");
    rec.field("cmd", cmd)
        .field("cmdline", cmdline)
        .field("version", build_version())
        .field("config_fingerprint", obs::fingerprint64(cmdline));
    obs::ledger_emit(rec);
  }

  ~LedgerSink() { obs::ledger_close(); }

  void finish(int exit_code) { run_end(exit_code, ""); }

  void fail(const std::exception& e) {
    if (path_.empty()) return;
    obs::flight_dump(std::string("fatal.") +
                     status_code_name(status_from_exception(e).code()));
    run_end(1, e.what());
  }

 private:
  void run_end(int exit_code, const std::string& error) {
    if (path_.empty()) return;
    obs::LedgerRecord rec("run_end");
    rec.field("exit_code", exit_code).field("ok", exit_code == 0);
    if (!error.empty()) rec.field("error", error);
    rec.raw("metrics", obs::to_json(obs::snapshot()));
    obs::ledger_emit(rec);
    std::printf("wrote ledger %s\n", path_.c_str());
  }

  std::string path_;
};

// Flags shared by several commands, and those every command accepts:
// --metrics-out FILE (Prometheus text, JSON when FILE is *.json),
// --trace-out FILE (chrome://tracing spans) and --ledger-out FILE (JSONL run
// ledger plus flight recorder; DESIGN.md §10-11).
const std::string kLayoutFlags = "layout clipsize cell layer";
const std::string kEngineFlags =
    "scale grid iters litho-backend generator deadline-s max-retries fallback "
    "accept-factor seed retry-backoff-s";
const std::string kGlobalFlags = "metrics-out trace-out ledger-out";

struct Command {
  const char* name;
  int (*run)(const Args&);
  std::string flags;  ///< space-separated, without the leading "--"
};

const std::vector<Command> kCommands = {
    {"synth", cmd_synth, "count seed out"},
    {"sraf", cmd_sraf, kLayoutFlags + " out"},
    {"mbopc", cmd_mbopc, kLayoutFlags + " grid iters out litho-backend"},
    {"eval", cmd_eval, kLayoutFlags + " mask grid litho-backend"},
    {"train", cmd_train,
     "scale dataset out checkpoint checkpoint-every resume pretrain-iters train-iters"},
    {"optimize", cmd_optimize, kEngineFlags + " layout id mask-out out"},
    {"batch", cmd_batch,
     kEngineFlags + " list clips journal resume manifest deterministic-manifest "
                    "workers quarantine-kills task-deadline-s worker-mem-mb worker-cpu-s"},
    {"serve", cmd_serve,
     kEngineFlags + " port socket host port-file workers max-queue default-deadline-s "
                    "max-deadline-s read-timeout-s write-timeout-s max-body-mb max-conns "
                    "breaker-kills breaker-cooldown-s drain-grace-s spool-dir "
                    "quarantine-kills heartbeat-timeout-s worker-mem-mb worker-cpu-s"},
    {"txt2gds", cmd_txt2gds, "layout out cell layer"},
    {"gds2txt", cmd_gds2txt, "gds out cell layer clipsize"},
    {"report", cmd_report,
     "bench-base bench-cur ledger-base ledger-cur max-runtime-ratio max-quality-ratio"},
};

void usage() {
  std::fprintf(stderr, "usage: ganopc <command> [--flag value ...]\n");
  for (const Command& c : kCommands) {
    std::string line = "  " + std::string(c.name);
    line.resize(10, ' ');
    for (const std::string& flag : split_list(c.flags, ' ')) {
      if (line.size() + flag.size() + 3 > 80) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line.assign(10, ' ');
      }
      line += " --" + flag;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::fprintf(stderr, "every command also accepts --metrics-out, --trace-out and --ledger-out\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Command* command = nullptr;
  for (const Command& c : kCommands)
    if (cmd == c.name) command = &c;
  if (command == nullptr) {
    usage();
    return 2;
  }
  try {
    const Args args(argc, argv, 2);
    args.check_flags(cmd, command->flags + " " + kGlobalFlags);
    const ObsSink obs_sink(args);
    LedgerSink ledger(cmd, args, argc, argv);
    try {
      const int rc = command->run(args);
      ledger.finish(rc);
      return rc;
    } catch (const std::exception& e) {
      ledger.fail(e);
      throw;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
