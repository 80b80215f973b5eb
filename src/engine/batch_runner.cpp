#include "engine/batch_runner.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>

#include "common/backoff.hpp"
#include "common/csv.hpp"
#include "common/failpoint.hpp"
#include "common/sectioned_file.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "proc/supervisor.hpp"

namespace ganopc::engine {

namespace {

constexpr char kJournalMagic[] = "GOPCBAT1";
// v2: meta carries quarantine_kills; rows may carry StatusCode::kQuarantined.
// v3: meta carries the litho backend name and a hash of the generator
// weights; the retry perturbation amplitude is a constant and left out.
// `workers` is deliberately *not* journaled — a supervised run may be resumed
// sequentially or with a different worker count and replay identically.
constexpr std::uint32_t kJournalVersion = 3;

constexpr char kDrainedError[] =
    "cancelled: batch drain requested before this clip started";

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

// "clips/wire_03.gds" -> "wire_03"
std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.resize(dot);
  return name;
}

// FNV-1a over the generator's parameter and buffer bytes, so a journal
// written with one set of weights never replays under another; 0 when the
// session has no generator.
std::uint64_t generator_hash(core::Generator* generator) {
  if (generator == nullptr) return 0;
  std::string bytes;
  for (const auto& params : {generator->parameters(), generator->buffers()})
    for (const nn::Param& p : params)
      bytes.append(reinterpret_cast<const char*>(p.value->data()),
                   static_cast<std::size_t>(p.value->numel()) * sizeof(float));
  return fnv1a64(bytes);
}

std::string format_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Per-row metrics incremented as manifest rows are finalized, so the
// exported counters always agree with the written CSV (including rows
// replayed from the journal on resume).
void count_manifest_row(const BatchClipResult& res) {
  obs::counter(res.ok() ? "batch.clips.ok" : "batch.clips.failed").inc();
  obs::counter(std::string("batch.stage.") + batch_stage_name(res.stage)).inc();
  if (res.retries > 0)
    obs::counter("batch.retries").inc(static_cast<std::uint64_t>(res.retries));
  if (res.fallbacks > 0)
    obs::counter("batch.fallbacks").inc(static_cast<std::uint64_t>(res.fallbacks));
  if (res.from_journal) obs::counter("batch.clips.resumed").inc();
  if (res.code == StatusCode::kQuarantined)
    obs::counter("batch.clips.quarantined").inc();
  if (res.code == StatusCode::kCancelled)
    obs::counter("batch.clips.cancelled").inc();
}

// The one way a row that never reached Engine::submit is built: drain
// cancellations, quarantined poison clips and pool dispatch errors.
BatchClipResult failed_row(const BatchClip& clip, StatusCode code,
                           std::string error) {
  BatchClipResult res;
  res.id = clip.id;
  res.source = clip.path.empty() ? "<memory>" : clip.path;
  res.code = code;
  res.error = std::move(error);
  res.stage = BatchStage::Failed;
  return res;
}

}  // namespace

BatchRunner::BatchRunner(const Engine& engine, BatchConfig batch)
    : engine_(engine), batch_(std::move(batch)) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     !batch_.resume || !batch_.journal_path.empty(),
                     "batch: resume requires a journal path");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     batch_.workers >= 0 && batch_.quarantine_kills >= 1 &&
                         batch_.task_deadline_s >= 0.0 &&
                         batch_.worker_mem_mb >= 0 && batch_.worker_cpu_s >= 0,
                     "batch: workers/quarantine/limits must be >= 0 "
                     "(quarantine_kills >= 1)");
}

BatchClipResult BatchRunner::process_clip(const BatchClip& clip,
                                          int start_rung) const {
  SubmitOptions opts;
  opts.start_rung = start_rung;
  BatchClipResult res = engine_.submit(clip, opts).row;
  if (batch_.deterministic_manifest) res.runtime_s = 0.0;
  return res;
}

BatchSummary BatchRunner::run_files(const std::vector<std::string>& paths) const {
  std::vector<BatchClip> clips;
  clips.reserve(paths.size());
  std::set<std::string> seen;
  for (const auto& path : paths) {
    std::string id = file_stem(path);
    const std::string base = id;
    for (int n = 2; !seen.insert(id).second; ++n) id = base + "#" + std::to_string(n);
    clips.push_back({id, path, std::nullopt});
  }
  return run(clips);
}

BatchSummary BatchRunner::run(const std::vector<BatchClip>& clips) const {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, !clips.empty(),
                     "batch: no clips to process");
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < clips.size(); ++i)
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       index_of.emplace(clips[i].id, i).second,
                       "batch: duplicate clip id '" << clips[i].id << "'");

  std::map<std::string, BatchClipResult> prior;
  if (batch_.resume && file_exists(batch_.journal_path))
    for (auto& res : load_journal(clips)) {
      const std::string id = res.id;
      prior.emplace(id, std::move(res));
    }

  SectionedFileWriter journal{std::string(kJournalMagic)};
  const bool journaling = !batch_.journal_path.empty();
  if (journaling) {
    write_meta(journal.section("meta"), clips);
    // Commit the identity up front so even a run drained before its first
    // row leaves a resumable journal. A replayed journal already exists and
    // keeps its rows until they are re-journaled below.
    if (prior.empty()) journal.write(batch_.journal_path);
  }

  // Every row, however it was produced, ends here: stored at its input
  // position, then journaled unless it is a drain cancellation (a --resume
  // recomputes exactly those). Rows are journaled in the order they finish,
  // so a supervised journal lists replays first, then completion order.
  std::vector<BatchClipResult> rows(clips.size());
  auto finish = [&](std::size_t i, BatchClipResult res) {
    rows[i] = std::move(res);
    if (!journaling || rows[i].code == StatusCode::kCancelled) return;
    encode_clip_result(journal.section("clip/" + clips[i].id), rows[i]);
    journal.write(batch_.journal_path);
    // Crash simulation for the kill-and-resume robustness tests: dies right
    // after a journal commit, exactly where a real power cut would land.
    if (GANOPC_FAILPOINT("batch.kill")) {
#ifdef SIGKILL
      std::raise(SIGKILL);
#endif
      std::abort();
    }
  };

  // A journaled row is finished at once. A missing one is computed in place,
  // or — supervised — queued for the pool with its clip index as payload:
  // workers are fork() twins of this process and share the clip list (and
  // the Engine session) by inheritance.
  std::vector<proc::Task> tasks;
  for (std::size_t i = 0; i < clips.size(); ++i) {
    const auto it = prior.find(clips[i].id);
    if (it != prior.end()) {
      BatchClipResult res = it->second;
      res.from_journal = true;
      finish(i, std::move(res));
    } else if (batch_.workers > 0) {
      proc::Task task;
      task.id = clips[i].id;
      const auto idx = static_cast<std::uint32_t>(i);
      task.payload.assign(reinterpret_cast<const char*>(&idx), sizeof idx);
      tasks.push_back(std::move(task));
    } else if (batch_.stop != nullptr &&
               batch_.stop->load(std::memory_order_relaxed)) {
      finish(i, failed_row(clips[i], StatusCode::kCancelled, kDrainedError));
    } else {
      finish(i, process_clip(clips[i], /*start_rung=*/0));
    }
  }

  BatchSummary summary;
  if (!tasks.empty()) {
    proc::SupervisorConfig scfg;
    scfg.workers = batch_.workers;
    scfg.quarantine_kills = batch_.quarantine_kills;
    scfg.task_deadline_s = batch_.task_deadline_s;
    scfg.limits.mem_mb = batch_.worker_mem_mb;
    scfg.limits.cpu_s = batch_.worker_cpu_s;
    scfg.seed = engine_.policy().seed;
    scfg.stop = batch_.stop;

    proc::Supervisor supervisor(
        scfg, [this, &clips](const std::string& payload, int crashes) {
          GANOPC_TYPED_CHECK(StatusCode::kInternal,
                             payload.size() == sizeof(std::uint32_t),
                             "batch: malformed supervised task payload");
          std::uint32_t idx = 0;
          std::memcpy(&idx, payload.data(), sizeof idx);
          GANOPC_TYPED_CHECK(StatusCode::kInternal, idx < clips.size(),
                             "batch: supervised task index out of range");
          maybe_inject_clip_fault(clips[idx].id, crashes);
          // Each crash the clip survived drops one rung off its chain.
          const BatchClipResult res = process_clip(clips[idx], crashes);
          ByteWriter w;
          encode_clip_result(w, res);
          return w.buffer();
        });

    supervisor.run(tasks, [&](const proc::TaskResult& tr) {
      const std::size_t i = index_of.at(tr.id);
      if (tr.cancelled) {
        finish(i, failed_row(clips[i], StatusCode::kCancelled, kDrainedError));
      } else if (tr.quarantined) {
        if (obs::ledger_enabled()) {
          obs::LedgerRecord rec("clip_quarantined");
          rec.field("clip", tr.id).field("crashes", tr.crashes);
          obs::ledger_emit(rec);
        }
        finish(i, failed_row(clips[i], StatusCode::kQuarantined,
                             "clip crashed " + std::to_string(tr.crashes) +
                                 " worker process(es); quarantined as a "
                                 "poison clip"));
      } else if (!tr.error.empty()) {
        // The worker fn maps per-clip faults to Status rows itself; an error
        // marshalled back here means the dispatch machinery failed.
        finish(i, failed_row(clips[i], StatusCode::kInternal, tr.error));
      } else {
        ByteReader r(tr.payload.data(), tr.payload.size(),
                     "supervised result for clip '" + tr.id + "'");
        BatchClipResult res =
            decode_clip_result(r, tr.id, "supervised result for '" + tr.id + "'");
        r.expect_exhausted();
        finish(i, std::move(res));
      }
    });
    summary.worker_deaths = static_cast<int>(supervisor.crash_reports().size());
  }

  for (auto& res : rows) {
    ++(res.ok() ? summary.succeeded : summary.failed);
    if (res.from_journal) ++summary.resumed;
    if (res.code == StatusCode::kQuarantined) ++summary.quarantined;
    if (res.code == StatusCode::kCancelled) {
      ++summary.cancelled;
      summary.drained = true;
    }
    if (obs::metrics_enabled()) count_manifest_row(res);
    summary.clips.push_back(std::move(res));
  }
  return summary;
}

void BatchRunner::write_meta(ByteWriter& w,
                             const std::vector<BatchClip>& clips) const {
  // `workers` is deliberately absent (see kJournalVersion); quarantine_kills
  // is present because it shapes quarantined rows.
  const SubmitPolicy& policy = engine_.policy();
  const core::GanOpcConfig& config = engine_.config();
  w.pod(kJournalVersion);
  w.pod(policy.seed);
  w.pod(policy.clip_deadline_s);
  w.pod(static_cast<std::int32_t>(policy.max_retries));
  w.pod(static_cast<std::uint8_t>(policy.allow_fallback ? 1 : 0));
  w.pod(policy.l2_accept_factor);
  w.pod(static_cast<std::uint8_t>(batch_.deterministic_manifest ? 1 : 0));
  w.pod(static_cast<std::int32_t>(batch_.quarantine_kills));
  w.str(engine_.backend_name());
  w.pod(generator_hash(engine_.generator()));
  w.pod(config.clip_nm);
  w.pod(config.litho_grid);
  w.pod(static_cast<std::int32_t>(config.ilt.max_iterations));
  w.pod(static_cast<std::uint32_t>(clips.size()));
  for (const auto& clip : clips) w.str(clip.id);
}

std::vector<BatchClipResult> BatchRunner::load_journal(
    const std::vector<BatchClip>& clips) const {
  const SectionedFileReader reader(batch_.journal_path, kJournalMagic);
  ByteReader meta = reader.open("meta");
  const auto version = meta.pod<std::uint32_t>();
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, version == kJournalVersion,
                     "batch journal '" << batch_.journal_path
                                       << "': unsupported version " << version);
  std::string stored(meta.remaining(), '\0');
  meta.bytes(stored.data(), stored.size());
  ByteWriter expected;
  write_meta(expected, clips);
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     stored == expected.buffer().substr(sizeof version),
                     "batch journal '"
                         << batch_.journal_path
                         << "' was written by a different batch (clips or "
                            "configuration changed); delete it or drop --resume");

  std::vector<BatchClipResult> out;
  for (const auto& clip : clips) {
    const std::string name = "clip/" + clip.id;
    if (!reader.has(name)) continue;
    ByteReader r = reader.open(name);
    out.push_back(decode_clip_result(
        r, clip.id,
        "journal '" + batch_.journal_path + "' section '" + name + "'"));
    r.expect_exhausted();
  }
  return out;
}

void BatchRunner::write_manifest(const std::string& path,
                                 const BatchSummary& summary) {
  CsvWriter csv(path,
                {"clip", "source", "status", "code", "stage", "termination",
                 "retries", "fallbacks", "ilt_iterations", "l2_px", "l2_nm2",
                 "pvb_nm2", "runtime_s"});
  for (const auto& c : summary.clips)
    csv.row({c.id, c.source, c.ok() ? "ok" : "failed", status_code_name(c.code),
             batch_stage_name(c.stage),
             c.has_termination ? ilt::termination_reason_name(c.termination) : "-",
             std::to_string(c.retries), std::to_string(c.fallbacks),
             std::to_string(c.ilt_iterations), format_g(c.l2_px),
             format_g(c.l2_nm2), std::to_string(c.pvb_nm2),
             format_g(c.runtime_s)});
}

}  // namespace ganopc::engine
