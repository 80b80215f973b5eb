// bench_regress: perf-regression baseline emitter (DESIGN.md §10).
//
// Runs a fixed, deterministic litho workload and a short ILT run with the
// obs layer enabled, then dumps the per-stage timing distributions straight
// from the obs histograms:
//   BENCH_litho.json — simulate / simulate_batch / gradient / aerial /
//                      pv_band stage timings + FFT plan-cache hit rate
//   BENCH_ilt.json   — ilt.optimize timing, iteration count, terminations
// Each file also carries "[tcc]"-labeled rows: the same workload through the
// truncated-TCC backend (`tcc:8`), so the serving-path speedup the backend
// exists for is itself regression-gated — TCC litho.simulate p50 must stay
// ~(1 + N_abbe) / (1 + k) times under the Abbe row (DESIGN.md §15).
// Each stage entry carries {count, sum_s, p50_s, p95_s}, so two snapshots
// from different commits diff into a regression report. CI's bench-smoke job
// uploads both files as artifacts.
//
// Usage: bench_regress [--out DIR] [--grid N] [--reps N]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "geometry/raster.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ganopc {
namespace {

geom::Grid wire_clip(std::int32_t grid, std::int32_t pixel, std::int32_t shift) {
  geom::Layout l(geom::Rect{0, 0, grid * pixel, grid * pixel});
  const std::int32_t mid = grid * pixel / 2;
  l.add({mid - 60 + shift, mid - 500, mid + 60 + shift, mid + 500});
  l.add({mid - 400, mid - 60 - shift, mid + 400, mid + 60 - shift});
  return geom::rasterize(l, pixel, /*threshold=*/true);
}

/// One row of the "stages" object: histogram `stage` out of `snap`, printed
/// under `label` (labels let the same obs span appear once per backend, e.g.
/// "litho.simulate" and "litho.simulate[tcc]").
struct StageRow {
  const obs::Snapshot* snap;
  const char* stage;
  const char* label;
};

/// "label": {"count": .., "sum_s": .., "p50_s": .., "p95_s": ..}
void append_stage(std::string& out, const StageRow& row, bool& first) {
  const obs::HistogramSnapshot* h =
      row.snap->find_histogram(std::string(row.stage) + ".seconds");
  if (h == nullptr || h->count == 0) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\":{\"count\":%llu,\"sum_s\":%.6g,\"p50_s\":%.6g,"
                "\"p95_s\":%.6g}",
                first ? "" : ",", row.label,
                static_cast<unsigned long long>(h->count), h->sum,
                h->quantile(0.5), h->quantile(0.95));
  out += buf;
  first = false;
}

void append_counter(std::string& out, const obs::Snapshot& snap,
                    const char* name, bool& first) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", first ? "" : ",", name,
                static_cast<unsigned long long>(snap.counter_value(name)));
  out += buf;
  first = false;
}

void write_report(const std::string& path, const char* bench,
                  std::int32_t grid, int reps, const obs::Snapshot& snap,
                  const std::vector<StageRow>& stages,
                  const std::vector<const char*>& counters,
                  const std::string& quality_json = "") {
  std::string out = "{\"schema\":1,\"bench\":\"";
  out += bench;
  out += "\",\"grid\":" + std::to_string(grid) +
         ",\"reps\":" + std::to_string(reps) + ",\"stages\":{";
  bool first = true;
  for (const StageRow& s : stages) append_stage(out, s, first);
  out += "},\"counters\":{";
  first = true;
  for (const char* c : counters) append_counter(out, snap, c, first);
  out += "}";
  // Deterministic solution-quality section: gated by the regression report
  // at a much tighter ratio than the (noisy) runtime stages.
  if (!quality_json.empty()) out += ",\"quality\":{" + quality_json + "}";
  out += "}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), out.size());
}

}  // namespace
}  // namespace ganopc

int main(int argc, char** argv) {
  using namespace ganopc;
  std::string out_dir = ".";
  std::int32_t grid = 128;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_regress: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) out_dir = need("--out");
    else if (std::strcmp(argv[i], "--grid") == 0) grid = std::atoi(need("--grid"));
    else if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(need("--reps"));
    // --trace 1 arms span recording for the whole run so CI can price the
    // tracing fast path: diff a traced BENCH run against an untraced one.
    else if (std::strcmp(argv[i], "--trace") == 0)
      obs::set_trace_enabled(std::atoi(need("--trace")) != 0);
    else {
      std::fprintf(stderr,
                   "usage: bench_regress [--out DIR] [--grid N] [--reps N] "
                   "[--trace 0|1]\n");
      return 2;
    }
  }
  if (grid < 16 || reps < 1) {
    std::fprintf(stderr, "bench_regress: bad --grid/--reps\n");
    return 2;
  }
  const std::int32_t pixel = 2048 / grid;

  litho::OpticsConfig optics;
  litho::LithoSim sim(optics, litho::ResistConfig{}, grid, pixel);
  // The serving-path backend: the top-8 TCC eigen-kernels (`tcc:8`), i.e. the
  // same imaging operator compressed to a third of the Abbe kernel count.
  litho::LithoSim sim_tcc(litho::parse_litho_backend("tcc:8").build(optics, grid, pixel),
                          litho::ResistConfig{});
  std::vector<geom::Grid> masks;
  for (int i = 0; i < 4; ++i) masks.push_back(wire_clip(grid, pixel, 64 * i));
  const geom::Grid& target = masks.front();

  obs::set_metrics_enabled(true);

  // --- litho stages, once per backend -------------------------------------
  // One untimed warm-up rep of the full workload fills the FFT plan cache
  // (including pv_band's upsampling transforms) and thread workspaces, so
  // the measured distribution reflects steady state — and the plan-cache
  // hit-rate counter proves the cache held: misses must stay 0. Each backend
  // gets its own obs window so its rows are not polluted by the other's.
  const auto litho_workload = [&](const litho::LithoSim& s) {
    for (const auto& m : masks) (void)s.simulate(m);
    (void)s.simulate_batch(masks);
    for (const auto& m : masks) (void)s.gradient(m, target);
    (void)s.pv_band(target);
  };
  litho_workload(sim);
  obs::reset_values();
  for (int r = 0; r < reps; ++r) litho_workload(sim);
  const obs::Snapshot litho_abbe = obs::snapshot();

  litho_workload(sim_tcc);
  obs::reset_values();
  for (int r = 0; r < reps; ++r) litho_workload(sim_tcc);
  const obs::Snapshot litho_tcc = obs::snapshot();

  write_report(out_dir + "/BENCH_litho.json", "litho", grid, reps, litho_abbe,
               {{&litho_abbe, "litho.simulate", "litho.simulate"},
                {&litho_abbe, "litho.simulate_batch", "litho.simulate_batch"},
                {&litho_abbe, "litho.aerial", "litho.aerial"},
                {&litho_abbe, "litho.gradient", "litho.gradient"},
                {&litho_abbe, "litho.pv_band", "litho.pv_band"},
                {&litho_tcc, "litho.simulate", "litho.simulate[tcc]"},
                {&litho_tcc, "litho.simulate_batch", "litho.simulate_batch[tcc]"},
                {&litho_tcc, "litho.aerial", "litho.aerial[tcc]"},
                {&litho_tcc, "litho.gradient", "litho.gradient[tcc]"},
                {&litho_tcc, "litho.pv_band", "litho.pv_band[tcc]"}},
               {"litho.simulate_batch.masks", "fft.plan_cache.hits",
                "fft.plan_cache.misses"});

  // --- ILT, once per backend ----------------------------------------------
  ilt::IltConfig cfg;
  cfg.max_iterations = 40;
  cfg.check_every = 5;
  const int ilt_reps = std::max(1, reps / 2);

  obs::reset_values();
  const ilt::IltEngine engine(sim, cfg);
  ilt::IltResult last;
  for (int r = 0; r < ilt_reps; ++r) last = engine.optimize(target);
  const obs::Snapshot ilt_abbe = obs::snapshot();

  obs::reset_values();
  const ilt::IltEngine engine_tcc(sim_tcc, cfg);
  ilt::IltResult last_tcc;
  for (int r = 0; r < ilt_reps; ++r) last_tcc = engine_tcc.optimize(target);
  const obs::Snapshot ilt_tcc = obs::snapshot();

  // The solver is deterministic in (workload, config), so the final L2/PVB
  // are exactly reproducible across runs of the same build; a drift here is
  // an algorithmic change, not noise. The TCC rows pin the serving backend's
  // solution quality (and retained trace) the same way.
  char quality[320];
  std::snprintf(quality, sizeof quality,
                "\"ilt_final_l2_px\":%.9g,\"ilt_final_pvb_nm2\":%lld,"
                "\"ilt_final_l2_px[tcc]\":%.9g,\"ilt_final_pvb_nm2[tcc]\":%lld,"
                "\"tcc_captured_energy\":%.9g",
                last.l2_px,
                static_cast<long long>(sim.pv_band(last.mask).area_nm2),
                last_tcc.l2_px,
                static_cast<long long>(sim_tcc.pv_band(last_tcc.mask).area_nm2),
                sim_tcc.kernels().captured_energy());
  write_report(out_dir + "/BENCH_ilt.json", "ilt", grid, ilt_reps, ilt_abbe,
               {{&ilt_abbe, "ilt.optimize", "ilt.optimize"},
                {&ilt_abbe, "litho.gradient", "litho.gradient"},
                {&ilt_abbe, "litho.aerial", "litho.aerial"},
                {&ilt_tcc, "ilt.optimize", "ilt.optimize[tcc]"},
                {&ilt_tcc, "litho.gradient", "litho.gradient[tcc]"},
                {&ilt_tcc, "litho.aerial", "litho.aerial[tcc]"}},
               {"ilt.iterations", "ilt.watchdog.terminations",
                "ilt.termination.converged", "ilt.termination.patience",
                "ilt.termination.target-reached"},
               quality);
  return 0;
}
