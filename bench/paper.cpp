// The paper's evaluation as one program: Table 1, Table 2, Figures 2, 7 and
// 8/9, the §3.2/§3.4 ablations, the baseline and the extensions, each a named
// experiment in kExperiments.
//
//   paper              run every experiment, in the table's order
//   paper NAME...      run the named experiments, in the order given
//
// Experiments write their CSV and PGM files into the working directory;
// EXPERIMENTS.md records what they print. They run at a "bench" scale that
// finishes in minutes on a CPU; GANOPC_SCALE=quick|default|paper overrides
// it. The ILT ground-truth dataset and the two trained generators are cached
// in ./ganopc_bench_cache, keyed by geometry, so one experiment reuses
// another's work: figure7_training_curves trains GAN-OPC and PGAN-OPC and
// saves both, table2_main and figure8_visuals load them when present.
//
// An unknown name prints the list and runs nothing (exit 2). Any experiment
// that throws or fails its own check (Table 1's DRC audit) makes the exit
// status 1; the others still run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/image_io.hpp"
#include "common/prng.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/engine.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "ilt/ilt.hpp"
#include "layout/benchmark_suite.hpp"
#include "layout/drc.hpp"
#include "layout/synthesizer.hpp"
#include "litho/lithosim.hpp"
#include "litho/tcc.hpp"
#include "mbopc/mbopc.hpp"
#include "metrics/defects.hpp"
#include "metrics/epe.hpp"
#include "nn/serialize.hpp"
#include "sraf/sraf.hpp"

namespace {

using namespace ganopc;

// ------------------------------------------------------------ scale + caches

core::GanOpcConfig bench_config() {
  if (const char* env = std::getenv("GANOPC_SCALE"))
    return core::make_config(core::parse_scale(env));
  // Bench default: 128 litho grid (16nm pixels) with a 64 GAN grid and a
  // meatier training budget than the unit-test preset.
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.litho_grid = 128;
  cfg.gan_grid = 64;
  cfg.base_channels = 8;
  cfg.library_size = 32;
  cfg.batch_size = 4;
  cfg.gan_iterations = 500;
  cfg.pretrain_iterations = 60;
  cfg.ilt.max_iterations = 200;
  cfg.ilt.check_every = 5;
  cfg.ilt.patience = 4;
  cfg.validate();
  return cfg;
}

std::string cache_path(const core::GanOpcConfig& cfg, const std::string& stem) {
  const std::string dir = "ganopc_bench_cache";
  std::filesystem::create_directories(dir);
  return dir + "/" + stem + "_l" + std::to_string(cfg.litho_grid) + "_g" +
         std::to_string(cfg.gan_grid) + "_c" + std::to_string(cfg.base_channels) +
         "_n" + std::to_string(cfg.library_size) + ".bin";
}

/// Default optics over a 2048 nm clip at 8 nm (256 grid) or 16 nm (128 grid)
/// pixels, built once per process for the fixed-geometry experiments.
const litho::LithoSim& clip_sim(std::int32_t pixel_nm) {
  if (pixel_nm == 8) {
    static const litho::LithoSim sim8(litho::OpticsConfig{}, litho::ResistConfig{}, 256, 8);
    return sim8;
  }
  GANOPC_CHECK(pixel_nm == 16);
  static const litho::LithoSim sim16(litho::OpticsConfig{}, litho::ResistConfig{}, 128, 16);
  return sim16;
}

/// Load the cached dataset for this geometry or generate (and cache) it.
core::Dataset get_dataset(const core::GanOpcConfig& cfg, const litho::LithoSim& sim) {
  const std::string path = cache_path(cfg, "dataset");
  if (std::filesystem::exists(path)) {
    std::printf("[cache] loading dataset from %s\n", path.c_str());
    return core::Dataset::load(path, cfg);
  }
  std::printf("[cache] generating dataset (%zu clips, ILT ground truth)...\n",
              cfg.library_size);
  core::Dataset ds = core::Dataset::generate(cfg, sim);
  ds.save(path);
  return ds;
}

// ------------------------------------------------------------------- tables

std::string format_cell(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);  // CsvWriter::row_numeric's format
  return buf;
}

/// Numeric rows under named columns. emit() prints them and, given a path,
/// writes the same rows through CsvWriter::row_numeric, so the console and
/// the CSV show the same numbers.
struct Table {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  void add(std::vector<double> row) {
    GANOPC_CHECK(row.size() == columns.size());
    rows.push_back(std::move(row));
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (std::size_t c = 0; c < cells.size(); ++c)
      std::printf(" %*s", static_cast<int>(std::max<std::size_t>(12, columns[c].size())),
                  cells[c].c_str());
    std::printf("\n");
  }

  void emit(const std::string& csv_path = {}) const {
    print_row(columns);
    for (const auto& row : rows) {
      std::vector<std::string> cells;
      for (const double v : row) cells.push_back(format_cell(v));
      print_row(cells);
    }
    if (csv_path.empty()) return;
    CsvWriter csv(csv_path, columns);
    for (const auto& row : rows) csv.row_numeric(row);
  }

  /// Per-column means of the rows.
  std::vector<double> means() const {
    std::vector<double> sums(columns.size(), 0.0);
    for (const auto& row : rows)
      for (std::size_t c = 0; c < row.size(); ++c) sums[c] += row[c];
    for (double& s : sums) s /= static_cast<double>(rows.size());
    return sums;
  }
};

/// One row per case of the 10-case benchmark suite: the case id, then what
/// `row` measures on it. Prints the table and a row of column means, writes
/// `csv_path`, and returns the means (index-aligned with the columns).
std::vector<double> suite_table(
    std::int32_t clip_nm, std::vector<std::string> columns, const std::string& csv_path,
    const std::function<std::vector<double>(const layout::BenchmarkCase&)>& row) {
  columns.insert(columns.begin(), "case");
  Table table{std::move(columns), {}};
  for (const auto& bc : layout::make_benchmark_suite(clip_nm)) {
    std::vector<double> cells = row(bc);
    cells.insert(cells.begin(), static_cast<double>(bc.id));
    table.add(std::move(cells));
  }
  table.emit(csv_path);
  std::vector<double> means = table.means();
  std::vector<std::string> cells{"mean"};
  for (std::size_t c = 1; c < means.size(); ++c) cells.push_back(format_cell(means[c]));
  table.print_row(cells);
  return means;
}

/// RMS difference of two aerial images: the kernel ablations' accuracy.
double rms_error(const geom::Grid& aerial, const geom::Grid& reference) {
  double sq = 0.0;
  for (std::size_t i = 0; i < aerial.data.size(); ++i) {
    const double d = static_cast<double>(aerial.data[i]) - reference.data[i];
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(aerial.data.size()));
}

// ---------------------------------------------------------- training curves

/// One generator variant of a training experiment: the seeds of its weights
/// and of its trainer, and the one setting the experiment varies.
struct Variant {
  std::string column;            ///< CSV column of its L2 curve
  std::uint64_t init_seed = 0;   ///< generator, then discriminator, weights
  std::uint64_t train_seed = 0;  ///< the trainer's sampling
  int pretrain_iterations = 0;   ///< ILT-guided pre-training (Alg. 2) first
  core::GeneratorArch arch = core::GeneratorArch::AutoEncoder;
  bool paired = true;            ///< pair-input discriminator (§3.2)
};

struct Trained {
  core::Generator generator;
  core::TrainStats stats;  ///< of the adversarial phase (Alg. 1)
};

Trained train_variant(const core::GanOpcConfig& cfg, const litho::LithoSim& sim,
                      const core::Dataset& dataset, const Variant& v) {
  Prng rng(v.init_seed);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng, v.arch);
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng, v.paired);
  Prng train_rng(v.train_seed);
  core::TrainStats stats;
  {
    core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);
    if (v.pretrain_iterations > 0) trainer.pretrain(v.pretrain_iterations);
    stats = trainer.train(cfg.gan_iterations);
  }
  return {std::move(generator), std::move(stats)};
}

/// GAN-OPC (random init) or PGAN-OPC (pre-trained): the two Table 2 flows.
Variant flow_variant(const core::GanOpcConfig& cfg, bool pretrained) {
  Variant v;
  v.column = pretrained ? "pgan_opc_l2" : "gan_opc_l2";
  v.init_seed = cfg.seed + (pretrained ? 100 : 200);
  v.train_seed = cfg.seed + (pretrained ? 300 : 400);
  v.pretrain_iterations = pretrained ? cfg.pretrain_iterations : 0;
  return v;
}

std::string generator_path(const core::GanOpcConfig& cfg, bool pretrained) {
  return cache_path(cfg, pretrained ? "pgan_generator" : "gan_generator");
}

/// The cached GAN-OPC/PGAN-OPC generator, trained and cached when missing.
core::Generator get_generator(const core::GanOpcConfig& cfg, const litho::LithoSim& sim,
                              const core::Dataset& dataset, bool pretrained) {
  const std::string path = generator_path(cfg, pretrained);
  const Variant v = flow_variant(cfg, pretrained);
  if (std::filesystem::exists(path)) {
    std::printf("[cache] loading %s\n", path.c_str());
    Prng rng(v.init_seed);
    core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
    nn::load_parameters(generator.net(), path);
    return generator;
  }
  Trained t = train_variant(cfg, sim, dataset, v);
  nn::save_parameters(t.generator.net(), path);
  return std::move(t.generator);
}

/// Train every variant on the cached dataset and write their adversarial L2
/// curves, one row per iteration and one column per variant, to `csv_path`.
std::vector<Trained> train_curves(const core::GanOpcConfig& cfg,
                                  const std::vector<Variant>& variants,
                                  const std::string& csv_path) {
  const litho::LithoSim sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid,
                            cfg.litho_pixel_nm());
  const core::Dataset dataset = get_dataset(cfg, sim);
  std::vector<Trained> trained;
  std::size_t rows = SIZE_MAX;
  for (const Variant& v : variants) {
    trained.push_back(train_variant(cfg, sim, dataset, v));
    const auto& l2 = trained.back().stats.l2_history;
    std::printf("%-14s L2 %.1f -> %.1f in %.1fs\n", v.column.c_str(), l2.front(),
                l2.back(), trained.back().stats.seconds);
    rows = std::min(rows, l2.size());
  }
  std::vector<std::string> header{"iteration"};
  for (const Variant& v : variants) header.push_back(v.column);
  CsvWriter csv(csv_path, header);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row{static_cast<double>(i)};
    for (const Trained& t : trained) row.push_back(t.stats.l2_history[i]);
    csv.row_numeric(row);
  }
  return trained;
}

/// Mean of the last `window` values (all of them when fewer): the level a
/// training curve converged to.
float tail_mean(const std::vector<float>& v, std::size_t window) {
  const std::size_t take = std::min(window, v.size());
  if (take == 0) return 0.0f;
  return std::accumulate(v.end() - static_cast<std::ptrdiff_t>(take), v.end(), 0.0f) /
         static_cast<float>(take);
}

/// The ablations' converged level: the mean of the last tenth.
float tail(const std::vector<float>& v) {
  return tail_mean(v, std::max<std::size_t>(1, v.size() / 10));
}

// ---------------------------------------------------------------- flows

/// The Table 2 flows as Engine sessions: with a generator the session runs
/// the Figure 6 flow (inference, then ILT from that mask); without one it
/// runs ILT from the target (the [7] baseline). One attempt, no fallback
/// rung, and any finite L2 is accepted, so a row reports exactly what the
/// flow produced.
engine::EngineOptions flow_options(const core::GanOpcConfig& cfg,
                                   core::Generator* generator) {
  engine::EngineOptions opts;
  opts.config = cfg;
  opts.generator = generator;
  opts.policy.allow_fallback = false;
  opts.policy.max_retries = 0;
  opts.policy.l2_accept_factor = 0.0f;
  return opts;
}

/// Run one benchmark clip through a flow session; a failed row fails the
/// experiment. The row's runtime_s is the submit wall time (Table 2's RT).
engine::MaskResult run_flow(const engine::Engine& eng, const geom::Layout& clip,
                            bool want_mask = false) {
  engine::BatchClip item;
  item.id = "clip";
  item.layout = clip;
  engine::SubmitOptions opts;
  opts.want_mask = want_mask;
  engine::MaskResult result = eng.submit(item, opts);
  GANOPC_CHECK_MSG(result.row.ok(), "flow failed: " << result.row.error);
  return result;
}

// ---------------------------------------------------------------- experiments

/// Table 1: the design rules of training-layout synthesis, an audit that the
/// synthesizer honours them at library scale, and the suite's case areas.
/// Fails on any DRC violation.
bool figure_table1_layouts() {
  const layout::DesignRules rules = layout::table1_rules();
  std::printf("M1 critical dimension %d nm, pitch %d nm, tip to tip %d nm\n",
              rules.min_cd, rules.min_pitch, rules.min_tip_to_tip);

  layout::SynthesisConfig cfg;
  const auto library = layout::synthesize_library(cfg, 200, 1847);
  std::size_t violations = 0, shapes = 0;
  std::int32_t min_cd = 1 << 30, min_gap = 1 << 30;
  for (const auto& clip : library) {
    violations += layout::check_design_rules(clip, rules).size();
    shapes += clip.size();
    for (const auto& r : clip.rects())
      min_cd = std::min(min_cd, std::min(r.width(), r.height()));
    for (std::size_t i = 0; i < clip.size(); ++i)
      for (std::size_t j = i + 1; j < clip.size(); ++j)
        min_gap = std::min(min_gap, clip.rects()[i].gap_to(clip.rects()[j]));
  }
  std::printf("audit of 200 synthesized clips (paper: 4000): shapes=%zu "
              "violations=%zu min_cd=%dnm min_gap=%dnm\n\n",
              shapes, violations, min_cd, min_gap);

  Table areas{{"case", "paper_nm2", "ours_nm2", "err_pct"}, {}};
  for (const auto& bc : layout::make_benchmark_suite()) {
    const double ours = static_cast<double>(bc.layout.union_area());
    const double paper = static_cast<double>(bc.target_area);
    areas.add({static_cast<double>(bc.id), paper, ours, 100.0 * (ours - paper) / paper});
  }
  areas.emit();
  return violations == 0;
}

/// Figure 2: the defect-detector zoo (EPE / neck / bridge / break) on
/// constructed prints. No single detector captures printability, which is
/// why the paper optimizes the squared L2 (Definition 1).
bool figure2_defects() {
  const auto raster = [](const geom::Layout& l) {
    return geom::rasterize(l, 4, /*threshold=*/true);
  };
  geom::Layout target(geom::Rect{0, 0, 1024, 1024});
  target.add({200, 150, 280, 850});
  target.add({420, 150, 500, 850});
  const auto report = [&](const char* name, std::vector<geom::Rect> printed_rects) {
    geom::Layout printed(target.clip());
    for (const auto& r : printed_rects) printed.add(r);
    const geom::Grid tg = raster(target);
    const geom::Grid wg = raster(printed);
    const auto epe = metrics::measure_epe(target, wg);
    const auto necks = metrics::detect_necks(target, wg);
    const auto bridges = metrics::detect_bridges(tg, wg);
    const auto breaks = metrics::detect_breaks(tg, wg);
    const double l2 = geom::squared_l2(wg, tg) * 16.0;  // 4nm pixels -> nm^2
    std::printf("%-28s EPEV=%-3d neck=%-2zu bridge=%-2zu break=%-2zu L2=%8.0f nm^2\n",
                name, epe.violations, necks.size(), bridges.size(), breaks.size(), l2);
  };
  report("clean print", {{200, 150, 280, 850}, {420, 150, 500, 850}});
  // 70nm line-end pullback at both ends: EPE fires, CD detectors stay quiet.
  report("line-end pullback (EPE)", {{200, 220, 280, 780}, {420, 150, 500, 850}});
  // A 32nm pinch mid-wire: small EPE near the control points, real defect.
  report("mid-wire neck", {{200, 150, 280, 470}, {224, 470, 256, 530},
                           {200, 530, 280, 850}, {420, 150, 500, 850}});
  report("wire bridge", {{200, 150, 280, 850}, {420, 150, 500, 850},
                         {280, 480, 420, 540}});
  report("broken wire", {{200, 150, 280, 460}, {200, 540, 280, 850},
                         {420, 150, 500, 850}});
  return true;
}

/// Figure 7: GAN-OPC vs PGAN-OPC training curves (Eq. 9 L2 to the reference
/// masks). Both generators are retrained here and saved to the cache. The
/// paper expects PGAN-OPC's curve to be smoother and to converge lower.
bool figure7_training_curves() {
  const core::GanOpcConfig cfg = bench_config();
  std::vector<Trained> trained = train_curves(
      cfg, {flow_variant(cfg, false), flow_variant(cfg, true)}, "figure7_curves.csv");
  for (const bool pretrained : {false, true})
    nn::save_parameters(trained[pretrained].generator.net(),
                        generator_path(cfg, pretrained));

  // Roughness: mean absolute one-step change over the mean level.
  const auto roughness = [](const std::vector<float>& v) {
    if (v.size() < 2) return 0.0f;
    double jump = 0.0, level = 0.0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      jump += std::abs(static_cast<double>(v[i]) - v[i - 1]);
      level += v[i];
    }
    return static_cast<float>(jump / std::max(level, 1e-9));
  };
  const auto& g = trained[0].stats.l2_history;
  const auto& p = trained[1].stats.l2_history;
  const float g_final = tail_mean(g, g.size() / 10 + 1);
  const float p_final = tail_mean(p, p.size() / 10 + 1);
  std::printf("final L2 (tail mean):  GAN-OPC %.1f   PGAN-OPC %.1f   -> %s\n", g_final,
              p_final,
              p_final < g_final ? "PGAN converges lower (matches paper)"
                                : "WARNING: GAN lower (paper expects PGAN)");
  std::printf("curve roughness:       GAN-OPC %.4f  PGAN-OPC %.4f  -> %s\n",
              roughness(g), roughness(p),
              roughness(p) < roughness(g) ? "PGAN smoother (matches paper)"
                                          : "WARNING: GAN smoother");
  return true;
}

/// Table 2: per-case squared L2 / PVB / RT of the ILT [7] baseline, GAN-OPC
/// and PGAN-OPC on the 10-case suite, each flow an Engine session; RT is the
/// Engine::submit wall time. The suite stands in for the ICCAD-2013 clips
/// (areas match), so the target is the shape of the paper's ratios.
bool table2_main() {
  const core::GanOpcConfig cfg = bench_config();
  std::printf("litho %d @%dnm, gan %d; ILT budget %d iters\n", cfg.litho_grid,
              cfg.litho_pixel_nm(), cfg.gan_grid, cfg.ilt.max_iterations);
  const engine::Engine ilt_flow(flow_options(cfg, nullptr));
  const core::Dataset dataset = get_dataset(cfg, ilt_flow.sim());
  core::Generator gan = get_generator(cfg, ilt_flow.sim(), dataset, false);
  core::Generator pgan = get_generator(cfg, ilt_flow.sim(), dataset, true);
  const engine::Engine gan_flow(flow_options(cfg, &gan));
  const engine::Engine pgan_flow(flow_options(cfg, &pgan));

  const std::vector<double> m = suite_table(
      cfg.clip_nm,
      {"area_nm2", "ilt_l2", "ilt_pvb", "ilt_rt", "gan_l2", "gan_pvb", "gan_rt",
       "pgan_l2", "pgan_pvb", "pgan_rt"},
      "table2_results.csv", [&](const layout::BenchmarkCase& bc) {
        std::vector<double> cells{static_cast<double>(bc.layout.union_area())};
        for (const engine::Engine* flow : {&ilt_flow, &gan_flow, &pgan_flow}) {
          const engine::BatchClipResult r = run_flow(*flow, bc.layout).row;
          cells.insert(cells.end(),
                       {r.l2_nm2, static_cast<double>(r.pvb_nm2), r.runtime_s});
        }
        return cells;
      });
  // Columns: case, area, then (l2, pvb, rt) for ILT at 2, GAN at 5, PGAN at 8.
  std::printf("ratio to ILT, L2/PVB/RT:  GAN %.3f %.3f %.3f  PGAN %.3f %.3f %.3f\n",
              m[5] / m[2], m[6] / m[3], m[7] / m[4], m[8] / m[2], m[9] / m[3],
              m[10] / m[4]);
  std::printf("paper's ratios:           GAN 0.911 0.993 0.488  PGAN 0.908 0.981 0.471\n");
  return true;
}

/// Figures 8 and 9: per-case mask and wafer panels of the ILT and PGAN-OPC
/// flows plus the target (figure8_case<N>_{a..e}_*.pgm), and each flow's
/// wafer defect counts (EPE violations, necks, breaks, bridges).
bool figure8_visuals() {
  const core::GanOpcConfig cfg = bench_config();
  const engine::Engine ilt_flow(flow_options(cfg, nullptr));
  const litho::LithoSim& sim = ilt_flow.sim();
  const core::Dataset dataset = get_dataset(cfg, sim);
  core::Generator pgan = get_generator(cfg, sim, dataset, true);
  const engine::Engine pgan_flow(flow_options(cfg, &pgan));

  const auto dump = [](const geom::Grid& g, const std::string& name) {
    write_pgm(name, to_gray(g.data.data(), g.cols, g.rows));
  };
  Table defects{{"case", "ilt_epev", "ilt_neck", "ilt_break", "ilt_bridge", "pgan_epev",
                 "pgan_neck", "pgan_break", "pgan_bridge"},
                {}};
  for (const auto& bc : layout::make_benchmark_suite(cfg.clip_nm)) {
    const geom::Grid ilt_mask = run_flow(ilt_flow, bc.layout, true).mask;
    const geom::Grid pgan_mask = run_flow(pgan_flow, bc.layout, true).mask;
    const geom::Grid ilt_wafer = sim.simulate(ilt_mask);
    const geom::Grid pgan_wafer = sim.simulate(pgan_mask);
    const geom::Grid tg =
        geom::rasterize(bc.layout, cfg.litho_pixel_nm(), /*threshold=*/true);
    const std::string tag = "figure8_case" + std::to_string(bc.id);
    dump(ilt_mask, tag + "_a_ilt_mask.pgm");
    dump(pgan_mask, tag + "_b_pgan_mask.pgm");
    dump(ilt_wafer, tag + "_c_ilt_wafer.pgm");
    dump(pgan_wafer, tag + "_d_pgan_wafer.pgm");
    dump(tg, tag + "_e_target.pgm");

    std::vector<double> row{static_cast<double>(bc.id)};
    for (const geom::Grid* wafer : {&ilt_wafer, &pgan_wafer})
      row.insert(row.end(),
                 {static_cast<double>(metrics::measure_epe(bc.layout, *wafer).violations),
                  static_cast<double>(metrics::detect_necks(bc.layout, *wafer).size()),
                  static_cast<double>(metrics::detect_breaks(tg, *wafer).size()),
                  static_cast<double>(metrics::detect_bridges(tg, *wafer).size())});
    defects.add(std::move(row));
  }
  defects.emit();
  return true;
}

/// Ablation A (§3.2): pair-input vs mask-only discriminator, same budget,
/// with the L2 term damped so the adversarial signal drives the mapping. A
/// mask-only discriminator cannot enforce the one-one target->mask mapping
/// (Eq. 6), so the paired variant should reach the lower L2.
bool ablation_discriminator() {
  core::GanOpcConfig cfg = bench_config();
  cfg.gan_iterations = std::min(cfg.gan_iterations, 250);
  cfg.alpha_l2 = 0.05f;
  std::printf("%d iterations, alpha_l2=%.2f\n", cfg.gan_iterations, cfg.alpha_l2);
  Variant paired{"paired_l2", cfg.seed + 7, cfg.seed + 8};
  Variant unpaired = paired;
  unpaired.column = "unpaired_l2";
  unpaired.paired = false;
  const auto trained = train_curves(cfg, {paired, unpaired}, "ablation_discriminator.csv");
  const float paired_tail = tail(trained[0].stats.l2_history);
  const float unpaired_tail = tail(trained[1].stats.l2_history);
  std::printf("%s (paired %.1f vs unpaired %.1f)\n",
              paired_tail <= unpaired_tail
                  ? "paired discriminator reaches lower L2 — matches §3.2's claim"
                  : "WARNING: unpaired won — §3.2 predicts the opposite",
              paired_tail, unpaired_tail);
  return true;
}

/// Ablation B (§3.4): pre-training budget {0, N/2, N} before a fixed
/// adversarial budget. More pre-training should start the adversarial phase
/// lower.
bool ablation_pretrain() {
  core::GanOpcConfig cfg = bench_config();
  cfg.gan_iterations = std::min(cfg.gan_iterations, 250);
  std::vector<Variant> variants;
  for (const auto& [column, budget] :
       {std::pair{"pretrain_0", 0}, std::pair{"pretrain_half", cfg.pretrain_iterations / 2},
        std::pair{"pretrain_full", cfg.pretrain_iterations}})
    variants.push_back({column, cfg.seed + 21, cfg.seed + 22, budget});
  const auto trained = train_curves(cfg, variants, "ablation_pretrain.csv");
  float start[3], tails[3];
  for (int b = 0; b < 3; ++b) {
    start[b] = trained[b].stats.l2_history.front();
    tails[b] = tail(trained[b].stats.l2_history);
  }
  std::printf("adversarial-phase tail L2:     none=%.1f half=%.1f full=%.1f\n", tails[0],
              tails[1], tails[2]);
  std::printf("adversarial-phase starting L2: none=%.1f half=%.1f full=%.1f -> %s\n",
              start[0], start[1], start[2],
              start[2] < start[0]
                  ? "pre-training hands the GAN a better starting point (§3.4)"
                  : "WARNING: pre-training did not lower the starting loss");
  return true;
}

/// Ablation C (Eq. 2): Abbe source-point count N_h against a dense 96-point
/// reference, and the cost of one aerial image. The paper's N_h = 24 should
/// sit where the error has flattened at ~4x less cost than the reference.
bool ablation_kernels() {
  geom::Layout clip(geom::Rect{0, 0, 2048, 2048});
  clip.add({800, 400, 880, 1600});
  clip.add({1020, 400, 1100, 1200});
  clip.add({1240, 700, 1320, 1600});
  const geom::Grid mask = geom::rasterize(clip, 8, /*threshold=*/true);
  const auto make_sim = [](int kernels) {
    litho::OpticsConfig optics;
    optics.num_kernels = kernels;
    return litho::LithoSim(optics, litho::ResistConfig{}, 256, 8);
  };
  const geom::Grid ref_aerial = make_sim(96).aerial(mask);

  Table table{{"num_kernels", "rms_error", "ms_per_aerial"}, {}};
  for (const int nh : {4, 8, 12, 16, 24, 32, 48}) {
    const litho::LithoSim sim = make_sim(nh);
    const double rms = rms_error(sim.aerial(mask), ref_aerial);
    WallTimer timer;
    const int reps = 10;
    for (int i = 0; i < reps; ++i) sim.aerial(mask);
    table.add({static_cast<double>(nh), rms, timer.milliseconds() / reps});
  }
  table.emit("ablation_kernels.csv");
  return true;
}

/// Ablation D: sub-resolution assist features on isolated wires. Reports the
/// +/-2% dose PV band and nominal L2 with and without scatter bars, and how
/// many pixels the bars print on their own (must be 0).
bool ablation_sraf() {
  const litho::LithoSim& sim = clip_sim(8);
  Table table{{"wire_width_nm", "bars", "pvb_plain", "pvb_sraf", "l2_plain", "l2_sraf",
               "sraf_prints"},
              {}};
  for (const std::int32_t width : {80, 100, 120, 160}) {
    geom::Layout clip(geom::Rect{0, 0, 2048, 2048});
    clip.add({1024 - width / 2, 424, 1024 + width / 2, 1624});
    const auto decorated = sraf::insert_srafs(clip);
    const geom::Grid target = geom::rasterize(clip, 8, /*threshold=*/true);
    const geom::Grid sraf_mask = geom::rasterize(decorated.decorated, 8, /*threshold=*/true);
    geom::Layout bars_only(clip.clip());
    for (const auto& bar : decorated.bars) bars_only.add(bar);
    const geom::Grid bars_print =
        sim.simulate(geom::rasterize(bars_only, 8, /*threshold=*/true));
    table.add({static_cast<double>(width), static_cast<double>(decorated.bars.size()),
               static_cast<double>(sim.pv_band(target).area_nm2),
               static_cast<double>(sim.pv_band(sraf_mask).area_nm2),
               sim.l2_error(target, target) * 64.0, sim.l2_error(sraf_mask, target) * 64.0,
               static_cast<double>(geom::on_count(bars_print))});
  }
  table.emit("ablation_sraf.csv");
  return true;
}

/// Ablation E: the paper's auto-encoder generator vs a UNet with skip
/// connections, same budget, data and seeds.
bool ablation_generator() {
  core::GanOpcConfig cfg = bench_config();
  cfg.gan_iterations = std::min(cfg.gan_iterations, 300);
  Variant ae{"autoencoder_l2", cfg.seed + 31, cfg.seed + 32};
  Variant unet = ae;
  unet.column = "unet_l2";
  unet.arch = core::GeneratorArch::UNet;
  const auto trained = train_curves(cfg, {ae, unet}, "ablation_generator.csv");
  const float ae_tail = tail(trained[0].stats.l2_history);
  const float unet_tail = tail(trained[1].stats.l2_history);
  const double ae_s = trained[0].stats.seconds;
  std::printf("%s (AE %.1f vs UNet %.1f); UNet costs %.1fx the training time\n",
              unet_tail < ae_tail ? "skip connections reach a lower regression loss"
                                  : "the plain auto-encoder held its own here",
              ae_tail, unet_tail, ae_s > 0 ? trained[1].stats.seconds / ae_s : 0.0);
  return true;
}

/// Abbe source-point kernels vs Hopkins TCC-SVD kernels (Eq. 1) at equal
/// kernel counts: aerial RMS error against a TCC-32 reference and the
/// one-time kernel build cost.
bool ablation_kernel_method() {
  geom::Layout clip(geom::Rect{0, 0, 2048, 2048});
  clip.add({800, 400, 880, 1600});
  clip.add({1020, 400, 1100, 1200});
  clip.add({1240, 700, 1320, 1600});
  const geom::Grid mask = geom::rasterize(clip, 16, /*threshold=*/true);
  // `tcc` adopts the top-k TCC eigen-kernels; otherwise one Abbe kernel per
  // sampled source point.
  const auto make_sim = [](int kernels, bool tcc, double& build_s) {
    litho::OpticsConfig optics;
    optics.num_kernels = kernels;
    WallTimer t;
    litho::LithoSim sim(
        tcc ? litho::SocsKernels(optics, 128, 16,
                                 litho::compute_tcc_kernels(optics, 128, 16, kernels))
            : litho::SocsKernels(optics, 128, 16),
        litho::ResistConfig{});
    build_s = t.seconds();
    return sim;
  };
  double ref_build = 0.0;
  const geom::Grid ref_aerial = make_sim(32, /*tcc=*/true, ref_build).aerial(mask);

  Table table{{"kernels", "abbe_rms", "abbe_build_s", "tcc_rms", "tcc_build_s"}, {}};
  for (const int k : {4, 8, 12, 16, 24}) {
    double abbe_build = 0.0, tcc_build = 0.0;
    const litho::LithoSim abbe = make_sim(k, /*tcc=*/false, abbe_build);
    const litho::LithoSim tcc = make_sim(k, /*tcc=*/true, tcc_build);
    table.add({static_cast<double>(k), rms_error(abbe.aerial(mask), ref_aerial), abbe_build,
               rms_error(tcc.aerial(mask), ref_aerial), tcc_build});
  }
  table.emit("ablation_kernel_method.csv");
  return true;
}

/// ILT mask-smoothness regularization: lambda against L2, mask fragments
/// (connected components) and mask perimeter (0/1 transitions, a proxy for
/// mask write cost).
bool ablation_ilt_smoothness() {
  const litho::LithoSim& sim = clip_sim(16);
  Prng rng(4711);
  const geom::Layout clip = layout::synthesize_clip(layout::SynthesisConfig{}, rng);
  const geom::Grid target = geom::rasterize(clip, 16, /*threshold=*/true);
  const auto perimeter_px = [](const geom::Grid& mask) {
    std::int64_t edges = 0;
    for (std::int32_t r = 0; r < mask.rows; ++r)
      for (std::int32_t c = 0; c < mask.cols; ++c) {
        const bool on = mask.at(r, c) >= 0.5f;
        if (c + 1 < mask.cols && on != (mask.at(r, c + 1) >= 0.5f)) ++edges;
        if (r + 1 < mask.rows && on != (mask.at(r + 1, c) >= 0.5f)) ++edges;
      }
    return edges;
  };
  Table table{{"lambda", "l2_px", "fragments", "perimeter_px", "iterations"}, {}};
  for (const float lambda : {0.0f, 0.05f, 0.2f, 0.5f, 1.0f}) {
    ilt::IltConfig cfg;
    cfg.max_iterations = 150;
    cfg.smoothness_lambda = lambda;
    const ilt::IltResult result = ilt::IltEngine(sim, cfg).optimize(target);
    std::int32_t fragments = 0;
    geom::connected_components(result.mask, fragments);
    table.add({lambda, result.l2_px, static_cast<double>(fragments),
               static_cast<double>(perimeter_px(result.mask)),
               static_cast<double>(result.iterations)});
  }
  table.emit("ablation_ilt_smoothness.csv");
  return true;
}

/// Model-based OPC vs ILT on the suite (§1): MB-OPC converges in a few cheap
/// iterations but leaves far more squared L2 than pixel-based ILT, the
/// restricted solution space the paper cites as motivation.
bool baseline_mbopc() {
  const core::GanOpcConfig cfg = bench_config();
  const engine::Engine ilt_flow(flow_options(cfg, nullptr));
  const litho::LithoSim& sim = ilt_flow.sim();
  const mbopc::MbOpcEngine mb_engine(sim, mbopc::MbOpcConfig{});
  const double px_area =
      static_cast<double>(sim.pixel_nm()) * static_cast<double>(sim.pixel_nm());
  suite_table(cfg.clip_nm, {"uncorrected_l2", "mbopc_l2", "mbopc_rt", "ilt_l2", "ilt_rt"},
              "baseline_mbopc.csv", [&](const layout::BenchmarkCase& bc) {
                const geom::Grid target = geom::rasterize(bc.layout, cfg.litho_pixel_nm(),
                                                          /*threshold=*/true);
                const double uncorrected = sim.l2_error(target, target) * px_area;
                const mbopc::MbOpcResult mb = mb_engine.optimize(bc.layout);
                const engine::BatchClipResult ilt = run_flow(ilt_flow, bc.layout).row;
                return std::vector<double>{uncorrected, mb.l2_px * px_area, mb.runtime_s,
                                           ilt.l2_nm2, ilt.runtime_s};
              });
  return true;
}

/// Focus-exposure process window (the conclusion's future work): the printed
/// CD of an isolated 80 nm wire at every (defocus, dose) corner, for the
/// uncorrected mask and the mask ILT optimized at nominal focus.
bool process_window() {
  geom::Layout clip(geom::Rect{0, 0, 2048, 2048});
  clip.add({984, 424, 1064, 1624});
  const std::int32_t target_cd = 80;
  const litho::LithoSim& nominal_sim = clip_sim(8);
  const geom::Grid target = geom::rasterize(clip, 8, /*threshold=*/true);
  ilt::IltConfig ilt_cfg;
  ilt_cfg.max_iterations = 120;
  const geom::Grid opt_mask = ilt::IltEngine(nominal_sim, ilt_cfg).optimize(target).mask;

  // Printed CD (nm) of the wire: the longest run across the mid row.
  const auto printed_cd = [](const geom::Grid& wafer) {
    const std::int32_t mid = wafer.rows / 2;
    std::int32_t run = 0, best = 0;
    for (std::int32_t c = 0; c < wafer.cols; ++c) {
      run = wafer.at(mid, c) >= 0.5f ? run + 1 : 0;
      best = std::max(best, run);
    }
    return best * wafer.pixel_nm;
  };
  Table table{{"defocus_nm", "dose", "cd_uncorrected", "cd_ilt"}, {}};
  int window_plain = 0, window_ilt = 0;
  for (const double dz : {0.0, 30.0, 60.0, 90.0}) {
    litho::OpticsConfig optics;
    optics.defocus_nm = dz;
    litho::ResistConfig resist;
    resist.threshold = nominal_sim.threshold();  // resist does not refocus
    const litho::LithoSim sim(optics, resist, 256, 8);
    const geom::Grid aerial_plain = sim.aerial(target);
    const geom::Grid aerial_opt = sim.aerial(opt_mask);
    for (const float dose : {0.94f, 0.97f, 1.0f, 1.03f, 1.06f}) {
      const std::int32_t cd_plain = printed_cd(sim.print(aerial_plain, dose));
      const std::int32_t cd_opt = printed_cd(sim.print(aerial_opt, dose));
      table.add({dz, dose, static_cast<double>(cd_plain), static_cast<double>(cd_opt)});
      window_plain += std::abs(cd_plain - target_cd) <= target_cd / 10;
      window_ilt += std::abs(cd_opt - target_cd) <= target_cd / 10;
    }
  }
  table.emit("process_window.csv");
  std::printf("corners within +/-10%% CD: uncorrected %d/%zu, ILT mask %d/%zu\n",
              window_plain, table.rows.size(), window_ilt, table.rows.size());
  return true;
}

/// Process-variation-aware ILT (the paper's deferred follow-up): the Eq. 14
/// gradient summed over dose corners {0.98, 1.0, 1.02} against the nominal
/// objective, PV band and L2 on the suite.
bool extension_pv_ilt() {
  const litho::LithoSim& sim = clip_sim(16);
  ilt::IltConfig nominal;
  nominal.max_iterations = 150;
  ilt::IltConfig pv_aware = nominal;
  pv_aware.dose_corners = {0.98f, 1.0f, 1.02f};
  const ilt::IltEngine nominal_engine(sim, nominal);
  const ilt::IltEngine pv_engine(sim, pv_aware);
  const std::vector<double> m = suite_table(
      2048, {"nominal_l2", "nominal_pvb", "pv_l2", "pv_pvb"}, "extension_pv_ilt.csv",
      [&](const layout::BenchmarkCase& bc) {
        const geom::Grid target = geom::rasterize(bc.layout, 16, /*threshold=*/true);
        const ilt::IltResult r_nom = nominal_engine.optimize(target);
        const ilt::IltResult r_pv = pv_engine.optimize(target);
        return std::vector<double>{r_nom.l2_px * 256.0,
                                   static_cast<double>(sim.pv_band(r_nom.mask).area_nm2),
                                   r_pv.l2_px * 256.0,
                                   static_cast<double>(sim.pv_band(r_pv.mask).area_nm2)};
      });
  std::printf("PVB ratio (pv-aware / nominal): %.3f at L2 ratio %.3f\n", m[4] / m[2],
              m[1] > 0 ? m[3] / m[1] : 1.0);
  return true;
}

struct Experiment {
  const char* name;
  bool (*run)();
};

// The paper's order; figure7_training_curves trains the generators that
// table2_main and figure8_visuals then load from the cache.
const Experiment kExperiments[] = {
    {"figure_table1_layouts", figure_table1_layouts},
    {"figure2_defects", figure2_defects},
    {"figure7_training_curves", figure7_training_curves},
    {"table2_main", table2_main},
    {"figure8_visuals", figure8_visuals},
    {"ablation_discriminator", ablation_discriminator},
    {"ablation_pretrain", ablation_pretrain},
    {"ablation_kernels", ablation_kernels},
    {"ablation_sraf", ablation_sraf},
    {"ablation_generator", ablation_generator},
    {"ablation_kernel_method", ablation_kernel_method},
    {"ablation_ilt_smoothness", ablation_ilt_smoothness},
    {"baseline_mbopc", baseline_mbopc},
    {"process_window", process_window},
    {"extension_pv_ilt", extension_pv_ilt},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Experiment*> plan;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(std::begin(kExperiments), std::end(kExperiments),
                                 [&](const Experiment& e) {
                                   return std::strcmp(e.name, argv[i]) == 0;
                                 });
    if (it == std::end(kExperiments)) {
      std::fprintf(stderr, "paper: unknown experiment '%s'; the experiments are:\n",
                   argv[i]);
      for (const Experiment& e : kExperiments) std::fprintf(stderr, "  %s\n", e.name);
      return 2;
    }
    plan.push_back(it);
  }
  if (plan.empty())
    for (const Experiment& e : kExperiments) plan.push_back(&e);

  int failed = 0;
  for (const Experiment* e : plan) {
    std::printf("== %s ==\n", e->name);
    bool ok = false;
    try {
      ok = e->run();
    } catch (const std::exception& ex) {
      std::printf("error: %s\n", ex.what());
    }
    if (!ok) {
      ++failed;
      std::printf("FAILED: %s\n", e->name);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return failed == 0 ? 0 : 1;
}
