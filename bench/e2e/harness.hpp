// Shared pieces of the end-to-end benchmark harness (README.md): the
// workload table, exact order statistics, the metric table every workload
// fills, clip inputs, process resource readings and the in-memory span log
// of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace e2e {

// ------------------------------------------------------------------ workloads

enum class Front { Direct, Pool, Serve };

/// One benchmark workload. Clip and request counts are floors: a run keeps
/// going until both `--seconds` have passed and `min_items` were measured.
struct Workload {
  const char* name;
  int litho_grid;       ///< 256 = 8 nm pixels, 128 = 16 nm (2048 nm clips)
  const char* backend;  ///< --litho-backend spelling
  Front front;
  int quality_clips;    ///< fixed clips run untimed first (warm-up + quality)
  int min_items;
  int trace_clips;      ///< clips replayed stage by stage in the traced run
};

const Workload* find_workload(const std::string& name);

/// Quick preset at the workload's grid with the committed generator: the
/// session `ganopc optimize|batch|serve --scale quick --grid G --iters N
/// --litho-backend B --generator F` opens. `ilt_iterations` 0 keeps the
/// preset's 60.
ganopc::engine::EngineOptions engine_options(const Workload& w,
                                             const std::string& generator,
                                             int ilt_iterations);

// ---------------------------------------------------------------- statistics

/// Nearest-rank percentile of raw samples, q in (0, 1]. Never interpolated.
double percentile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);
double sum(const std::vector<double>& samples);

// -------------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value
};

/// What one run prints: metrics by name plus the correctness verdict.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::int64_t attempted = 0;
  std::int64_t failed = 0;            ///< failed, refused or mismatched items

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t n);
  /// Records `what` as a failed check unless `ok`.
  void check(bool ok, const std::string& what);
  std::string to_json(const std::string& workload, std::uint64_t seed) const;
};

// ---------------------------------------------------------------- resources

double cpu_seconds_self();
double cpu_seconds_children();  ///< terminated and waited-for descendants
double peak_rss_mb_self();
double peak_rss_mb_children();  ///< largest terminated descendant

/// CPU seconds of a live process tree: `pid`, its reaped children, and its
/// live children (one level, which is how the serve daemon's workers sit).
double cpu_seconds_tree(int pid);
/// Largest VmHWM in MB over `pid` and its live children.
double peak_rss_mb_tree(int pid);

// ------------------------------------------------------------------- inputs

struct ClipFile {
  std::string id;
  std::string path;
  std::string text;  ///< the layout text the file holds (serve request body)
};

/// `count` clips from layout::synthesize_library(seed), written as layout
/// text files under `dir` (prefix names them).
std::vector<ClipFile> make_clips(std::uint64_t seed, int count,
                                 const std::string& dir,
                                 const std::string& prefix);

/// Seed of the fixed quality set: the clips every run of a grid replays
/// first, so quality metrics never depend on --seed.
inline constexpr std::uint64_t kQualitySeed = 1847;

/// Library seed of a run's timed clips, kept apart from kQualitySeed.
std::uint64_t timed_seed(std::uint64_t seed);

std::string read_file(const std::string& path);
std::uint64_t fnv1a64_bytes(const std::string& bytes);

// ---------------------------------------------------------------- span log

/// Spans of the traced run, kept in memory and written once at exit as
/// Chrome trace-event JSON. Spans of one clip share its id.
class SpanLog {
 public:
  void add(const std::string& name, std::uint64_t clip_id, std::uint64_t start_ns,
           std::uint64_t end_ns);
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t clip_id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<Span> spans_;
};

std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);

}  // namespace e2e
