#include "harness.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "core/config.hpp"
#include "layout/synthesizer.hpp"
#include "litho/backend.hpp"

namespace e2e {

namespace {

// Why each workload exists is in README.md. The item floors keep every
// metric defined on a slow machine; the traced-clip counts keep a traced run
// about as long as an untraced one (three submits per clip, the pool's on
// one thread).
constexpr Workload kWorkloads[] = {
    {"clip-8nm", 256, "abbe", Front::Direct, 4, 8, 6},
    {"clip-16nm-tcc", 128, "tcc:8", Front::Direct, 8, 40, 8},
    {"batch-8nm-pool", 256, "abbe", Front::Pool, 4, 8, 2},
    {"serve-16nm-mixed", 128, "tcc:8", Front::Serve, 8, 100, 8},
};

double rusage_cpu(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double rusage_rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// utime+stime (+ cutime+cstime) of /proc/<pid>/stat in seconds, 0 if gone.
double proc_stat_cpu(int pid, bool with_children) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; comm may hold spaces.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos || close + 2 > line.size()) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::vector<std::string> f;
  for (std::string tok; rest >> tok;) f.push_back(tok);
  // f[0] is field 3 (state); utime..cstime are fields 14..17.
  if (f.size() < 15) return 0.0;
  double ticks = std::stod(f[11]) + std::stod(f[12]);
  if (with_children) ticks += std::stod(f[13]) + std::stod(f[14]);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Children of every thread of `pid` (a child belongs to the thread that
/// forked it).
std::vector<int> live_children(int pid) {
  std::vector<int> out;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + e->d_name + "/children");
    for (int child; in >> child;) out.push_back(child);
  }
  ::closedir(dir);
  return out;
}

double vm_hwm_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

ganopc::engine::EngineOptions engine_options(const Workload& w,
                                             const std::string& generator,
                                             int ilt_iterations) {
  using namespace ganopc;
  engine::EngineOptions o;
  o.config = core::make_config(core::ReproScale::Quick);
  o.config.litho_grid = w.litho_grid;
  if (ilt_iterations > 0) o.config.ilt.max_iterations = ilt_iterations;
  o.backend = litho::parse_litho_backend(w.backend);
  o.generator_path = generator;
  return o;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double sum(const std::vector<double>& samples) {
  double s = 0.0;
  for (const double v : samples) s += v;
  return s;
}

double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : sum(samples) / static_cast<double>(samples.size());
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t n) {
  metrics[name] = Metric{value, unit, n};
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

std::string Report::to_json(const std::string& workload, std::uint64_t seed) const {
  using ganopc::json::Value;
  Value obj = Value::object();
  obj.set("workload", Value::string(workload));
  obj.set("seed", Value::number(static_cast<double>(seed)));
  obj.set("correct", Value::boolean(failures.empty() && failed == 0));
  obj.set("attempted", Value::number(static_cast<double>(attempted)));
  obj.set("failed", Value::number(static_cast<double>(failed)));
  Value fails = Value::array();
  for (const auto& f : failures) fails.push_back(Value::string(f));
  obj.set("failures", std::move(fails));
  Value ms = Value::object();
  for (const auto& [name, m] : metrics) {
    Value v = Value::object();
    v.set("value", Value::number(m.value));
    v.set("unit", Value::string(m.unit));
    v.set("n", Value::number(static_cast<double>(m.n)));
    ms.set(name, std::move(v));
  }
  obj.set("metrics", std::move(ms));
  return obj.dump();
}

double cpu_seconds_self() { return rusage_cpu(RUSAGE_SELF); }
double cpu_seconds_children() { return rusage_cpu(RUSAGE_CHILDREN); }
double peak_rss_mb_self() { return rusage_rss_mb(RUSAGE_SELF); }
double peak_rss_mb_children() { return rusage_rss_mb(RUSAGE_CHILDREN); }

double cpu_seconds_tree(int pid) {
  double total = proc_stat_cpu(pid, /*with_children=*/true);
  for (const int child : live_children(pid))
    total += proc_stat_cpu(child, /*with_children=*/false);
  return total;
}

double peak_rss_mb_tree(int pid) {
  double peak = vm_hwm_mb(pid);
  for (const int child : live_children(pid)) peak = std::max(peak, vm_hwm_mb(child));
  return peak;
}

std::vector<ClipFile> make_clips(std::uint64_t seed, int count,
                                 const std::string& dir,
                                 const std::string& prefix) {
  const auto library = ganopc::layout::synthesize_library(
      ganopc::layout::SynthesisConfig{}, static_cast<std::size_t>(count), seed);
  std::vector<ClipFile> clips;
  clips.reserve(library.size());
  for (std::size_t i = 0; i < library.size(); ++i) {
    ClipFile c;
    c.id = prefix + std::to_string(i);
    c.path = dir + "/" + c.id + ".txt";
    c.text = library[i].to_text();
    std::ofstream out(c.path, std::ios::binary | std::ios::trunc);
    out << c.text;
    if (!out.good()) throw std::runtime_error("cannot write clip " + c.path);
    clips.push_back(std::move(c));
  }
  return clips;
}

std::uint64_t timed_seed(std::uint64_t seed) {
  return fnv1a64_bytes("e2e-timed-clips:" + std::to_string(seed));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t fnv1a64_bytes(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void SpanLog::add(const std::string& name, std::uint64_t clip_id,
                  std::uint64_t start_ns, std::uint64_t end_ns) {
  spans_.push_back(Span{name, clip_id, start_ns, end_ns});
}

void SpanLog::write_chrome(const std::string& path) const {
  using ganopc::json::Value;
  std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  Value events = Value::array();
  for (const Span& s : spans_) {
    Value e = Value::object();
    e.set("name", Value::string(s.name));
    e.set("ph", Value::string("X"));
    e.set("ts", Value::number(static_cast<double>(s.start_ns - t0) * 1e-3));
    e.set("dur", Value::number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3));
    e.set("pid", Value::number(1));
    e.set("tid", Value::number(1));
    Value args = Value::object();
    args.set("clip_id", Value::number(static_cast<double>(s.clip_id)));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Value doc = Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Value::string("ms"));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc.dump() << "\n";
  if (!out.good()) throw std::runtime_error("cannot write trace " + path);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace e2e
