// src/obs unit tier: counter/gauge/histogram semantics, bucket boundary
// (le) behaviour, exact sums under concurrency, snapshot consistency and
// parseable, stable Prometheus / JSON exposition (DESIGN.md §10).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ganopc::obs {
namespace {

// The registry is process-global, so every test uses names under its own
// "test.obs.<case>." prefix — no cross-test interference even under ctest -j.

TEST(ObsCounter, IncrementAndReset) {
  Counter& c = counter("test.obs.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, SameNameReturnsSameObject) {
  Counter& a = counter("test.obs.counter.same");
  Counter& b = counter("test.obs.counter.same");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(ObsGauge, SetAddReset) {
  Gauge& g = gauge("test.obs.gauge.basic");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BucketBoundariesAreLessOrEqual) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  Histogram& h = histogram("test.obs.hist.bounds", bounds);
  // Prometheus le-semantics: a value on a boundary lands in that bucket.
  h.observe(0.5);  // bucket 0 (le 1)
  h.observe(1.0);  // bucket 0 (le 1) — boundary is inclusive
  h.observe(1.5);  // bucket 1 (le 2)
  h.observe(2.0);  // bucket 1
  h.observe(4.0);  // bucket 2 (le 4)
  h.observe(5.0);  // overflow (+Inf)
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(ObsHistogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, ReRegisterWithDifferentBoundsThrows) {
  const std::vector<double> bounds = {1.0, 2.0};
  histogram("test.obs.hist.rereg", bounds);
  histogram("test.obs.hist.rereg", bounds);  // identical bounds: fine
  const std::vector<double> other = {1.0, 3.0};
  EXPECT_THROW(histogram("test.obs.hist.rereg", other), std::invalid_argument);
}

TEST(ObsRegistry, CrossTypeNameConflictThrows) {
  counter("test.obs.conflict.a");
  EXPECT_THROW(gauge("test.obs.conflict.a"), std::invalid_argument);
  EXPECT_THROW(histogram("test.obs.conflict.a", time_buckets()),
               std::invalid_argument);
  gauge("test.obs.conflict.b");
  EXPECT_THROW(counter("test.obs.conflict.b"), std::invalid_argument);
}

TEST(ObsConcurrency, CounterAndHistogramSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  Counter& c = counter("test.obs.concurrent.counter");
  Histogram& h = histogram("test.obs.concurrent.hist",
                           std::vector<double>{0.5, 1.5, 2.5});
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(t % 3));  // 0, 1 or 2 — one per bucket
      }
    });
  go.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Threads 0,3,6 observe 0; 1,4,7 observe 1; 2,5 observe 2.
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 3u * kPerThread);
  EXPECT_EQ(counts[1], 3u * kPerThread);
  EXPECT_EQ(counts[2], 2u * kPerThread);
  EXPECT_EQ(counts[3], 0u);
  const double expect_sum = (3.0 * 0 + 3.0 * 1 + 2.0 * 2) * kPerThread;
  EXPECT_DOUBLE_EQ(h.sum(), expect_sum);
}

TEST(ObsSnapshot, ReflectsRegisteredValues) {
  counter("test.obs.snap.counter").inc(7);
  gauge("test.obs.snap.gauge").set(3.25);
  Histogram& h =
      histogram("test.obs.snap.hist", std::vector<double>{1.0, 2.0, 3.0});
  // 50 observations in (0,1], 50 in (2,3]: p50 = 1.0 exactly (top of the
  // first bucket), p95 interpolates 90% into the third bucket.
  for (int i = 0; i < 50; ++i) h.observe(0.5);
  for (int i = 0; i < 50; ++i) h.observe(2.5);

  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_value("test.obs.snap.counter"), 7u);
  bool saw_gauge = false;
  for (const auto& [name, v] : snap.gauges)
    if (name == "test.obs.snap.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(v, 3.25);
    }
  EXPECT_TRUE(saw_gauge);

  const HistogramSnapshot* hs = snap.find_histogram("test.obs.snap.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_DOUBLE_EQ(hs->sum, 50 * 0.5 + 50 * 2.5);
  EXPECT_DOUBLE_EQ(hs->quantile(0.5), 1.0);
  EXPECT_NEAR(hs->quantile(0.95), 2.9, 1e-12);
  EXPECT_EQ(snap.find_histogram("test.obs.snap.absent"), nullptr);
  EXPECT_EQ(snap.counter_value("test.obs.snap.absent"), 0u);
}

TEST(ObsExport, PrometheusIsWellFormedAndStable) {
  counter("test.obs.prom.counter").inc(3);
  Histogram& h =
      histogram("test.obs.prom.hist", std::vector<double>{0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);

  const Snapshot snap = snapshot();
  const std::string text = to_prometheus(snap);
  // Names are mangled to ganopc_<name> with '.' -> '_'.
  EXPECT_NE(text.find("# TYPE ganopc_test_obs_prom_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ganopc_test_obs_prom_counter 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ganopc_test_obs_prom_hist histogram\n"),
            std::string::npos);
  // Buckets are cumulative; +Inf equals _count.
  EXPECT_NE(text.find("ganopc_test_obs_prom_hist_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ganopc_test_obs_prom_hist_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ganopc_test_obs_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ganopc_test_obs_prom_hist_count 3\n"),
            std::string::npos);
  // Every line is "# ..." or "name[{labels}] value".
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    ASSERT_FALSE(line.empty());
    if (line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << "bad line: " << line;
    }
    pos = eol + 1;
  }
  // Stable: exporting the same snapshot twice is byte-identical.
  EXPECT_EQ(text, to_prometheus(snap));
}

TEST(ObsExport, JsonIsBalancedAndStable) {
  counter("test.obs.json.counter").inc(11);
  Histogram& h = histogram("test.obs.json.hist", time_buckets());
  h.observe(1e-3);
  const Snapshot snap = snapshot();
  const std::string js = to_json(snap);
  ASSERT_FALSE(js.empty());
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  // Braces/brackets balance (no strings in our output contain them).
  int brace = 0, bracket = 0;
  for (const char c : js) {
    brace += (c == '{') - (c == '}');
    bracket += (c == '[') - (c == ']');
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_NE(js.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(js.find("\"test.obs.json.counter\":11"), std::string::npos);
  EXPECT_NE(js.find("\"test.obs.json.hist\":{"), std::string::npos);
  EXPECT_NE(js.find("\"p50\":"), std::string::npos);
  EXPECT_NE(js.find("\"p95\":"), std::string::npos);
  EXPECT_EQ(js, to_json(snap));
}

TEST(ObsRegistry, RejectsIllegalMetricNames) {
  // Names that would corrupt an exporter downstream must be refused at
  // registration, not silently mangled at export time.
  for (const char* bad :
       {"", "1starts.with.digit", ".leading.dot", "has space", "quote\"name",
        "back\\slash", "new\nline", "unicode\xc3\xa9"}) {
    EXPECT_THROW(counter(bad), std::invalid_argument) << "accepted: " << bad;
    EXPECT_THROW(gauge(bad), std::invalid_argument);
    EXPECT_THROW(histogram(bad, time_buckets()), std::invalid_argument);
  }
  // The repo's existing vocabulary ('.', '-', '_') stays legal.
  counter("test.obs.valid.termination-name_ok");
}

TEST(ObsExport, EmptySnapshotYieldsValidNonEmptyExpositions) {
  const Snapshot empty;
  const std::string prom = to_prometheus(empty);
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(prom.front(), '#');  // a comment line is a legal exposition
  EXPECT_EQ(prom.back(), '\n');
  const std::string js = to_json(empty);
  EXPECT_NE(js.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(js.find("\"gauges\":{}"), std::string::npos);
  EXPECT_NE(js.find("\"histograms\":{}"), std::string::npos);
}

TEST(ObsExport, JsonEscapesHostileNamesInHandBuiltSnapshots) {
  // Registered names can never contain these, but snapshots are plain data
  // that tests and tools may build directly — the emitter must stay safe.
  Snapshot snap;
  snap.counters.emplace_back("bad\"name\\with\ncontrol\x01", 1);
  const std::string js = to_json(snap);
  EXPECT_NE(js.find("bad\\\"name\\\\with\\ncontrol\\u0001"), std::string::npos);
}

TEST(ObsFlags, EnableDisableRoundTrip) {
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_FALSE(active());
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(active());
  set_trace_enabled(true);
  EXPECT_TRUE(trace_enabled());
  set_metrics_enabled(false);
  set_trace_enabled(false);
  EXPECT_FALSE(active());
}

TEST(ObsSpan, RecordsCallsSecondsAndTraceEvents) {
  set_metrics_enabled(true);
  set_trace_enabled(true);
  reset_values();
  {
    GANOPC_OBS_SPAN("test.obs.span.site");
  }
  {
    GANOPC_OBS_SPAN("test.obs.span.site");
  }
  set_metrics_enabled(false);
  set_trace_enabled(false);

  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_value("test.obs.span.site.calls"), 2u);
  const HistogramSnapshot* hs =
      snap.find_histogram("test.obs.span.site.seconds");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_GE(hs->sum, 0.0);

  int seen = 0;
  for (const auto& ev : trace_events())
    if (std::string_view(ev.name) == "test.obs.span.site") ++seen;
  EXPECT_EQ(seen, 2);
  const std::string chrome = trace_to_chrome_json(trace_events());
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  reset_values();
  EXPECT_TRUE(trace_events().empty());
}

TEST(ObsSpan, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(active());
  reset_values();
  {
    GANOPC_OBS_SPAN("test.obs.span.disabled");
  }
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_value("test.obs.span.disabled.calls"), 0u);
  EXPECT_TRUE(trace_events().empty());
}

}  // namespace
}  // namespace ganopc::obs
