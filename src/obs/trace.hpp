// Lightweight span tracing (DESIGN.md §10, §16).
//
// An ObsSpan is an RAII stage marker: constructed at the top of an
// instrumented scope, it records nothing when observability is off (one
// relaxed flags load + branch), and otherwise stamps monotonic-clock start/
// end and the recording thread. Each completed span feeds
//   * metrics (when enabled): `<name>.calls` counter + `<name>.seconds`
//     duration histogram, and
//   * the trace buffer (when enabled): one event per span, exported as
//     Chrome `chrome://tracing` / Perfetto "X" (complete) events.
//
// Call sites resolve their metric handles once through a function-local
// static SpanSite, so per-call cost is pointer loads only:
//
//   void LithoSim::simulate(...) {
//     GANOPC_OBS_SPAN("litho.simulate");
//     ...
//   }
//
// Trace events go to per-thread buffers (a short uncontended lock per event,
// taken only while tracing is on) and are aggregated at export time.
//
// Cross-process request tracing (DESIGN.md §16): a TraceContext (trace id +
// current parent span) is minted once per request, installed thread-locally,
// and every ObsSpan under it records trace/span/parent ids so the export is
// a proper span tree. Span ids are namespaced by pid, so spans recorded in
// forked workers and shipped back over the wire (obs/remote.hpp) never
// collide with supervisor ids and nest under the supervisor request span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace ganopc::obs {

/// Monotonic nanoseconds (steady_clock); comparable across threads — and,
/// because workers are fork twins, across the supervisor/worker boundary.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -------------------------------------------------------- trace context

/// Request-scoped trace identity carried by the calling thread. trace_id 0
/// means "no active request": spans still record locally but stay outside
/// any request tree.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;  ///< span new children attach under
};

/// The calling thread's active context (all-zero when none installed).
TraceContext trace_context();
void set_trace_context(const TraceContext& ctx);

/// Process-unique span/trace id: (pid << 32) | counter, so ids minted in a
/// forked worker can never collide with the supervisor's.
std::uint64_t next_span_id();

/// Install a context for a scope; restores the previous one on exit.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx) : saved_(trace_context()) {
    set_trace_context(ctx);
  }
  ~TraceContextScope() { set_trace_context(saved_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// One call site's registered handles. The name is interned (stable for the
/// process lifetime) so trace events can hold the pointer without copying.
struct SpanSite {
  const char* name = nullptr;
  Counter* calls = nullptr;     ///< "<name>.calls"
  Histogram* seconds = nullptr; ///< "<name>.seconds", time_buckets() bounds
};

/// Find-or-create the site for `name`; reference valid forever.
const SpanSite& span_site(std::string_view name);

class ObsSpan {
 public:
  explicit ObsSpan(const SpanSite& site) {
    flags_ = obs::flags();
    if (flags_ == 0) return;
    site_ = &site;
    start_ns_ = monotonic_ns();
    if ((flags_ & kTraceBit) != 0) begin_trace();
  }
  ~ObsSpan() {
    if (site_ != nullptr) finish();
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  void begin_trace();  ///< allocate span id, push self as current parent
  void finish();

  const SpanSite* site_ = nullptr;
  std::uint32_t flags_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
};

/// Open a span for the enclosing scope. The variable name embeds __LINE__ so
/// several spans can coexist in one function.
#define GANOPC_OBS_CONCAT2(a, b) a##b
#define GANOPC_OBS_CONCAT(a, b) GANOPC_OBS_CONCAT2(a, b)
#define GANOPC_OBS_SPAN(name_literal)                                     \
  static const ::ganopc::obs::SpanSite& GANOPC_OBS_CONCAT(                \
      ganopc_obs_site_, __LINE__) = ::ganopc::obs::span_site(name_literal); \
  ::ganopc::obs::ObsSpan GANOPC_OBS_CONCAT(ganopc_obs_span_, __LINE__)(   \
      GANOPC_OBS_CONCAT(ganopc_obs_site_, __LINE__))

// ------------------------------------------------------------ trace buffer

struct TraceEvent {
  const char* name = nullptr;  ///< interned span name
  std::uint64_t start_ns = 0;  ///< monotonic
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< dense per-process thread index (0 = first seen)
  std::uint32_t pid = 0;  ///< 0 = recorded by this process; else origin pid
  std::uint64_t trace_id = 0;   ///< 0 = outside any request
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = request root
};

/// Record a completed span explicitly — for spans that cannot be RAII-scoped
/// (a daemon request crosses many event-loop iterations) or whose timestamps
/// come from elsewhere (stage attribution from wire-carried clocks). Applies
/// the same gating as ObsSpan; pass with_metrics=false for trace-only spans
/// whose durations are already accounted elsewhere (avoids double counting
/// when worker-side deltas merge into the same registry).
void record_span(const SpanSite& site, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent_id,
                 bool with_metrics = true);

/// Copy of every buffered event across all threads (plus ingested remote
/// events), in unspecified order.
std::vector<TraceEvent> trace_events();

/// Remove and return the calling process's locally recorded events (remote
/// ingested events are not drained — only their origin owns them). Used by
/// workers to ship each completed span exactly once.
std::vector<TraceEvent> trace_drain();

/// A span shipped from another process, name carried by value.
struct RemoteSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t pid = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// Intern remote spans into the trace buffer (names copied into a process-
/// lifetime table; no metric registration). Capped like local buffers, drops
/// counted in `obs.trace.dropped`.
void trace_ingest(const std::vector<RemoteSpan>& spans);

/// Drop all buffered events (also done by obs::reset_values()).
void trace_clear();

/// Chrome trace-event JSON (load via chrome://tracing or ui.perfetto.dev).
/// Timestamps are rebased to the earliest event; each event carries its real
/// origin pid and, when traced, span identity under "args" so
/// tools/trace_stitch can rebuild the cross-process span tree.
std::string trace_to_chrome_json(const std::vector<TraceEvent>& events);

}  // namespace ganopc::obs
