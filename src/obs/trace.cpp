#include "obs/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>

namespace ganopc::obs {

namespace {

/// Hard cap per thread (~24 MB of events process-wide at 16 threads) so a
/// long traced run degrades to dropped-and-counted instead of OOM. The
/// ingested remote buffer shares the same cap.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct ThreadBuffer {
  std::mutex mutex;  ///< uncontended except during export
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  ///< one per thread seen
  std::uint32_t next_tid = 0;
  // Span-site name interning: node-based map keys are stable addresses.
  std::map<std::string, SpanSite, std::less<>> sites;
  // Remote-span ingestion: names interned separately (no metric handles —
  // worker metrics arrive via MetricsDelta, not via span replay).
  std::set<std::string, std::less<>> remote_names;
  std::vector<TraceEvent> remote_events;
};

// Leaked for the same reason as the metrics registry: worker threads may
// still finish spans while static destructors run.
TraceState& state() {
  static auto* s = new TraceState();
  return *s;
}

ThreadBuffer& thread_buffer() {
  // The shared_ptr in the global list keeps a finished thread's events alive
  // until export; the thread_local only drops its reference on thread exit.
  thread_local std::shared_ptr<ThreadBuffer> local = [] {
    auto buf = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    buf->tid = s.next_tid++;
    s.buffers.push_back(buf);
    return buf;
  }();
  return *local;
}

thread_local TraceContext g_trace_context;

void record_local(const TraceEvent& event) {
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard lock(buf.mutex);
  if (buf.events.size() >= kMaxEventsPerThread) {
    static Counter& dropped = counter("obs.trace.dropped");
    dropped.inc();
    return;
  }
  TraceEvent e = event;
  e.tid = buf.tid;
  buf.events.push_back(e);
}

}  // namespace

TraceContext trace_context() { return g_trace_context; }

void set_trace_context(const TraceContext& ctx) { g_trace_context = ctx; }

std::uint64_t next_span_id() {
  // pid-namespaced so ids minted after fork() never collide with the
  // parent's. getpid() is read per call (not cached) for exactly that
  // reason: a cached pid would survive the fork and alias the namespaces.
  static std::atomic<std::uint64_t> next{1};
  return (static_cast<std::uint64_t>(::getpid()) << 32) |
         (next.fetch_add(1, std::memory_order_relaxed) & 0xffffffffu);
}

const SpanSite& span_site(std::string_view name) {
  TraceState& s = state();
  std::lock_guard lock(s.mutex);
  auto it = s.sites.find(name);
  if (it == s.sites.end()) {
    it = s.sites.emplace(std::string(name), SpanSite{}).first;
    it->second.name = it->first.c_str();
    it->second.calls = &counter(std::string(name) + ".calls");
    it->second.seconds =
        &histogram(std::string(name) + ".seconds", time_buckets());
  }
  return it->second;
}

void ObsSpan::begin_trace() {
  const TraceContext ctx = g_trace_context;
  if (ctx.trace_id == 0) return;
  trace_id_ = ctx.trace_id;
  parent_id_ = ctx.parent_span;
  span_id_ = next_span_id();
  g_trace_context.parent_span = span_id_;
}

void ObsSpan::finish() {
  const std::uint64_t end_ns = monotonic_ns();
  if ((flags_ & kMetricsBit) != 0) {
    site_->calls->inc();
    site_->seconds->observe(static_cast<double>(end_ns - start_ns_) * 1e-9);
  }
  if ((flags_ & kTraceBit) != 0) {
    record_local({site_->name, start_ns_, end_ns - start_ns_, 0, 0, trace_id_,
                  span_id_, parent_id_});
    // Spans are strictly LIFO per thread, so popping back to the saved
    // parent restores the context even across sibling spans.
    if (span_id_ != 0) g_trace_context.parent_span = parent_id_;
  }
}

void record_span(const SpanSite& site, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent_id,
                 bool with_metrics) {
  const std::uint32_t f = flags();
  if (f == 0) return;
  if (end_ns < start_ns) end_ns = start_ns;
  if (with_metrics && (f & kMetricsBit) != 0) {
    site.calls->inc();
    site.seconds->observe(static_cast<double>(end_ns - start_ns) * 1e-9);
  }
  if ((f & kTraceBit) != 0) {
    record_local({site.name, start_ns, end_ns - start_ns, 0, 0, trace_id,
                  span_id, parent_id});
  }
}

std::vector<TraceEvent> trace_events() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<TraceEvent> out;
  {
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    buffers = s.buffers;
    out = s.remote_events;
  }
  for (const auto& buf : buffers) {
    std::lock_guard lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

std::vector<TraceEvent> trace_drain() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    buffers = s.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    std::lock_guard lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
    buf->events.clear();
  }
  return out;
}

void trace_ingest(const std::vector<RemoteSpan>& spans) {
  TraceState& s = state();
  std::lock_guard lock(s.mutex);
  for (const RemoteSpan& span : spans) {
    if (s.remote_events.size() >= kMaxEventsPerThread) {
      static Counter& dropped = counter("obs.trace.dropped");
      dropped.inc();
      continue;
    }
    const char* name = s.remote_names.insert(span.name).first->c_str();
    s.remote_events.push_back({name, span.start_ns, span.dur_ns, span.tid,
                               span.pid, span.trace_id, span.span_id,
                               span.parent_id});
  }
}

void trace_clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    buffers = s.buffers;
    s.remote_events.clear();
  }
  for (const auto& buf : buffers) {
    std::lock_guard lock(buf->mutex);
    buf->events.clear();
  }
}

std::string trace_to_chrome_json(const std::vector<TraceEvent>& events) {
  const std::uint32_t local_pid = static_cast<std::uint32_t>(::getpid());
  std::uint64_t t0 = ~0ull;
  for (const auto& e : events) t0 = e.start_ns < t0 ? e.start_ns : t0;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const std::uint32_t pid = e.pid == 0 ? local_pid : e.pid;
    int n = std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"cat\":\"ganopc\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                          i == 0 ? "" : ",", e.name,
                          static_cast<double>(e.start_ns - t0) * 1e-3,
                          static_cast<double>(e.dur_ns) * 1e-3, pid, e.tid);
    out.append(buf, static_cast<std::size_t>(n));
    if (e.trace_id != 0) {
      n = std::snprintf(buf, sizeof buf,
                        ",\"args\":{\"trace\":\"%llx\",\"span\":\"%llx\","
                        "\"parent\":\"%llx\"}",
                        static_cast<unsigned long long>(e.trace_id),
                        static_cast<unsigned long long>(e.span_id),
                        static_cast<unsigned long long>(e.parent_id));
      out.append(buf, static_cast<std::size_t>(n));
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace ganopc::obs
