// trace_stitch — assemble per-request span trees out of a fleet trace
// (DESIGN.md §16).
//
//   trace_stitch --in TRACE.json --out STITCHED.json
//                [--check] [--expect-remote N]
//
// `ganopc serve --trace-out` already writes one Chrome trace holding both
// supervisor spans and the worker spans shipped back over the proc wire
// (each event's pid is the process that recorded it; trace/span/parent ids
// ride in `args`). Chrome's viewer, however, groups by pid — worker spans
// land in a different process lane than the request they belong to. This
// tool re-cuts the file along request boundaries: every trace id with a
// root span (parent == 0, e.g. serve.request / cli.request) becomes its own
// process lane named after the root, all spans reachable from the root are
// remapped into that lane on one thread row (Chrome nests same-tid slices
// by time containment, and supervisor/worker clocks are the same
// CLOCK_MONOTONIC, so worker spans visually nest under the request span),
// and the origin pid/tid are preserved in `args`. Events with no trace
// context pass through on an "untraced" lane.
//
// --check turns the tool into a CI gate: exit 4 when any span's parent is
// missing from its trace (orphan), when a trace has no root, or when fewer
// than --expect-remote spans recorded by a *different* process than the
// root are reachable from request roots — i.e. it proves worker spans
// really stitched under supervisor requests. Exit codes: 0 ok, 4 check
// failed, 2 usage, 1 I/O or parse error (0/4 as in `ganopc report`).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace {

using namespace ganopc;

struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: trace_stitch --in TRACE.json --out STITCHED.json\n"
               "                    [--check] [--expect-remote N]\n"
               "exit: 0 ok, 4 check failed, 2 usage, 1 error\n");
  return 2;
}

std::uint64_t hex_or_zero(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return 0;
  return std::strtoull(v->as_string().c_str(), nullptr, 16);
}

void append_event(std::string& out, bool& first, const Span& s,
                  std::uint32_t lane_pid, std::uint32_t lane_tid) {
  char buf[256];
  out += first ? "\n  " : ",\n  ";
  first = false;
  out += "{\"name\":\"";
  json::escape_into(out, s.name);
  int n = std::snprintf(buf, sizeof buf,
                        "\",\"cat\":\"ganopc\",\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                        s.ts_us, s.dur_us, lane_pid, lane_tid);
  out.append(buf, static_cast<std::size_t>(n));
  if (s.trace != 0) {
    n = std::snprintf(buf, sizeof buf,
                      ",\"args\":{\"trace\":\"%llx\",\"span\":\"%llx\","
                      "\"parent\":\"%llx\",\"src_pid\":%u,\"src_tid\":%u}",
                      static_cast<unsigned long long>(s.trace),
                      static_cast<unsigned long long>(s.span),
                      static_cast<unsigned long long>(s.parent), s.pid, s.tid);
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += '}';
}

void append_metadata(std::string& out, bool& first, const char* what,
                     std::uint32_t lane_pid, const std::string& label) {
  char buf[96];
  out += first ? "\n  " : ",\n  ";
  first = false;
  int n = std::snprintf(
      buf, sizeof buf, "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,", what,
      lane_pid);
  out.append(buf, static_cast<std::size_t>(n));
  out += "\"args\":{\"name\":\"";
  json::escape_into(out, label);
  out += "\"}}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path, out_path;
  bool check = false;
  long expect_remote = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--in" && i + 1 < argc) {
      in_path = argv[++i];
    } else if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (flag == "--check") {
      check = true;
    } else if (flag == "--expect-remote" && i + 1 < argc) {
      expect_remote = std::atol(argv[++i]);
    } else {
      return usage();
    }
  }
  if (in_path.empty() || out_path.empty()) return usage();

  try {
    std::ifstream in(in_path, std::ios::binary);
    if (!in.good()) {
      std::fprintf(stderr, "trace_stitch: cannot read %s\n", in_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::parse(ss.str());
    const json::Value* events = doc.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      std::fprintf(stderr, "trace_stitch: %s has no traceEvents array\n",
                   in_path.c_str());
      return 1;
    }

    std::vector<Span> spans;
    std::vector<Span> untraced;
    for (const json::Value& e : events->items()) {
      if (e.string_or("ph", "") != "X") continue;  // metadata etc.
      Span s;
      s.name = e.string_or("name", "?");
      s.ts_us = e.number_or("ts", 0.0);
      s.dur_us = e.number_or("dur", 0.0);
      s.pid = static_cast<std::uint32_t>(e.number_or("pid", 0.0));
      s.tid = static_cast<std::uint32_t>(e.number_or("tid", 0.0));
      if (const json::Value* args = e.find("args")) {
        s.trace = hex_or_zero(*args, "trace");
        s.span = hex_or_zero(*args, "span");
        s.parent = hex_or_zero(*args, "parent");
      }
      (s.trace != 0 ? spans : untraced).push_back(std::move(s));
    }

    // Group by trace id and rebuild each tree: index spans by id, then walk
    // parent links. A span whose parent id is absent from its trace is an
    // orphan (a dropped frame or a bug in context propagation).
    std::map<std::uint64_t, std::vector<Span>> traces;
    for (Span& s : spans) traces[s.trace].push_back(std::move(s));

    std::size_t orphans = 0, rootless = 0;
    long remote_reachable = 0;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::uint32_t lane = 1;
    for (auto& [trace_id, tree] : traces) {
      std::map<std::uint64_t, std::size_t> by_id;
      for (std::size_t i = 0; i < tree.size(); ++i) by_id[tree[i].span] = i;
      const Span* root = nullptr;
      for (const Span& s : tree) {
        if (s.parent == 0) {
          root = &s;
        } else if (by_id.find(s.parent) == by_id.end()) {
          ++orphans;
          std::fprintf(stderr,
                       "trace %llx: orphan span %llx (%s): parent %llx "
                       "missing\n",
                       static_cast<unsigned long long>(trace_id),
                       static_cast<unsigned long long>(s.span), s.name.c_str(),
                       static_cast<unsigned long long>(s.parent));
        }
      }
      if (root == nullptr) {
        ++rootless;
        std::fprintf(stderr, "trace %llx: no root span (%zu spans)\n",
                     static_cast<unsigned long long>(trace_id), tree.size());
      } else {
        // Count spans recorded by another process that chain up to the
        // root — the stitched-fleet property the CI gate asserts.
        for (const Span& s : tree) {
          if (s.pid == root->pid) continue;
          std::uint64_t cursor = s.parent;
          for (std::size_t hops = 0; cursor != 0 && hops <= tree.size();
               ++hops) {
            auto it = by_id.find(cursor);
            if (it == by_id.end()) break;
            cursor = tree[it->second].parent;
          }
          if (cursor == 0) ++remote_reachable;
        }
      }

      char label[64];
      std::snprintf(label, sizeof label, "%s %llx",
                    root != nullptr ? root->name.c_str() : "trace",
                    static_cast<unsigned long long>(trace_id));
      append_metadata(out, first, "process_name", lane, label);
      // One thread row per lane: spans of a request are strictly nested in
      // time (supervisor admit..deliver wraps the worker's task), so Chrome
      // renders the tree by containment alone.
      std::sort(tree.begin(), tree.end(), [](const Span& a, const Span& b) {
        return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
      });
      for (const Span& s : tree) append_event(out, first, s, lane, 1);
      ++lane;
    }
    if (!untraced.empty()) {
      const std::uint32_t lane_pid = lane;
      append_metadata(out, first, "process_name", lane_pid, "untraced");
      for (const Span& s : untraced)
        append_event(out, first, s, lane_pid, s.tid);
    }
    out += "\n]}\n";

    std::ofstream of(out_path, std::ios::binary | std::ios::trunc);
    of << out;
    if (!of.good()) {
      std::fprintf(stderr, "trace_stitch: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf(
        "trace_stitch: %zu trace(s), %zu traced span(s), %zu untraced, "
        "%ld remote span(s) under request roots, %zu orphan(s), %zu "
        "rootless -> %s\n",
        traces.size(), spans.size(), untraced.size(), remote_reachable,
        orphans, rootless, out_path.c_str());

    if (check) {
      if (orphans != 0 || rootless != 0 || remote_reachable < expect_remote) {
        std::fprintf(stderr,
                     "trace_stitch: CHECK FAILED (%zu orphans, %zu rootless, "
                     "%ld remote < %ld expected)\n",
                     orphans, rootless, remote_reachable, expect_remote);
        return 4;
      }
      std::printf("trace_stitch: CHECK PASSED\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_stitch: error: %s\n", e.what());
    return 1;
  }
}
