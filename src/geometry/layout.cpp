#include "geometry/layout.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/status.hpp"

namespace ganopc::geom {

void Layout::add(const Rect& r) {
  GANOPC_CHECK_MSG(!r.empty(), "degenerate rect " << r.str());
  rects_.push_back(r);
}

bool Layout::covers(std::int32_t x, std::int32_t y) const {
  return std::any_of(rects_.begin(), rects_.end(),
                     [&](const Rect& r) { return r.contains(x, y); });
}

std::int64_t Layout::union_area() const {
  if (rects_.empty()) return 0;
  // Sweep over x events; at each slab, measure the union of y-intervals.
  struct Event {
    std::int32_t x;
    bool open;
    std::int32_t y0, y1;
  };
  std::vector<Event> events;
  events.reserve(rects_.size() * 2);
  for (const auto& r : rects_) {
    events.push_back({r.x0, true, r.y0, r.y1});
    events.push_back({r.x1, false, r.y0, r.y1});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.x < b.x; });

  std::multimap<std::int32_t, std::int32_t> active;  // y0 -> y1
  std::int64_t area = 0;
  std::size_t i = 0;
  std::int32_t prev_x = events.front().x;
  while (i < events.size()) {
    const std::int32_t x = events[i].x;
    if (x > prev_x && !active.empty()) {
      // Union length of active y-intervals.
      std::int64_t len = 0;
      std::int32_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (const auto& [y0, y1] : active) {
        if (!open) {
          cur_lo = y0;
          cur_hi = y1;
          open = true;
        } else if (y0 <= cur_hi) {
          cur_hi = std::max(cur_hi, y1);
        } else {
          len += cur_hi - cur_lo;
          cur_lo = y0;
          cur_hi = y1;
        }
      }
      if (open) len += cur_hi - cur_lo;
      area += len * static_cast<std::int64_t>(x - prev_x);
    }
    prev_x = x;
    while (i < events.size() && events[i].x == x) {
      const auto& e = events[i];
      if (e.open) {
        active.emplace(e.y0, e.y1);
      } else {
        auto range = active.equal_range(e.y0);
        for (auto it = range.first; it != range.second; ++it) {
          if (it->second == e.y1) {
            active.erase(it);
            break;
          }
        }
      }
      ++i;
    }
  }
  return area;
}

Rect Layout::bbox() const {
  Rect b{};
  for (const auto& r : rects_) b = b.bounding_union(r);
  return b;
}

void Layout::translate(std::int32_t dx, std::int32_t dy) {
  clip_ = {clip_.x0 + dx, clip_.y0 + dy, clip_.x1 + dx, clip_.y1 + dy};
  for (auto& r : rects_) r = {r.x0 + dx, r.y0 + dy, r.x1 + dx, r.y1 + dy};
}

std::string Layout::to_text() const {
  std::ostringstream oss;
  oss << "clip " << clip_.x0 << ' ' << clip_.y0 << ' ' << clip_.x1 << ' ' << clip_.y1
      << '\n';
  for (const auto& r : rects_)
    oss << "rect " << r.x0 << ' ' << r.y0 << ' ' << r.x1 << ' ' << r.y1 << '\n';
  return oss.str();
}

Layout Layout::from_text(const std::string& text) {
  Layout layout;
  std::istringstream iss(text);
  std::string keyword;
  bool saw_clip = false;
  while (iss >> keyword) {
    Rect r;
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       static_cast<bool>(iss >> r.x0 >> r.y0 >> r.x1 >> r.y1),
                       "malformed layout line after '" << keyword << "'");
    if (keyword == "clip") {
      layout.clip_ = r;
      saw_clip = true;
    } else if (keyword == "rect") {
      layout.add(r);
    } else {
      GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, false,
                         "unknown layout keyword '" << keyword << "'");
    }
  }
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, saw_clip,
                     "layout text missing clip line");
  return layout;
}

void Layout::save(const std::string& path) const {
  std::ofstream out(path);
  GANOPC_CHECK_MSG(out.good(), "cannot open " << path);
  out << to_text();
  GANOPC_CHECK_MSG(out.good(), "write failed: " << path);
}

Layout Layout::load(const std::string& path) {
  std::ifstream in(path);
  GANOPC_TYPED_CHECK(StatusCode::kIo, in.good(), "cannot open " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_text(buffer.str());
}

}  // namespace ganopc::geom
