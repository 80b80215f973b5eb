// A layout clip: a clip window plus a set of Manhattan rectangles.
//
// The text serialization is a minimal GLP-like format so clips can be dumped
// and inspected:
//   clip <x0> <y0> <x1> <y1>
//   rect <x0> <y0> <x1> <y1>
//   ...
#pragma once

#include <string>
#include <vector>

#include "geometry/rect.hpp"

namespace ganopc::geom {

class Layout {
 public:
  Layout() = default;
  explicit Layout(Rect clip) : clip_(clip) {}

  const Rect& clip() const { return clip_; }

  const std::vector<Rect>& rects() const { return rects_; }
  std::size_t size() const { return rects_.size(); }
  bool empty() const { return rects_.empty(); }

  /// Add a pattern rectangle (must be non-degenerate).
  void add(const Rect& r);

  void clear() { rects_.clear(); }

  /// True if (x, y) is covered by any rectangle.
  bool covers(std::int32_t x, std::int32_t y) const;

  /// Union area in nm^2, counting overlaps once (sweep-line).
  std::int64_t union_area() const;

  /// Bounding box of all rectangles (empty Rect if no rects).
  Rect bbox() const;

  /// Translate all rectangles (and the clip) by (dx, dy).
  void translate(std::int32_t dx, std::int32_t dy);

  // --- serialization ---
  std::string to_text() const;
  static Layout from_text(const std::string& text);
  void save(const std::string& path) const;
  static Layout load(const std::string& path);

 private:
  Rect clip_;
  std::vector<Rect> rects_;
};

}  // namespace ganopc::geom
