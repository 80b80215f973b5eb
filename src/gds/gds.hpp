// Minimal GDSII stream (binary) reader / writer.
//
// Supports the subset every mask-layout tool needs: one library, one or more
// structures, BOUNDARY elements with LAYER/DATATYPE/XY records. Coordinates
// are stored in database units; the writer uses 1 dbu = 1 nm (units record
// 1e-3 user units per dbu, 1e-9 m per dbu), matching the rest of the
// library's nm-integer geometry.
//
// The reader is strict about record structure but skips unknown record
// types (TEXT, PATH, SREF, ... elements are ignored with their sub-records),
// so real-world files load as long as the polygons of interest are
// boundaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "geometry/layout.hpp"
#include "geometry/polygon.hpp"

namespace ganopc::gds {

struct Boundary {
  std::int16_t layer = 0;
  std::int16_t datatype = 0;
  geom::Polygon polygon;  ///< closing vertex removed (GDS repeats the first)
};

/// A translated placement of another structure (rotation/magnification are
/// not supported — mask clip hierarchies are translation-only).
struct Sref {
  std::string child;
  std::int32_t x = 0;
  std::int32_t y = 0;
};

struct Structure {
  std::string name;
  std::vector<Boundary> boundaries;
  std::vector<Sref> srefs;
};

struct Library {
  std::string name = "GANOPC";
  double user_units_per_dbu = 1e-3;   ///< 1 dbu = 1 nm in um user units
  double meters_per_dbu = 1e-9;
  std::vector<Structure> structures;
};

/// Write a library to a GDSII stream file.
void write_gds(const std::string& path, const Library& library);

/// Read a GDSII stream file (boundaries only; other elements skipped).
/// The parser is fully bounds-checked: any truncated, oversized or otherwise
/// malformed record throws StatusError(InvalidInput) naming the byte offset;
/// an unreadable file throws StatusError(Io).
Library read_gds(const std::string& path);

/// Convert a Layout into a single-structure library: every rectangle
/// becomes a BOUNDARY on the given layer.
Library layout_to_gds(const geom::Layout& layout, const std::string& cell_name,
                      std::int16_t layer = 1);

/// Flatten the named structure (or the first one when name is empty) into a
/// Layout: every rectilinear boundary on `layer` is decomposed into rects,
/// and SREF placements are resolved recursively (translation only; cycles
/// rejected). `clip` sets the layout window (pass the intended clip region).
geom::Layout gds_to_layout(const Library& library, const geom::Rect& clip,
                           const std::string& structure_name = "",
                           std::int16_t layer = 1);

}  // namespace ganopc::gds
