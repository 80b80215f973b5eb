// Grid: a row-major float image with physical pixel size.
//
// This is the common currency between the geometry, lithography, ILT and
// GAN layers: target images Z_t, masks M, aerial images I and wafer images Z
// are all Grids. Pixel (r, c) covers the nm-square
// [origin_x + c*pixel_nm, origin_x + (c+1)*pixel_nm) x
// [origin_y + r*pixel_nm, ...).
#pragma once

#include <cstdint>
#include <vector>

namespace ganopc::geom {

struct Grid {
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::int32_t pixel_nm = 1;      ///< physical size of one pixel edge
  std::int32_t origin_x = 0;      ///< nm coordinate of column 0's left edge
  std::int32_t origin_y = 0;      ///< nm coordinate of row 0's top edge
  std::vector<float> data;        ///< rows*cols values

  Grid() = default;
  Grid(std::int32_t rows_, std::int32_t cols_, std::int32_t pixel_nm_ = 1,
       std::int32_t origin_x_ = 0, std::int32_t origin_y_ = 0)
      : rows(rows_), cols(cols_), pixel_nm(pixel_nm_), origin_x(origin_x_),
        origin_y(origin_y_),
        data(static_cast<std::size_t>(rows_) * cols_, 0.0f) {}

  std::size_t size() const { return data.size(); }
  float& at(std::int32_t r, std::int32_t c) {
    return data[static_cast<std::size_t>(r) * cols + c];
  }
  float at(std::int32_t r, std::int32_t c) const {
    return data[static_cast<std::size_t>(r) * cols + c];
  }
  bool in_bounds(std::int32_t r, std::int32_t c) const {
    return r >= 0 && r < rows && c >= 0 && c < cols;
  }
};

}  // namespace ganopc::geom
