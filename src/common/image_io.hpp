// Minimal PGM/PPM image I/O for dumping masks, aerial images and wafer
// contours (Figure 8 / Figure 9 style visualizations).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ganopc {

/// 8-bit grayscale image with row-major storage.
struct GrayImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;  // size == width * height

  std::uint8_t& at(int y, int x) { return pixels[static_cast<std::size_t>(y) * width + x]; }
  std::uint8_t at(int y, int x) const { return pixels[static_cast<std::size_t>(y) * width + x]; }
};

/// 8-bit RGB image with row-major, interleaved storage.
struct RgbImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;  // size == 3 * width * height

  void set(int y, int x, std::uint8_t r, std::uint8_t g, std::uint8_t b) {
    auto* p = &pixels[3 * (static_cast<std::size_t>(y) * width + x)];
    p[0] = r; p[1] = g; p[2] = b;
  }
};

/// Map float data in [lo, hi] to an 8-bit grayscale image (clamped).
GrayImage to_gray(const float* data, int width, int height, float lo = 0.0f, float hi = 1.0f);

/// Serialize as binary PGM (P5) into a byte string — the in-memory form the
/// serve daemon returns as a `?mask=pgm` response body.
std::string encode_pgm(const GrayImage& img);

/// Write binary PGM (P5). Throws ganopc::Error on I/O failure.
void write_pgm(const std::string& path, const GrayImage& img);

/// Write binary PPM (P6). Throws ganopc::Error on I/O failure.
void write_ppm(const std::string& path, const RgbImage& img);

/// Read binary PGM (P5) written by write_pgm. Throws StatusError: kIo when
/// the file cannot be opened or read, kInvalidInput for a bad header or a
/// file shorter than its header's width * height pixel bytes.
GrayImage read_pgm(const std::string& path);

}  // namespace ganopc
