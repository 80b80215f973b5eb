#include "common/image_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/status.hpp"

namespace ganopc {

namespace {
// Largest width or height a PGM header may declare.
constexpr int kMaxImageDim = 1 << 16;
}  // namespace

GrayImage to_gray(const float* data, int width, int height, float lo, float hi) {
  GANOPC_CHECK(width > 0 && height > 0 && hi > lo);
  GrayImage img;
  img.width = width;
  img.height = height;
  img.pixels.resize(static_cast<std::size_t>(width) * height);
  const float scale = 255.0f / (hi - lo);
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    const float v = std::clamp((data[i] - lo) * scale, 0.0f, 255.0f);
    img.pixels[i] = static_cast<std::uint8_t>(std::lround(v));
  }
  return img;
}

std::string encode_pgm(const GrayImage& img) {
  GANOPC_CHECK(img.pixels.size() == static_cast<std::size_t>(img.width) * img.height);
  std::string out = "P5\n" + std::to_string(img.width) + " " +
                    std::to_string(img.height) + "\n255\n";
  out.append(reinterpret_cast<const char*>(img.pixels.data()), img.pixels.size());
  return out;
}

void write_pgm(const std::string& path, const GrayImage& img) {
  GANOPC_CHECK(img.pixels.size() == static_cast<std::size_t>(img.width) * img.height);
  GANOPC_FAILPOINT_THROW("image_io.write");
  const std::string bytes = encode_pgm(img);
  atomic_write_file(path, [&](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

void write_ppm(const std::string& path, const RgbImage& img) {
  GANOPC_CHECK(img.pixels.size() == 3 * static_cast<std::size_t>(img.width) * img.height);
  GANOPC_FAILPOINT_THROW("image_io.write");
  atomic_write_file(path, [&](std::ostream& out) {
    out << "P6\n" << img.width << " " << img.height << "\n255\n";
    out.write(reinterpret_cast<const char*>(img.pixels.data()),
              static_cast<std::streamsize>(img.pixels.size()));
  });
}

GrayImage read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GANOPC_TYPED_CHECK(StatusCode::kIo, in.good(), "cannot open " << path);
  char magic[3] = {};  // "P5" and a whitespace: a string token could be any length
  in.read(magic, 3);
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     in && magic[0] == 'P' && magic[1] == '5' &&
                         std::isspace(static_cast<unsigned char>(magic[2])),
                     "not a binary PGM: " << path);
  int w = 0, h = 0, maxval = 0;
  in >> w >> h >> maxval;
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     in && w > 0 && w <= kMaxImageDim && h > 0 && h <= kMaxImageDim &&
                         maxval == 255,
                     "unsupported PGM header: " << path);
  in.get();  // single whitespace after header
  // Pixels grow 1 MiB at a time as bytes arrive: a short file allocates little.
  const auto npx = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  GrayImage img{w, h, {}};
  while (img.pixels.size() < npx && in) {
    const std::size_t have = img.pixels.size();
    img.pixels.resize(std::min(npx, have + (std::size_t{1} << 20)));
    in.read(reinterpret_cast<char*>(img.pixels.data() + have),
            static_cast<std::streamsize>(img.pixels.size() - have));
    img.pixels.resize(have + static_cast<std::size_t>(in.gcount()));
  }
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, img.pixels.size() == npx,
                     "truncated PGM: " << path);
  return img;
}

}  // namespace ganopc
