#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/aligned.hpp"
#include "common/cpu.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fft/fft_kernels.hpp"
#include "fft/plan.hpp"
#include "obs/metrics.hpp"

namespace ganopc::fft {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// The kernel for the active dispatch level. Resolved per pass so tests can
/// flip `set_simd_level` between calls.
inline FftLanes8Fn active_lanes() { return lane_ops().fft; }

/// Lanes of group g of a `count`-transform pass.
constexpr std::size_t lanes_in(std::size_t g, std::size_t count) {
  return std::min(kLanes, count - kLanes * g);
}

/// Point k of lane j of natural-order blocks, as a complex value.
inline cfloat point(const float* blocks, std::size_t k, std::size_t j) {
  return {blocks[kBlock * k + j], blocks[kBlock * k + kLanes + j]};
}

// Split the spectrum Z of lane j of packed rows z = x + i*y (x, y real) into
// the spectra of x and y:  X[k] = (Z[k] + conj(Z[n-k]))/2,
//                          Y[k] = -i/2 * (Z[k] - conj(Z[n-k])).
// Writes X into `xs` and Y into `ys` (full length n, Hermitian).
void untangle_packed_rows(const float* blocks, std::size_t j, std::size_t n, cfloat* xs,
                          cfloat* ys) {
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat z = point(blocks, k, j);
    const cfloat zc = std::conj(point(blocks, (n - k) & (n - 1), j));
    const cfloat s = z + zc;
    const cfloat d = z - zc;
    xs[k] = 0.5f * s;
    ys[k] = cfloat(0.5f * d.imag(), -0.5f * d.real());  // -i/2 * d
  }
}

/// In-place 1-D transforms of the first `count` lines of a row-major grid,
/// kLanes per fft_lanes8 batch; a tail batch leaves its unused lanes out.
/// Line i starts at data + i * line_step and runs `n` points `stride` elements
/// apart: rows are (line_step = width, stride 1), columns (1, width).
void lane_pass(cfloat* data, std::size_t n, std::size_t line_step, std::size_t stride,
               std::size_t count, bool inverse) {
  const FftPlan& plan = plan_for(n);
  const FftLanes8Fn kernel = active_lanes();
  count_transforms(count);
  // Batches are coarse, so parallel_for splits them evenly over the pool;
  // parallel_for_chunks' 16-item quantum would leave most workers idle.
  parallel_for(0, lane_groups(count), [&](std::size_t g) {
    float* blocks = lane_scratch(kBlock * n);
    LaneGroup group;
    group.stride = stride;
    group.lanes = lanes_in(g, count);
    for (std::size_t j = 0; j < group.lanes; ++j)
      group.lane[j] = data + (kLanes * g + j) * line_step;
    gather_lanes(group, plan, blocks);
    kernel(blocks, plan, inverse);
    scatter_lanes(group, n, blocks);
  }, /*serial_threshold=*/2);
}

/// In-place 1-D transforms of rows [0, count).
void row_pass(cfloat* data, std::size_t width, std::size_t count, bool inverse) {
  lane_pass(data, width, width, 1, count, inverse);
}

/// In-place 1-D transforms of columns [0, count).
void col_pass(cfloat* data, std::size_t height, std::size_t width, std::size_t count,
              bool inverse) {
  lane_pass(data, height, 1, width, count, inverse);
}

/// irfft_2d whose column pass covers only columns [0, cols): the columns in
/// [cols, W/2] must be zero, and are read by the row pass as they are.
void irfft_2d_band(cfloat* spec, float* out, std::size_t height, std::size_t width,
                   std::size_t cols) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  if (height == 1) {
    row_pass(spec, width, 1, true);
    for (std::size_t c = 0; c < width; ++c) out[c] = spec[c].real();
    return;
  }
  // Inverse column pass over columns [0, W/2] only — for a Hermitian
  // spectrum the upper columns carry no independent information and the row
  // pass below never reads them.
  const std::size_t half_w = width / 2;
  col_pass(spec, height, width, std::min(cols, half_w + 1), true);

  // Row pass at half cost: each row spectrum is Hermitian (its signal is
  // real), so two rows r, r+1 pack into one inverse transform whose real and
  // imaginary parts are the two output rows; lane j of a batch is row pair
  // kLanes*g + j. Upper-column bins are rebuilt from the mirror as they are
  // consumed.
  const std::size_t pairs = height / 2;
  const FftPlan& row_plan = plan_for(width);
  const FftLanes8Fn kernel = active_lanes();
  count_transforms(pairs);
  parallel_for(0, lane_groups(pairs), [&](std::size_t g) {
    float* blocks = lane_scratch(kBlock * width);
    const std::size_t lanes = lanes_in(g, pairs);
    if (lanes < kLanes) std::fill(blocks, blocks + kBlock * width, 0.0f);
    for (std::size_t j = 0; j < lanes; ++j) {
      const cfloat* sr = spec + (2 * (kLanes * g + j)) * width;
      const cfloat* si = sr + width;
      for (std::size_t c = 0; c < width; ++c) {
        cfloat z;
        if (c <= half_w) {
          z = sr[c] + cfloat(-si[c].imag(), si[c].real());  // sr + i*si
        } else {
          const cfloat a = std::conj(sr[width - c]);
          const cfloat b = std::conj(si[width - c]);
          z = a + cfloat(-b.imag(), b.real());
        }
        float* blk = blocks + kBlock * row_plan.bitrev[c];
        blk[j] = z.real();
        blk[kLanes + j] = z.imag();
      }
    }
    kernel(blocks, row_plan, true);
    for (std::size_t j = 0; j < lanes; ++j) {
      float* xr = out + (2 * (kLanes * g + j)) * width;
      float* yr = xr + width;
      for (std::size_t c = 0; c < width; ++c) {
        xr[c] = blocks[kBlock * c + j];
        yr[c] = blocks[kBlock * c + kLanes + j];
      }
    }
  }, /*serial_threshold=*/2);
}

}  // namespace

float* lane_scratch(std::size_t floats, std::size_t slot) {
  thread_local AlignedVector<float> bufs[kScratchSlots];
  AlignedVector<float>& buf = bufs[slot];
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

void count_transforms(std::size_t n) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& transforms = obs::counter("fft.transforms");
  transforms.inc(n);
}

void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  // Rows: note we do NOT apply 1/N scaling per axis separately; the butterfly
  // kernel scales by 1/len for inverse, so a row pass scales 1/W and a column
  // pass 1/H, composing to the desired 1/(W*H).
  row_pass(data, width, height, inverse);
  col_pass(data, height, width, width, inverse);
}

void fft_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK(data.size() == height * width);
  fft_2d(data.data(), height, width, inverse);
}

void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  if (height == 1) {
    for (std::size_t c = 0; c < width; ++c) out[c] = cfloat(in[c], 0.0f);
    row_pass(out, width, 1, false);
    return;
  }
  // Row pass at half cost: pack two real rows r, r+1 into one complex row,
  // transform once, untangle via Hermitian symmetry into both row spectra.
  // Lane j of a batch is row pair kLanes*g + j.
  const std::size_t pairs = height / 2;
  const FftPlan& row_plan = plan_for(width);
  const FftLanes8Fn lanes_kernel = active_lanes();
  count_transforms(pairs);
  parallel_for(0, lane_groups(pairs), [&](std::size_t g) {
    float* blocks = lane_scratch(kBlock * width);
    const std::size_t lanes = lanes_in(g, pairs);
    if (lanes < kLanes) std::fill(blocks, blocks + kBlock * width, 0.0f);
    for (std::size_t j = 0; j < lanes; ++j) {
      const float* x = in + (2 * (kLanes * g + j)) * width;
      const float* y = x + width;
      for (std::size_t c = 0; c < width; ++c) {
        float* blk = blocks + kBlock * row_plan.bitrev[c];
        blk[j] = x[c];
        blk[kLanes + j] = y[c];
      }
    }
    lanes_kernel(blocks, row_plan, false);
    for (std::size_t j = 0; j < lanes; ++j) {
      cfloat* xs = out + (2 * (kLanes * g + j)) * width;
      untangle_packed_rows(blocks, j, width, xs, xs + width);
    }
  }, /*serial_threshold=*/2);

  // Column pass only up to the Nyquist column; the remaining columns follow
  // from F[r][c] = conj(F[(H-r)%H][(W-c)%W]) for real input.
  const std::size_t half_w = width / 2;
  col_pass(out, height, width, half_w + 1, false);
  parallel_for_chunks(0, height, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t rm = (height - r) & (height - 1);
      for (std::size_t c = half_w + 1; c < width; ++c)
        out[r * width + c] = std::conj(out[rm * width + (width - c)]);
    }
  }, /*serial_threshold=*/8);
}

void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width) {
  irfft_2d_band(spec, out, height, width, width / 2 + 1);
}

std::vector<float> fourier_upsample_2d(const std::vector<float>& in, std::size_t height,
                                       std::size_t width, std::size_t factor) {
  GANOPC_CHECK(in.size() == height * width);
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "dims must be powers of two");
  // A one-row or one-column grid has no Nyquist row or column to split, and
  // the mirror below would write past the end of the large spectrum.
  GANOPC_CHECK_MSG(height >= 2 && width >= 2, "upsampling needs at least a 2x2 grid");
  GANOPC_CHECK(factor >= 1 && is_pow2(factor));
  if (factor == 1) return in;
  const std::size_t oh = height * factor, ow = width * factor;

  std::vector<cfloat> spec(height * width);
  rfft_2d(in.data(), spec.data(), height, width);
  // Place the low-frequency quadrants of the small spectrum into the corners
  // of the large spectrum. The input Nyquist rows/columns are split evenly
  // between their +/- images to keep the interpolant real and symmetric.
  std::vector<cfloat> big(oh * ow, {0.0f, 0.0f});
  const std::size_t hh = height / 2, hw = width / 2;
  for (std::size_t r = 0; r < height; ++r) {
    const bool r_nyq = (r == hh);
    const std::size_t ro = r <= hh ? r : oh - (height - r);
    for (std::size_t c = 0; c < width; ++c) {
      const bool c_nyq = (c == hw);
      const std::size_t co = c <= hw ? c : ow - (width - c);
      cfloat v = spec[r * width + c];
      if (r_nyq) v *= 0.5f;
      if (c_nyq) v *= 0.5f;
      big[ro * ow + co] += v;
      // Mirror copies for split Nyquist bins.
      if (r_nyq) big[(oh - hh) * ow + co] += v;
      if (c_nyq) big[ro * ow + (ow - hw)] += v;
      if (r_nyq && c_nyq) big[(oh - hh) * ow + (ow - hw)] += v;
    }
  }
  // The padded spectrum is Hermitian by construction, so the inverse runs
  // through the half-cost real-output path. Its columns (hw, ow - hw) are
  // zero, so the column pass stops after column hw.
  std::vector<float> out(oh * ow);
  irfft_2d_band(big.data(), out.data(), oh, ow, hw + 1);
  const auto scale = static_cast<float>(factor) * factor;  // FFT normalization
  for (auto& v : out) v *= scale;
  return out;
}

}  // namespace ganopc::fft
