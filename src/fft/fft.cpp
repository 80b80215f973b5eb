#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

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

/// The butterfly kernel for the active dispatch level. Resolved per
/// transform so tests can flip `set_simd_level` between calls.
inline FftInplaceFn active_fft() { return fft_inplace_for(simd_level()); }

/// Add `n` 1-D transforms to the `fft.transforms` work counter: one call per
/// pass, and nothing at all while metrics are off.
void count_transforms(std::size_t n) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& transforms = obs::counter("fft.transforms");
  transforms.inc(n);
}

// Split the spectrum Z of the packed row z = x + i*y (x, y real) into the
// spectra of x and y:  X[k] = (Z[k] + conj(Z[n-k]))/2,
//                      Y[k] = -i/2 * (Z[k] - conj(Z[n-k])).
// Writes X into `xs` and Y into `ys` (full length n, Hermitian).
void untangle_packed_rows(const cfloat* z, std::size_t n, cfloat* xs, cfloat* ys) {
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat zc = std::conj(z[(n - k) & (n - 1)]);
    const cfloat s = z[k] + zc;
    const cfloat d = z[k] - zc;
    xs[k] = 0.5f * s;
    ys[k] = cfloat(0.5f * d.imag(), -0.5f * d.real());  // -i/2 * d
  }
}

/// Index map of a full pass: transform i is row/column i.
constexpr auto all_indices = [](std::size_t i) { return i; };

/// Index map of a pruned pass over an ascending index list.
auto listed(std::span<const std::size_t> list) {
  return [list](std::size_t i) { return list[i]; };
}

/// Check that `list` is strictly ascending and inside [0, n).
void check_index_list(std::span<const std::size_t> list, std::size_t n, const char* what) {
  for (std::size_t i = 0; i < list.size(); ++i)
    GANOPC_CHECK_MSG(list[i] < n && (i == 0 || list[i - 1] < list[i]),
                     what << " must be strictly ascending and below " << n);
}

/// In-place 1-D transforms of rows index(0..count-1) of a row-major grid.
template <typename Index>
void row_pass(cfloat* data, std::size_t width, std::size_t count, Index index,
              bool inverse) {
  const FftPlan& plan = plan_for(width);
  const FftInplaceFn kernel = active_fft();
  count_transforms(count);
  parallel_for_chunks(0, count, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) kernel(data + index(i) * width, plan, inverse);
  }, /*serial_threshold=*/8);
}

/// In-place 1-D transforms of columns index(0..count-1), four side by side
/// per fft_cols4 group; a tail group of fewer columns leaves its unused lanes
/// out. With `live_rows`, only those rows are read: every other row enters
/// the transform as an exact zero, whatever it holds. All rows of a
/// transformed column are written.
template <typename Index>
void col_pass(cfloat* data, std::size_t height, std::size_t width, std::size_t count,
              Index index, bool inverse,
              const std::span<const std::size_t>* live_rows = nullptr) {
  const FftPlan& plan = plan_for(height);
  const FftCols4Fn kernel = fft_cols4_for(simd_level());
  count_transforms(count);
  parallel_for_chunks(0, (count + 3) / 4, [&](std::size_t g0, std::size_t g1) {
    std::vector<cfloat> scratch(4 * height);
    ColumnGroup group{data, width, {}, 4, live_rows};
    for (std::size_t g = g0; g < g1; ++g) {
      group.lanes = std::min<std::size_t>(4, count - 4 * g);
      for (std::size_t j = 0; j < group.lanes; ++j) group.cols[j] = index(4 * g + j);
      kernel(group, plan, inverse, scratch.data());
    }
  }, /*serial_threshold=*/2);
}

/// irfft_2d whose column pass covers only columns [0, cols): the columns in
/// [cols, W/2] must be zero, and are read by the row pass as they are.
void irfft_2d_band(cfloat* spec, float* out, std::size_t height, std::size_t width,
                   std::size_t cols) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  const FftInplaceFn kernel = active_fft();
  const FftPlan& row_plan = plan_for(width);
  if (height == 1) {
    count_transforms(1);
    kernel(spec, row_plan, true);
    for (std::size_t c = 0; c < width; ++c) out[c] = spec[c].real();
    return;
  }
  // Inverse column pass over columns [0, W/2] only — for a Hermitian
  // spectrum the upper columns carry no independent information and the row
  // pass below never reads them.
  const std::size_t half_w = width / 2;
  col_pass(spec, height, width, std::min(cols, half_w + 1), all_indices, true);

  // Row pass at half cost: each row spectrum is Hermitian (its signal is
  // real), so two rows r, r+1 pack into one inverse transform whose real and
  // imaginary parts are the two output rows. Upper-column bins are rebuilt
  // from the mirror as they are consumed.
  count_transforms(height / 2);
  parallel_for_chunks(0, height / 2, [&](std::size_t p0, std::size_t p1) {
    std::vector<cfloat> z(width);
    for (std::size_t p = p0; p < p1; ++p) {
      const cfloat* sr = spec + (2 * p) * width;
      const cfloat* si = sr + width;
      for (std::size_t c = 0; c <= half_w; ++c)
        z[c] = sr[c] + cfloat(-si[c].imag(), si[c].real());  // sr + i*si
      for (std::size_t c = half_w + 1; c < width; ++c) {
        const cfloat a = std::conj(sr[width - c]);
        const cfloat b = std::conj(si[width - c]);
        z[c] = a + cfloat(-b.imag(), b.real());
      }
      kernel(z.data(), row_plan, true);
      float* xr = out + (2 * p) * width;
      float* yr = xr + width;
      for (std::size_t c = 0; c < width; ++c) {
        xr[c] = z[c].real();
        yr[c] = z[c].imag();
      }
    }
  }, /*serial_threshold=*/4);
}

}  // namespace

void fft_1d(std::vector<cfloat>& data, bool inverse) {
  GANOPC_CHECK_MSG(is_pow2(data.size()), "FFT size must be a power of two");
  count_transforms(1);
  active_fft()(data.data(), plan_for(data.size()), inverse);
}

void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  // Rows: note we do NOT apply 1/N scaling per axis separately; the butterfly
  // kernel scales by 1/len for inverse, so a row pass scales 1/W and a column
  // pass 1/H, composing to the desired 1/(W*H).
  row_pass(data, width, height, all_indices, inverse);
  col_pass(data, height, width, width, all_indices, inverse);
}

void fft_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK(data.size() == height * width);
  fft_2d(data.data(), height, width, inverse);
}

void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  const FftInplaceFn kernel = active_fft();
  const FftPlan& row_plan = plan_for(width);
  if (height == 1) {
    for (std::size_t c = 0; c < width; ++c) out[c] = cfloat(in[c], 0.0f);
    count_transforms(1);
    kernel(out, row_plan, false);
    return;
  }
  // Row pass at half cost: pack two real rows r, r+1 into one complex row,
  // transform once, untangle via Hermitian symmetry into both row spectra.
  count_transforms(height / 2);
  parallel_for_chunks(0, height / 2, [&](std::size_t p0, std::size_t p1) {
    std::vector<cfloat> z(width);
    for (std::size_t p = p0; p < p1; ++p) {
      const float* x = in + (2 * p) * width;
      const float* y = x + width;
      for (std::size_t c = 0; c < width; ++c) z[c] = cfloat(x[c], y[c]);
      kernel(z.data(), row_plan, false);
      untangle_packed_rows(z.data(), width, out + (2 * p) * width,
                           out + (2 * p + 1) * width);
    }
  }, /*serial_threshold=*/4);

  // Column pass only up to the Nyquist column; the remaining columns follow
  // from F[r][c] = conj(F[(H-r)%H][(W-c)%W]) for real input.
  const std::size_t half_w = width / 2;
  col_pass(out, height, width, half_w + 1, all_indices, false);
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

void ifft_2d_rows(cfloat* data, std::size_t height, std::size_t width,
                  std::span<const std::size_t> rows) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  check_index_list(rows, height, "row list");
  // A zero row transforms to zeros, so skipping it changes no nonzero value.
  row_pass(data, width, rows.size(), listed(rows), true);
  col_pass(data, height, width, width, all_indices, true, &rows);
}

void fft_2d_cols(cfloat* data, std::size_t height, std::size_t width,
                 std::span<const std::size_t> cols) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  check_index_list(cols, width, "column list");
  row_pass(data, width, height, all_indices, false);
  col_pass(data, height, width, cols.size(), listed(cols), false);
}

void fftshift_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width) {
  GANOPC_CHECK(data.size() == height * width);
  GANOPC_CHECK_MSG(height % 2 == 0 && width % 2 == 0, "fftshift requires even dims");
  const std::size_t hh = height / 2, hw = width / 2;
  for (std::size_t r = 0; r < hh; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t rc = (r + hh) % height;
      const std::size_t cc = (c + hw) % width;
      std::swap(data[r * width + c], data[rc * width + cc]);
    }
  }
}

std::vector<float> fourier_upsample_2d(const std::vector<float>& in, std::size_t height,
                                       std::size_t width, std::size_t factor) {
  GANOPC_CHECK(in.size() == height * width);
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "dims must be powers of two");
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

std::vector<float> circular_convolve_2d(const std::vector<float>& a,
                                        const std::vector<float>& b,
                                        std::size_t height, std::size_t width) {
  GANOPC_CHECK(a.size() == height * width && b.size() == height * width);
  const std::size_t npx = height * width;
  std::vector<cfloat> fa(npx), fb(npx);
  rfft_2d(a.data(), fa.data(), height, width);
  rfft_2d(b.data(), fb.data(), height, width);
  vec_ops().cmul(fa.data(), fb.data(), fa.data(), npx);
  std::vector<float> out(npx);
  irfft_2d(fa.data(), out.data(), height, width);
  return out;
}

}  // namespace ganopc::fft
