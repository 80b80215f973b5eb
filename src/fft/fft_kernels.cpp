#include "fft/fft_kernels.hpp"

#include <algorithm>

#include "fft/plan.hpp"

namespace ganopc::fft {

void fft_inplace_scalar(cfloat* a, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cfloat* tw = plan.stage_twiddle.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cfloat w = inverse ? std::conj(tw[k]) : tw[k];
        const cfloat u = a[i + k];
        const cfloat v = a[i + k + half] * w;
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

void gather_lanes(const LaneGroup& g, const FftPlan& plan, float* blocks) {
  if (g.lanes < kLanes) std::fill(blocks, blocks + kBlock * plan.n, 0.0f);
  for (std::size_t p = 0; p < plan.n; ++p) {
    float* blk = blocks + kBlock * p;
    for (std::size_t j = 0; j < g.lanes; ++j) {
      const cfloat v = g.lane[j][plan.bitrev[p] * g.stride];
      blk[j] = v.real();
      blk[kLanes + j] = v.imag();
    }
  }
}

void scatter_lanes(const LaneGroup& g, std::size_t n, const float* blocks) {
  for (std::size_t p = 0; p < n; ++p) {
    const float* blk = blocks + kBlock * p;
    for (std::size_t j = 0; j < g.lanes; ++j)
      g.lane[j][p * g.stride] = cfloat(blk[j], blk[kLanes + j]);
  }
}

void spread_blocks(const float* src, std::size_t step, std::span<const std::size_t> points,
                   const FftPlan& plan, float* blocks) {
  std::fill(blocks, blocks + kBlock * plan.n, 0.0f);
  for (std::size_t i = 0; i < points.size(); ++i)
    std::copy_n(src + i * step, kBlock, blocks + kBlock * plan.bitrev[points[i]]);
}

void load_rows(const SplitGrid& grid, std::span<const std::size_t> rows, std::size_t count,
               float* out) {
  if (rows.size() < kLanes) std::fill(out, out + kBlock * count, 0.0f);
  for (std::size_t c = 0; c < count; ++c) {
    float* blk = out + kBlock * c;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const float* src = grid.block(rows[j], c / kLanes) + c % kLanes;
      blk[j] = src[0];
      blk[kLanes + j] = src[kLanes];
    }
  }
}

void load_rows(const cfloat* grid, std::size_t width, std::span<const std::size_t> rows,
               std::span<const std::size_t> cols, float* out) {
  if (rows.size() < kLanes) std::fill(out, out + kBlock * cols.size(), 0.0f);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    float* blk = out + kBlock * c;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const cfloat v = grid[rows[j] * width + cols[c]];
      blk[j] = v.real();
      blk[kLanes + j] = v.imag();
    }
  }
}

void load_row_tile(const float* tile, std::size_t lanes, std::size_t g, const FftPlan& plan,
                   float* blocks) {
  const std::size_t cols = std::min(kLanes, plan.n - kLanes * g);
  for (std::size_t i = 0; i < cols; ++i) {
    float* dst = blocks + kBlock * plan.bitrev[kLanes * g + i];
    for (std::size_t j = 0; j < lanes; ++j) {
      dst[j] = tile[kBlock * j + i];
      dst[kLanes + j] = tile[kBlock * j + kLanes + i];
    }
  }
}

void store_rows(const float* blocks, std::size_t n, std::size_t lanes, const SplitGrid& grid,
                std::size_t first_row) {
  for (std::size_t j = 0; j < lanes; ++j) {
    if (n < kLanes) std::fill_n(grid.block(first_row + j, 0), kBlock, 0.0f);
    for (std::size_t c = 0; c < n; ++c) {
      float* dst = grid.block(first_row + j, c / kLanes) + c % kLanes;
      dst[0] = blocks[kBlock * c + j];
      dst[kLanes] = blocks[kBlock * c + kLanes + j];
    }
  }
}

void store_columns(const float* blocks, std::span<const std::size_t> points, std::size_t lanes,
                   std::size_t first, const FftPlan& plan, float* batches) {
  for (std::size_t c = 0; c < points.size(); ++c) {
    const float* src = blocks + kBlock * points[c];
    float* dst = batches + (c / kLanes) * plan.n * kBlock + c % kLanes;
    for (std::size_t j = 0; j < lanes; ++j) {
      float* slot = dst + kBlock * plan.bitrev[first + j];
      slot[0] = src[j];
      slot[kLanes] = src[kLanes + j];
    }
  }
}

void fft_lanes8_scalar(float* b, const FftPlan& plan, bool inverse) {
  // fft_inplace_scalar on eight lanes: the same twiddle, product and sum per
  // butterfly, so each lane is bitwise that kernel's output.
  const std::size_t n = plan.n;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cfloat* tw = plan.stage_twiddle.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cfloat w = inverse ? std::conj(tw[k]) : tw[k];
        float* lo = b + kBlock * (i + k);
        float* hi = b + kBlock * (i + k + half);
        for (std::size_t j = 0; j < kLanes; ++j) {
          const cfloat u(lo[j], lo[kLanes + j]);
          const cfloat v = cfloat(hi[j], hi[kLanes + j]) * w;
          const cfloat s = u + v, d = u - v;
          lo[j] = s.real();
          lo[kLanes + j] = s.imag();
          hi[j] = d.real();
          hi[kLanes + j] = d.imag();
        }
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < kBlock * n; ++i) b[i] *= inv_n;
  }
}

namespace {

/// Lane j of split block `b` as a complex value.
inline cfloat lane(const float* b, std::size_t j) { return {b[j], b[kLanes + j]}; }

// The split-block kernels below spell each lane as a std::complex
// expression, the scalar arm's per-element arithmetic.
void lanes_cmul_scalar(const float* a, const float* b, float* out, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i, a += kBlock, b += kBlock, out += kBlock)
    for (std::size_t j = 0; j < kLanes; ++j) {
      const cfloat p = lane(a, j) * lane(b, j);
      out[j] = p.real();
      out[kLanes + j] = p.imag();
    }
}

void lanes_cmul_conj_real_scalar(const float* x, const float* a, float* out,
                                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i, x += kLanes, a += kBlock, out += kBlock)
    for (std::size_t j = 0; j < kLanes; ++j) {
      const cfloat p = x[j] * std::conj(lane(a, j));
      out[j] = p.real();
      out[kLanes + j] = p.imag();
    }
}

void lanes_norm_weighted_accum_scalar(const float* f, double w, double* acc,
                                      std::size_t count) {
  for (std::size_t i = 0; i < count; ++i, f += kBlock, acc += kLanes)
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] += w * std::norm(lane(f, j));
}

void lanes_real_weighted_accum_scalar(const float* f, double w, double* acc,
                                      std::size_t count) {
  for (std::size_t i = 0; i < count; ++i, f += kBlock, acc += kLanes)
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] += w * f[j];
}

constexpr LaneOps kScalarLaneOps = {fft_lanes8_scalar, lanes_cmul_scalar,
                                    lanes_cmul_conj_real_scalar,
                                    lanes_norm_weighted_accum_scalar,
                                    lanes_real_weighted_accum_scalar};

}  // namespace

const LaneOps& lane_ops(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? lane_ops_avx2() : kScalarLaneOps;
}

}  // namespace ganopc::fft
