#include "fft/fft_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "fft/plan.hpp"

namespace ganopc::fft {

void fft_inplace_scalar(cfloat* a, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  const cfloat* tw = plan.twiddle.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cfloat w = inverse ? std::conj(tw[k * step]) : tw[k * step];
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

namespace {

/// Four adjacent columns: each row of the group is one 32-byte copy.
bool contiguous(const ColumnGroup& g) { return g.lanes == 4 && g.cols[3] == g.cols[0] + 3; }

}  // namespace

void gather_cols4(const ColumnGroup& g, const FftPlan& plan, cfloat* buf) {
  const std::size_t n = plan.n;
  const bool dense = contiguous(g);
  const auto load = [&](std::size_t r, cfloat* slot) {
    const cfloat* row = g.data + r * g.width;
    if (dense) {
      std::memcpy(slot, row + g.cols[0], 4 * sizeof(cfloat));
    } else {
      for (std::size_t j = 0; j < g.lanes; ++j) slot[j] = row[g.cols[j]];
    }
  };
  if (g.live_rows != nullptr || g.lanes < 4) std::fill(buf, buf + 4 * n, cfloat{});
  if (g.live_rows != nullptr) {
    for (const std::size_t r : *g.live_rows) load(r, buf + 4 * plan.bitrev[r]);
  } else {
    for (std::size_t p = 0; p < n; ++p) load(plan.bitrev[p], buf + 4 * p);
  }
}

void scatter_cols4(const ColumnGroup& g, std::size_t n, const cfloat* buf) {
  const bool dense = contiguous(g);
  for (std::size_t r = 0; r < n; ++r) {
    cfloat* row = g.data + r * g.width;
    if (dense) {
      std::memcpy(row + g.cols[0], buf + 4 * r, 4 * sizeof(cfloat));
    } else {
      for (std::size_t j = 0; j < g.lanes; ++j) row[g.cols[j]] = buf[4 * r + j];
    }
  }
}

void fft_cols4_scalar(const ColumnGroup& g, const FftPlan& plan, bool inverse,
                      cfloat* buf) {
  // fft_inplace_scalar on four interleaved lanes: the same twiddle, product
  // and sum per butterfly, so each lane is bitwise that kernel's output.
  const std::size_t n = plan.n;
  gather_cols4(g, plan, buf);
  const cfloat* tw = plan.twiddle.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cfloat w = inverse ? std::conj(tw[k * step]) : tw[k * step];
        cfloat* lo = buf + 4 * (i + k);
        cfloat* hi = buf + 4 * (i + k + half);
        for (std::size_t j = 0; j < 4; ++j) {
          const cfloat u = lo[j];
          const cfloat v = hi[j] * w;
          lo[j] = u + v;
          hi[j] = u - v;
        }
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < 4 * n; ++i) buf[i] *= inv_n;
  }
  scatter_cols4(g, n, buf);
}

namespace {

void cmul_scalar(const cfloat* a, const cfloat* b, cfloat* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void cmul_conj_real_scalar(const float* x, const cfloat* a, cfloat* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * std::conj(a[i]);
}

void norm_weighted_accum_scalar(const cfloat* f, double w, double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * std::norm(f[i]);
}

void real_weighted_accum_scalar(const cfloat* f, double w, double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * f[i].real();
}

constexpr VecOps kScalarOps = {cmul_scalar, cmul_conj_real_scalar,
                               norm_weighted_accum_scalar, real_weighted_accum_scalar};

}  // namespace

const VecOps& vec_ops(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? vec_ops_avx2() : kScalarOps;
}

FftInplaceFn fft_inplace_for(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? fft_inplace_avx2 : fft_inplace_scalar;
}

FftCols4Fn fft_cols4_for(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? fft_cols4_avx2 : fft_cols4_scalar;
}

}  // namespace ganopc::fft
