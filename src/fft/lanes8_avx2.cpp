// AVX2+FMA arm of the split-complex batch kernels (fft_kernels.hpp). This
// translation unit is compiled with -mavx2 -mfma -ffp-contract=off (see
// src/fft/CMakeLists.txt); dispatch runs it only after the cpuid probe.
//
// A point of a batch is two vectors: eight real parts and eight imaginary
// parts, one per lane. The complex product v*w is then
//   re = fmsub(vr, wr, vi*wi),  im = fmadd(vr, wi, vi*wr)
// with no shuffles. fft_lanes8 runs the len-2 stage as u + v and u + (-v),
// the len-4 stage as products with the literals (1,0) and (0,-+1), the
// general stages with the per-stage twiddles conjugated by a sign xor, and
// the inverse scales by 1/n. Transforms below 4 points run the scalar arm.
//
// Contraction is off because a product written as a separate multiply must
// stay a rounded multiply: the norm re*re + im*im rounds both squares before
// the add, and the pinned output bytes depend on it.
#include "fft/fft_kernels.hpp"

#include "fft/plan.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ganopc::fft {

namespace {

struct Split {
  __m256 re, im;
};

inline Split load(const float* b) { return {_mm256_loadu_ps(b), _mm256_loadu_ps(b + kLanes)}; }

inline void store(float* b, Split v) {
  _mm256_storeu_ps(b, v.re);
  _mm256_storeu_ps(b + kLanes, v.im);
}

inline Split add(Split a, Split b) {
  return {_mm256_add_ps(a.re, b.re), _mm256_add_ps(a.im, b.im)};
}

inline Split sub(Split a, Split b) {
  return {_mm256_sub_ps(a.re, b.re), _mm256_sub_ps(a.im, b.im)};
}

inline Split flip(Split a, __m256 neg) {
  return {_mm256_xor_ps(a.re, neg), _mm256_xor_ps(a.im, neg)};
}

/// v * w per lane, the second product fused.
inline Split mul(Split v, __m256 wr, __m256 wi) {
  return {_mm256_fmsub_ps(v.re, wr, _mm256_mul_ps(v.im, wi)),
          _mm256_fmadd_ps(v.re, wi, _mm256_mul_ps(v.im, wr))};
}

}  // namespace

void fft_lanes8_avx2(float* b, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  if (n < 4) {
    fft_lanes8_scalar(b, plan, inverse);  // no len-4 stage to vectorise
    return;
  }
  const auto blk = [b](std::size_t p) { return b + kBlock * p; };
  const __m256 neg = _mm256_set1_ps(-0.0f);

  // Stage len=2 (w = 1): u + v and u + (-v), the subtraction as a sign xor.
  for (std::size_t p = 0; p < n; p += 2) {
    const Split u = load(blk(p)), v = load(blk(p + 1));
    store(blk(p), add(u, v));
    store(blk(p + 1), add(u, flip(v, neg)));
  }

  // Stage len=4: full products with the twiddles (1,0) and (0,-+1). A
  // shortcut (v itself, or v times -+i as a swap) would differ in the sign
  // of zeros.
  {
    const __m256 one = _mm256_set1_ps(1.0f), zero = _mm256_setzero_ps();
    const __m256 w1im = _mm256_set1_ps(inverse ? 1.0f : -1.0f);
    for (std::size_t p = 0; p < n; p += 4) {
      const Split a0 = load(blk(p)), a1 = load(blk(p + 1));
      const Split v0 = mul(load(blk(p + 2)), one, zero);
      const Split v1 = mul(load(blk(p + 3)), zero, w1im);
      store(blk(p), add(a0, v0));
      store(blk(p + 1), add(a1, v1));
      store(blk(p + 2), add(a0, flip(v0, neg)));
      store(blk(p + 3), add(a1, flip(v1, neg)));
    }
  }

  // General stages (half >= 4): one broadcast twiddle per butterfly.
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const float* stw = reinterpret_cast<const float*>(plan.stage_twiddle.data() + (half - 1));
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const __m256 wr = _mm256_broadcast_ss(stw + 2 * k);
        __m256 wi = _mm256_broadcast_ss(stw + 2 * k + 1);
        if (inverse) wi = _mm256_xor_ps(wi, neg);
        const Split u = load(blk(i + k));
        const Split v = mul(load(blk(i + k + half)), wr, wi);
        store(blk(i + k), add(u, v));
        store(blk(i + k + half), sub(u, v));
      }
    }
  }

  if (inverse) {
    const __m256 s = _mm256_set1_ps(1.0f / static_cast<float>(n));
    for (std::size_t i = 0; i < kBlock * n; i += kLanes)
      _mm256_storeu_ps(b + i, _mm256_mul_ps(_mm256_loadu_ps(b + i), s));
  }
}

namespace {

void lanes_cmul_avx2(const float* a, const float* b, float* out, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i, a += kBlock, b += kBlock, out += kBlock) {
    const Split w = load(b);
    store(out, mul(load(a), w.re, w.im));
  }
}

void lanes_cmul_conj_real_avx2(const float* x, const float* a, float* out,
                               std::size_t count) {
  // x * conj(a): x times (ar, -ai), the sign flipped with an xor.
  const __m256 neg = _mm256_set1_ps(-0.0f);
  for (std::size_t i = 0; i < count; ++i, x += kLanes, a += kBlock, out += kBlock) {
    const __m256 xv = _mm256_loadu_ps(x);
    const Split v = load(a);
    store(out, {_mm256_mul_ps(xv, v.re), _mm256_mul_ps(xv, _mm256_xor_ps(v.im, neg))});
  }
}

/// acc[0..7] = fma(w, double(v[0..7]), acc[0..7]).
inline void accum8(__m256 v, __m256d w, double* acc) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  _mm256_storeu_pd(acc, _mm256_fmadd_pd(w, lo, _mm256_loadu_pd(acc)));
  _mm256_storeu_pd(acc + 4, _mm256_fmadd_pd(w, hi, _mm256_loadu_pd(acc + 4)));
}

void lanes_norm_weighted_accum_avx2(const float* f, double w, double* acc,
                                    std::size_t count) {
  const __m256d wv = _mm256_set1_pd(w);
  for (std::size_t i = 0; i < count; ++i, f += kBlock, acc += kLanes) {
    const Split v = load(f);
    accum8(_mm256_add_ps(_mm256_mul_ps(v.re, v.re), _mm256_mul_ps(v.im, v.im)), wv, acc);
  }
}

void lanes_real_weighted_accum_avx2(const float* f, double w, double* acc,
                                    std::size_t count) {
  const __m256d wv = _mm256_set1_pd(w);
  for (std::size_t i = 0; i < count; ++i, f += kBlock, acc += kLanes)
    accum8(_mm256_loadu_ps(f), wv, acc);
}

constexpr LaneOps kAvx2LaneOps = {fft_lanes8_avx2, lanes_cmul_avx2, lanes_cmul_conj_real_avx2,
                                  lanes_norm_weighted_accum_avx2,
                                  lanes_real_weighted_accum_avx2};

}  // namespace

const LaneOps& lane_ops_avx2() { return kAvx2LaneOps; }

}  // namespace ganopc::fft

#else  // !(__AVX2__ && __FMA__): non-x86 or flag-less build — forward to scalar.

namespace ganopc::fft {

void fft_lanes8_avx2(float* blocks, const FftPlan& plan, bool inverse) {
  fft_lanes8_scalar(blocks, plan, inverse);
}

const LaneOps& lane_ops_avx2() { return lane_ops(SimdLevel::kScalar); }

}  // namespace ganopc::fft

#endif
