// AVX2+FMA arm of the split-complex batch kernels (fft_kernels.hpp). This
// translation unit is compiled with -mavx2 -mfma -ffp-contract=off (see
// src/fft/CMakeLists.txt); dispatch runs it only after the cpuid probe.
//
// A point of a batch is two vectors: eight real parts and eight imaginary
// parts, one per lane. The complex product v*w is then
//   re = fmsub(vr, wr, vi*wi),  im = fmadd(vr, wi, vi*wr)
// with no shuffles. fft_lanes8 runs the len-2 stage as u + v and u + (-v),
// the len-4 stage as products with the literals (1,0) and (0,-+1), and the
// general stages with the per-stage twiddles conjugated by a sign xor.
// Transforms below 4 points run the scalar arm.
//
// Each memory pass runs two stages in registers: len 2 and 4 over each group
// of 4 blocks, then each pair (len, 2*len) over the 4 blocks that two
// butterflies of each stage share. With an odd number of general stages
// (n = 8, 32, 128, 512) the stage len = n is left over and runs alone, last.
// The inverse's 1/n is a multiply in the last pass's stores. Each butterfly
// reads the operands, and runs the operations in the order, that it would
// in a transform run one stage at a time; a pass only reorders butterflies
// that do not depend on each other, so no lane's bytes move.
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

/// Stores v at p; in the inverse's last pass (kScale) v * s with s = 1/n,
/// a multiply of its own after the butterfly's add.
template <bool kScale>
inline void put(float* p, Split v, __m256 s) {
  if constexpr (kScale) v = {_mm256_mul_ps(v.re, s), _mm256_mul_ps(v.im, s)};
  store(p, v);
}

/// Broadcast twiddle k of a stage's table, its imaginary part xor `conj`
/// (-0.0f on the inverse, which conjugates; +0.0f leaves it as it is).
struct Twiddle {
  __m256 re, im;
};

inline Twiddle twiddle(const float* tw, std::size_t k, __m256 conj) {
  return {_mm256_broadcast_ss(tw + 2 * k),
          _mm256_xor_ps(_mm256_broadcast_ss(tw + 2 * k + 1), conj)};
}

/// One general butterfly in registers: (u, x) becomes (u + v, u - v) with
/// v = x * w.
inline void butterfly(Split& u, Split& x, Twiddle w) {
  const Split v = mul(x, w.re, w.im);
  x = sub(u, v);
  u = add(u, v);
}

/// Stages len=2 (w = 1: u + v and u + (-v), the subtraction as a sign xor)
/// and len=4 (full products with the twiddles (1,0) and (0,-+1); a shortcut,
/// v itself or v times -+i as a swap, would differ in the sign of zeros),
/// one pass over each group of 4 blocks.
template <bool kScale>
void stages_2_4(float* b, std::size_t n, bool inverse, __m256 s) {
  const __m256 neg = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f), zero = _mm256_setzero_ps();
  const __m256 w1im = _mm256_set1_ps(inverse ? 1.0f : -1.0f);
  for (float* p = b; p < b + kBlock * n; p += 4 * kBlock) {
    const Split x0 = load(p), x1 = load(p + kBlock);
    const Split x2 = load(p + 2 * kBlock), x3 = load(p + 3 * kBlock);
    const Split a0 = add(x0, x1), a1 = add(x0, flip(x1, neg));
    const Split v0 = mul(add(x2, x3), one, zero);
    const Split v1 = mul(add(x2, flip(x3, neg)), zero, w1im);
    put<kScale>(p, add(a0, v0), s);
    put<kScale>(p + kBlock, add(a1, v1), s);
    put<kScale>(p + 2 * kBlock, add(a0, flip(v0, neg)), s);
    put<kScale>(p + 3 * kBlock, add(a1, flip(v1, neg)), s);
  }
}

/// Stages len and 2*len (len >= 8) in one pass: for each k < h = len/2 the
/// blocks i+k, i+k+h, i+k+len, i+k+len+h go through their two stage-len
/// butterflies (twiddle k of `tw_len`) and then their two stage-2*len ones
/// (twiddles k and k+h of `tw_2len`) in registers.
template <bool kScale>
void stage_pair(float* b, std::size_t n, std::size_t len, const float* tw_len,
                const float* tw_2len, __m256 conj, __m256 s) {
  const std::size_t h = len / 2;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    for (std::size_t k = 0; k < h; ++k) {
      float* p0 = b + kBlock * (i + k);
      float* p1 = p0 + kBlock * h;
      float* p2 = p0 + kBlock * len;
      float* p3 = p2 + kBlock * h;
      Split x0 = load(p0), x1 = load(p1), x2 = load(p2), x3 = load(p3);
      const Twiddle w = twiddle(tw_len, k, conj);
      butterfly(x0, x1, w);
      butterfly(x2, x3, w);
      butterfly(x0, x2, twiddle(tw_2len, k, conj));
      butterfly(x1, x3, twiddle(tw_2len, k + h, conj));
      put<kScale>(p0, x0, s);
      put<kScale>(p1, x1, s);
      put<kScale>(p2, x2, s);
      put<kScale>(p3, x3, s);
    }
  }
}

/// The one stage len = n left over when the general stages are odd in
/// number: always the last pass.
template <bool kScale>
void last_stage(float* b, std::size_t n, const float* tw, __m256 conj, __m256 s) {
  const std::size_t h = n / 2;
  for (std::size_t k = 0; k < h; ++k) {
    float* p0 = b + kBlock * k;
    float* p1 = p0 + kBlock * h;
    Split x0 = load(p0), x1 = load(p1);
    butterfly(x0, x1, twiddle(tw, k, conj));
    put<kScale>(p0, x0, s);
    put<kScale>(p1, x1, s);
  }
}

}  // namespace

void fft_lanes8_avx2(float* b, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  if (n < 4) {
    fft_lanes8_scalar(b, plan, inverse);  // no len-4 stage to vectorise
    return;
  }
  // Stage len's twiddles start at entry len/2 - 1 of the plan's table.
  const auto stage = [&plan](std::size_t len) {
    return reinterpret_cast<const float*>(plan.stage_twiddle.data() + (len / 2 - 1));
  };
  const __m256 conj = inverse ? _mm256_set1_ps(-0.0f) : _mm256_setzero_ps();
  const __m256 s = _mm256_set1_ps(1.0f / static_cast<float>(n));
  // Each pass below reads and writes every block once; only the last one
  // scales, and only on the inverse.
  if (inverse && n == 4)
    stages_2_4<true>(b, n, inverse, s);
  else
    stages_2_4<false>(b, n, inverse, s);
  std::size_t len = 8;
  for (; 2 * len <= n; len *= 4) {
    if (inverse && 2 * len == n)
      stage_pair<true>(b, n, len, stage(len), stage(2 * len), conj, s);
    else
      stage_pair<false>(b, n, len, stage(len), stage(2 * len), conj, s);
  }
  if (len == n) {
    if (inverse)
      last_stage<true>(b, n, stage(n), conj, s);
    else
      last_stage<false>(b, n, stage(n), conj, s);
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
