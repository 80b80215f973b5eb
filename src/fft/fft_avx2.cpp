// AVX2+FMA arm of the FFT kernel family. This translation unit is compiled
// with -mavx2 -mfma (see src/fft/CMakeLists.txt); nothing outside it may
// assume those ISA extensions. Dispatch guarantees these functions only run
// after the cpuid probe confirmed AVX2+FMA (common/cpu.hpp).
//
// Complex floats are interleaved (re, im), so a 256-bit vector holds four
// complex values. The complex product v*w uses the moveldup/movehdup +
// fmaddsub decomposition:
//   re(vw) = vr*wr - vi*wi,  im(vw) = vr*wi + vi*wr
// which is two shuffles, one permute, one mul and one fmaddsub per four
// products. Butterfly stages with half >= 4 consume the plan's contiguous
// per-stage twiddles four at a time; the two smallest stages (half 1 and 2)
// use fixed shuffle patterns since their twiddles are +-1 / -+i.
//
// fft_cols4 runs the same stages on four columns at once: one row of the
// group is one vector, so every butterfly is a whole-vector add/sub and every
// twiddle a broadcast. Its constants and operand orders copy fft_inplace_avx2
// (the len-4 literals (1,0) and (0,-+1), xor conjugation for the inverse,
// cmul4(data, twiddle)), which makes each lane bitwise that kernel's output.
#include "fft/fft_kernels.hpp"

#include "fft/plan.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ganopc::fft {

namespace {

/// Four interleaved complex products a*b.
inline __m256 cmul4(__m256 a, __m256 b) {
  const __m256 ar = _mm256_moveldup_ps(a);                  // ar0 ar0 ar1 ar1 ...
  const __m256 ai = _mm256_movehdup_ps(a);                  // ai0 ai0 ai1 ai1 ...
  const __m256 bswap = _mm256_permute_ps(b, 0xB1);          // bi0 br0 bi1 br1 ...
  return _mm256_fmaddsub_ps(ar, b, _mm256_mul_ps(ai, bswap));
}

/// Sign mask flipping the imaginary lane of each complex value (conjugation).
inline __m256 conj_mask() {
  return _mm256_castsi256_ps(
      _mm256_set_epi32(static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000), 0,
                       static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000), 0));
}

}  // namespace

void fft_inplace_avx2(cfloat* data, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  auto* a = reinterpret_cast<float*>(data);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  if (n >= 4) {
    // Stage len=2 (w = 1): butterflies over adjacent complex pairs. A vector
    // holds [c0 c1 c2 c3] = two butterflies; duplicate the even/odd complex
    // of each 128-bit pair and add with the sign pattern (+, -) per pair.
    {
      const __m256 sign = _mm256_castsi256_ps(_mm256_set_epi32(
          static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0,
          static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0));
      for (std::size_t i = 0; i < n; i += 4) {
        const __m256 x = _mm256_loadu_ps(a + 2 * i);
        const __m256d xd = _mm256_castps_pd(x);
        const __m256 u = _mm256_castpd_ps(_mm256_movedup_pd(xd));       // c0 c0 c2 c2
        const __m256 v = _mm256_castpd_ps(_mm256_permute_pd(xd, 0xF));  // c1 c1 c3 c3
        _mm256_storeu_ps(a + 2 * i, _mm256_add_ps(u, _mm256_xor_ps(v, sign)));
      }
    }

    // Stage len=4 (w in {1, -i} forward / {1, +i} inverse): one vector is one
    // butterfly block [a0 a1 a2 a3]; v = [a2 a3 a2 a3] times the fixed
    // twiddle vector [1, w1, 1, w1], added with the (+, +, -, -) sign block.
    {
      const float w1im = inverse ? 1.0f : -1.0f;
      const __m256 wvec = _mm256_setr_ps(1.0f, 0.0f, 0.0f, w1im, 1.0f, 0.0f, 0.0f, w1im);
      const __m256 sign = _mm256_castsi256_ps(_mm256_set_epi32(
          static_cast<int>(0x80000000), static_cast<int>(0x80000000),
          static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0, 0, 0));
      for (std::size_t i = 0; i < n; i += 4) {
        const __m256 x = _mm256_loadu_ps(a + 2 * i);
        const __m256 u = _mm256_permute2f128_ps(x, x, 0x00);  // a0 a1 a0 a1
        const __m256 v = _mm256_permute2f128_ps(x, x, 0x11);  // a2 a3 a2 a3
        const __m256 vw = cmul4(v, wvec);
        _mm256_storeu_ps(a + 2 * i, _mm256_add_ps(u, _mm256_xor_ps(vw, sign)));
      }
    }

    // General stages (half >= 4): twiddles contiguous in the per-stage table.
    const __m256 cmask = conj_mask();
    for (std::size_t len = 8; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const cfloat* stw = plan.stage_twiddle.data() + (half - 1);
      for (std::size_t i = 0; i < n; i += len) {
        float* lo = a + 2 * i;
        float* hi = a + 2 * (i + half);
        for (std::size_t k = 0; k < half; k += 4) {
          __m256 w = _mm256_loadu_ps(reinterpret_cast<const float*>(stw + k));
          if (inverse) w = _mm256_xor_ps(w, cmask);
          const __m256 u = _mm256_loadu_ps(lo + 2 * k);
          const __m256 v = cmul4(_mm256_loadu_ps(hi + 2 * k), w);
          _mm256_storeu_ps(lo + 2 * k, _mm256_add_ps(u, v));
          _mm256_storeu_ps(hi + 2 * k, _mm256_sub_ps(u, v));
        }
      }
    }
  } else {
    // Tiny transforms (n < 4) run the scalar butterflies.
    const cfloat* tw = plan.twiddle.data();
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2, step = n / len;
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cfloat w = inverse ? std::conj(tw[k * step]) : tw[k * step];
          const cfloat u = data[i + k];
          const cfloat v = data[i + k + half] * w;
          data[i + k] = u + v;
          data[i + k + half] = u - v;
        }
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    const __m256 s = _mm256_set1_ps(inv_n);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_ps(a + 2 * i, _mm256_mul_ps(_mm256_loadu_ps(a + 2 * i), s));
    for (; i < n; ++i) data[i] *= inv_n;
  }
}

void fft_cols4_avx2(const ColumnGroup& g, const FftPlan& plan, bool inverse,
                    cfloat* scratch) {
  const std::size_t n = plan.n;
  gather_cols4(g, plan, scratch);
  if (n < 4) {
    // Tiny transforms: the row kernel per lane (bitrev is the identity here,
    // so the gathered order is already its input order).
    cfloat lane[2];
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t r = 0; r < n; ++r) lane[r] = scratch[4 * r + j];
      fft_inplace_avx2(lane, plan, inverse);
      for (std::size_t r = 0; r < n; ++r) scratch[4 * r + j] = lane[r];
    }
    scatter_cols4(g, n, scratch);
    return;
  }
  auto* b = reinterpret_cast<float*>(scratch);  // row p is the vector at b + 8p
  const auto row = [b](std::size_t p) { return b + 8 * p; };
  const __m256 neg = _mm256_set1_ps(-0.0f);

  // Stage len=2 (w = 1): u + v and u + (-v), as the row kernel's sign xor.
  for (std::size_t p = 0; p < n; p += 2) {
    const __m256 u = _mm256_loadu_ps(row(p));
    const __m256 v = _mm256_loadu_ps(row(p + 1));
    _mm256_storeu_ps(row(p), _mm256_add_ps(u, v));
    _mm256_storeu_ps(row(p + 1), _mm256_add_ps(u, _mm256_xor_ps(v, neg)));
  }

  // Stage len=4: twiddles (1,0) and (0,-+1) exactly as the row kernel's wvec.
  {
    const float w1im = inverse ? 1.0f : -1.0f;
    const __m256 w0 = _mm256_setr_ps(1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 0.0f);
    const __m256 w1 = _mm256_setr_ps(0.0f, w1im, 0.0f, w1im, 0.0f, w1im, 0.0f, w1im);
    for (std::size_t p = 0; p < n; p += 4) {
      const __m256 a0 = _mm256_loadu_ps(row(p));
      const __m256 a1 = _mm256_loadu_ps(row(p + 1));
      const __m256 v0 = cmul4(_mm256_loadu_ps(row(p + 2)), w0);
      const __m256 v1 = cmul4(_mm256_loadu_ps(row(p + 3)), w1);
      _mm256_storeu_ps(row(p), _mm256_add_ps(a0, v0));
      _mm256_storeu_ps(row(p + 1), _mm256_add_ps(a1, v1));
      _mm256_storeu_ps(row(p + 2), _mm256_add_ps(a0, _mm256_xor_ps(v0, neg)));
      _mm256_storeu_ps(row(p + 3), _mm256_add_ps(a1, _mm256_xor_ps(v1, neg)));
    }
  }

  // General stages (half >= 4): one broadcast twiddle per butterfly column.
  const __m256 cmask = conj_mask();
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cfloat* stw = plan.stage_twiddle.data() + (half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      __m256 w = _mm256_castpd_ps(
          _mm256_broadcast_sd(reinterpret_cast<const double*>(stw + k)));
      if (inverse) w = _mm256_xor_ps(w, cmask);
      for (std::size_t i = k; i < n; i += len) {
        const __m256 u = _mm256_loadu_ps(row(i));
        const __m256 v = cmul4(_mm256_loadu_ps(row(i + half)), w);
        _mm256_storeu_ps(row(i), _mm256_add_ps(u, v));
        _mm256_storeu_ps(row(i + half), _mm256_sub_ps(u, v));
      }
    }
  }

  if (inverse) {
    const __m256 s = _mm256_set1_ps(1.0f / static_cast<float>(n));
    for (std::size_t p = 0; p < n; ++p)
      _mm256_storeu_ps(row(p), _mm256_mul_ps(_mm256_loadu_ps(row(p)), s));
  }
  scatter_cols4(g, n, scratch);
}

namespace {

void cmul_avx2(const cfloat* a, const cfloat* b, cfloat* out, std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  const auto* bf = reinterpret_cast<const float*>(b);
  auto* of = reinterpret_cast<float*>(out);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_ps(of + 2 * i, cmul4(_mm256_loadu_ps(af + 2 * i),
                                       _mm256_loadu_ps(bf + 2 * i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void cmul_conj_real_avx2(const float* x, const cfloat* a, cfloat* out, std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  auto* of = reinterpret_cast<float*>(out);
  const __m256 cmask = conj_mask();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 xf = _mm_loadu_ps(x + i);  // x0 x1 x2 x3
    const __m256 xd = _mm256_set_m128(_mm_unpackhi_ps(xf, xf), _mm_unpacklo_ps(xf, xf));
    const __m256 ac = _mm256_xor_ps(_mm256_loadu_ps(af + 2 * i), cmask);
    _mm256_storeu_ps(of + 2 * i, _mm256_mul_ps(xd, ac));
  }
  for (; i < n; ++i) out[i] = x[i] * std::conj(a[i]);
}

/// Compress [p0 p0 p1 p1 | p2 p2 p3 p3] duplicated pairs to [p0 p1 p2 p3].
inline __m128 compress_pairs(__m256 dup) {
  const __m128 lo = _mm256_castps256_ps128(dup);
  const __m128 hi = _mm256_extractf128_ps(dup, 1);
  return _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
}

void norm_weighted_accum_avx2(const cfloat* f, double w, double* acc, std::size_t n) {
  const auto* ff = reinterpret_cast<const float*>(f);
  const __m256d wv = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(ff + 2 * i);
    const __m256 sq = _mm256_mul_ps(v, v);  // r0^2 i0^2 r1^2 i1^2 ...
    const __m256 norms_dup = _mm256_add_ps(_mm256_moveldup_ps(sq), _mm256_movehdup_ps(sq));
    const __m256d nd = _mm256_cvtps_pd(compress_pairs(norms_dup));
    _mm256_storeu_pd(acc + i, _mm256_fmadd_pd(wv, nd, _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] += w * std::norm(f[i]);
}

void real_weighted_accum_avx2(const cfloat* f, double w, double* acc, std::size_t n) {
  const auto* ff = reinterpret_cast<const float*>(f);
  const __m256d wv = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(ff + 2 * i);  // r0 i0 r1 i1 | r2 i2 r3 i3
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 reals = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256d rd = _mm256_cvtps_pd(reals);
    _mm256_storeu_pd(acc + i, _mm256_fmadd_pd(wv, rd, _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] += w * f[i].real();
}

constexpr VecOps kAvx2Ops = {cmul_avx2, cmul_conj_real_avx2, norm_weighted_accum_avx2,
                             real_weighted_accum_avx2};

}  // namespace

const VecOps& vec_ops_avx2() { return kAvx2Ops; }

}  // namespace ganopc::fft

#else  // !(__AVX2__ && __FMA__): non-x86 or flag-less build — forward to scalar.

namespace ganopc::fft {

void fft_inplace_avx2(cfloat* a, const FftPlan& plan, bool inverse) {
  fft_inplace_scalar(a, plan, inverse);
}

void fft_cols4_avx2(const ColumnGroup& group, const FftPlan& plan, bool inverse,
                    cfloat* scratch) {
  fft_cols4_scalar(group, plan, inverse, scratch);
}

const VecOps& vec_ops_avx2() { return vec_ops(SimdLevel::kScalar); }

}  // namespace ganopc::fft

#endif
