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
// The split-complex batch kernel fft_lanes8 lives in lanes8_avx2.cpp and
// copies this kernel's per-element arithmetic lane by lane.
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

constexpr VecOps kAvx2Ops = {cmul_avx2};

}  // namespace

const VecOps& vec_ops_avx2() { return kAvx2Ops; }

}  // namespace ganopc::fft

#else  // !(__AVX2__ && __FMA__): non-x86 or flag-less build — forward to scalar.

namespace ganopc::fft {

void fft_inplace_avx2(cfloat* a, const FftPlan& plan, bool inverse) {
  fft_inplace_scalar(a, plan, inverse);
}

const VecOps& vec_ops_avx2() { return vec_ops(SimdLevel::kScalar); }

}  // namespace ganopc::fft

#endif
