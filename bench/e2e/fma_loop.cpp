// The AVX2+FMA peak loop; the only file of the harness built with
// -mavx2 -mfma, and only ever called after a cpuid check (probes.cpp).
#include <cstdint>

#include "harness.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace e2e {

double fma_loop_gflops_avx2(double seconds) {
#if defined(__AVX2__) && defined(__FMA__)
  // 12 independent accumulators cover the FMA latency x throughput product
  // of current x86 cores (4-5 cycles x 2 ports), so the loop is port-bound.
  constexpr int kAcc = 12;
  constexpr std::uint64_t kInner = 1u << 14;
  __m256 acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_set1_ps(0.01f * static_cast<float>(k + 1));
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  std::uint64_t rounds = 0;
  const std::uint64_t start = now_ns();
  do {
    for (std::uint64_t r = 0; r < kInner; ++r)
      for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_fmadd_ps(acc[k], a, b);
    rounds += kInner;
  } while (seconds_since(start) < seconds);
  const double elapsed = seconds_since(start);
  __m256 total = acc[0];
  for (int k = 1; k < kAcc; ++k) total = _mm256_add_ps(total, acc[k]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, total);
  volatile float sink = lanes[0];
  (void)sink;
  // 8 lanes x 2 flops per FMA.
  return static_cast<double>(rounds) * kAcc * 16.0 / elapsed * 1e-9;
#else
  (void)seconds;
  return 0.0;
#endif
}

}  // namespace e2e
