#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "fft/fft.hpp"
#include "harness.hpp"
#include "nn/gemm.hpp"

namespace e2e {

double fma_loop_gflops_avx2(double seconds);  // fma_loop.cpp

namespace {

double fma_loop_gflops_scalar(double seconds) {
  constexpr int kAcc = 8;
  constexpr std::uint64_t kInner = 1u << 14;
  double acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = 0.01 * (k + 1);
  std::uint64_t rounds = 0;
  const std::uint64_t start = now_ns();
  do {
    for (std::uint64_t r = 0; r < kInner; ++r)
      for (int k = 0; k < kAcc; ++k) acc[k] = acc[k] * 0.999999 + 1e-7;
    rounds += kInner;
  } while (seconds_since(start) < seconds);
  const double elapsed = seconds_since(start);
  volatile double sink = acc[0] + acc[kAcc - 1];
  (void)sink;
  return static_cast<double>(rounds) * kAcc * 2.0 / elapsed * 1e-9;
}

/// Median seconds per call of `fn`, calling it until `seconds` have passed
/// (at least 5 calls, after one untimed warm-up call).
template <typename Fn>
double median_call_seconds(double seconds, Fn&& fn) {
  fn();
  std::vector<double> times;
  const std::uint64_t start = now_ns();
  while (times.size() < 5 || seconds_since(start) < seconds) {
    const std::uint64_t t = now_ns();
    fn();
    times.push_back(seconds_since(t));
  }
  return percentile(times, 0.5);
}

/// Single-thread FMA loop: AVX2+FMA when the CPU has it, else scalar.
double fma_loop_gflops(double seconds) {
  return ganopc::cpu_supports_avx2_fma() ? fma_loop_gflops_avx2(seconds)
                                         : fma_loop_gflops_scalar(seconds);
}

}  // namespace

MachinePeak probe_machine(int threads, double seconds) {
  MachinePeak p;
  p.threads = std::max(1, threads);
  p.fma_gflops_1core = fma_loop_gflops(seconds);
  {
    std::vector<double> rates(static_cast<std::size_t>(p.threads), 0.0);
    std::vector<std::thread> pool;
    for (int t = 0; t < p.threads; ++t)
      pool.emplace_back([&rates, t, seconds] {
        rates[static_cast<std::size_t>(t)] = fma_loop_gflops(seconds);
      });
    for (auto& th : pool) th.join();
    p.fma_gflops_all = sum(rates);
  }
  // STREAM triad a = b + s*c over doubles; bytes = 3 arrays x 8 B per element
  // (write-allocate traffic not counted). 64 MiB per array keeps the probe
  // small; on a host whose last-level cache holds all three arrays it reads
  // cache bandwidth, which the printed sizes make visible.
  p.triad_array_bytes = std::size_t{64} << 20;
  const std::size_t n = p.triad_array_bytes / sizeof(double);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  auto triad = [&] {
    std::vector<std::thread> pool;
    const std::size_t chunk = (n + p.threads - 1) / static_cast<std::size_t>(p.threads);
    for (int t = 0; t < p.threads; ++t) {
      const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(t));
      const std::size_t hi = std::min(n, lo + chunk);
      pool.emplace_back([&a, &b, &c, s, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
    }
    for (auto& th : pool) th.join();
  };
  triad();  // first touch of `a`
  double best = 1e30;
  const std::uint64_t start = now_ns();
  for (int pass = 0; pass < 3 || seconds_since(start) < seconds; ++pass) {
    const std::uint64_t t = now_ns();
    triad();
    best = std::min(best, seconds_since(t));
  }
  p.triad_gbs = 3.0 * static_cast<double>(p.triad_array_bytes) / best * 1e-9;
  volatile double sink = a[n / 2];
  (void)sink;
  return p;
}

KernelRate probe_rfft(int n, double seconds) {
  const auto un = static_cast<std::size_t>(n);
  std::vector<float> in(un * un);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>((i * 2654435761u) % 1000) * 1e-3f;
  std::vector<std::complex<float>> out(un * un);
  KernelRate r;
  r.seconds_per_call = median_call_seconds(
      seconds, [&] { ganopc::fft::rfft_2d(in.data(), out.data(), un, un); });
  const double nn = static_cast<double>(n) * n;
  r.gflops = 2.5 * nn * std::log2(nn) / r.seconds_per_call * 1e-9;
  return r;
}

KernelRate probe_generator_sgemm(int image_size, int base_channels, double seconds) {
  struct Shape {
    bool trans_a;
    std::size_t m, n, k;
  };
  // Generator (AutoEncoder): three 3x3 stride-2 convs (1->c->2c->4c), then
  // three 4x4 stride-2 transposed convs back (4c->2c->c->1). A conv runs
  // W[cout x cin*9] * cols[cin*9 x Ho*Wo]; a transposed conv runs
  // W^T[cout*16 x cin] * x[cin x Hi*Wi] (nn/conv.cpp).
  const auto c = static_cast<std::size_t>(base_channels);
  const auto s = static_cast<std::size_t>(image_size);
  const std::vector<Shape> shapes = {
      {false, c, (s / 2) * (s / 2), 1 * 9},
      {false, 2 * c, (s / 4) * (s / 4), c * 9},
      {false, 4 * c, (s / 8) * (s / 8), 2 * c * 9},
      {true, 2 * c * 16, (s / 8) * (s / 8), 4 * c},
      {true, c * 16, (s / 4) * (s / 4), 2 * c},
      {true, 1 * 16, (s / 2) * (s / 2), c},
  };
  struct Buffers {
    std::vector<float> a, b, out;
  };
  std::vector<Buffers> bufs;
  double flops = 0.0;
  for (const Shape& sh : shapes) {
    Buffers buf;
    buf.a.assign(sh.m * sh.k, 0.5f);
    buf.b.assign(sh.k * sh.n, 0.25f);
    buf.out.assign(sh.m * sh.n, 0.0f);
    bufs.push_back(std::move(buf));
    flops += 2.0 * static_cast<double>(sh.m * sh.n * sh.k);
  }
  KernelRate r;
  r.seconds_per_call = median_call_seconds(seconds, [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Shape& sh = shapes[i];
      // Stored A is [k x m] when transposed (lda = m), else [m x k].
      ganopc::nn::sgemm(sh.trans_a, false, sh.m, sh.n, sh.k, 1.0f, bufs[i].a.data(),
                        sh.trans_a ? sh.m : sh.k, bufs[i].b.data(), sh.n, 0.0f,
                        bufs[i].out.data(), sh.n);
    }
  });
  r.gflops = flops / r.seconds_per_call * 1e-9;
  return r;
}

}  // namespace e2e
