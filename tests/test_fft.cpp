#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/cpu.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "fft/fft.hpp"

namespace ganopc::fft {
namespace {

TEST(FftUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(100));
}

TEST(FftUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

// A 1-D transform is a one-row 2-D transform: the Fft1d and FftRoundTrip
// cases run fft_2d on 1 x n grids.

TEST(Fft1d, RejectsNonPow2) {
  std::vector<cfloat> data(3);
  EXPECT_THROW(fft_2d(data, 1, 3, false), Error);
}

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<cfloat> data(8, {0, 0});
  data[0] = {1, 0};
  fft_2d(data, 1, data.size(), false);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft1d, SingleToneLandsInOneBin) {
  const std::size_t n = 32;
  std::vector<cfloat> data(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * M_PI * k * static_cast<double>(i) / static_cast<double>(n);
    data[i] = {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
  }
  fft_2d(data, 1, data.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    const float mag = std::abs(data[i]);
    if (i == static_cast<std::size_t>(k)) {
      EXPECT_NEAR(mag, static_cast<float>(n), 1e-3f);
    } else {
      EXPECT_NEAR(mag, 0.0f, 1e-3f);
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput1d) {
  const std::size_t n = GetParam();
  Prng rng(n);
  std::vector<cfloat> data(n), orig(n);
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  orig = data;
  fft_2d(data, 1, data.size(), false);
  fft_2d(data, 1, data.size(), true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-4f);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 16, 64, 256, 1024));

TEST(Fft1d, ParsevalHolds) {
  const std::size_t n = 128;
  Prng rng(99);
  std::vector<cfloat> data(n);
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  double time_energy = 0.0;
  for (const auto& v : data) time_energy += std::norm(v);
  fft_2d(data, 1, data.size(), false);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-3);
}

TEST(Fft2d, RoundTripRandom) {
  const std::size_t h = 16, w = 32;
  Prng rng(5);
  std::vector<cfloat> data(h * w), orig;
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  orig = data;
  fft_2d(data, h, w, false);
  fft_2d(data, h, w, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-4f);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-4f);
  }
}

TEST(Fft2d, MatchesDirectDft) {
  const std::size_t h = 8, w = 8;
  Prng rng(77);
  std::vector<cfloat> data(h * w);
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  // Direct O(n^2) DFT reference.
  std::vector<std::complex<double>> ref(h * w, {0, 0});
  for (std::size_t kr = 0; kr < h; ++kr)
    for (std::size_t kc = 0; kc < w; ++kc)
      for (std::size_t r = 0; r < h; ++r)
        for (std::size_t c = 0; c < w; ++c) {
          const double ph = -2.0 * M_PI *
                            (static_cast<double>(kr * r) / h + static_cast<double>(kc * c) / w);
          const std::complex<double> tw(std::cos(ph), std::sin(ph));
          ref[kr * w + kc] += std::complex<double>(data[r * w + c]) * tw;
        }
  fft_2d(data, h, w, false);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), ref[i].real(), 1e-3);
    EXPECT_NEAR(data[i].imag(), ref[i].imag(), 1e-3);
  }
}

/// Circular 2-D convolution of two real grids through the spectra:
/// irfft_2d(rfft_2d(a) .* rfft_2d(b)).
std::vector<float> circular_convolve(const std::vector<float>& a, const std::vector<float>& b,
                                     std::size_t h, std::size_t w) {
  std::vector<cfloat> fa(h * w), fb(h * w);
  rfft_2d(a.data(), fa.data(), h, w);
  rfft_2d(b.data(), fb.data(), h, w);
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] *= fb[i];
  std::vector<float> out(h * w);
  irfft_2d(fa.data(), out.data(), h, w);
  return out;
}

TEST(Convolve, MatchesBruteForceCircular) {
  const std::size_t h = 8, w = 8;
  Prng rng(13);
  std::vector<float> a(h * w), b(h * w);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const auto out = circular_convolve(a, b, h, w);
  for (std::size_t pr = 0; pr < h; ++pr)
    for (std::size_t pc = 0; pc < w; ++pc) {
      double acc = 0.0;
      for (std::size_t qr = 0; qr < h; ++qr)
        for (std::size_t qc = 0; qc < w; ++qc) {
          const std::size_t br = (pr + h - qr) % h, bc = (pc + w - qc) % w;
          acc += static_cast<double>(a[qr * w + qc]) * b[br * w + bc];
        }
      EXPECT_NEAR(out[pr * w + pc], acc, 1e-3) << pr << "," << pc;
    }
}

TEST(FourierUpsample, ReproducesSamplesOfBandlimitedSignal) {
  // A low-frequency 2-D cosine is exactly reconstructible: the upsampled
  // grid must match the analytic signal at every fine sample.
  const std::size_t n = 16, factor = 4;
  std::vector<float> coarse(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      coarse[r * n + c] = static_cast<float>(
          std::cos(2.0 * M_PI * 2.0 * static_cast<double>(r) / n) *
          std::sin(2.0 * M_PI * 3.0 * static_cast<double>(c) / n));
  const auto fine = fft::fourier_upsample_2d(coarse, n, n, factor);
  const std::size_t on = n * factor;
  for (std::size_t r = 0; r < on; ++r)
    for (std::size_t c = 0; c < on; ++c) {
      const double expect = std::cos(2.0 * M_PI * 2.0 * static_cast<double>(r) / on) *
                            std::sin(2.0 * M_PI * 3.0 * static_cast<double>(c) / on);
      EXPECT_NEAR(fine[r * on + c], expect, 1e-3) << r << "," << c;
    }
}

TEST(FourierUpsample, FactorOneIsIdentity) {
  std::vector<float> in{1, 2, 3, 4};
  EXPECT_EQ(fft::fourier_upsample_2d(in, 2, 2, 1), in);
}

TEST(FourierUpsample, RejectsOneRowAndOneColumnGrids) {
  // A one-row or one-column grid has no Nyquist line to split between its
  // images; the mirror write would land past the end of the output.
  const std::vector<float> ones(8, 1.0f);
  EXPECT_THROW(fft::fourier_upsample_2d(ones, 1, 8, 2), Error);
  EXPECT_THROW(fft::fourier_upsample_2d(ones, 8, 1, 2), Error);
}

TEST(FourierUpsample, PreservesMean) {
  Prng rng(8);
  const std::size_t n = 8;
  std::vector<float> in(n * n);
  for (auto& v : in) v = static_cast<float>(rng.uniform(0, 1));
  const auto out = fft::fourier_upsample_2d(in, n, n, 2);
  double m_in = 0, m_out = 0;
  for (float v : in) m_in += v;
  for (float v : out) m_out += v;
  EXPECT_NEAR(m_in / in.size(), m_out / out.size(), 1e-4);
}

TEST(Convolve, DeltaIsIdentity) {
  const std::size_t n = 16;
  Prng rng(21);
  std::vector<float> a(n * n), delta(n * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  delta[0] = 1.0f;
  const auto out = circular_convolve(a, delta, n, n);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], a[i], 1e-4f);
}

/// FNV-1a 64 over `bytes` bytes at `data`.
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t hash_vec(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

/// Finite values in [-1, 1) with exact zeros of both signs sprinkled in.
std::vector<float> pinned_floats(Prng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.uniform(-1, 1));
    if (i % 7 == 3) v[i] = 0.0f;
    if (i % 11 == 5) v[i] = -0.0f;
  }
  return v;
}

std::vector<cfloat> pinned_complex(Prng& rng, std::size_t n) {
  const std::vector<float> f = pinned_floats(rng, 2 * n);
  std::vector<cfloat> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = {f[2 * i], f[2 * i + 1]};
  return v;
}

struct FftHashes {
  std::uint64_t forward, inverse, rfft, irfft, upsample;
};

/// Every public 2-D transform of one h x w shape on fixed inputs, hashed.
/// fourier_upsample_2d (factor 2) is hashed as 0 unless both dims are >= 2.
FftHashes fft_hashes(std::size_t h, std::size_t w) {
  Prng rng(h * 1000 + w);
  const std::size_t npx = h * w;
  FftHashes out{};
  std::vector<cfloat> c = pinned_complex(rng, npx);
  fft_2d(c, h, w, false);
  out.forward = hash_vec(c);
  c = pinned_complex(rng, npx);
  fft_2d(c, h, w, true);
  out.inverse = hash_vec(c);
  const std::vector<float> x = pinned_floats(rng, npx);
  std::vector<cfloat> spec(npx);
  rfft_2d(x.data(), spec.data(), h, w);
  out.rfft = hash_vec(spec);
  std::vector<float> back(npx);
  irfft_2d(spec.data(), back.data(), h, w);
  out.irfft = hash_vec(back);
  if (h >= 2 && w >= 2) out.upsample = hash_vec(fourier_upsample_2d(x, h, w, 2));
  return out;
}

TEST(FftBytes, PinnedPerArmAtEveryThreadCount) {
  // The transforms' output bytes are fixed per dispatch arm and independent
  // of the pool size: a kernel or pass may be restructured, but must keep
  // every float operation. Shapes cover one-row and one-column grids, the
  // tiny transforms below the vector butterflies, tail lane batches and a
  // litho-sized grid.
  struct Pin {
    SimdLevel arm;
    std::size_t h, w;
    FftHashes want;
  };
  const Pin pins[] = {
      {SimdLevel::kScalar, 1, 8,
       {0xc9690171128c59f2ULL, 0xd547c165de892a73ULL, 0xff8ee625908422abULL,
        0x802d23ee9b9d7478ULL, 0}},
      {SimdLevel::kScalar, 8, 1,
       {0x63e98359d2c8ed29ULL, 0xa0a9f3e0b2a02d36ULL, 0x144868a3c1eeba9cULL,
        0x553a21dce065b626ULL, 0}},
      {SimdLevel::kScalar, 2, 2,
       {0x11e61f271eade800ULL, 0xb788c6ec1155e074ULL, 0xbefbad09d2d7cc00ULL,
        0x3c3ca39bce47820eULL, 0x9a7210985ddaf046ULL}},
      {SimdLevel::kScalar, 16, 4,
       {0xfee277c2e3eb389bULL, 0xdae18491e0b57e27ULL, 0xa59556f0948b95cbULL,
        0x94d39195c647c61cULL, 0x8769b8b0b4399fdfULL}},
      {SimdLevel::kScalar, 32, 64,
       {0xfc0a06e739a1b33aULL, 0x146748ea6b82071cULL, 0xea99f808aab2bb79ULL,
        0x2c89082e5bedbe6fULL, 0x51c6bcb7032b653aULL}},
      {SimdLevel::kScalar, 256, 256,
       {0x696d824af4067eb2ULL, 0x2958af057d8455afULL, 0x207ce5a108ba0034ULL,
        0x1663b68fbe5c0860ULL, 0x501c2afc5d31844dULL}},
      {SimdLevel::kAvx2, 1, 8,
       {0xc9690171128c59f2ULL, 0xd547c165de892a73ULL, 0x431c96177703098fULL,
        0xddc517ca7e606bcaULL, 0}},
      {SimdLevel::kAvx2, 8, 1,
       {0x343c1431afb7211cULL, 0xb22caf138d70067ULL, 0xec92232881620f0ULL,
        0x40acfe718a8a1428ULL, 0}},
      {SimdLevel::kAvx2, 2, 2,
       {0x11e61f271eade800ULL, 0xb788c6ec1155e074ULL, 0xbefbad09d2d7cc00ULL,
        0x3c3ca39bce47820eULL, 0x9a7210985ddaf046ULL}},
      {SimdLevel::kAvx2, 16, 4,
       {0x30ded22fa946c96cULL, 0xda7bdf89f59bf550ULL, 0xd777032e069d07abULL,
        0xc2839f71e5aed13aULL, 0x69cd028273b88695ULL}},
      {SimdLevel::kAvx2, 32, 64,
       {0x5f12c8710dcccfe3ULL, 0x494fe7d0e7c6f38fULL, 0xd027f69e411ec97dULL,
        0x5a7c6830d562057aULL, 0xba3eaf0a9cd2844fULL}},
      {SimdLevel::kAvx2, 256, 256,
       {0xd765670b657f32b5ULL, 0x3fc413ba5a106359ULL, 0x273e21558e77ab74ULL,
        0x50fbb823781ce8a8ULL, 0xbd8003a187d91c64ULL}},
  };
  const SimdLevel saved = simd_level();
  for (const std::size_t t : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool::reset(t);
    for (const Pin& pin : pins) {
      if (pin.arm == SimdLevel::kAvx2 && !cpu_supports_avx2_fma()) continue;
      set_simd_level(pin.arm);
      const FftHashes got = fft_hashes(pin.h, pin.w);
      SCOPED_TRACE(::testing::Message() << simd_level_name(pin.arm) << " " << pin.h << "x"
                                        << pin.w << ", " << t << " threads");
      EXPECT_EQ(got.forward, pin.want.forward) << "fft_2d forward 0x" << std::hex << got.forward;
      EXPECT_EQ(got.inverse, pin.want.inverse) << "fft_2d inverse 0x" << std::hex << got.inverse;
      EXPECT_EQ(got.rfft, pin.want.rfft) << "rfft_2d 0x" << std::hex << got.rfft;
      EXPECT_EQ(got.irfft, pin.want.irfft) << "irfft_2d 0x" << std::hex << got.irfft;
      EXPECT_EQ(got.upsample, pin.want.upsample)
          << "fourier_upsample_2d 0x" << std::hex << got.upsample;
    }
  }
  set_simd_level(saved);
  ThreadPool::reset(ThreadPool::default_thread_count());
  if (!cpu_supports_avx2_fma()) GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar pins checked";
}

}  // namespace
}  // namespace ganopc::fft
