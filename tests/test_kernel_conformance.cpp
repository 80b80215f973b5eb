// Differential kernel-conformance tier (DESIGN.md §12).
//
// The AVX2+FMA arm of the FFT lane kernels is checked against the scalar
// reference across randomized shapes, buffer alignments (offset loads), and
// vector-tail sizes. Error bounds follow from the arms' only legitimate
// divergence — FMA contraction — so they are a few float ULPs relative to
// the value scale, far below any physical tolerance in the pipeline. Each
// arm is additionally asserted to be run-to-run deterministic (bitwise), as
// are the scalar ILT pixel passes. On machines without AVX2+FMA the AVX2
// cases GTEST_SKIP: the scalar arm is the reference and has nothing to
// differ from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"
#include "fft/plan.hpp"
#include "geometry/grid.hpp"
#include "gradcheck.hpp"
#include "ilt/ilt_kernels.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"

namespace ganopc {
namespace {

using fft::cfloat;

bool have_avx2() { return cpu_supports_avx2_fma(); }

#define SKIP_WITHOUT_AVX2() \
  if (!have_avx2()) GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar arm is the reference"

/// Restores the process-wide dispatch level when a test body returns.
struct LevelGuard {
  SimdLevel saved = simd_level();
  ~LevelGuard() { set_simd_level(saved); }
};

/// Start offsets into an over-allocated buffer so unaligned loads are hit.
const std::size_t kOffsets[] = {0, 1, 3};

std::vector<float> random_floats(Prng& rng, std::size_t n, float lo, float hi) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

std::vector<cfloat> random_complex(Prng& rng, std::size_t n) {
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {static_cast<float>(rng.uniform(-1.0, 1.0)),
         static_cast<float>(rng.uniform(-1.0, 1.0))};
  return v;
}

float max_abs_diff(const float* a, const float* b, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

float max_abs_diff(const cfloat* a, const cfloat* b, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

float max_mag(const cfloat* a, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i]));
  return m;
}

// ---------------------------------------------------------------------------
// ILT pixel-pass kernels (one scalar implementation, not dispatched)
// ---------------------------------------------------------------------------

TEST(IltKernelConformance, ChainRuleNonFiniteFlagAgrees) {
  Prng rng(103);
  for (const std::size_t n : {1u, 7u, 8u, 9u, 17u, 64u}) {
    // Poison every position in turn, with both Inf and NaN: the flag must
    // report it wherever it sits.
    for (std::size_t bad = 0; bad < n; ++bad) {
      for (const float poison : {std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN()}) {
        std::vector<float> mb = random_floats(rng, n, 0.2f, 0.8f);
        std::vector<float> gmb = random_floats(rng, n, -1.0f, 1.0f);
        gmb[bad] = poison;
        std::vector<float> g(n);
        float mx = 0.0f;
        bool finite = true;
        ilt::chain_rule(mb.data(), gmb.data(), 4.0f, g.data(), n, &mx, &finite);
        EXPECT_FALSE(finite) << "n=" << n << " bad=" << bad;
      }
    }
  }
}

TEST(IltKernelConformance, ArmsAreRunToRunDeterministic) {
  Prng rng(105);
  const std::size_t n = 1000;
  std::vector<float> p0 = random_floats(rng, n, -2.0f, 2.0f);
  std::vector<float> g = random_floats(rng, n, -1.0f, 1.0f);
  std::vector<float> p1 = p0, p2 = p0, m1(n), m2(n);
  ilt::update_sigmoid(p1.data(), g.data(), 0.25f, 4.0f, m1.data(), n);
  ilt::update_sigmoid(p2.data(), g.data(), 0.25f, 4.0f, m2.data(), n);
  EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), n * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(m1.data(), m2.data(), n * sizeof(float)));
}

// ---------------------------------------------------------------------------
// FFT butterfly kernel and element-wise spectrum ops
// ---------------------------------------------------------------------------

/// n-point split-complex blocks holding kLanes random signals.
std::vector<float> random_blocks(Prng& rng, std::size_t n) {
  return random_floats(rng, fft::kBlock * n, -1.0f, 1.0f);
}

TEST(FftKernelConformance, Avx2ArmIsCompiledWithAvx2) {
#if defined(__x86_64__) || defined(_M_X64)
  SKIP_WITHOUT_AVX2();
  // Built without -mavx2 -mfma, lanes8_avx2.cpp compiles only its #else
  // forwarders and lane_ops_avx2() hands back the scalar table. Every
  // differential case would then compare scalar with scalar and pass, so
  // assert that the AVX2 arm is a table of its own.
  EXPECT_NE(&fft::lane_ops(SimdLevel::kAvx2), &fft::lane_ops(SimdLevel::kScalar))
      << "lanes8_avx2.cpp was built without its AVX2+FMA flags";
#else
  GTEST_SKIP() << "no AVX2 arm on this target";
#endif
}

TEST(FftKernelConformance, FftLanes8MatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const fft::FftLanes8Fn sc = fft::lane_ops(SimdLevel::kScalar).fft;
  const fft::FftLanes8Fn vx = fft::lane_ops(SimdLevel::kAvx2).fft;
  Prng rng(201);
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    const fft::FftPlan& plan = fft::plan_for(n);
    for (const bool inverse : {false, true}) {
      const std::vector<float> x = random_blocks(rng, n);
      std::vector<float> bs = x, bv = x;
      sc(bs.data(), plan, inverse);
      vx(bv.data(), plan, inverse);
      float scale = 1e-6f;
      for (const float v : bs) scale = std::max(scale, std::abs(v));
      EXPECT_LE(max_abs_diff(bs.data(), bv.data(), bs.size()), 1e-5f * scale)
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

/// Lane j of split block `b`.
cfloat lane_of(const float* b, std::size_t j) { return {b[j], b[fft::kLanes + j]}; }

TEST(FftKernelConformance, LaneOpsAreBitwiseTheInterleavedArithmetic) {
  // Each split-block kernel must give every lane exactly the arithmetic of
  // its arm on one interleaved complex value: std::complex expressions on
  // the scalar arm; on the AVX2 arm one rounded product inside an fma and
  // double-precision fma accumulation. The references spell those out with
  // std::fma, which rounds once like the instructions.
  Prng rng(209);
  const std::size_t kB = fft::kBlock, kL = fft::kLanes;
  for (const SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (lvl == SimdLevel::kAvx2 && !have_avx2()) continue;
    const bool avx2 = lvl == SimdLevel::kAvx2;
    const fft::LaneOps& ops = fft::lane_ops(lvl);
    for (const std::size_t count : {1u, 2u, 5u, 32u}) {
      for (const std::size_t off : kOffsets) {
        SCOPED_TRACE(::testing::Message() << simd_level_name(lvl) << " count=" << count
                                          << " off=" << off);
        std::vector<float> a = random_floats(rng, kB * count + off, -1.0f, 1.0f);
        const std::vector<float> b = random_floats(rng, kB * count + off, -1.0f, 1.0f);
        const std::vector<float> x = random_floats(rng, kL * count + off, -1.0f, 1.0f);
        a[off] = 0.0f;  // exact zeros keep their sign rules
        a[off + kL] = -0.0f;
        std::vector<float> out(kB * count + off);
        std::vector<double> acc(kL * count + off, 0.25), ref_acc = acc;

        ops.cmul(a.data() + off, b.data() + off, out.data() + off, count);
        for (std::size_t i = 0; i < count; ++i)
          for (std::size_t j = 0; j < kL; ++j) {
            const cfloat va = lane_of(a.data() + off + kB * i, j);
            const cfloat vb = lane_of(b.data() + off + kB * i, j);
            const cfloat want =
                avx2 ? cfloat(std::fma(va.real(), vb.real(), -(va.imag() * vb.imag())),
                              std::fma(va.real(), vb.imag(), va.imag() * vb.real()))
                     : va * vb;
            const cfloat got = lane_of(out.data() + off + kB * i, j);
            ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(cfloat))) << "cmul " << i << "," << j;
          }

        ops.cmul_conj_real(x.data() + off, a.data() + off, out.data() + off, count);
        for (std::size_t i = 0; i < count; ++i)
          for (std::size_t j = 0; j < kL; ++j) {
            const cfloat want = x[off + kL * i + j] * std::conj(lane_of(a.data() + off + kB * i, j));
            const cfloat got = lane_of(out.data() + off + kB * i, j);
            ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(cfloat)))
                << "cmul_conj_real " << i << "," << j;
          }

        ops.norm_weighted_accum(a.data() + off, 0.37, acc.data() + off, count);
        ops.real_weighted_accum(b.data() + off, 0.59, acc.data() + off, count);
        for (std::size_t i = 0; i < count; ++i)
          for (std::size_t j = 0; j < kL; ++j) {
            const cfloat va = lane_of(a.data() + off + kB * i, j);
            const float re = b[off + kB * i + j];
            double& r = ref_acc[off + kL * i + j];
            if (avx2) {
              const float sq_re = va.real() * va.real(), sq_im = va.imag() * va.imag();
              r = std::fma(0.37, static_cast<double>(sq_re + sq_im), r);
              r = std::fma(0.59, static_cast<double>(re), r);
            } else {
              r += 0.37 * std::norm(va);
              r += 0.59 * re;
            }
            ASSERT_EQ(0, std::memcmp(&acc[off + kL * i + j], &r, sizeof(double)))
                << "weighted accumulation " << i << "," << j;
          }
      }
    }
  }
}

TEST(FftKernelConformance, RealFftAgreesWithComplexReference) {
  // Algebraic check per arm: rfft_2d must equal fft_2d on the real-promoted
  // input, and irfft_2d must invert it. Runs on the scalar arm always and the
  // AVX2 arm when the CPU has it.
  Prng rng(203);
  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  for (const SimdLevel lvl : arms) {
    LevelGuard guard;
    set_simd_level(lvl);
    const std::size_t dims[][2] = {{1, 8}, {2, 4}, {4, 4}, {8, 32}, {16, 16}, {32, 8}};
    for (const auto& hw : dims) {
      const std::size_t h = hw[0], w = hw[1], npx = h * w;
      const std::vector<float> x = random_floats(rng, npx, -1.0f, 1.0f);
      std::vector<cfloat> ref(npx);
      for (std::size_t i = 0; i < npx; ++i) ref[i] = {x[i], 0.0f};
      fft::fft_2d(ref.data(), h, w, /*inverse=*/false);

      std::vector<cfloat> spec(npx);
      fft::rfft_2d(x.data(), spec.data(), h, w);
      const float scale = std::max(max_mag(ref.data(), npx), 1e-6f);
      EXPECT_LE(max_abs_diff(ref.data(), spec.data(), npx), 1e-5f * scale)
          << simd_level_name(lvl) << " rfft " << h << "x" << w;

      std::vector<float> back(npx);
      fft::irfft_2d(spec.data(), back.data(), h, w);
      EXPECT_LE(max_abs_diff(back.data(), x.data(), npx), 1e-5f * scale)
          << simd_level_name(lvl) << " irfft " << h << "x" << w;
    }
  }
}

TEST(FftKernelConformance, CrossArmRealFftMatches) {
  SKIP_WITHOUT_AVX2();
  Prng rng(204);
  const std::size_t h = 32, w = 32, npx = h * w;
  const std::vector<float> x = random_floats(rng, npx, -1.0f, 1.0f);
  std::vector<cfloat> ss(npx), sv(npx);
  {
    LevelGuard guard;
    set_simd_level(SimdLevel::kScalar);
    fft::rfft_2d(x.data(), ss.data(), h, w);
    set_simd_level(SimdLevel::kAvx2);
    fft::rfft_2d(x.data(), sv.data(), h, w);
  }
  const float scale = std::max(max_mag(ss.data(), npx), 1e-6f);
  EXPECT_LE(max_abs_diff(ss.data(), sv.data(), npx), 1e-5f * scale);
}

TEST(FftKernelConformance, ArmsAreRunToRunDeterministic) {
  Prng rng(205);
  std::vector<fft::FftLanes8Fn> arms = {fft::lane_ops(SimdLevel::kScalar).fft};
  if (have_avx2()) arms.push_back(fft::lane_ops(SimdLevel::kAvx2).fft);
  const std::size_t n = 512;
  const fft::FftPlan& plan = fft::plan_for(n);
  const std::vector<float> x = random_blocks(rng, n);
  for (const auto fn : arms) {
    std::vector<float> b1 = x, b2 = x;
    fn(b1.data(), plan, false);
    fn(b2.data(), plan, false);
    EXPECT_EQ(0, std::memcmp(b1.data(), b2.data(), x.size() * sizeof(float)));
  }
}

// ---------------------------------------------------------------------------
// Split-complex batch kernel: fft_lanes8 lane by lane against one-signal
// references
// ---------------------------------------------------------------------------

/// The dispatch arms present on this machine.
std::vector<SimdLevel> present_arms() {
  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  return arms;
}

/// The AVX2 arm's per-lane arithmetic on one interleaved signal, spelled
/// with std::fma (which rounds once, like the fused instructions): the
/// len-2 stage adds u + v and u + (-v), the len-4 stage multiplies by the
/// literal twiddles (1,0) and (0,-+1), the general stages by the per-stage
/// twiddles, each product v*w as (fma(vr, wr, -vi*wi), fma(vr, wi, vi*wr)),
/// and the inverse scales by 1/n. Below 4 points that arm runs the scalar
/// kernel.
void fft_fma_reference(cfloat* a, const fft::FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  if (n < 4) {
    fft::fft_inplace_scalar(a, plan, inverse);
    return;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  const auto mul = [](cfloat v, float wr, float wi) {
    return cfloat(std::fma(v.real(), wr, -(v.imag() * wi)),
                  std::fma(v.real(), wi, v.imag() * wr));
  };
  for (std::size_t p = 0; p < n; p += 2) {
    const cfloat u = a[p], v = a[p + 1];
    a[p] = u + v;
    a[p + 1] = u + (-v);
  }
  const float w1im = inverse ? 1.0f : -1.0f;
  for (std::size_t p = 0; p < n; p += 4) {
    const cfloat a0 = a[p], a1 = a[p + 1];
    const cfloat v0 = mul(a[p + 2], 1.0f, 0.0f), v1 = mul(a[p + 3], 0.0f, w1im);
    a[p] = a0 + v0;
    a[p + 1] = a1 + v1;
    a[p + 2] = a0 + (-v0);
    a[p + 3] = a1 + (-v1);
  }
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cfloat* tw = plan.stage_twiddle.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len)
      for (std::size_t k = 0; k < half; ++k) {
        const float wi = inverse ? -tw[k].imag() : tw[k].imag();
        const cfloat u = a[i + k], v = mul(a[i + k + half], tw[k].real(), wi);
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = {a[i].real() * inv_n, a[i].imag() * inv_n};
  }
}

using ReferenceFn = void (*)(cfloat* a, const fft::FftPlan& plan, bool inverse);

/// The one-signal transform each lane of `lvl`'s fft_lanes8 must equal.
ReferenceFn reference_fft(SimdLevel lvl) {
  return lvl == SimdLevel::kAvx2 ? fft_fma_reference : fft::fft_inplace_scalar;
}

/// Line `i` of a grid (row i when `rows`, else column i) run through
/// `reference`.
std::vector<cfloat> reference_line(ReferenceFn reference, const cfloat* grid, std::size_t n,
                                   std::size_t w, std::size_t i, bool rows, bool inverse) {
  std::vector<cfloat> line(n);
  for (std::size_t p = 0; p < n; ++p) line[p] = rows ? grid[i * n + p] : grid[p * w + i];
  reference(line.data(), fft::plan_for(n), inverse);
  return line;
}

TEST(FftLanes8Conformance, EveryLaneIsBitwiseTheReference) {
  // Lines of an n-point axis: `lines` = 13 columns of an n x 13 grid, or 13
  // rows of a 13 x n grid. Every lane count 1..8, adjacent and spread lines.
  const std::size_t lines = 13;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t l = 1; l <= fft::kLanes; ++l) {
    std::vector<std::size_t> adjacent, spread;
    for (std::size_t j = 0; j < l; ++j) {
      adjacent.push_back(lines - l + j);
      spread.push_back((j * 5 + l) % lines);
    }
    std::sort(spread.begin(), spread.end());
    spread.erase(std::unique(spread.begin(), spread.end()), spread.end());
    groups.push_back(adjacent);
    groups.push_back(spread);
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const SimdLevel lvl : present_arms()) {
    const fft::FftLanes8Fn lanes8 = fft::lane_ops(lvl).fft;
    const ReferenceFn reference = reference_fft(lvl);
    Prng rng(207);
    for (std::size_t n = 1; n <= 1024; n *= 2) {
      const fft::FftPlan& plan = fft::plan_for(n);
      for (const bool rows : {false, true}) {
        for (const bool inverse : {false, true}) {
          for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            const std::vector<std::size_t>& sel = groups[gi];
            // Unaligned grid and blocks: start 0, 1 or 3 elements past the
            // allocation.
            const std::size_t off = kOffsets[gi % std::size(kOffsets)];
            SCOPED_TRACE(::testing::Message()
                         << simd_level_name(lvl) << " n=" << n << " rows=" << rows
                         << " inverse=" << inverse << " group=" << gi << " off=" << off);
            std::vector<cfloat> buf = random_complex(rng, n * lines + off);
            cfloat* grid = buf.data() + off;
            // Exact zeros of both signs, which the butterflies must carry
            // through exactly as the reference does: sparse in every line,
            // and in every third line all but every fifth point, so zeros
            // meet zeros in every stage, as in a band-limited spectrum.
            const auto index = [&](std::size_t p, std::size_t i) {
              return rows ? i * n + p : p * lines + i;
            };
            for (std::size_t i = 0; i < n * lines; i += 7) grid[i] = {0.0f, -0.0f};
            for (std::size_t i = 0; i < lines; i += 3)
              for (std::size_t p = 0; p < n; ++p)
                if (p % 5 != 0)
                  grid[index(p, i)] = {rng.uniform(0.0, 1.0) < 0.5 ? 0.0f : -0.0f,
                                       rng.uniform(0.0, 1.0) < 0.5 ? 0.0f : -0.0f};
            const std::vector<cfloat> before = buf;

            fft::LaneGroup g;
            g.lanes = sel.size();
            g.stride = rows ? 1 : lines;
            for (std::size_t j = 0; j < sel.size(); ++j)
              g.lane[j] = grid + (rows ? sel[j] * n : sel[j]);
            std::vector<float> blocks(fft::kBlock * n + off, nan);
            fft::gather_lanes(g, plan, blocks.data() + off);
            lanes8(blocks.data() + off, plan, inverse);
            fft::scatter_lanes(g, n, blocks.data() + off);

            for (std::size_t i = 0; i < lines; ++i) {
              const bool listed = std::find(sel.begin(), sel.end(), i) != sel.end();
              const std::vector<cfloat> ref =
                  listed ? reference_line(reference, before.data() + off, n, lines, i, rows,
                                          inverse)
                         : std::vector<cfloat>();
              for (std::size_t p = 0; p < n; ++p) {
                const cfloat& want = listed ? ref[p] : before[off + index(p, i)];
                ASSERT_EQ(0, std::memcmp(&grid[index(p, i)], &want, sizeof(cfloat)))
                    << (listed ? "line " : "unlisted line ") << i << " point " << p;
              }
            }
          }
        }
      }
    }
  }
}

TEST(FftLanes8Conformance, TwoDimensionalPassesAreBitwisePerLineTransforms) {
  // The 2-D passes end to end: batching, tail batches and thread chunking
  // must not move a bit against one reference transform per row, then per
  // column. Power-of-two passes leave tail batches of 1, 2 and 4 lines; the
  // other tail sizes come from the SOCS support lists (BandLimitedFft below).
  const std::size_t dims[][2] = {{1, 16}, {8, 1}, {2, 8}, {16, 4}, {4, 2}, {32, 64}, {256, 32}};
  for (const SimdLevel lvl : present_arms()) {
    LevelGuard guard;
    set_simd_level(lvl);
    const ReferenceFn reference = reference_fft(lvl);
    for (const std::size_t threads : {1u, 3u}) {
      ThreadPool::reset(threads);
      Prng rng(208);
      for (const auto& hw : dims) {
        const std::size_t h = hw[0], w = hw[1], npx = h * w;
        SCOPED_TRACE(::testing::Message() << simd_level_name(lvl) << " threads=" << threads
                                          << " " << h << "x" << w);
        for (const bool inverse : {false, true}) {
          const std::vector<cfloat> x = random_complex(rng, npx);
          std::vector<cfloat> ref = x, got = x;
          for (std::size_t r = 0; r < h; ++r) reference(ref.data() + r * w, fft::plan_for(w), inverse);
          const std::vector<cfloat> rows_done = ref;
          for (std::size_t c = 0; c < w; ++c) {
            const std::vector<cfloat> col =
                reference_line(reference, rows_done.data(), h, w, c, false, inverse);
            for (std::size_t r = 0; r < h; ++r) ref[r * w + c] = col[r];
          }
          fft::fft_2d(got.data(), h, w, inverse);
          EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), npx * sizeof(cfloat)))
              << "fft_2d inverse=" << inverse;
        }
      }
    }
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

// ---------------------------------------------------------------------------
// Band-limited SOCS passes: aerial_into / gradient_into against dense fft_2d
// ---------------------------------------------------------------------------

/// A list of `count` indices of an n-point axis starting at `first`,
/// wrapping past n - 1 to 0, in ascending order.
std::vector<std::size_t> wrapped_run(std::size_t first, std::size_t count, std::size_t n) {
  std::vector<std::size_t> list;
  for (std::size_t i = 0; i < count; ++i) list.push_back((first + i) % n);
  std::sort(list.begin(), list.end());
  return list;
}

/// Every support shape the band-limited passes can be handed on an n x n
/// grid, one kernel each: empty, a single bin, a disk wrapped around DC,
/// random rows and columns, the full grid, and R rows by C columns for
/// R = 1..9 against C = 9..1, so every tail batch of 1..7 support rows and
/// columns is run.
std::vector<litho::SocsKernels::Support> support_shapes(Prng& rng, std::size_t n) {
  std::vector<litho::SocsKernels::Support> shapes(5);
  shapes[1] = {{n / 2 + 1}, {n - 1}};
  const std::size_t k = std::max<std::size_t>(n / 8, 1);
  shapes[2] = {wrapped_run(n - k, 2 * k + 1, n), wrapped_run(n - k, 2 * k + 1, n)};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.3) shapes[3].rows.push_back(i);
    if (rng.uniform(0.0, 1.0) < 0.3) shapes[3].cols.push_back(i);
  }
  if (shapes[3].rows.empty()) shapes[3].rows.push_back(0);
  if (shapes[3].cols.empty()) shapes[3].cols.push_back(0);
  shapes[4] = {wrapped_run(0, n, n), wrapped_run(0, n, n)};
  for (std::size_t r = 1; r <= 9; ++r) {
    const std::size_t c = 10 - r;
    shapes.push_back({wrapped_run(3 * r, std::min(r, n), n), wrapped_run(n - 2, std::min(c, n), n)});
  }
  return shapes;
}

/// Kernel spectra holding random nonzero values exactly on each shape's
/// rows x columns, with nonincreasing weights.
litho::TccKernelSet shaped_set(Prng& rng, std::size_t n,
                               const std::vector<litho::SocsKernels::Support>& shapes) {
  litho::TccKernelSet set;
  set.captured_energy = 1.0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    std::vector<cfloat> hat(n * n);
    for (const std::size_t r : shapes[s].rows)
      for (const std::size_t c : shapes[s].cols)
        hat[r * n + c] = {static_cast<float>(rng.uniform(0.1, 1.0)),
                          static_cast<float>(rng.uniform(-1.0, -0.1))};
    set.kernels_hat.push_back(std::move(hat));
    set.weights.push_back(1.0f / static_cast<float>(s + 1));
  }
  return set;
}

/// Interleaved complex pixels as split blocks of 8 consecutive pixels.
std::vector<float> to_blocks(const std::vector<cfloat>& v) {
  std::vector<float> b(v.size() * 2);
  for (std::size_t p = 0; p < v.size(); ++p) {
    b[(p / fft::kLanes) * fft::kBlock + p % fft::kLanes] = v[p].real();
    b[(p / fft::kLanes) * fft::kBlock + fft::kLanes + p % fft::kLanes] = v[p].imag();
  }
  return b;
}

std::vector<cfloat> from_blocks(const std::vector<float>& b) {
  std::vector<cfloat> v(b.size() / 2);
  for (std::size_t p = 0; p < v.size(); ++p)
    v[p] = {b[(p / fft::kLanes) * fft::kBlock + p % fft::kLanes],
            b[(p / fft::kLanes) * fft::kBlock + fft::kLanes + p % fft::kLanes]};
  return v;
}

/// H(-f) of an n x n spectrum: bin (r, c) holds H at ((n - r) % n, (n - c) % n).
std::vector<cfloat> negated_frequencies(const std::vector<cfloat>& hat, std::size_t n) {
  std::vector<cfloat> out(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out[r * n + c] = hat[((n - r) % n) * n + (n - c) % n];
  return out;
}

/// Eq. 2 and the Eq. 14 gradient the dense way, every transform a full
/// fft_2d, with the same per-pixel arithmetic and summation order as the
/// band-limited passes (the LaneOps kernels of the active arm). The skipped
/// transforms only ever see exact zeros, so the results must match bit for
/// bit.
struct DenseSocs {
  std::vector<float> aerial;
  std::vector<float> gradient;
};

DenseSocs dense_socs(const litho::SocsKernels& kernels,
                     const std::vector<std::vector<cfloat>>& hats, const geom::Grid& mask,
                     const geom::Grid& target, std::span<const float> doses, float threshold,
                     float alpha) {
  const auto n = static_cast<std::size_t>(kernels.grid_size());
  const std::size_t npx = n * n;
  const fft::LaneOps& ops = fft::lane_ops();
  std::vector<cfloat> mask_hat(npx);
  fft::rfft_2d(mask.data.data(), mask_hat.data(), n, n);
  std::vector<std::vector<float>> fields;
  std::vector<double> acc(npx, 0.0);
  const std::size_t blocks = npx / fft::kLanes;
  for (int k = 0; k < kernels.count(); ++k) {
    std::vector<float> product(2 * npx);
    const auto& hat = hats[static_cast<std::size_t>(k)];
    ops.cmul(to_blocks(mask_hat).data(), to_blocks(hat).data(), product.data(), blocks);
    std::vector<cfloat> a = from_blocks(product);
    fft::fft_2d(a, n, n, /*inverse=*/true);
    fields.push_back(to_blocks(a));
    ops.norm_weighted_accum(fields.back().data(), kernels.weight(k), acc.data(), blocks);
  }
  DenseSocs out;
  out.aerial.resize(npx);
  for (std::size_t p = 0; p < npx; ++p) out.aerial[p] = static_cast<float>(acc[p]);

  std::fill(acc.begin(), acc.end(), 0.0);
  std::vector<float> x(npx), y(2 * npx);
  for (const float dose : doses) {
    for (std::size_t p = 0; p < npx; ++p) {
      const float z = 1.0f / (1.0f + std::exp(-alpha * (out.aerial[p] * dose - threshold)));
      x[p] = 2.0f * (z - target.data[p]) * alpha * dose * z * (1.0f - z);
    }
    for (int k = 0; k < kernels.count(); ++k) {
      ops.cmul_conj_real(x.data(), fields[static_cast<std::size_t>(k)].data(), y.data(),
                         blocks);
      std::vector<cfloat> b = from_blocks(y);
      fft::fft_2d(b, n, n, /*inverse=*/false);
      std::vector<float> product = to_blocks(b);
      const auto& hat = hats[static_cast<std::size_t>(k)];
      ops.cmul(product.data(), to_blocks(negated_frequencies(hat, n)).data(), product.data(),
               blocks);
      b = from_blocks(product);
      fft::fft_2d(b, n, n, /*inverse=*/true);
      ops.real_weighted_accum(to_blocks(b).data(), 2.0 * kernels.weight(k), acc.data(), blocks);
    }
  }
  out.gradient.resize(npx);
  const double inv_d = 1.0 / static_cast<double>(doses.size());
  for (std::size_t p = 0; p < npx; ++p) out.gradient[p] = static_cast<float>(acc[p] * inv_d);
  return out;
}

TEST(BandLimitedFft, SocsPassesEqualDenseTransformsOnEveryArmAndThreadCount) {
  const std::int32_t pixel = 16;
  const float doses[] = {0.98f, 1.0f, 1.02f};
  for (const std::int32_t grid : {4, 16, 64}) {
    Prng rng(206 + static_cast<std::uint64_t>(grid));
    const auto n = static_cast<std::size_t>(grid);
    const litho::TccKernelSet set = shaped_set(rng, n, support_shapes(rng, n));
    const litho::SocsKernels kernels(litho::OpticsConfig{}, grid, pixel, set);
    geom::Grid mask(grid, grid, pixel), target(grid, grid, pixel);
    for (auto& v : mask.data) v = rng.uniform(0.0, 1.0) < 0.4 ? 1.0f : 0.0f;
    for (auto& v : target.data) v = rng.uniform(0.0, 1.0) < 0.4 ? 1.0f : 0.0f;
    litho::ResistConfig resist;
    resist.threshold = 0.05f;
    const litho::LithoSim sim(kernels, resist);
    for (const SimdLevel lvl : present_arms()) {
      LevelGuard guard;
      set_simd_level(lvl);
      const DenseSocs want =
          dense_socs(kernels, set.kernels_hat, mask, target, doses, sim.threshold(),
                     resist.sigmoid_alpha);
      ASSERT_GT(*std::max_element(want.aerial.begin(), want.aerial.end()), 0.0f);
      for (const std::size_t threads : {1u, 3u, 4u}) {
        ThreadPool::reset(threads);
        SCOPED_TRACE(::testing::Message()
                     << simd_level_name(lvl) << " threads=" << threads << " grid=" << grid);
        litho::LithoWorkspace ws;
        geom::Grid aerial, grad;
        sim.aerial_into(mask, aerial, ws);
        EXPECT_EQ(0, std::memcmp(aerial.data.data(), want.aerial.data(), n * n * sizeof(float)));
        sim.gradient_into(mask, target, doses, grad, ws);
        EXPECT_EQ(0, std::memcmp(grad.data.data(), want.gradient.data(), n * n * sizeof(float)));
      }
    }
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

/// Rows and columns of an n x n spectrum holding a nonzero bin, by brute force.
litho::SocsKernels::Support scan_support(const std::vector<cfloat>& hat, std::size_t n) {
  litho::SocsKernels::Support s;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (hat[r * n + c] != cfloat{}) {
        s.rows.push_back(r);
        break;
      }
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      if (hat[r * n + c] != cfloat{}) {
        s.cols.push_back(c);
        break;
      }
  return s;
}

/// A kernel set and the dense n x n spectrum of each of its kernels, the
/// latter computed without SocsKernels.
struct ReferenceSet {
  litho::SocsKernels kernels;
  std::vector<std::vector<cfloat>> hats;
};

/// The Abbe constructor's kernels and their spectra the dense way: the
/// pupil at every bin of the grid, shifted by each source point, where the
/// constructor visits only each pupil's bounding box.
ReferenceSet abbe_reference(const litho::OpticsConfig& optics, std::int32_t grid,
                            std::int32_t pixel) {
  const auto n = static_cast<std::size_t>(grid);
  const double df = 1.0 / (static_cast<double>(grid) * pixel);
  std::vector<std::vector<cfloat>> hats;
  for (const auto& p : litho::sample_annular_source(optics, optics.num_kernels)) {
    std::vector<cfloat> hat(n * n);
    for (std::int32_t r = 0; r < grid; ++r)
      for (std::int32_t c = 0; c < grid; ++c) {
        const std::int32_t rr = r <= grid / 2 ? r : r - grid;
        const std::int32_t cc = c <= grid / 2 ? c : c - grid;
        const std::complex<double> v = litho::pupil(optics, cc * df + p.fx, rr * df + p.fy);
        const cfloat bin{static_cast<float>(v.real()), static_cast<float>(v.imag())};
        if (bin != cfloat{}) hat[static_cast<std::size_t>(r * grid + c)] = bin;
      }
    hats.push_back(std::move(hat));
  }
  return {litho::SocsKernels(optics, grid, pixel), std::move(hats)};
}

/// The `tcc:<k>` spec's kernels and the eigensolver's dense spectra they
/// were adopted from.
ReferenceSet tcc_reference(const litho::OpticsConfig& optics, std::int32_t grid,
                           std::int32_t pixel, int k) {
  litho::TccOptions opts;
  opts.source_points = litho::sample_annular_source(optics, optics.num_kernels);
  return {litho::parse_litho_backend("tcc:" + std::to_string(k)).build(optics, grid, pixel),
          litho::compute_tcc_kernels(optics, grid, pixel, k, opts).kernels_hat};
}

TEST(BandLimitedFft, KernelSupportMatchesBruteForceScan) {
  litho::OpticsConfig focused;
  focused.num_kernels = 12;
  litho::OpticsConfig defocused = focused;
  defocused.defocus_nm = 60.0;
  const std::int32_t grid = 64, pixel = 16;
  const ReferenceSet sets[] = {
      abbe_reference(focused, grid, pixel),
      abbe_reference(defocused, grid, pixel),
      tcc_reference(focused, grid, pixel, 8),
  };
  const auto n = static_cast<std::size_t>(grid);
  for (std::size_t s = 0; s < std::size(sets); ++s) {
    const litho::SocsKernels& kernels = sets[s].kernels;
    ASSERT_EQ(static_cast<std::size_t>(kernels.count()), sets[s].hats.size());
    for (int k = 0; k < kernels.count(); ++k) {
      SCOPED_TRACE(::testing::Message() << "set " << s << " kernel " << k);
      const auto& hat = sets[s].hats[static_cast<std::size_t>(k)];
      const auto flipped = negated_frequencies(hat, n);
      const auto& sup = kernels.support(k);
      const auto& sup_f = kernels.support_flipped(k);
      const auto scanned = scan_support(hat, n);
      EXPECT_EQ(sup.rows, scanned.rows);
      EXPECT_EQ(sup.cols, scanned.cols);
      EXPECT_FALSE(sup.rows.empty());
      EXPECT_LT(sup.rows.size(), n) << "a pupil disk never fills the grid";
      // The flipped kernel's lists scan H(-f) and are the mirrors of the
      // kernel's.
      const auto scanned_f = scan_support(flipped, n);
      EXPECT_EQ(sup_f.rows, scanned_f.rows);
      EXPECT_EQ(sup_f.cols, scanned_f.cols);
      for (const std::size_t r : sup.rows)
        EXPECT_TRUE(std::binary_search(sup_f.rows.begin(), sup_f.rows.end(), (n - r) % n));
      for (const std::size_t c : sup.cols)
        EXPECT_TRUE(std::binary_search(sup_f.cols.begin(), sup_f.cols.end(), (n - c) % n));
      EXPECT_EQ(sup_f.rows.size(), sup.rows.size());
      EXPECT_EQ(sup_f.cols.size(), sup.cols.size());
    }
  }
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Lanes of `blocks` (SocsKernels::operand layout over support `s`) whose
/// bits differ from `spectrum` at (s.rows[i], s.cols[c]), or from +0.0f for
/// the slots i past the last row; the first one is described in `first`.
std::size_t operand_mismatches(const litho::SocsKernels::Support& s,
                               std::span<const float> blocks,
                               const std::vector<cfloat>& spectrum, std::size_t n,
                               std::string& first) {
  const std::size_t nc = s.cols.size(), slots = fft::lane_groups(s.rows.size()) * fft::kLanes;
  if (blocks.size() != slots / fft::kLanes * nc * fft::kBlock) {
    first = "operand holds " + std::to_string(blocks.size()) + " floats";
    return 1;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < slots; ++i)
    for (std::size_t c = 0; c < nc; ++c) {
      const float* lane =
          blocks.data() + (i / fft::kLanes * nc + c) * fft::kBlock + i % fft::kLanes;
      const cfloat want = i < s.rows.size() ? spectrum[s.rows[i] * n + s.cols[c]] : cfloat{};
      if (same_bits(lane[0], want.real()) && same_bits(lane[fft::kLanes], want.imag())) continue;
      if (bad++ == 0)
        first = "row slot " + std::to_string(i) + ", column " + std::to_string(c) + ": got (" +
                std::to_string(lane[0]) + ", " + std::to_string(lane[fft::kLanes]) + ")";
    }
  return bad;
}

TEST(BandLimitedFft, OperandBlocksAreTheSpectrumOnItsSupport) {
  // Every lane of every kernel's forward and flipped operand blocks, bitwise
  // against a dense spectrum built without SocsKernels: H at support rows x
  // support columns, H(-f) at the flipped support, +0.0f past the last row.
  litho::OpticsConfig focused;
  litho::OpticsConfig defocused = focused;
  defocused.defocus_nm = 60.0;
  Prng rng(27);
  const std::size_t shaped_n = 16;
  litho::TccKernelSet shaped = shaped_set(rng, shaped_n, support_shapes(rng, shaped_n));
  std::vector<std::vector<cfloat>> shaped_hats = shaped.kernels_hat;
  const ReferenceSet sets[] = {
      abbe_reference(focused, 256, 8),
      abbe_reference(defocused, 256, 8),
      tcc_reference(focused, 128, 16, 8),
      {litho::SocsKernels(focused, static_cast<std::int32_t>(shaped_n), 16, std::move(shaped)),
       std::move(shaped_hats)},
  };
  for (std::size_t s = 0; s < std::size(sets); ++s) {
    const litho::SocsKernels& kernels = sets[s].kernels;
    const auto n = static_cast<std::size_t>(kernels.grid_size());
    ASSERT_EQ(static_cast<std::size_t>(kernels.count()), sets[s].hats.size());
    for (int k = 0; k < kernels.count(); ++k) {
      SCOPED_TRACE(::testing::Message() << "set " << s << " kernel " << k);
      const auto& hat = sets[s].hats[static_cast<std::size_t>(k)];
      const auto scanned = scan_support(hat, n);
      EXPECT_EQ(kernels.support(k).rows, scanned.rows);
      EXPECT_EQ(kernels.support(k).cols, scanned.cols);
      std::string first;
      EXPECT_EQ(0u, operand_mismatches(kernels.support(k), kernels.operand(k), hat, n, first))
          << "forward: " << first;
      EXPECT_EQ(0u, operand_mismatches(kernels.support_flipped(k), kernels.operand_flipped(k),
                                       negated_frequencies(hat, n), n, first))
          << "flipped: " << first;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused ILT gradient pass: finite-difference check under each dispatch arm
// (the pixel passes are scalar; the arm selects the litho gradient's FFTs)
// ---------------------------------------------------------------------------

TEST(IltFusedGradcheck, MatchesFiniteDifferencesPerArm) {
  litho::OpticsConfig optics;
  optics.num_kernels = 6;
  const litho::LithoSim sim(optics, litho::ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 8; r < 24; ++r)
    for (std::int32_t c = 12; c < 20; ++c) target.at(r, c) = 1.0f;
  const std::size_t npx = target.data.size();
  const float beta = 4.0f;

  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  for (const SimdLevel lvl : arms) {
    SCOPED_TRACE(simd_level_name(lvl));
    LevelGuard guard;
    set_simd_level(lvl);

    // A smooth parameter point away from sigmoid saturation.
    Prng rng(401);
    std::vector<float> p(npx);
    for (std::size_t i = 0; i < npx; ++i)
      p[i] = 0.8f * target.data[i] - 0.4f +
             static_cast<float>(rng.uniform(-0.05, 0.05));

    geom::Grid mask_b(32, 32, 32);
    ilt::sigmoid_relax(p.data(), beta, mask_b.data.data(), npx);
    litho::LithoWorkspace ws;
    geom::Grid grad_mb;
    const float doses[1] = {1.0f};
    sim.gradient_into(mask_b, target, doses, grad_mb, ws);

    std::vector<float> grad_p(npx);
    float max_abs = 0.0f;
    bool finite = false;
    ilt::chain_rule(mask_b.data.data(), grad_mb.data.data(), beta, grad_p.data(), npx,
                    &max_abs, &finite);
    ASSERT_TRUE(finite);
    EXPECT_GT(max_abs, 0.0f);

    auto loss = [&](const std::vector<float>& pv) {
      geom::Grid mb(32, 32, 32);
      ilt::sigmoid_relax(pv.data(), beta, mb.data.data(), npx);
      return sim.forward_relaxed(mb, target).error;
    };
    testing::check_vector_gradient(loss, p, grad_p, rng);
  }
}

}  // namespace
}  // namespace ganopc
