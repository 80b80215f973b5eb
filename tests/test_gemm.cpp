#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/prng.hpp"
#include "nn/gemm.hpp"

namespace ganopc::nn {
namespace {

// Naive reference for op(A)*op(B).
std::vector<float> ref_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
                            float alpha, const std::vector<float>& a, std::size_t lda,
                            const std::vector<float>& b, std::size_t ldb, float beta,
                            std::vector<float> c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = static_cast<float>(alpha * acc + beta * c[i * ldc + j]);
    }
  return c;
}

std::vector<float> random_vec(std::size_t n, Prng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [mi, ni, ki, ta, tb] = GetParam();
  const std::size_t m = mi, n = ni, k = ki;
  Prng rng(m * 1000 + n * 100 + k + ta * 2 + tb);
  // Stored dims: A is m x k (or k x m when transposed); likewise for B.
  const std::size_t lda = ta ? m : k;
  const std::size_t ldb = tb ? k : n;
  const auto a = random_vec((ta ? k : m) * lda, rng);
  const auto b = random_vec((tb ? n : k) * ldb, rng);
  auto c = random_vec(m * n, rng);
  const auto expected = ref_gemm(ta, tb, m, n, k, 1.5f, a, lda, b, ldb, 0.5f, c, n);
  sgemm(ta, tb, m, n, k, 1.5f, a.data(), lda, b.data(), ldb, 0.5f, c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expected[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, false, false),
                      std::make_tuple(3, 5, 7, false, false),
                      std::make_tuple(3, 5, 7, true, false),
                      std::make_tuple(3, 5, 7, false, true),
                      std::make_tuple(3, 5, 7, true, true),
                      std::make_tuple(64, 64, 64, false, false),
                      std::make_tuple(128, 33, 65, true, false),
                      std::make_tuple(17, 129, 31, false, true),
                      std::make_tuple(100, 100, 100, true, true)));

TEST(Gemm, RandomShapesWithPaddedLeadingDimsMatchReference) {
  Prng rng(301);
  for (int trial = 0; trial < 60; ++trial) {
    // Small shapes with row/column/k remainders, both transposes, and
    // leading dimensions padded past the logical width.
    const auto m = static_cast<std::size_t>(rng.randint(1, 21));
    const auto n = static_cast<std::size_t>(rng.randint(1, 37));
    const auto k = static_cast<std::size_t>(rng.randint(1, 29));
    const bool ta = rng.randint(0, 1) != 0;
    const bool tb = rng.randint(0, 1) != 0;
    const float alpha = trial % 3 == 0 ? 1.0f : 0.75f;
    const float beta = trial % 2 == 0 ? 0.0f : 0.5f;
    const std::size_t lda = (ta ? m : k) + static_cast<std::size_t>(rng.randint(0, 3));
    const std::size_t ldb = (tb ? k : n) + static_cast<std::size_t>(rng.randint(0, 3));
    const std::size_t ldc = n + static_cast<std::size_t>(rng.randint(0, 3));
    const auto a = random_vec((ta ? k : m) * lda, rng);
    const auto b = random_vec((tb ? n : k) * ldb, rng);
    auto c = random_vec(m * ldc, rng);
    // ref_gemm leaves the padding columns of C alone, so comparing all of C
    // also checks that sgemm does not write past each row's n entries.
    const auto expected = ref_gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(), ldc);
    // Float accumulation against a double reference: k rounding steps.
    const float tol = 1e-6f * static_cast<float>(k) + 1e-6f;
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], expected[i], tol)
          << "at " << i << " m=" << m << " n=" << n << " k=" << k << " tA=" << ta
          << " tB=" << tb << " lda=" << lda << " ldb=" << ldb << " ldc=" << ldc;
  }
}

TEST(Gemm, BetaZeroIgnoresGarbage) {
  // beta = 0 must overwrite even NaN-ish prior contents.
  std::vector<float> a{1, 2, 3, 4}, b{5, 6, 7, 8};
  std::vector<float> c{1e30f, 1e30f, 1e30f, 1e30f};
  sgemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 1 * 5 + 2 * 7);
  EXPECT_FLOAT_EQ(c[3], 3 * 6 + 4 * 8);
}

TEST(Gemm, MatmulConvenience) {
  std::vector<float> a{1, 0, 0, 1}, b{3, 4, 5, 6}, c(4);
  matmul(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, b);
}

TEST(Gemm, LargeParallelPathConsistent) {
  Prng rng(4242);
  const std::size_t m = 200, n = 150, k = 120;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c1.data(), n);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c2.data(), n);
  EXPECT_EQ(c1, c2);  // bitwise determinism run-to-run
}

}  // namespace
}  // namespace ganopc::nn
