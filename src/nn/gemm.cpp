#include "nn/gemm.hpp"

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ganopc::nn {

namespace {

// Micro-kernel: computes rows [m0, m1) of C = alpha * op(A) * B_packed +
// beta * C. B is pre-packed row-major [k x n] so the innermost loop is a
// unit-stride AXPY over a C row; op(A)[i][p] is a[p * lda + i] when trans_a
// else a[i * lda + p].
void gemm_rows(std::size_t m0, std::size_t m1, std::size_t n, std::size_t k,
               float alpha, const float* a, std::size_t lda, bool trans_a,
               const float* b_packed, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = m0; i < m1; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::memset(crow, 0, n * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    for (std::size_t p = 0; p < k; ++p) {
      const float aval = alpha * (trans_a ? a[p * lda + i] : a[i * lda + p]);
      if (aval == 0.0f) continue;
      const float* brow = b_packed + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n, std::size_t k,
           float alpha, const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float beta, float* c, std::size_t ldc) {
  GANOPC_CHECK(a != nullptr && b != nullptr && c != nullptr);
  if (m == 0 || n == 0) return;

  // Pack op(B) into contiguous [k x n] once; costs O(kn) and makes the hot
  // loop unit-stride for both layouts.
  const float* b_packed = b;
  std::vector<float> packed;
  if (trans_b || ldb != n) {
    packed.resize(k * n);
    if (trans_b) {
      // stored B is [n x k] with leading dim ldb; op(B)[p][j] = B[j][p].
      for (std::size_t p = 0; p < k; ++p)
        for (std::size_t j = 0; j < n; ++j) packed[p * n + j] = b[j * ldb + p];
    } else {
      for (std::size_t p = 0; p < k; ++p)
        std::memcpy(&packed[p * n], b + p * ldb, n * sizeof(float));
    }
    b_packed = packed.data();
  }

  const std::size_t flops = 2 * m * n * k;
  if (flops < (1u << 16)) {
    gemm_rows(0, m, n, k, alpha, a, lda, trans_a, b_packed, beta, c, ldc);
    return;
  }
  parallel_for_chunks(0, m, [&](std::size_t m0, std::size_t m1) {
    gemm_rows(m0, m1, n, k, alpha, a, lda, trans_a, b_packed, beta, c, ldc);
  }, /*serial_threshold=*/1);
}

void matmul(const float* a, const float* b, float* c, std::size_t m, std::size_t n,
            std::size_t k) {
  sgemm(false, false, m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
}

}  // namespace ganopc::nn
