// Single-precision GEMM used by convolution / linear layers.
//
// C[m x n] = alpha * op(A) * op(B) + beta * C, row-major storage.
// op(B) is packed row-major once, then one scalar micro-kernel (not
// dispatched by GANOPC_SIMD) sweeps C's rows, split across the shared thread
// pool; each output row is owned by exactly one worker and accumulates over
// k in a fixed order, so results are bit-deterministic.
#pragma once

#include <cstddef>

namespace ganopc::nn {

/// op(A) is A when trans_a is false, A^T otherwise (same for B).
/// Dimensions are those of op(A) [m x k] and op(B) [k x n].
/// lda/ldb/ldc are the leading dimensions of the *stored* matrices.
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n, std::size_t k,
           float alpha, const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float beta, float* c, std::size_t ldc);

/// Convenience: C = A * B with packed row-major A[m x k], B[k x n], C[m x n].
void matmul(const float* a, const float* b, float* c, std::size_t m, std::size_t n,
            std::size_t k);

}  // namespace ganopc::nn
