/// @file
/// Blocked double-precision matrix multiplication, written from scratch
/// (no external BLAS). Row-major convention:
///
///     C[m x n] = alpha * op(A) * op(B) + beta * C
///
/// where op(X) is X or X^T. The implementation packs panels of A and B
/// into contiguous cache-resident buffers and runs a register-tiled
/// micro-kernel — the same structural optimization (tiling for a fast
/// memory of capacity S) whose data-movement optimality the paper's
/// Section 2.3 discusses. gemm_batched runs a strided batch of such
/// products through one blocked pass.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fit::blas {

/// Whether a GEMM operand is used as stored or transposed.
enum class Trans : std::uint8_t {
  No,   ///< op(X) = X
  Yes,  ///< op(X) = X^T
};

/// General matrix-matrix product. Leading dimensions are row strides.
/// Preconditions: m,n,k >= 0; lda/ldb/ldc large enough for the
/// respective (possibly transposed) operand shapes. The batch-of-one
/// case of gemm_batched.
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, double alpha, const double* a, std::size_t lda,
          const double* b, std::size_t ldb, double beta, double* c,
          std::size_t ldc);

/// Strided-batch matrix product: for every member i < `batch`,
///
///     C_i = alpha * op(A_i) * op(B_i) + beta * C_i
///
/// with X_i = x + i * stride_x. Every member has the same shape,
/// transposes and leading dimensions. A zero `stride_a` or `stride_b`
/// shares that operand across the batch; `stride_c` may be zero only
/// for a batch of at most one, and the members' C blocks must not
/// overlap.
///
/// The engine folds the batch into one blocked pass: into the N extent
/// when A is shared, into M when B is shared, packing straight from
/// the strided operands (micro-panels may straddle members). Members
/// with neither operand shared run one pass each. Every member's
/// result is bit-identical to a lone gemm call on that member: its
/// contraction is blocked by the rules a lone call applies to its own
/// m x n x k shape. The call counts once in gemm.calls, with the
/// flops and packing traffic of the whole batch.
void gemm_batched(Trans trans_a, Trans trans_b, std::size_t m,
                  std::size_t n, std::size_t k, double alpha,
                  const double* a, std::size_t lda, std::size_t stride_a,
                  const double* b, std::size_t ldb, std::size_t stride_b,
                  double beta, double* c, std::size_t ldc,
                  std::size_t stride_c, std::size_t batch);

/// Convenience: C[m x n] += A[m x k] * B[k x n], all dense row-major
/// with tight leading dimensions.
inline void gemm_acc(std::size_t m, std::size_t n, std::size_t k,
                     const double* a, const double* b, double* c) {
  gemm(Trans::No, Trans::No, m, n, k, 1.0, a, k, b, n, 1.0, c, n);
}

/// Reference (unblocked) implementation used by the test suite as an
/// oracle for the blocked kernel.
void gemm_reference(Trans trans_a, Trans trans_b, std::size_t m,
                    std::size_t n, std::size_t k, double alpha,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double beta, double* c, std::size_t ldc);

/// Flop count of a gemm call (2*m*n*k; the convention used throughout
/// the cost model).
inline double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace fit::blas
