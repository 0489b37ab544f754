#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/tune.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using fit::blas::Trans;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  fit::SplitMix64 g(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = g.next_double(-1.0, 1.0);
  return v;
}

TEST(Level1, AxpyDotScalNrm2) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  fit::blas::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(fit::blas::dot(3, x.data(), x.data()), 14.0);
  fit::blas::scal(3, 0.5, x.data());
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  std::vector<double> z = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(fit::blas::nrm2(2, z.data()), 5.0);
}

TEST(Level1, StridedVariants) {
  std::vector<double> x = {1, 0, 2, 0, 3, 0};
  std::vector<double> y = {1, 1, 1};
  fit::blas::axpy(3, 1.0, x.data(), 2, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  EXPECT_DOUBLE_EQ(fit::blas::dot(3, x.data(), 2, x.data(), 2), 14.0);
}

struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
  double alpha, beta;
};

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesReference) {
  const auto c = GetParam();
  const std::size_t arows = (c.ta == Trans::No) ? c.m : c.k;
  const std::size_t acols = (c.ta == Trans::No) ? c.k : c.m;
  const std::size_t brows = (c.tb == Trans::No) ? c.k : c.n;
  const std::size_t bcols = (c.tb == Trans::No) ? c.n : c.k;
  auto a = random_vec(arows * acols, 1 + c.m);
  auto b = random_vec(brows * bcols, 2 + c.n);
  auto c0 = random_vec(c.m * c.n, 3 + c.k);
  auto c1 = c0;

  fit::blas::gemm_reference(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(),
                            acols, b.data(), bcols, c.beta, c0.data(), c.n);
  fit::blas::gemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), acols,
                  b.data(), bcols, c.beta, c1.data(), c.n);
  EXPECT_LT(fit::blas::max_abs_diff(c.m * c.n, c0.data(), c1.data()),
            1e-10 * static_cast<double>(c.k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{3, 5, 7, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{3, 5, 7, Trans::Yes, Trans::No, 1.0, 0.0},
        GemmCase{3, 5, 7, Trans::No, Trans::Yes, 1.0, 0.0},
        GemmCase{3, 5, 7, Trans::Yes, Trans::Yes, 1.0, 0.0},
        GemmCase{16, 16, 16, Trans::No, Trans::No, 2.0, 0.5},
        GemmCase{64, 64, 64, Trans::No, Trans::No, 1.0, 1.0},
        GemmCase{130, 70, 90, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{130, 70, 90, Trans::Yes, Trans::No, -1.5, 2.0},
        GemmCase{130, 70, 90, Trans::No, Trans::Yes, 1.0, 0.0},
        GemmCase{257, 33, 129, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{40, 520, 12, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{5, 1, 600, Trans::No, Trans::No, 1.0, 0.0},
        // Short M over untransposed B with a multiple-of-NR width: B is
        // read in place, across KC blocks.
        GemmCase{8, 24, 600, Trans::No, Trans::No, 1.0, 0.5},
        GemmCase{1, 300, 300, Trans::Yes, Trans::Yes, 0.25, 0.0}));

TEST(Gemm, ZeroDimensionsAreNoops) {
  std::vector<double> c = {1.0, 2.0};
  fit::blas::gemm(Trans::No, Trans::No, 0, 2, 3, 1.0, nullptr, 3, nullptr, 2,
                  1.0, c.data(), 2);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  // k == 0 with beta applies only the scaling.
  fit::blas::gemm(Trans::No, Trans::No, 1, 2, 0, 1.0, nullptr, 1, nullptr, 2,
                  0.5, c.data(), 2);
  EXPECT_DOUBLE_EQ(c[0], 0.5);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
}

TEST(Gemm, BetaZeroOverwritesNaNFree) {
  // beta == 0 must overwrite even if C holds garbage/NaN.
  std::vector<double> a = {1.0}, b = {2.0};
  std::vector<double> c = {std::nan("")};
  fit::blas::gemm(Trans::No, Trans::No, 1, 1, 1, 1.0, a.data(), 1, b.data(),
                  1, 0.0, c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
}

TEST(Gemm, AccConvenience) {
  // C += A*B with tight leading dims.
  std::vector<double> a = {1, 2, 3, 4};   // 2x2
  std::vector<double> b = {5, 6, 7, 8};   // 2x2
  std::vector<double> c = {1, 1, 1, 1};
  fit::blas::gemm_acc(2, 2, 2, a.data(), b.data(), c.data());
  EXPECT_DOUBLE_EQ(c[0], 1 + 19);
  EXPECT_DOUBLE_EQ(c[3], 1 + 50);
}

TEST(Gemm, LeadingDimensionLargerThanWidth) {
  // Operate on a 2x2 block inside 2x4 storage.
  std::vector<double> a = {1, 2, -9, -9, 3, 4, -9, -9};
  std::vector<double> b = {1, 0, -9, -9, 0, 1, -9, -9};
  std::vector<double> c = {0, 0, -1, -1, 0, 0, -1, -1};
  fit::blas::gemm(Trans::No, Trans::No, 2, 2, 2, 1.0, a.data(), 4, b.data(),
                  4, 0.0, c.data(), 4);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_DOUBLE_EQ(c[4], 3.0);
  EXPECT_DOUBLE_EQ(c[5], 4.0);
  EXPECT_DOUBLE_EQ(c[2], -1.0);  // untouched padding
}

TEST(Gemm, FlopsFormula) {
  EXPECT_DOUBLE_EQ(fit::blas::gemm_flops(2, 3, 4), 48.0);
}

TEST(Gemm, RejectsTooSmallLeadingDims) {
  std::vector<double> a(12, 0.0), b(12, 0.0), c(6, 0.0);
  // op(A) = A (2x3): lda must be >= k = 3.
  EXPECT_THROW(fit::blas::gemm(Trans::No, Trans::No, 2, 2, 3, 1.0, a.data(),
                               2, b.data(), 2, 0.0, c.data(), 2),
               fit::PreconditionError);
  // op(A) = A^T with m = 4: lda must be >= m.
  EXPECT_THROW(fit::blas::gemm(Trans::Yes, Trans::No, 4, 2, 3, 1.0, a.data(),
                               3, b.data(), 2, 0.0, c.data(), 2),
               fit::PreconditionError);
  // op(B) = B (3x2): ldb must be >= n = 2.
  EXPECT_THROW(fit::blas::gemm(Trans::No, Trans::No, 2, 2, 3, 1.0, a.data(),
                               3, b.data(), 1, 0.0, c.data(), 2),
               fit::PreconditionError);
  // op(B) = B^T with k = 3: ldb must be >= k.
  EXPECT_THROW(fit::blas::gemm(Trans::No, Trans::Yes, 2, 2, 3, 1.0, a.data(),
                               3, b.data(), 2, 0.0, c.data(), 2),
               fit::PreconditionError);
  // Degenerate dimensions skip the operand checks (nothing is read).
  EXPECT_NO_THROW(fit::blas::gemm(Trans::No, Trans::No, 0, 2, 3, 1.0,
                                  a.data(), 0, b.data(), 2, 1.0, c.data(),
                                  2));
  EXPECT_NO_THROW(fit::blas::gemm(Trans::No, Trans::No, 2, 2, 0, 1.0,
                                  a.data(), 0, b.data(), 0, 1.0, c.data(),
                                  2));
}

// Property test: the blocked engine against the reference oracle over
// randomized shapes (0, 1, and non-multiples of the MR/NR micro-tile),
// all four Trans combinations, padded strides, and the scalar grid
// alpha/beta in {0, 1, -0.5}.
TEST(GemmProperty, RandomizedAgainstReference) {
  fit::SplitMix64 g(0xf1e2d3c4);
  const std::size_t dims[] = {0,  1,  2,  3,  5,  7,  8,  9,
                              16, 17, 31, 33, 63, 65, 90, 129};
  const double scalars[] = {0.0, 1.0, -0.5};
  for (int iter = 0; iter < 80; ++iter) {
    const std::size_t m = dims[g.next_below(std::size(dims))];
    const std::size_t n = dims[g.next_below(std::size(dims))];
    const std::size_t k = dims[g.next_below(std::size(dims))];
    const Trans ta = (g.next_u64() & 1) ? Trans::Yes : Trans::No;
    const Trans tb = (g.next_u64() & 1) ? Trans::Yes : Trans::No;
    const double alpha = scalars[g.next_below(std::size(scalars))];
    const double beta = scalars[g.next_below(std::size(scalars))];
    // Padded leading dimensions (>= the operand width).
    const std::size_t arows = (ta == Trans::No) ? m : k;
    const std::size_t acols = (ta == Trans::No) ? k : m;
    const std::size_t brows = (tb == Trans::No) ? k : n;
    const std::size_t bcols = (tb == Trans::No) ? n : k;
    const std::size_t lda = acols + g.next_below(4);
    const std::size_t ldb = bcols + g.next_below(4);
    const std::size_t ldc = n + g.next_below(4);

    auto a = random_vec(arows * lda, g.next_u64());
    auto b = random_vec(brows * ldb, g.next_u64());
    auto c0 = random_vec(m * ldc, g.next_u64());
    auto c1 = c0;
    fit::blas::gemm_reference(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                              ldb, beta, c0.data(), ldc);
    fit::blas::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                    beta, c1.data(), ldc);
    const double err =
        (m * n == 0) ? 0.0
                     : fit::blas::max_abs_diff(m * ldc, c0.data(), c1.data());
    EXPECT_LT(err, 1e-10 * static_cast<double>(k + 1))
        << "m=" << m << " n=" << n << " k=" << k << " ta=" << int(ta)
        << " tb=" << int(tb) << " alpha=" << alpha << " beta=" << beta
        << " lda=" << lda << " ldb=" << ldb << " ldc=" << ldc;
  }
}

// The engine's determinism contract: for a fixed blocking config,
// results are bit-identical run-to-run and across thread counts (the
// lanes split only the M dimension; every C element accumulates its
// k-products in the same order no matter how many threads run). This
// holds for the dispatched vector kernel and for the scalar one.
TEST(GemmDeterminism, BitIdenticalAcrossThreadCounts) {
  const std::size_t n = 96;  // above the small-problem cutoff
  auto a = random_vec(n * n, 11);
  auto b = random_vec(n * n, 22);
  const auto c_init = random_vec(n * n, 33);
  const auto base = fit::blas::gemm_config();
  for (const fit::blas::IsaLevel isa :
       {base.isa, fit::blas::IsaLevel::Scalar}) {
    std::vector<double> first;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      auto cfg = base;
      cfg.threads = threads;
      cfg.isa = isa;
      fit::blas::set_gemm_config(cfg);
      for (int run = 0; run < 2; ++run) {
        auto c = c_init;
        fit::blas::gemm(Trans::No, Trans::No, n, n, n, 1.0, a.data(), n,
                        b.data(), n, 1.0, c.data(), n);
        if (first.empty()) {
          first = c;
        } else {
          ASSERT_EQ(0, std::memcmp(first.data(), c.data(),
                                   c.size() * sizeof(double)))
              << "bits differ: threads=" << threads << " run=" << run
              << " isa=" << fit::blas::isa_name(isa);
        }
      }
    }
    // Scalar and vector kernels agree numerically (to rounding) even
    // when their bits differ.
    ASSERT_FALSE(first.empty());
  }
  fit::blas::set_gemm_config(base);
}

TEST(GemmEngine, AutotunedConfigIsSane) {
  const auto cfg = fit::blas::GemmConfig::autotuned();
  EXPECT_GE(cfg.kc, 64u);
  EXPECT_LE(cfg.kc, 512u);
  EXPECT_EQ(cfg.mc % fit::blas::kGemmMR, 0u);
  EXPECT_EQ(cfg.nc % fit::blas::kGemmNR, 0u);
  EXPECT_GE(cfg.threads, 1u);
}

TEST(GemmEngine, MetricsAccumulate) {
  auto& reg = fit::blas::gemm_metrics();
  reg.counter("gemm.calls");
  reg.counter("gemm.flops");
  const double calls0 = reg.sum("gemm.calls");
  const double flops0 = reg.sum("gemm.flops");
  const std::size_t n = 48;
  auto a = random_vec(n * n, 1);
  auto b = random_vec(n * n, 2);
  std::vector<double> c(n * n, 0.0);
  fit::blas::gemm(Trans::No, Trans::No, n, n, n, 1.0, a.data(), n, b.data(),
                  n, 0.0, c.data(), n);
  EXPECT_DOUBLE_EQ(reg.sum("gemm.calls") - calls0, 1.0);
  EXPECT_DOUBLE_EQ(reg.sum("gemm.flops") - flops0,
                   fit::blas::gemm_flops(n, n, n));
}

// A batched call is one engine call carrying the whole batch's flops
// and packing traffic.
TEST(GemmEngine, BatchedCallCountsOnce) {
  auto& reg = fit::blas::gemm_metrics();
  reg.counter("gemm.calls");
  reg.counter("gemm.flops");
  reg.counter("gemm.pack_bytes");
  const double calls0 = reg.sum("gemm.calls");
  const double flops0 = reg.sum("gemm.flops");
  const double pack0 = reg.sum("gemm.pack_bytes");
  const std::size_t m = 6, n = 10, k = 7, batch = 5;
  auto a = random_vec(m * k, 1);
  auto b = random_vec(batch * k * n, 2);
  std::vector<double> c(batch * m * n, 0.0);
  fit::blas::gemm_batched(Trans::No, Trans::No, m, n, k, 1.0, a.data(), k, 0,
                          b.data(), n, k * n, 0.0, c.data(), n, m * n, batch);
  EXPECT_DOUBLE_EQ(reg.sum("gemm.calls") - calls0, 1.0);
  EXPECT_DOUBLE_EQ(reg.sum("gemm.flops") - flops0,
                   5.0 * fit::blas::gemm_flops(m, n, k));
  EXPECT_GT(reg.sum("gemm.pack_bytes") - pack0, 0.0);
}

// Small products (m*n*k < 32^3) contract in one kc = k block even when
// k exceeds the blocking's KC: every C element keeps the single
// left-to-right accumulator of a plain triple loop, then one
// alpha-scaled add into the beta-scaled C.
TEST(GemmSmall, KeepsSingleAccumulatorOrderBeyondKC) {
  const auto base = fit::blas::gemm_config();
  for (const std::size_t kc : {std::size_t{8}, base.kc}) {
    auto cfg = base;
    cfg.kc = kc;
    fit::blas::set_gemm_config(cfg);
    const std::size_t m = 3, n = 5, k = 2 * base.kc + 19;  // k > KC
    ASSERT_LT(m * n * k, 32u * 32 * 32);
    for (const Trans ta : {Trans::No, Trans::Yes})
      for (const Trans tb : {Trans::No, Trans::Yes})
        for (const double beta : {0.0, 1.0, 0.5}) {
          const std::size_t lda = (ta == Trans::No ? k : m) + 1;
          const std::size_t ldb = (tb == Trans::No ? n : k) + 2;
          const auto a = random_vec((ta == Trans::No ? m : k) * lda, 3);
          const auto b = random_vec((tb == Trans::No ? k : n) * ldb, 4);
          const auto c0 = random_vec(m * n, 5);
          const double alpha = -0.75;
          std::vector<double> want = c0;
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j) {
              double acc = 0.0;
              for (std::size_t p = 0; p < k; ++p)
                acc += (ta == Trans::No ? a[i * lda + p] : a[p * lda + i]) *
                       (tb == Trans::No ? b[p * ldb + j] : b[j * ldb + p]);
              double& cij = want[i * n + j];
              cij = beta == 0.0 ? 0.0 : (beta == 1.0 ? cij : cij * beta);
              cij += alpha * acc;
            }
          std::vector<double> got = c0;
          fit::blas::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                          ldb, beta, got.data(), n);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   got.size() * sizeof(double)))
              << "kc=" << kc << " ta=" << int(ta) << " tb=" << int(tb)
              << " beta=" << beta;
        }
  }
  fit::blas::set_gemm_config(base);
}

}  // namespace
