// Antisymmetric tensors (paper footnote 1): packing, engine
// properties, and the fused schedule against the dense reference.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "chem/antisym_integrals.hpp"
#include "core/schedules_antisym.hpp"
#include "tensor/antisym.hpp"

namespace {

using namespace fit;
using namespace fit::tensor;

TEST(AntisymPairs, StrictPackBijective) {
  const std::size_t n = 12;
  std::set<std::size_t> seen;
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const std::size_t p = pack_pair_strict(i, j);
      EXPECT_LT(p, npairs_strict(n));
      EXPECT_TRUE(seen.insert(p).second);
    }
  EXPECT_EQ(seen.size(), npairs_strict(n));
  EXPECT_THROW(pack_pair_strict(3, 3), fit::PreconditionError);
  EXPECT_THROW(pack_pair_strict(2, 5), fit::PreconditionError);
}

TEST(AntisymPairs, SignedPairSigns) {
  EXPECT_DOUBLE_EQ(signed_pair(5, 2).sign, 1.0);
  EXPECT_DOUBLE_EQ(signed_pair(2, 5).sign, -1.0);
  EXPECT_DOUBLE_EQ(signed_pair(4, 4).sign, 0.0);
  EXPECT_EQ(signed_pair(5, 2).index, signed_pair(2, 5).index);
}

TEST(AntisymPackedA, AntisymmetryBothGroups) {
  AntisymPackedA a(6);
  a.set(3, 1, 4, 2, 2.5);
  EXPECT_DOUBLE_EQ(a(3, 1, 4, 2), 2.5);
  EXPECT_DOUBLE_EQ(a(1, 3, 4, 2), -2.5);
  EXPECT_DOUBLE_EQ(a(3, 1, 2, 4), -2.5);
  EXPECT_DOUBLE_EQ(a(1, 3, 2, 4), 2.5);
  EXPECT_DOUBLE_EQ(a(2, 2, 4, 2), 0.0);  // diagonal vanishes
  EXPECT_DOUBLE_EQ(a(3, 1, 4, 4), 0.0);
  // Strict-triangle storage: ~n^4/4 as in Table 1.
  EXPECT_EQ(a.stored_elements(), npairs_strict(6) * npairs_strict(6));
}

TEST(AntisymPackedC, SignsAndSparsity) {
  auto ir = Irreps::contiguous(8, 2);
  AntisymPackedC c(8, ir);
  c.add(2, 1, 3, 0, 4.0);
  EXPECT_DOUBLE_EQ(c.get(2, 1, 3, 0), 4.0);
  EXPECT_DOUBLE_EQ(c.get(1, 2, 3, 0), -4.0);
  EXPECT_DOUBLE_EQ(c.get(2, 1, 0, 3), -4.0);
  EXPECT_DOUBLE_EQ(c.get(1, 2, 0, 3), 4.0);
  EXPECT_DOUBLE_EQ(c.get(2, 2, 3, 0), 0.0);
  // Forbidden (different pair irreps): pair (2,1) irrep 0, (5,1) irrep 1.
  EXPECT_DOUBLE_EQ(c.get(2, 1, 5, 1), 0.0);
  EXPECT_THROW(c.add(5, 1, 2, 1, 1.0), fit::PreconditionError);
  EXPECT_THROW(c.add(1, 2, 3, 0, 1.0), fit::PreconditionError);  // order
}

TEST(AntisymEngine, Properties) {
  auto ir = Irreps::contiguous(8, 2);
  chem::AntisymIntegralEngine eng(8, ir, 99);
  for (std::size_t i = 0; i < 8; i += 2)
    for (std::size_t j = 1; j < 8; j += 3)
      for (std::size_t k = 0; k < 8; k += 3)
        for (std::size_t l = 1; l < 8; l += 2) {
          const double v = eng.value(i, j, k, l);
          EXPECT_DOUBLE_EQ(eng.value(j, i, k, l), -v);
          EXPECT_DOUBLE_EQ(eng.value(i, j, l, k), -v);
          EXPECT_DOUBLE_EQ(eng.value(j, i, l, k), v);
          if (!ir.allowed(i, j, k, l)) {
            EXPECT_DOUBLE_EQ(v, 0.0);
          }
        }
  EXPECT_DOUBLE_EQ(eng.value(3, 3, 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(eng.value(3, 1, 2, 2), 0.0);
}

TEST(AntisymEngine, MaterializeConsistent) {
  auto ir = Irreps::trivial(6);
  chem::AntisymIntegralEngine eng(6, ir, 3);
  auto a = eng.materialize();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      for (std::size_t k = 0; k < 6; ++k)
        for (std::size_t l = 0; l < 6; ++l)
          EXPECT_DOUBLE_EQ(a(i, j, k, l), eng.value(i, j, k, l));
}

TEST(AntisymTransform, DenseResultIsAntisymmetric) {
  auto p = core::make_antisym_problem(8, 2, 5);
  auto c = core::antisym_reference_transform(p);
  // Spot-check sign structure through the packed accessor.
  bool found_nonzero = false;
  for (std::size_t a = 1; a < 8; ++a)
    for (std::size_t b = 0; b < a; ++b)
      for (std::size_t cc = 1; cc < 8; ++cc)
        for (std::size_t d = 0; d < cc; ++d) {
          const double v = c.get(a, b, cc, d);
          EXPECT_DOUBLE_EQ(c.get(b, a, cc, d), -v);
          if (std::fabs(v) > 1e-6) found_nonzero = true;
        }
  EXPECT_TRUE(found_nonzero);
}

class AntisymFused
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(AntisymFused, MatchesReference) {
  const auto [n, s] = GetParam();
  auto p = core::make_antisym_problem(n, s, 11 * n + s);
  auto ref = core::antisym_reference_transform(p);
  core::SeqStats stats;
  auto got = core::antisym_fused1234_transform(p, &stats);
  EXPECT_LT(got.max_abs_diff(ref), 1e-10 * double(n * n));
  EXPECT_GT(stats.flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AntisymFused,
    ::testing::Values(std::make_tuple(4, 1u), std::make_tuple(6, 2u),
                      std::make_tuple(8, 1u), std::make_tuple(10, 2u),
                      std::make_tuple(12, 4u)));

TEST(AntisymTransform, IntegralEvalsCountOnlyTheirOwnRun) {
  auto p = core::make_antisym_problem(8, 2, 5);
  core::SeqStats first, second;
  (void)core::antisym_fused1234_transform(p, &first);
  (void)core::antisym_fused1234_transform(p, &second);
  EXPECT_GT(first.integral_evals, 0u);
  EXPECT_EQ(second.integral_evals, first.integral_evals);
}

TEST(AntisymTransform, FusedPeakMemoryIsCPlusLowerOrder) {
  auto p = core::make_antisym_problem(16, 1, 2);
  core::SeqStats stats;
  auto c = core::antisym_fused1234_transform(p, &stats);
  const double n3 = 16.0 * 16 * 16;
  EXPECT_GE(stats.peak_words, c.stored_elements());
  EXPECT_LE(double(stats.peak_words),
            double(c.stored_elements()) + 4.0 * n3);
}

}  // namespace
