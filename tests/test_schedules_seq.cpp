// Cross-validation of every sequential schedule against the dense
// reference transform, plus checks that each schedule exhibits the
// flop/memory characteristics the paper's listings annotate.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_seq.hpp"
#include "tensor/pairs.hpp"

namespace {

using namespace fit;

double tol(std::size_t n) { return 1e-10 * static_cast<double>(n * n); }

class SeqSchedules
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {
 protected:
  core::Problem make() {
    const auto [n, s] = GetParam();
    return core::make_problem(
        chem::custom_molecule("t", n, s, 31 * n + s));
  }
};

TEST_P(SeqSchedules, UnfusedMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto got = core::unfused_transform(p);
  EXPECT_LT(got.max_abs_diff(ref), tol(p.n()));
}

TEST_P(SeqSchedules, Fused1234MatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto got = core::fused1234_transform(p);
  EXPECT_LT(got.max_abs_diff(ref), tol(p.n()));
}

TEST_P(SeqSchedules, Fused12_34MatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto got = core::fused12_34_transform(p);
  EXPECT_LT(got.max_abs_diff(ref), tol(p.n()));
}

TEST_P(SeqSchedules, Fused12_34OnTheFlyMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto got = core::fused12_34_transform(p, nullptr, /*materialize_a=*/false);
  EXPECT_LT(got.max_abs_diff(ref), tol(p.n()));
}

TEST_P(SeqSchedules, RecomputeMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto got = core::recompute_transform(p);
  EXPECT_LT(got.max_abs_diff(ref), tol(p.n()));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSymmetries, SeqSchedules,
    ::testing::Values(std::make_tuple(4, 1u), std::make_tuple(6, 1u),
                      std::make_tuple(6, 2u), std::make_tuple(8, 1u),
                      std::make_tuple(8, 4u), std::make_tuple(10, 2u),
                      std::make_tuple(12, 4u), std::make_tuple(16, 8u)));

TEST(SeqSchedules, ReferenceMatchesDirectO8) {
  // The dense O(n^5) reference agrees with the literal O(n^8) sum.
  for (unsigned s : {1u, 2u}) {
    auto p = core::make_problem(chem::custom_molecule("tiny", 5, s, 11));
    auto ref = core::reference_transform(p);
    auto direct = core::reference_direct_o8(p);
    EXPECT_LT(ref.max_abs_diff(direct), 1e-10);
  }
}

TEST(SeqSchedules, SpatiallyForbiddenDenseEntriesVanish) {
  // The transform must *produce* the spatial sparsity, not merely
  // assume it: dense-reference entries on forbidden quadruples are
  // numerically zero.
  auto p = core::make_problem(chem::custom_molecule("sym", 8, 4, 5));
  auto dense = core::reference_dense(p);
  for (std::size_t a = 0; a < 8; ++a)
    for (std::size_t b = 0; b < 8; ++b)
      for (std::size_t c = 0; c < 8; ++c)
        for (std::size_t d = 0; d < 8; ++d)
          if (!p.irreps.allowed(a, b, c, d)) {
            EXPECT_LT(std::fabs(dense(a, b, c, d)), 1e-12);
          }
}

TEST(SeqSchedules, FlopRatioFusedVsUnfusedIsAboutOnePointFive) {
  // Paper Sec. 7.4: breaking the (k,l) symmetry makes the fully fused
  // schedule perform ~1.5x the arithmetic of the unfused schedule.
  auto p = core::make_problem(chem::custom_molecule("flops", 24, 1, 3));
  core::SeqStats su, sf;
  (void)core::unfused_transform(p, &su);
  (void)core::fused1234_transform(p, &sf);
  const double ratio = sf.flops / su.flops;
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 1.7);
}

TEST(SeqSchedules, RecomputeFlopsScaleAsN6) {
  // Listing 3 pays O(n^6) arithmetic; doubling n should multiply flops
  // by ~2^6 (up to lower-order terms), while unfused grows as n^5.
  auto p1 = core::make_problem(chem::custom_molecule("r1", 8, 1, 3));
  auto p2 = core::make_problem(chem::custom_molecule("r2", 16, 1, 3));
  core::SeqStats s1, s2;
  (void)core::recompute_transform(p1, &s1);
  (void)core::recompute_transform(p2, &s2);
  const double growth = s2.flops / s1.flops;
  EXPECT_GT(growth, 40.0);   // n^6 growth = 64, n^5 would be 32
  EXPECT_LT(growth, 80.0);
}

TEST(SeqSchedules, PeakMemoryOrdering) {
  // Listing annotations: unfused ~3n^4/4 > fused12/34 ~n^4/2 >
  // recompute ~n^3 and fused1234 ~|C| + O(n^3).
  auto p = core::make_problem(chem::custom_molecule("mem", 20, 1, 3));
  core::SeqStats su, s12, sr, sf;
  (void)core::unfused_transform(p, &su);
  (void)core::fused12_34_transform(p, &s12);
  (void)core::recompute_transform(p, &sr);
  (void)core::fused1234_transform(p, &sf);
  EXPECT_GT(su.peak_words, s12.peak_words);
  EXPECT_GT(s12.peak_words, sr.peak_words);
  EXPECT_GT(s12.peak_words, sf.peak_words);

  const double n4 = std::pow(20.0, 4);
  EXPECT_NEAR(static_cast<double>(su.peak_words) / (0.75 * n4), 1.0, 0.25);
  EXPECT_NEAR(static_cast<double>(s12.peak_words) / (0.5 * n4), 1.0, 0.25);
}

TEST(SeqSchedules, Fused1234PeakIsCPlusLowerOrder) {
  auto p = core::make_problem(chem::custom_molecule("memc", 24, 1, 3));
  core::SeqStats sf;
  (void)core::fused1234_transform(p, &sf);
  const auto sz = p.sizes();
  const double n3 = std::pow(24.0, 3);
  EXPECT_GE(sf.peak_words, sz.c);
  EXPECT_LE(static_cast<double>(sf.peak_words),
            static_cast<double>(sz.c) + 4.0 * n3);
}

TEST(SeqSchedules, RecomputeRedundantIntegralEvaluations) {
  // The recompute schedule re-generates integrals per output pair
  // block: far more engine evaluations than the single-pass schedules.
  auto p1 = core::make_problem(chem::custom_molecule("e1", 10, 1, 3));
  auto p2 = core::make_problem(chem::custom_molecule("e2", 10, 1, 3));
  core::SeqStats s1, s2;
  (void)core::unfused_transform(p1, &s1);
  (void)core::recompute_transform(p2, &s2);
  EXPECT_GT(s2.integral_evals, 10 * s1.integral_evals);
}

TEST(SeqSchedules, IntegralEvalsCountOnlyTheirOwnRun) {
  // A schedule reports the evaluations of its own run, so one that
  // follows another on the same problem reports what it reports on a
  // fresh problem: the count its loop nest implies.
  const auto mol = chem::custom_molecule("ev", 12, 2, 3);
  const std::size_t n = 12, np = tensor::npairs(n);
  auto shared = core::make_problem(mol);
  core::SeqStats first;
  (void)core::unfused_transform(shared, &first);
  EXPECT_EQ(first.integral_evals, np * np);

  using Run = tensor::PackedC (*)(const core::Problem&, core::SeqStats*);
  const std::pair<Run, std::size_t> runs[] = {
      {[](const core::Problem& p, core::SeqStats* s) {
         return core::fused1234_transform(p, s);
       },
       n * np * n},
      {[](const core::Problem& p, core::SeqStats* s) {
         return core::fused12_34_transform(p, s, /*materialize_a=*/false);
       },
       np * np},
      {[](const core::Problem& p, core::SeqStats* s) {
         return core::recompute_transform(p, s);
       },
       np * n * np * n},
  };
  for (const auto& [run, evals] : runs) {
    auto fresh = core::make_problem(mol);
    core::SeqStats after, alone;
    (void)run(shared, &after);
    (void)run(fresh, &alone);
    EXPECT_EQ(alone.integral_evals, evals);
    EXPECT_EQ(after.integral_evals, evals);
  }
}

TEST(SeqSchedules, StatsArePopulated) {
  auto p = core::make_problem(chem::custom_molecule("st", 8, 1, 3));
  core::SeqStats s;
  (void)core::unfused_transform(p, &s);
  EXPECT_GT(s.flops, 0.0);
  EXPECT_GT(s.integral_evals, 0u);
  EXPECT_GT(s.peak_words, 0u);
  EXPECT_GE(s.wall_seconds, 0.0);
}

}  // namespace
