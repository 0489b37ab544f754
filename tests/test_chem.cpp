#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "chem/coeffs.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"
#include "chem/mp2.hpp"
#include "core/problem.hpp"
#include "core/schedules_seq.hpp"
#include "tensor/irreps.hpp"
#include "tensor/tiling.hpp"

namespace {

using namespace fit;

TEST(Integrals, PermutationSymmetry) {
  auto ir = tensor::Irreps::contiguous(10, 2);
  chem::IntegralEngine eng(10, ir, 42);
  for (std::size_t i = 0; i < 10; i += 3)
    for (std::size_t j = 0; j < 10; j += 2)
      for (std::size_t k = 0; k < 10; k += 3)
        for (std::size_t l = 0; l < 10; l += 2) {
          const double v = eng.value(i, j, k, l);
          EXPECT_DOUBLE_EQ(v, eng.value(j, i, k, l));
          EXPECT_DOUBLE_EQ(v, eng.value(i, j, l, k));
          EXPECT_DOUBLE_EQ(v, eng.value(j, i, l, k));
        }
}

TEST(Integrals, NoAccidentalGroupExchangeSymmetry) {
  // Table 1 gives A two symmetry groups (not three): (ij)<->(kl)
  // exchange must NOT be a symmetry in general.
  auto ir = tensor::Irreps::trivial(8);
  chem::IntegralEngine eng(8, ir, 7);
  bool found_asymmetric = false;
  for (std::size_t i = 0; i < 8 && !found_asymmetric; ++i)
    for (std::size_t k = 0; k < 8 && !found_asymmetric; ++k)
      if (eng.value(i, 0, k, 1) != eng.value(k, 1, i, 0))
        found_asymmetric = true;
  EXPECT_TRUE(found_asymmetric);
}

TEST(Integrals, SpatialSymmetryZeroes) {
  auto ir = tensor::Irreps::contiguous(8, 4);
  chem::IntegralEngine eng(8, ir, 42);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      for (std::size_t k = 0; k < 8; ++k)
        for (std::size_t l = 0; l < 8; ++l)
          if (!ir.allowed(i, j, k, l)) {
            EXPECT_DOUBLE_EQ(eng.value(i, j, k, l), 0.0);
          }
}

TEST(Integrals, PureFunctionOfIndices) {
  auto ir = tensor::Irreps::trivial(6);
  chem::IntegralEngine eng(6, ir, 9);
  const double first = eng.value(3, 1, 4, 2);
  for (int r = 0; r < 5; ++r) EXPECT_DOUBLE_EQ(eng.value(3, 1, 4, 2), first);
}

TEST(Integrals, EvaluationCounter) {
  auto ir = tensor::Irreps::trivial(4);
  chem::IntegralEngine eng(4, ir, 1);
  eng.reset_evaluations();
  (void)eng.value(0, 0, 0, 0);
  (void)eng.value(1, 0, 1, 0);
  EXPECT_EQ(eng.evaluations(), 2u);
}

TEST(Integrals, MaterializeMatchesPointwise) {
  auto ir = tensor::Irreps::contiguous(6, 2);
  chem::IntegralEngine eng(6, ir, 5);
  auto a = eng.materialize();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      for (std::size_t k = 0; k < 6; ++k)
        for (std::size_t l = 0; l < 6; ++l)
          EXPECT_DOUBLE_EQ(a(i, j, k, l), eng.value(i, j, k, l));
}

// value() results pinned as hex floats when fill_block was introduced:
// an edit to the formula fails here even if it keeps fill_block and
// value() in agreement with each other.
TEST(Integrals, PinnedValues) {
  chem::IntegralEngine e1(10, tensor::Irreps::contiguous(10, 2), 42);
  EXPECT_EQ(e1.value(0, 0, 0, 0), 0x1.3a61f64945b03p+1);
  EXPECT_EQ(e1.value(3, 1, 4, 2), 0x1.8d9e4527806bap-3);
  EXPECT_EQ(e1.value(5, 5, 5, 5), 0x1.0e23393221a06p+1);
  EXPECT_EQ(e1.value(7, 2, 9, 0), -0x1.df860bbc22a8ep-2);
  EXPECT_EQ(e1.value(9, 9, 2, 2), 0x1.0431d8e56e154p-5);
  EXPECT_EQ(e1.value(0, 1, 8, 9), 0x1.29783eda4a24ap-6);

  chem::IntegralEngine e2(
      11, tensor::Irreps({0, 3, 1, 2, 3, 0, 2, 1, 1, 3, 0}, 4), 7);
  EXPECT_EQ(e2.value(4, 1, 6, 0), 0.0);  // forbidden: 3^3^2^0 != 0
  EXPECT_EQ(e2.value(10, 10, 10, 10), 0x1.02cd911f38d2dp+1);
  EXPECT_EQ(e2.value(2, 2, 7, 7), 0x1.46984e6b54b8dp-4);
  EXPECT_EQ(e2.value(6, 3, 8, 8), 0x1.0f65f1ff58714p-3);

  chem::IntegralEngine e3(6, tensor::Irreps::trivial(6), 9);
  EXPECT_EQ(e3.value(3, 1, 4, 2), -0x1.8868d68c96ad8p-4);
  EXPECT_EQ(e3.value(5, 0, 5, 0), 0x1.b7d655a8c3fb4p-3);
  EXPECT_EQ(e3.value(2, 2, 1, 0), 0x1.93df746fffe54p-3);
}

// fill_block is bit-identical to value() on every box of ragged
// tilings: odd n, widths 1-5 (different per dimension) and an l range
// that starts past zero, as fill_a's l-slice arrays have.
TEST(Integrals, FillBlockMatchesValueOnRaggedTilings) {
  constexpr std::size_t n = 11;
  const std::vector<tensor::Irreps> irreps = {
      tensor::Irreps::trivial(n),
      tensor::Irreps::contiguous(n, 2),
      tensor::Irreps::contiguous(n, 4),
      tensor::Irreps::contiguous(n, 8),
      tensor::Irreps({0, 3, 1, 2, 3, 0, 2, 1, 1, 3, 0}, 4),
  };
  constexpr std::size_t l_off = 3;
  std::vector<double> got, want;
  for (std::size_t e = 0; e < irreps.size(); ++e) {
    chem::IntegralEngine eng(n, irreps[e], 100 + e);
    for (std::size_t w = 1; w <= 5; ++w) {
      const tensor::Tiling t[4] = {
          tensor::Tiling(n, w), tensor::Tiling(n, 6 - w),
          tensor::Tiling(n, w % 5 + 1), tensor::Tiling(n - l_off, w)};
      for (std::size_t ti = 0; ti < t[0].ntiles(); ++ti)
        for (std::size_t tj = 0; tj < t[1].ntiles(); ++tj)
          for (std::size_t tk = 0; tk < t[2].ntiles(); ++tk)
            for (std::size_t tl = 0; tl < t[3].ntiles(); ++tl) {
              const chem::IntegralEngine::Index4 lo = {
                  t[0].lo(ti), t[1].lo(tj), t[2].lo(tk),
                  l_off + t[3].lo(tl)};
              const chem::IntegralEngine::Index4 len = {
                  t[0].len(ti), t[1].len(tj), t[2].len(tk), t[3].len(tl)};
              want.clear();
              for (std::size_t i = lo[0]; i < lo[0] + len[0]; ++i)
                for (std::size_t j = lo[1]; j < lo[1] + len[1]; ++j)
                  for (std::size_t k = lo[2]; k < lo[2] + len[2]; ++k)
                    for (std::size_t l = lo[3]; l < lo[3] + len[3]; ++l)
                      want.push_back(eng.value(i, j, k, l));
              got.assign(want.size(), -1.0);
              eng.fill_block(lo, len, got.data());
              ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(double)),
                        0)
                  << "irreps " << e << " width " << w << " box (" << lo[0]
                  << "," << lo[1] << "," << lo[2] << "," << lo[3] << ")";
            }
    }
  }
}

TEST(Integrals, FillBlockCountsEveryElementOnce) {
  // Labels 0,0,1,1,2,2,3,3: most quadruples are forbidden, and each
  // still counts as one evaluation.
  chem::IntegralEngine eng(8, tensor::Irreps::contiguous(8, 4), 3);
  std::vector<double> out(8 * 8 * 8 * 8, -1.0);
  eng.reset_evaluations();
  eng.fill_block({0, 0, 0, 0}, {8, 8, 8, 8}, out.data());
  EXPECT_EQ(eng.evaluations(), 4096u);
  eng.fill_block({2, 5, 1, 6}, {3, 2, 4, 1}, out.data());
  EXPECT_EQ(eng.evaluations(), 4096u + 24u);
  double forbidden = -1.0;
  eng.fill_block({0, 0, 0, 7}, {1, 1, 1, 1}, &forbidden);  // 0^0^0^3
  EXPECT_EQ(forbidden, 0.0);
  EXPECT_EQ(eng.evaluations(), 4096u + 24u + 1u);
  eng.fill_block({4, 4, 4, 4}, {0, 3, 3, 3}, out.data());  // empty box
  EXPECT_EQ(eng.evaluations(), 4096u + 24u + 1u);
}

TEST(Integrals, FillBlockRejectsBoxesPastN) {
  chem::IntegralEngine eng(7, tensor::Irreps::trivial(7), 1);
  std::vector<double> out(64);
  eng.reset_evaluations();
  EXPECT_THROW(eng.fill_block({0, 0, 0, 6}, {1, 1, 1, 2}, out.data()),
               fit::PreconditionError);
  EXPECT_THROW(eng.fill_block({5, 0, 0, 0}, {3, 1, 1, 1}, out.data()),
               fit::PreconditionError);
  EXPECT_THROW(eng.fill_block({0, 7, 0, 0}, {1, 1, 1, 1}, out.data()),
               fit::PreconditionError);
  EXPECT_THROW(eng.fill_block({0, 0, 1, 0}, {1, 1, 8, 1}, out.data()),
               fit::PreconditionError);
  EXPECT_THROW((void)eng.value(0, 0, 0, 7), fit::PreconditionError);
  EXPECT_EQ(eng.evaluations(), 0u);  // a rejected box counts nothing
  eng.fill_block({0, 0, 0, 6}, {7, 1, 1, 1}, out.data());  // ends at n
  EXPECT_EQ(eng.evaluations(), 7u);
}

TEST(Integrals, SeedChangesValues) {
  auto ir = tensor::Irreps::trivial(6);
  chem::IntegralEngine e1(6, ir, 1), e2(6, ir, 2);
  EXPECT_NE(e1.value(3, 1, 4, 2), e2.value(3, 1, 4, 2));
}

TEST(Coeffs, OrthogonalAndSymmetryAdapted) {
  for (unsigned s : {1u, 2u, 4u}) {
    auto ir = tensor::Irreps::contiguous(12, s);
    auto b = chem::make_mo_coefficients(ir, 99);
    EXPECT_LT(chem::orthogonality_defect(b), 1e-12);
    for (std::size_t a = 0; a < 12; ++a)
      for (std::size_t i = 0; i < 12; ++i)
        if (ir.of(a) != ir.of(i)) {
          EXPECT_DOUBLE_EQ(b(a, i), 0.0);
        }
  }
}

TEST(Coeffs, NotTheIdentity) {
  auto ir = tensor::Irreps::trivial(8);
  auto b = chem::make_mo_coefficients(ir, 3);
  double off = 0.0;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      if (i != j) off = std::max(off, std::fabs(b(i, j)));
  EXPECT_GT(off, 0.05);
}

TEST(Molecule, PaperSetHasFiveScaledEntries) {
  auto mols = chem::paper_molecules();
  ASSERT_EQ(mols.size(), 5u);
  for (const auto& m : mols) {
    // 1/8 linear scale of the paper's orbital counts (rounded).
    EXPECT_NEAR(static_cast<double>(m.n_orbitals),
                static_cast<double>(m.paper_n_orbitals) / 8.0, 1.0);
    EXPECT_EQ(m.irrep_order, 8u);
    EXPECT_GT(m.n_occupied, 0u);
    EXPECT_LT(m.n_occupied, m.n_orbitals);
  }
  EXPECT_EQ(chem::paper_molecule("Uracil").n_orbitals, 87u);
  EXPECT_THROW(chem::paper_molecule("Benzene"), fit::PreconditionError);
}

TEST(Molecule, CustomDefaults) {
  auto m = chem::custom_molecule("test", 20, 2);
  EXPECT_EQ(m.n_occupied, 5u);
  EXPECT_THROW(chem::custom_molecule("bad", 1, 1), fit::PreconditionError);
}

TEST(Mp2, OrbitalEnergiesShape) {
  auto eps = chem::synthetic_orbital_energies(10, 3);
  ASSERT_EQ(eps.size(), 10u);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_LT(eps[p], 0.0);
  for (std::size_t p = 3; p < 10; ++p) EXPECT_GT(eps[p], 0.0);
  for (std::size_t p = 1; p < 10; ++p) EXPECT_GE(eps[p], eps[p - 1]);
  EXPECT_THROW(chem::synthetic_orbital_energies(5, 5),
               fit::PreconditionError);
}

TEST(Mp2, EnergyIsFiniteAndScheduleIndependent) {
  auto mol = chem::custom_molecule("mp2test", 8, 2, 77);
  auto prob = core::make_problem(mol);
  auto eps = chem::synthetic_orbital_energies(mol.n_orbitals, mol.n_occupied);

  auto c_ref = core::reference_transform(prob);
  auto c_fused = core::fused1234_transform(prob);
  const double e_ref = chem::mp2_energy(c_ref, mol.n_occupied, eps);
  const double e_fused = chem::mp2_energy(c_fused, mol.n_occupied, eps);
  EXPECT_TRUE(std::isfinite(e_ref));
  EXPECT_NEAR(e_ref, e_fused, 1e-9 * (1.0 + std::fabs(e_ref)));
}

}  // namespace
