// Synthetic atomic-orbital integral engine ("ComputeA" in the paper's
// listings).
//
// NWChem's direct transforms recompute two-electron AO integrals
// A(i,j,k,l) on the fly instead of storing the full tensor. The
// transform algorithms never inspect integral *values* — only their
// symmetry and the cost of producing them — so we substitute a
// deterministic synthetic kernel with the exact same structure:
//
//  * permutation symmetry  A(i,j,k,l) = A(j,i,k,l) = A(i,j,l,k)
//    (the (ij),(kl) groups of Table 1),
//  * spatial symmetry      A == 0 unless irrep(i)^irrep(j)^irrep(k)^
//    irrep(l) == 0 (so the transformed C provably carries the paper's
//    spatial sparsity),
//  * Coulomb-like magnitude decay with the "distance" between the
//    (ij) and (kl) charge distributions, and a diagonal dominance that
//    keeps downstream MP2-style denominators sane,
//  * a pure function of the indices, so re-computation is consistent
//    (required by the recompute schedule of Listing 3),
//  * an evaluation counter, so cost models can charge for integral
//    generation.
//
// Schedules fill A a box at a time (fill_block): one range check and one
// counter update per box, and the terms that depend only on (i, j) are
// computed once per (i, j) row. value() is the 1x1x1x1 box, so there is
// one copy of the formula.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "tensor/irreps.hpp"
#include "tensor/packed.hpp"

namespace fit::chem {

class IntegralEngine {
 public:
  IntegralEngine(std::size_t n, tensor::Irreps irreps, std::uint64_t seed);

  IntegralEngine(IntegralEngine&& other) noexcept
      : n_(other.n_), irreps_(std::move(other.irreps_)), seed_(other.seed_),
        evaluations_(other.evaluations_.load()) {}

  std::size_t n() const { return n_; }
  const tensor::Irreps& irreps() const { return irreps_; }

  /// (i, j, k, l) corner or extent of a box of A.
  using Index4 = std::array<std::size_t, 4>;

  /// A(i,j,k,l). Pure in the indices; symmetric in (i,j) and (k,l);
  /// zero on spatially forbidden quadruples. The 1x1x1x1 fill_block.
  double value(std::size_t i, std::size_t j, std::size_t k,
               std::size_t l) const;

  /// Write the box [lo, lo + len) of A to `out`, row-major over
  /// (i, j, k, l) with l fastest (the GA tile layout). Each element is
  /// bit-identical to value() at the same indices; forbidden ones are
  /// 0.0. Throws if the box reaches past n. Adds the box's volume to
  /// the evaluation counter in one update.
  void fill_block(const Index4& lo, const Index4& len, double* out) const;

  /// Integral evaluations since construction: every element of every
  /// box, forbidden ones and re-computation included. Thread-safe
  /// under the threaded executor.
  std::uint64_t evaluations() const { return evaluations_.load(); }
  void reset_evaluations() { evaluations_ = 0; }

  /// Materialize the full packed tensor A[ij, kl].
  tensor::PackedA materialize() const;

 private:
  std::size_t n_;
  tensor::Irreps irreps_;
  std::uint64_t seed_;
  mutable std::atomic<std::uint64_t> evaluations_{0};
};

}  // namespace fit::chem
