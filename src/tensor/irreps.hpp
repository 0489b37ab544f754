// Spatial-symmetry machinery.
//
// Spatial symmetry (paper Sec. 2.1) is a structured sparsity of the
// final MO tensor C: a block vanishes unless the product of the
// irreducible representations (irreps) of its four orbital indices is
// the totally symmetric irrep. For abelian point groups such as D2h
// the irrep product is an XOR over bit labels, which is what we model:
// each orbital carries a label in [0, order) with `order` a power of
// two, and a quadruple (a,b,c,d) is allowed iff the XOR of the four
// labels is zero. Uniformly distributed labels give the paper's 1/s
// storage reduction for C (Table 1, n^4/(4s)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace fit::tensor {

class Irreps {
 public:
  /// Explicit per-orbital labels. `order` must be a power of two and
  /// every label must be < order.
  Irreps(std::vector<std::uint8_t> labels, unsigned order);

  /// All orbitals in the totally symmetric irrep (no spatial symmetry).
  static Irreps trivial(std::size_t n_orbitals);

  /// Orbitals split into `order` contiguous equal-as-possible blocks,
  /// one irrep per block — the layout produced by symmetry-adapted
  /// basis orderings in chemistry codes.
  static Irreps contiguous(std::size_t n_orbitals, unsigned order);

  std::size_t n_orbitals() const { return labels_.size(); }
  unsigned order() const { return order_; }

  std::uint8_t of(std::size_t orbital) const {
    FIT_REQUIRE(orbital < labels_.size(), "orbital out of range");
    return labels_[orbital];
  }

  /// Every orbital's label, for loops that range-check once up front.
  const std::vector<std::uint8_t>& labels() const { return labels_; }

  /// Irrep of an index pair (XOR product).
  std::uint8_t pair_irrep(std::size_t i, std::size_t j) const {
    return static_cast<std::uint8_t>(of(i) ^ of(j));
  }

  /// True iff the quadruple can carry a nonzero integral.
  bool allowed(std::size_t a, std::size_t b, std::size_t c,
               std::size_t d) const {
    return (of(a) ^ of(b) ^ of(c) ^ of(d)) == 0;
  }

  /// First orbital of each contiguous irrep block, if the labels are in
  /// fact contiguous; used for irrep-aligned tilings.
  bool is_contiguous() const;

 private:
  std::vector<std::uint8_t> labels_;
  unsigned order_;
};

}  // namespace fit::tensor
