// A fully specified four-index transform problem instance.
#pragma once

#include <cstddef>

#include "chem/integrals.hpp"
#include "chem/molecule.hpp"
#include "tensor/irreps.hpp"
#include "tensor/matrix.hpp"
#include "tensor/packed.hpp"

/// \file
/// \brief Problem instance: molecule, symmetry, integral source, and
/// the transformation matrix B.

namespace fit::core {

/// Bundles everything a schedule needs: the orbital extent, the spatial
/// symmetry assignment, the on-the-fly integral source, and the
/// transformation matrix B.
struct Problem {
  /// The molecule (orbital extent, irrep order, RNG seed).
  chem::Molecule molecule;
  /// Spatial symmetry assignment of the orbitals.
  tensor::Irreps irreps;
  /// Deterministic on-the-fly integral source.
  chem::IntegralEngine engine;
  /// Transformation matrix, n x n, indexed B[a, i].
  tensor::Matrix b;

  /// Orbital extent n of the transform.
  std::size_t n() const { return molecule.n_orbitals; }

  /// Exact packed tensor sizes (Table 1) for this instance.
  tensor::TensorSizes sizes() const {
    return tensor::packed_sizes(n(), irreps);
  }
};

/// The spatial symmetry a molecule's problem has: contiguous irreps of
/// the molecule's group order. Cheap next to make_problem (no integral
/// engine, no B), so a caller can size a problem before it builds one:
/// tensor::packed_sizes(n, problem_irreps(m)) is its Problem::sizes().
tensor::Irreps problem_irreps(const chem::Molecule& molecule);

/// Construct the problem for a molecule: problem_irreps, a seeded
/// integral engine, a symmetry-adapted orthogonal B.
Problem make_problem(const chem::Molecule& molecule);

}  // namespace fit::core
