#include "core/problem.hpp"

#include "chem/coeffs.hpp"

namespace fit::core {

tensor::Irreps problem_irreps(const chem::Molecule& molecule) {
  return tensor::Irreps::contiguous(molecule.n_orbitals,
                                    molecule.irrep_order);
}

Problem make_problem(const chem::Molecule& molecule) {
  auto irreps = problem_irreps(molecule);
  chem::IntegralEngine engine(molecule.n_orbitals, irreps, molecule.seed);
  auto b = chem::make_mo_coefficients(irreps, molecule.seed * 7919 + 13);
  return Problem{molecule, std::move(irreps), std::move(engine),
                 std::move(b)};
}

}  // namespace fit::core
