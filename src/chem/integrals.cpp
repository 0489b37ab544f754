#include "chem/integrals.hpp"

#include <cmath>

#include "tensor/pairs.hpp"
#include "util/rng.hpp"

namespace fit::chem {

IntegralEngine::IntegralEngine(std::size_t n, tensor::Irreps irreps,
                               std::uint64_t seed)
    : n_(n), irreps_(std::move(irreps)), seed_(seed) {
  FIT_REQUIRE(irreps_.n_orbitals() == n_, "irrep map extent mismatch");
}

double IntegralEngine::value(std::size_t i, std::size_t j, std::size_t k,
                             std::size_t l) const {
  double v = 0.0;
  fill_block({i, j, k, l}, {1, 1, 1, 1}, &v);
  return v;
}

void IntegralEngine::fill_block(const Index4& lo, const Index4& len,
                                double* out) const {
  for (std::size_t d = 0; d < 4; ++d)
    FIT_REQUIRE(len[d] <= n_ && lo[d] <= n_ - len[d],
                "integral box out of range: dim " << d << " [" << lo[d]
                                                  << ", " << lo[d] + len[d]
                                                  << ") past n = " << n_);
  evaluations_.fetch_add(len[0] * len[1] * len[2] * len[3],
                         std::memory_order_relaxed);
  const std::uint8_t* irrep = irreps_.labels().data();

  for (std::size_t i = lo[0]; i < lo[0] + len[0]; ++i)
    for (std::size_t j = lo[1]; j < lo[1] + len[1]; ++j) {
      // Terms of (i, j) alone. The hash seed is an XOR of one term per
      // key (util::hash_key), so folding the (pij, seed) terms here and
      // XOR-ing in pkl's below gives hash_to_unit(pij, pkl, seed_)'s
      // seed bit for bit.
      const std::uint8_t h_ij = irrep[i] ^ irrep[j];
      const std::uint64_t key_ij =
          hash_key(tensor::pack_pair_sym(i, j), 0, seed_);
      const double cij =
          0.5 * (static_cast<double>(i) + static_cast<double>(j));
      for (std::size_t k = lo[2]; k < lo[2] + len[2]; ++k) {
        const std::uint8_t h_ijk = h_ij ^ irrep[k];
        for (std::size_t l = lo[3]; l < lo[3] + len[3]; ++l) {
          // Spatial symmetry: the irrep product must be totally
          // symmetric.
          if ((h_ijk ^ irrep[l]) != 0) {
            *out++ = 0.0;
            continue;
          }

          // Symmetrize by addressing through packed pair indices: any
          // (i,j) order and any (k,l) order hit the same hash inputs.
          // The "angular" part is pseudo-random and distinct per
          // (ij,kl); it is NOT symmetric under (ij) <-> (kl) exchange,
          // matching Table 1 where A carries exactly two symmetry
          // groups.
          const double angular = unit_from_key(
              key_ij ^ hash_key(0, tensor::pack_pair_sym(k, l), 0, 0));

          // Coulomb-like radial decay between the centroids of the two
          // charge distributions, in "orbital index" coordinates.
          const double ckl =
              0.5 * (static_cast<double>(k) + static_cast<double>(l));
          const double radial = 1.0 / (1.0 + std::fabs(cij - ckl));

          // Diagonal dominance: (ii|ii)-like integrals are the largest,
          // as in real basis sets.
          const double diag = (i == j && k == l && i == k) ? 2.0
                              : (i == j || k == l)         ? 0.25
                                                           : 0.0;

          *out++ = 0.5 * angular * radial + diag * radial;
        }
      }
    }
}

tensor::PackedA IntegralEngine::materialize() const {
  // Each (i, j, k) run of l <= k is contiguous in the packed row.
  tensor::PackedA a(n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double* row = a.packed().row(tensor::pack_pair(i, j));
      for (std::size_t k = 0; k < n_; ++k)
        fill_block({i, j, k, 0}, {1, 1, 1, k + 1},
                   row + tensor::pack_pair(k, 0));
    }
  return a;
}

}  // namespace fit::chem
