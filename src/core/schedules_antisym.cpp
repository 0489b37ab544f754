#include "core/schedules_antisym.hpp"

#include <vector>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "chem/coeffs.hpp"
#include "tensor/tensor4.hpp"
#include "util/timer.hpp"

namespace fit::core {

using tensor::AntisymPackedC;
using tensor::Matrix;
using tensor::npairs_strict;
using tensor::pack_pair_strict;
using tensor::Tensor4;

AntisymProblem make_antisym_problem(std::size_t n, unsigned irrep_order,
                                    std::uint64_t seed) {
  auto irreps = tensor::Irreps::contiguous(n, irrep_order);
  chem::AntisymIntegralEngine engine(n, irreps, seed);
  auto b = chem::make_mo_coefficients(irreps, seed * 31 + 7);
  return AntisymProblem{n, std::move(irreps), std::move(engine),
                        std::move(b)};
}

tensor::AntisymPackedC antisym_reference_transform(const AntisymProblem& p) {
  const std::size_t n = p.n;
  const std::size_t n2 = n * n, n3 = n2 * n;
  const Matrix& b = p.b;

  Tensor4 a(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l)
          a(i, j, k, l) = p.engine.value(i, j, k, l);

  Tensor4 t1(n), t2(n), t3(n), c(n);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n3, n, 1.0, b.data(), n,
             a.data(), n3, 0.0, t1.data(), n3);
  for (std::size_t al = 0; al < n; ++al)
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n2, n, 1.0, b.data(), n,
               t1.data() + al * n3, n2, 0.0, t2.data() + al * n3, n2);
  for (std::size_t ab = 0; ab < n2; ++ab)
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(), n,
               t2.data() + ab * n2, n, 0.0, t3.data() + ab * n2, n);
  for (std::size_t ab = 0; ab < n2; ++ab)
    blas::gemm(blas::Trans::No, blas::Trans::Yes, n, n, n, 1.0,
               t3.data() + ab * n2, n, b.data(), n, 0.0, c.data() + ab * n2,
               n);

  AntisymPackedC out(n, p.irreps);
  for (std::size_t aa = 1; aa < n; ++aa)
    for (std::size_t bb = 0; bb < aa; ++bb) {
      const auto hab = p.irreps.pair_irrep(aa, bb);
      for (std::size_t cc = 1; cc < n; ++cc)
        for (std::size_t d = 0; d < cc; ++d)
          if (p.irreps.pair_irrep(cc, d) == hab)
            out.add(aa, bb, cc, d, c(aa, bb, cc, d));
    }
  return out;
}

tensor::AntisymPackedC antisym_fused1234_transform(const AntisymProblem& p,
                                                   SeqStats* stats) {
  const std::size_t n = p.n;
  const std::size_t np = npairs_strict(n);
  const Matrix& b = p.b;
  WallTimer timer;
  MemMeter mem;
  SeqStats local;
  const std::uint64_t evals0 = p.engine.evaluations();

  AntisymPackedC c(n, p.irreps);
  mem.alloc(np * n + n * n * n + np * n + np * n + n * n);
  Matrix al(np, n);                   // al[(i>j), k] = A(i,j,k,l)
  std::vector<double> o1(n * n * n);  // o1[(k*n + a)*n + j]
  Matrix o2(np, n);                   // o2[(a>b), k]
  Matrix o3(np, n);                   // o3[(a>b), c]
  Matrix aklfull(n, n);

  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) {
        double* row = al.row(pack_pair_strict(i, j));
        for (std::size_t k = 0; k < n; ++k)
          row[k] = p.engine.value(i, j, k, l);
      }

    // c1: O1_l[a, j, k] = sum_i A_l[(ij), k] B[a, i], antisym unpack.
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) aklfull(i, i) = 0.0;
      for (std::size_t i = 1; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j) {
          const double v = al(pack_pair_strict(i, j), k);
          aklfull(i, j) = v;
          aklfull(j, i) = -v;
        }
      blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(),
                 n, aklfull.data(), n, 0.0, o1.data() + k * n * n, n);
      local.flops += blas::gemm_flops(n, n, n);
    }

    // c2: O2_l[(a>b), k] = sum_j O1_l[a, j, k] B[b, j]
    for (std::size_t k = 0; k < n; ++k) {
      const double* o1k = o1.data() + k * n * n;
      for (std::size_t aa = 1; aa < n; ++aa)
        for (std::size_t bb = 0; bb < aa; ++bb) {
          o2(pack_pair_strict(aa, bb), k) =
              blas::dot(n, o1k + aa * n, b.row(bb));
          local.flops += 2.0 * static_cast<double>(n);
        }
    }

    // c3: O3_l[(ab), c] = sum_k O2_l[(ab), k] B[c, k]
    blas::gemm(blas::Trans::No, blas::Trans::Yes, np, n, n, 1.0, o2.data(),
               n, b.data(), n, 0.0, o3.data(), n);
    local.flops += blas::gemm_flops(np, n, n);

    // c4: C[(ab), (c>d)] += O3_l[(ab), c] B[d, l]
    for (std::size_t aa = 1; aa < n; ++aa)
      for (std::size_t bb = 0; bb < aa; ++bb) {
        const std::size_t pab = pack_pair_strict(aa, bb);
        const auto hab = p.irreps.pair_irrep(aa, bb);
        const double* o3row = o3.row(pab);
        for (std::size_t cc = 1; cc < n; ++cc)
          for (std::size_t d = 0; d < cc; ++d) {
            if (p.irreps.pair_irrep(cc, d) != hab) continue;
            c.add(aa, bb, cc, d, o3row[cc] * b(d, l));
            local.flops += 2.0;
          }
      }
  }
  mem.release(np * n + n * n * n + np * n + np * n + n * n);

  local.integral_evals = p.engine.evaluations() - evals0;
  local.peak_words = mem.peak() + c.stored_elements();
  local.wall_seconds = timer.seconds();
  if (stats) *stats = local;
  return c;
}

}  // namespace fit::core
