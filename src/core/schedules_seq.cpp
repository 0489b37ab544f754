#include "core/schedules_seq.hpp"

#include <memory>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "tensor/pairs.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fit::core {

using tensor::Matrix;
using tensor::npairs;
using tensor::pack_pair;
using tensor::pack_pair_sym;
using tensor::PackedA;
using tensor::PackedC;
using tensor::PackedO2;
using tensor::Tensor4;
using tensor::TensorO1;
using tensor::TensorO3;
using tensor::unpack_pair;

namespace {

/// Copy the dense result into the packed, spatially blocked C,
/// visiting only the spatially allowed entries. Forbidden entries of
/// the dense tensor are validated (to numerical noise) by tests.
PackedC pack_result(const Problem& p, const Tensor4& full) {
  const std::size_t n = p.n();
  PackedC c(n, p.irreps);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b <= a; ++b) {
      const auto hab = p.irreps.pair_irrep(a, b);
      for (std::size_t cc = 0; cc < n; ++cc)
        for (std::size_t d = 0; d <= cc; ++d)
          if (p.irreps.pair_irrep(cc, d) == hab)
            c.add(a, b, cc, d, full(a, b, cc, d));
    }
  return c;
}

}  // namespace

tensor::PackedC reference_direct_o8(const Problem& p) {
  const std::size_t n = p.n();
  FIT_REQUIRE(n <= 12, "reference_direct_o8 is O(n^8); use n <= 12");
  PackedC c(n, p.irreps);
  const Matrix& b = p.b;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t be = 0; be <= a; ++be) {
      const auto hab = p.irreps.pair_irrep(a, be);
      for (std::size_t ga = 0; ga < n; ++ga)
        for (std::size_t de = 0; de <= ga; ++de) {
          if (p.irreps.pair_irrep(ga, de) != hab) continue;
          double acc = 0.0;
          for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
              for (std::size_t k = 0; k < n; ++k)
                for (std::size_t l = 0; l < n; ++l)
                  acc += p.engine.value(i, j, k, l) * b(a, i) * b(be, j) *
                         b(ga, k) * b(de, l);
          c.add(a, be, ga, de, acc);
        }
    }
  return c;
}

tensor::Tensor4 reference_dense(const Problem& p) {
  const std::size_t n = p.n();
  const std::size_t n2 = n * n, n3 = n * n * n;
  const Matrix& b = p.b;

  // Materialize A fully dense: [i][j][k][l].
  Tensor4 a(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l)
          a(i, j, k, l) = p.engine.value(i, j, k, l);

  // T1[al, j, k, l] = sum_i B[al, i] * A[i, (jkl)]
  Tensor4 t1(n);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n3, n, 1.0, b.data(), n,
             a.data(), n3, 0.0, t1.data(), n3);

  // T2[al, be, k, l] = sum_j B[be, j] * T1[al, j, (kl)]
  Tensor4 t2(n);
  for (std::size_t al = 0; al < n; ++al)
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n2, n, 1.0, b.data(), n,
               t1.data() + al * n3, n2, 0.0, t2.data() + al * n3, n2);

  // T3[al, be, ga, l] = sum_k B[ga, k] * T2[al, be, k, l]
  Tensor4 t3(n);
  for (std::size_t ab = 0; ab < n2; ++ab)
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(), n,
               t2.data() + ab * n2, n, 0.0, t3.data() + ab * n2, n);

  // C[al, be, ga, de] = sum_l T3[al, be, ga, l] * B[de, l]
  Tensor4 c(n);
  for (std::size_t ab = 0; ab < n2; ++ab)
    blas::gemm(blas::Trans::No, blas::Trans::Yes, n, n, n, 1.0,
               t3.data() + ab * n2, n, b.data(), n, 0.0, c.data() + ab * n2,
               n);
  return c;
}

tensor::PackedC reference_transform(const Problem& p) {
  return pack_result(p, reference_dense(p));
}

tensor::PackedC unfused_transform(const Problem& p, SeqStats* stats) {
  const std::size_t n = p.n();
  const std::size_t np = npairs(n);
  const Matrix& b = p.b;
  WallTimer timer;
  MemMeter mem;
  SeqStats local;
  const std::uint64_t evals0 = p.engine.evaluations();

  // ---- Materialize A[ij, kl] ----------------------------------------
  mem.alloc(np * np);
  auto a = std::make_unique<PackedA>(p.engine.materialize());

  // ---- Contraction 1: O1[a, j, kl] = sum_i A[(ij), kl] B[a, i] ------
  mem.alloc(n * n * np);
  auto o1 = std::make_unique<TensorO1>(n);
  {
    Matrix aj(n, np);  // gathered A rows for fixed j: aj[i, kl]
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i)
        blas::copy(np, a->packed().row(pack_pair_sym(i, j)), aj.row(i));
      // O1[:, j, :] has row stride n*np starting at kl_row(0, j).
      blas::gemm(blas::Trans::No, blas::Trans::No, n, np, n, 1.0, b.data(),
                 n, aj.data(), np, 0.0, o1->kl_row(0, j), n * np);
      local.flops += blas::gemm_flops(n, np, n);
    }
  }
  a.reset();
  mem.release(np * np);

  // ---- Contraction 2: O2[ab, kl] = sum_j O1[a, j, kl] B[b, j], a>=b -
  mem.alloc(np * np);
  auto o2 = std::make_unique<PackedO2>(n);
  for (std::size_t aa = 0; aa < n; ++aa) {
    // Rows pack(aa, 0..aa) of O2 are contiguous; O1[aa, :, :] is a
    // contiguous (j, kl) matrix.
    blas::gemm(blas::Trans::No, blas::Trans::No, aa + 1, np, n, 1.0,
               b.data(), n, o1->kl_row(aa, 0), np, 0.0,
               o2->packed().row(pack_pair(aa, 0)), np);
    local.flops += blas::gemm_flops(aa + 1, np, n);
  }
  o1.reset();
  mem.release(n * n * np);

  // ---- Contraction 3: O3[ab, c, l] = sum_k O2[ab, (kl)] B[c, k] -----
  mem.alloc(np * n * n);
  auto o3 = std::make_unique<TensorO3>(n);
  {
    Matrix o2u(n, n);  // unpacked O2 slice for fixed ab: o2u[k, l]
    for (std::size_t pab = 0; pab < np; ++pab) {
      const auto [aa, bb] = unpack_pair(pab);
      o2->unpack_ab(aa, bb, o2u);
      blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(), n,
                 o2u.data(), n, 0.0, &o3->at(aa, bb, 0, 0), n);
      local.flops += blas::gemm_flops(n, n, n);
    }
  }
  o2.reset();
  mem.release(np * np);

  // ---- Contraction 4: C[ab, cd] = sum_l O3[ab, c, l] B[d, l], c>=d,
  //      spatially allowed entries only ------------------------------
  const auto sizes = p.sizes();
  mem.alloc(sizes.c);
  PackedC c(n, p.irreps);
  for (std::size_t pab = 0; pab < np; ++pab) {
    const auto [aa, bb] = unpack_pair(pab);
    const auto hab = p.irreps.pair_irrep(aa, bb);
    for (std::size_t cc = 0; cc < n; ++cc) {
      const double* o3row = &o3->at(aa, bb, cc, 0);
      for (std::size_t d = 0; d <= cc; ++d) {
        if (p.irreps.pair_irrep(cc, d) != hab) continue;
        c.add(aa, bb, cc, d, blas::dot(n, o3row, b.row(d)));
        local.flops += 2.0 * static_cast<double>(n);
      }
    }
  }
  o3.reset();
  mem.release(np * n * n);

  local.integral_evals = p.engine.evaluations() - evals0;
  local.peak_words = mem.peak();
  local.wall_seconds = timer.seconds();
  if (stats) *stats = local;
  return c;
}

tensor::PackedC fused12_34_transform(const Problem& p, SeqStats* stats,
                                     bool materialize_a) {
  const std::size_t n = p.n();
  const std::size_t np = npairs(n);
  const Matrix& b = p.b;
  WallTimer timer;
  MemMeter mem;
  SeqStats local;
  const std::uint64_t evals0 = p.engine.evaluations();

  std::unique_ptr<PackedA> a;
  if (materialize_a) {
    mem.alloc(np * np);
    a = std::make_unique<PackedA>(p.engine.materialize());
  }

  // ---- Phase 1 (fused contractions 1+2): for each (k>=l) slice,
  //      compute O1_buf[a, j] then accumulate into O2[ab, kl] ---------
  mem.alloc(np * np);  // O2
  auto o2 = std::make_unique<PackedO2>(n);
  {
    mem.alloc(2 * n * n);  // A slice + O1 buffer
    Matrix akl(n, n);      // full (i, j) slice for fixed (k, l)
    Matrix o1buf(n, n);    // O1_buf[a, j]
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t l = 0; l <= k; ++l) {
        if (materialize_a) {
          a->unpack_kl(k, l, akl);
        } else {
          // On-the-fly A slice: evaluate the canonical i>=j triangle
          // row by row and mirror (the engine is symmetric in (i, j)).
          for (std::size_t i = 0; i < n; ++i) {
            p.engine.fill_block({i, 0, k, l}, {1, i + 1, 1, 1}, akl.row(i));
            for (std::size_t j = 0; j < i; ++j) akl(j, i) = akl(i, j);
          }
        }
        blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(),
                   n, akl.data(), n, 0.0, o1buf.data(), n);
        local.flops += blas::gemm_flops(n, n, n);
        for (std::size_t aa = 0; aa < n; ++aa)
          for (std::size_t bb = 0; bb <= aa; ++bb) {
            o2->at(aa, bb, k, l) = blas::dot(n, o1buf.row(aa), b.row(bb));
            local.flops += 2.0 * static_cast<double>(n);
          }
      }
    }
    mem.release(2 * n * n);
  }
  if (materialize_a) {
    a.reset();
    mem.release(np * np);
  }

  // ---- Phase 2 (fused contractions 3+4): for each (a>=b), compute
  //      O3_buf[c, l] then accumulate into C[ab, cd] ------------------
  const auto sizes = p.sizes();
  mem.alloc(sizes.c);
  PackedC c(n, p.irreps);
  {
    mem.alloc(2 * n * n);  // O2 slice + O3 buffer
    Matrix o2u(n, n);
    Matrix o3buf(n, n);
    for (std::size_t pab = 0; pab < np; ++pab) {
      const auto [aa, bb] = unpack_pair(pab);
      const auto hab = p.irreps.pair_irrep(aa, bb);
      o2->unpack_ab(aa, bb, o2u);
      blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(), n,
                 o2u.data(), n, 0.0, o3buf.data(), n);
      local.flops += blas::gemm_flops(n, n, n);
      for (std::size_t cc = 0; cc < n; ++cc)
        for (std::size_t d = 0; d <= cc; ++d) {
          if (p.irreps.pair_irrep(cc, d) != hab) continue;
          c.add(aa, bb, cc, d, blas::dot(n, o3buf.row(cc), b.row(d)));
          local.flops += 2.0 * static_cast<double>(n);
        }
    }
    mem.release(2 * n * n);
  }
  o2.reset();
  mem.release(np * np);

  local.integral_evals = p.engine.evaluations() - evals0;
  local.peak_words = mem.peak();
  local.wall_seconds = timer.seconds();
  if (stats) *stats = local;
  return c;
}

tensor::PackedC recompute_transform(const Problem& p, SeqStats* stats) {
  const std::size_t n = p.n();
  const std::size_t np = npairs(n);
  const Matrix& b = p.b;
  WallTimer timer;
  MemMeter mem;
  SeqStats local;
  const std::uint64_t evals0 = p.engine.evaluations();

  const auto sizes = p.sizes();
  mem.alloc(sizes.c);
  PackedC c(n, p.irreps);

  // Faithful to Listing 3: the O1 slice is recomputed for every output
  // pair (a >= b) — O(n^6) arithmetic, O(n^3) memory, and redundant
  // integral recomputation. This is the memory-minimal NWChem variant.
  mem.alloc(n * np + np + 2 * n);  // O1 slice, O2 slice, O3 row + scratch
  Matrix o1buf(n, np);             // o1buf[j, kl] for the current a
  std::vector<double> o2buf(np);   // o2buf[kl] for the current (a, b)
  std::vector<double> o3row(n);    // o3row[l] for the current c
  std::vector<double> acol(n);     // A(:, j, k, l) for the current (j, k, l)

  for (std::size_t pab = 0; pab < np; ++pab) {
    const auto [aa, bb] = unpack_pair(pab);
    const auto hab = p.irreps.pair_irrep(aa, bb);

    // O1_buf[j, kl] = sum_i A(i, j, k, l) B[aa, i]   (recomputed!)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t pkl = 0; pkl < np; ++pkl) {
        const auto [k, l] = unpack_pair(pkl);
        p.engine.fill_block({0, j, k, l}, {n, 1, 1, 1}, acol.data());
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += acol[i] * b(aa, i);
        o1buf(j, pkl) = acc;
        local.flops += 2.0 * static_cast<double>(n);
      }

    // O2_buf[kl] = sum_j O1_buf[j, kl] B[bb, j]
    std::fill(o2buf.begin(), o2buf.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      blas::axpy(np, b(bb, j), o1buf.row(j), o2buf.data());
      local.flops += 2.0 * static_cast<double>(np);
    }

    // O3_row[l] = sum_k O2_buf[(kl)] B[cc, k]; then contract with B[d]
    for (std::size_t cc = 0; cc < n; ++cc) {
      for (std::size_t l = 0; l < n; ++l) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k)
          acc += o2buf[pack_pair_sym(k, l)] * b(cc, k);
        o3row[l] = acc;
        local.flops += 2.0 * static_cast<double>(n);
      }
      for (std::size_t d = 0; d <= cc; ++d) {
        if (p.irreps.pair_irrep(cc, d) != hab) continue;
        c.add(aa, bb, cc, d, blas::dot(n, o3row.data(), b.row(d)));
        local.flops += 2.0 * static_cast<double>(n);
      }
    }
  }
  mem.release(n * np + np + 2 * n);

  local.integral_evals = p.engine.evaluations() - evals0;
  local.peak_words = mem.peak();
  local.wall_seconds = timer.seconds();
  if (stats) *stats = local;
  return c;
}

tensor::PackedC fused1234_transform(const Problem& p, SeqStats* stats) {
  const std::size_t n = p.n();
  const std::size_t np = npairs(n);
  const Matrix& b = p.b;
  WallTimer timer;
  MemMeter mem;
  SeqStats local;
  const std::uint64_t evals0 = p.engine.evaluations();

  const auto sizes = p.sizes();
  mem.alloc(sizes.c);
  PackedC c(n, p.irreps);

  // Per-l working set: A slice (packed (ij) x k), O1 slice [k][a][j],
  // O2 slice [ab][k], O3 slice [ab][c] — all O(n^3), discarded between
  // iterations of l (no two iterations share intermediates).
  mem.alloc(np * n + n * n * n + np * n + np * n);
  Matrix al(np, n);                     // al[(ij), k] = A(i,j,k,l)
  std::vector<double> o1(n * n * n);    // o1[(k*n + a)*n + j]
  Matrix o2(np, n);                     // o2[(ab), k]
  Matrix o3(np, n);                     // o3[(ab), c]
  Matrix aklfull(n, n);                 // unpacked A slice for fixed k, l

  for (std::size_t l = 0; l < n; ++l) {
    // Produce the A slice on the fly. The (k, l) symmetry is broken:
    // across the whole run each unique integral with k != l is
    // produced twice, the acknowledged ~1.5x compute overhead of the
    // fully fused schedule (paper Sec. 7.4).
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        p.engine.fill_block({i, j, 0, l}, {1, 1, n, 1},
                            al.row(pack_pair(i, j)));

    // c1: O1_l[a, j, k] = sum_i A_l[(ij), k] B[a, i]
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j <= i; ++j) {
          const double v = al(pack_pair(i, j), k);
          aklfull(i, j) = v;
          aklfull(j, i) = v;
        }
      blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, b.data(), n,
                 aklfull.data(), n, 0.0, o1.data() + k * n * n, n);
      local.flops += blas::gemm_flops(n, n, n);
    }

    // c2: O2_l[(ab), k] = sum_j O1_l[a, j, k] B[b, j]
    for (std::size_t k = 0; k < n; ++k) {
      const double* o1k = o1.data() + k * n * n;
      for (std::size_t aa = 0; aa < n; ++aa)
        for (std::size_t bb = 0; bb <= aa; ++bb) {
          o2(pack_pair(aa, bb), k) = blas::dot(n, o1k + aa * n, b.row(bb));
          local.flops += 2.0 * static_cast<double>(n);
        }
    }

    // c3: O3_l[(ab), c] = sum_k O2_l[(ab), k] B[c, k]
    blas::gemm(blas::Trans::No, blas::Trans::Yes, np, n, n, 1.0, o2.data(),
               n, b.data(), n, 0.0, o3.data(), n);
    local.flops += blas::gemm_flops(np, n, n);

    // c4: C[ab, cd] += O3_l[(ab), c] B[d, l]
    for (std::size_t pab = 0; pab < np; ++pab) {
      const auto [aa, bb] = unpack_pair(pab);
      const auto hab = p.irreps.pair_irrep(aa, bb);
      const double* o3row = o3.row(pab);
      for (std::size_t cc = 0; cc < n; ++cc)
        for (std::size_t d = 0; d <= cc; ++d) {
          if (p.irreps.pair_irrep(cc, d) != hab) continue;
          c.add(aa, bb, cc, d, o3row[cc] * b(d, l));
          local.flops += 2.0;
        }
    }
  }
  mem.release(np * n + n * n * n + np * n + np * n);

  local.integral_evals = p.engine.evaluations() - evals0;
  local.peak_words = mem.peak();
  local.wall_seconds = timer.seconds();
  if (stats) *stats = local;
  return c;
}

}  // namespace fit::core
