#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "blas/gemm.hpp"
#include "core/sym_tile.hpp"
#include "ga/global_array.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "tensor/tiling.hpp"
#include "util/rng.hpp"

namespace {

using namespace fit;
using blas::Trans;
using core::finish_sym_tile;
using core::nbget_sym_tile;
using runtime::Cluster;
using runtime::ExecutionMode;
using runtime::MachineConfig;

MachineConfig tiny_machine() {
  MachineConfig m;
  m.name = "tiny";
  m.n_nodes = 2;
  m.ranks_per_node = 2;
  m.mem_per_node_bytes = 64e6;
  m.flops_per_rank = 1e9;
  m.integrals_per_sec = 1e8;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 1e-6;
  m.local_bandwidth_bps = 1e10;
  return m;
}

std::size_t offset(const std::size_t len[4], const std::size_t c[4]) {
  return ((c[0] * len[1] + c[1]) * len[2] + c[2]) * len[3] + c[3];
}

// Contract dim d0 of a tile with the m x len[d0] matrix w the way the
// schedules do, reading `data` through strides:
//   (0,1): out[x, (j k l)] = sum_i w[x, i] T[i, j, k, l]  (contract1)
//   (2,3): out[(a b), x, l] = sum_k w[x, k] T[a, b, k, l] (contract3)
// `len` holds the logical (requested) extents; a mirrored `data` holds
// the tile with dims d0/d1 swapped.
std::vector<double> contract(int d0, const std::size_t len[4], bool mirrored,
                             const double* data, const double* w,
                             std::size_t m) {
  if (d0 == 0) {
    const std::size_t kl = len[2] * len[3], row = len[1] * kl;
    std::vector<double> out(m * row, 0.0);
    if (!mirrored)
      blas::gemm(Trans::No, Trans::No, m, row, len[0], 1.0, w, len[0], data,
                 row, 1.0, out.data(), row);
    else
      blas::gemm_batched(Trans::No, Trans::No, m, kl, len[0], 1.0, w, len[0],
                         0, data, kl, len[0] * kl, 1.0, out.data(), row, kl,
                         len[1]);
    return out;
  }
  const std::size_t ab = len[0] * len[1];
  std::vector<double> out(ab * m * len[3], 0.0);
  blas::gemm_batched(Trans::No, mirrored ? Trans::Yes : Trans::No, m, len[3],
                     len[2], 1.0, w, len[2], 0, data,
                     mirrored ? len[2] : len[3], len[2] * len[3], 1.0,
                     out.data(), len[3], m * len[3], ab);
  return out;
}

// The same contraction over a tile the test holds in the requested
// orientation, one lone gemm per row.
std::vector<double> contract_reference(int d0, const std::size_t len[4],
                                       const double* tile, const double* w,
                                       std::size_t m) {
  if (d0 == 0) {
    const std::size_t row = len[1] * len[2] * len[3];
    std::vector<double> out(m * row, 0.0);
    blas::gemm(Trans::No, Trans::No, m, row, len[0], 1.0, w, len[0], tile,
               row, 1.0, out.data(), row);
    return out;
  }
  const std::size_t ab = len[0] * len[1];
  std::vector<double> out(ab * m * len[3], 0.0);
  for (std::size_t r = 0; r < ab; ++r)
    blas::gemm(Trans::No, Trans::No, m, len[3], len[2], 1.0, w, len[2],
               tile + r * len[2] * len[3], len[3], 1.0,
               out.data() + r * m * len[3], len[3]);
  return out;
}

// Property, over every logical tile of a triangular-stored array
// filled with a function symmetric under the (d0,d1) index swap —
// above, on and below the diagonal, ragged boundary tiles included:
//   * tiles on or above the diagonal land in `buf` as stored; tiles
//     below it land mirrored in `scratch`, and reading them with dims
//     d0/d1 swapped reproduces the function at every element;
//   * contracting dim d0 through the strides of the fetched data is
//     bit-identical to the same contraction over the tile transposed
//     into the requested orientation by the test.
void check_sym_property(int d0, int d1) {
  Cluster cl(tiny_machine(), ExecutionMode::Real);
  // Ragged everywhere: 7 % 3 != 0 and 5 % 2 != 0, so the last tile of
  // every dimension is short and mirrored fetches swap tiles whose two
  // extents differ.
  tensor::Tiling sym_t(7, 3), other_t(5, 2);
  std::vector<tensor::Tiling> dims(4, other_t);
  dims[d0] = sym_t;
  dims[d1] = sym_t;
  auto f = [&](const std::size_t c[4]) {
    // Symmetric under swapping the (d0,d1) indices.
    const double s = static_cast<double>(c[d0] + c[d1]);
    const double p = static_cast<double>(c[d0] * c[d1]);
    double rest = 0;
    for (int d = 0; d < 4; ++d)
      if (d != d0 && d != d1) rest = rest * 10 + static_cast<double>(c[d]);
    return s + 0.5 * p + 0.001 * rest;
  };
  ga::GlobalArray arr(cl, "sym", dims,
                      ga::filter_triangular(static_cast<std::size_t>(d0),
                                            static_cast<std::size_t>(d1)));
  cl.run_phase("fill", [&](runtime::RankCtx& ctx) {
    for (std::size_t idx : arr.tiles_of(ctx.rank())) {
      const auto& ti = arr.tile_by_index(idx);
      std::vector<double> buf(ti.elements);
      std::size_t c[4];
      std::size_t q = 0;
      for (c[0] = ti.lo[0]; c[0] < ti.lo[0] + ti.len[0]; ++c[0])
        for (c[1] = ti.lo[1]; c[1] < ti.lo[1] + ti.len[1]; ++c[1])
          for (c[2] = ti.lo[2]; c[2] < ti.lo[2] + ti.len[2]; ++c[2])
            for (c[3] = ti.lo[3]; c[3] < ti.lo[3] + ti.len[3]; ++c[3])
              buf[q++] = f(c);
      arr.put(ctx, ti.coord, buf.data());
    }
  });
  // Coefficients of the contraction over dim d0 (m rows).
  const std::size_t m = 5;
  std::vector<double> w(m * 3);
  SplitMix64 g(0x5e7711eULL + static_cast<std::uint64_t>(d0));
  for (double& x : w) x = g.next_double(-1.0, 1.0);

  cl.run_phase("check", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    const std::size_t cap = 3 * 3 * 2 * 2;  // >= any tile
    std::vector<double> buf(cap), scratch(cap), logical(cap);
    ga::TileCoord coord(4);
    for (coord[0] = 0; coord[0] < dims[0].ntiles(); ++coord[0])
      for (coord[1] = 0; coord[1] < dims[1].ntiles(); ++coord[1])
        for (coord[2] = 0; coord[2] < dims[2].ntiles(); ++coord[2])
          for (coord[3] = 0; coord[3] < dims[3].ntiles(); ++coord[3]) {
            const auto fetch = nbget_sym_tile(arr, ctx, coord, d0, d1,
                                              buf.data(), scratch.data());
            finish_sym_tile(ctx, fetch);
            const bool below = coord[d0] < coord[d1];
            ASSERT_EQ(fetch.mirrored, below);
            ASSERT_EQ(fetch.data, below ? scratch.data() : buf.data());
            // Logical extents of the requested orientation, and the
            // landed (stored) extents.
            std::size_t lo[4], len[4], slen[4];
            for (int d = 0; d < 4; ++d) {
              lo[d] = dims[d].lo(coord[d]);
              len[d] = dims[d].len(coord[d]);
              slen[d] = len[d];
            }
            if (below) std::swap(slen[d0], slen[d1]);
            std::size_t c[4];
            for (c[0] = 0; c[0] < len[0]; ++c[0])
              for (c[1] = 0; c[1] < len[1]; ++c[1])
                for (c[2] = 0; c[2] < len[2]; ++c[2])
                  for (c[3] = 0; c[3] < len[3]; ++c[3]) {
                    std::size_t sc[4] = {c[0], c[1], c[2], c[3]};
                    if (below) std::swap(sc[d0], sc[d1]);
                    const std::size_t e[4] = {lo[0] + c[0], lo[1] + c[1],
                                              lo[2] + c[2], lo[3] + c[3]};
                    const double v = fetch.data[offset(slen, sc)];
                    ASSERT_EQ(v, f(e))
                        << "tile (" << coord[0] << "," << coord[1] << ","
                        << coord[2] << "," << coord[3] << ") pair (" << d0
                        << "," << d1 << ")";
                    logical[offset(len, c)] = v;
                  }
            const auto got =
                contract(d0, len, fetch.mirrored, fetch.data, w.data(), m);
            const auto want =
                contract_reference(d0, len, logical.data(), w.data(), m);
            ASSERT_EQ(got.size(), want.size());
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     got.size() * sizeof(double)))
                << "tile (" << coord[0] << "," << coord[1] << ","
                << coord[2] << "," << coord[3] << ") pair (" << d0 << ","
                << d1 << ")";
          }
  });
}

TEST(SymTile, MirroredFetchReadsThroughStrides01) { check_sym_property(0, 1); }

TEST(SymTile, MirroredFetchReadsThroughStrides23) { check_sym_property(2, 3); }

}  // namespace
