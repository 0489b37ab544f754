// Bit-identity probe for the Real-mode schedules: runs every
// distributed schedule (the paper's Listings 4, 8 and 10, the
// shared-basis batches and the NWChem models) and every sequential
// schedule over a sweep of problem sizes and tilings, ragged ones
// included, and prints one FNV-1a checksum of C per run.
//
//   real_checksums > a.txt      # build A
//   real_checksums > b.txt      # build B
//   diff a.txt b.txt            # empty: both builds compute the same bits
//
// A change to the kernel library or the schedules that claims
// bit-identical results should leave this output unchanged.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_baseline.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "tensor/packed.hpp"
#include "util/hash.hpp"

namespace {

using namespace fit;

std::uint64_t checksum(const tensor::PackedC& c) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const std::size_t n = c.n();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b <= a; ++b)
      for (std::size_t cc = 0; cc < n; ++cc)
        for (std::size_t d = 0; d <= cc; ++d) {
          const double v = c.get(a, b, cc, d);
          h = util::fnv1a_bytes(&v, sizeof v, h);
        }
  return h;
}

void print(const std::string& label, const tensor::PackedC& c) {
  std::printf("%-52s %016llx\n", label.c_str(),
              static_cast<unsigned long long>(checksum(c)));
}

runtime::MachineConfig machine() {
  runtime::MachineConfig m;
  m.name = "checksums";
  m.n_nodes = 4;
  m.ranks_per_node = 4;
  m.mem_per_node_bytes = 4e9;
  return m;
}

struct Tiling {
  std::size_t tile, tile_l;
  bool overlap;
};

// Every schedule on the problem (n, s): the sequential ones once, the
// distributed ones once per tiling.
void sweep(std::size_t n, unsigned s, const std::vector<Tiling>& tilings) {
  const core::Problem p =
      core::make_problem(chem::custom_molecule("checksums", n, s, n));
  const std::string prob =
      "n=" + std::to_string(n) + " s=" + std::to_string(s);
  print(prob + " seq unfused", core::unfused_transform(p));
  print(prob + " seq fused12_34", core::fused12_34_transform(p));
  print(prob + " seq recompute", core::recompute_transform(p));
  print(prob + " seq fused1234", core::fused1234_transform(p));
  for (const Tiling& t : tilings) {
    core::ParOptions o;
    o.tile = t.tile;
    o.tile_l = t.tile_l;
    o.overlap = t.overlap;
    const std::string cfg = prob + " tile=" + std::to_string(t.tile) +
                            " tile_l=" + std::to_string(t.tile_l) +
                            (t.overlap ? " overlap" : " blocking");
    using Run = std::function<core::ParResult(runtime::Cluster&)>;
    const std::pair<const char*, Run> runs[] = {
        {"unfused",
         [&](runtime::Cluster& cl) {
           return core::unfused_par_transform(p, cl, o);
         }},
        {"fused",
         [&](runtime::Cluster& cl) {
           return core::fused_par_transform(p, cl, o);
         }},
        {"fused-inner",
         [&](runtime::Cluster& cl) {
           return core::fused_inner_par_transform(p, cl, o);
         }},
        {"nwchem-unfused",
         [&](runtime::Cluster& cl) {
           return core::nwchem_unfused_par_transform(p, cl, o);
         }},
        {"nwchem-recompute", [&](runtime::Cluster& cl) {
           return core::nwchem_recompute_par_transform(p, cl, o);
         }}};
    for (const auto& [name, run] : runs) {
      runtime::Cluster cl(machine(), runtime::ExecutionMode::Real);
      print(cfg + " " + name, *run(cl).c);
    }
    const auto bs = core::batch_member_bs(p, 2);
    {
      runtime::Cluster cl(machine(), runtime::ExecutionMode::Real);
      const auto r = core::batched_unfused_par_transform(p, bs, cl, o);
      for (std::size_t m = 0; m < r.c.size(); ++m)
        print(cfg + " batched-unfused[" + std::to_string(m) + "]", *r.c[m]);
    }
    {
      runtime::Cluster cl(machine(), runtime::ExecutionMode::Real);
      const auto r = core::batched_fused_inner_par_transform(p, bs, cl, o);
      for (std::size_t m = 0; m < r.c.size(); ++m)
        print(cfg + " batched-fused-inner[" + std::to_string(m) + "]",
              *r.c[m]);
    }
  }
}

}  // namespace

int main() {
  // Irrep-aligned tilings clamp the tile width to the irrep block, so
  // the wide tiles run on the symmetry-free problem.
  const std::vector<Tiling> symmetric = {{7, 3, true}, {8, 4, false}};
  const std::vector<Tiling> wide = {{16, 5, true}, {12, 3, false}};
  for (const std::size_t n : {20, 24, 30, 32, 36, 40}) {
    sweep(n, n % 4 == 0 ? 4 : 2, symmetric);
    sweep(n, 1, wide);
  }
  return 0;
}
