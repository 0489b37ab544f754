// The paper's headline capability, interactively: given a cluster,
// what is the largest four-index transform it can run in memory?
//
// Prints the lower-bounds-guided fusion plan, the maximum problem
// sizes with and without fusion (Sec. 7.1), and then demonstrates the
// boundary by executing (in Simulate mode) a problem that only the
// fused schedule can hold — the miniature version of running the
// "12 TB" Shell-Mixed transform on a sub-9-TB System B.
//
//   ./largest_problem [nodes] [mem_per_node_GB(unscaled)]
#include <cstdlib>
#include <iostream>

#include "chem/molecule.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_baseline.hpp"
#include "core/schedules_par.hpp"
#include "runtime/machine.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace fit;
  const std::size_t nodes =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 18;
  const double gb = argc > 2 ? std::strtod(argv[2], nullptr) : 512.0;

  auto machine = runtime::system_b(nodes);
  machine.mem_per_node_bytes = gb * 1e9 / 4096.0;  // scaled, see DESIGN.md
  std::cout << "cluster: " << nodes << " nodes x " << gb
            << " GB (paper scale) = "
            << human_bytes(machine.aggregate_memory_bytes() * 4096)
            << " aggregate; simulated at 1/4096 = "
            << human_bytes(machine.aggregate_memory_bytes()) << "\n\n";

  auto mol = chem::paper_molecule("Shell-Mixed");
  auto problem = core::make_problem(mol);
  core::ParOptions opt;
  opt.tile = 8;
  opt.tile_l = 4;
  opt.gather_result = false;
  auto plan = core::plan_for_cluster(problem, machine, opt.tile_l);
  // The decision itself is per rank: does the unfused chain fit every
  // rank of the idle machine?
  const auto fit =
      core::check_capacity(problem, core::Chain::Unfused, 1, opt,
                           core::CapacityView::idle(machine));

  std::cout << "unfused transform needs "
            << human_bytes(plan.aggregate_need_unfused_bytes)
            << ", fused needs "
            << human_bytes(plan.aggregate_need_fused_bytes) << "\n"
            << "largest n (unfused): " << plan.max_n_unfused
            << ", largest n (fused): " << plan.max_n_fused << "\n"
            << "decision: " << (fit.fits ? "unfused" : "FUSE")
            << " (unfused chain: " << core::to_string(fit) << ")\n\n";

  std::cout << core::to_string(core::plan_fusion(
      double(problem.n()), double(problem.irreps.order()),
      machine.aggregate_memory_bytes() / 8.0)) << "\n";

  std::cout << "attempting the NWChem-style unfused transform of "
            << mol.name << " (n=" << mol.n_orbitals << " scaled)...\n";
  try {
    runtime::Cluster cl(machine, runtime::ExecutionMode::Simulate);
    auto r = core::nwchem_unfused_par_transform(problem, cl, opt);
    std::cout << "  ran in " << fmt_fixed(r.stats.sim_time, 3)
              << " s (simulated)\n";
  } catch (const OutOfMemoryError& e) {
    std::cout << "  FAILED: " << e.what() << "\n";
  }

  std::cout << "attempting the fused (Listing 8/10) transform...\n";
  try {
    runtime::Cluster cl(machine, runtime::ExecutionMode::Simulate);
    auto r = core::fused_inner_par_transform(problem, cl, opt);
    std::cout << "  ran in " << fmt_fixed(r.stats.sim_time, 3)
              << " s (simulated), peak global memory "
              << human_bytes(r.stats.peak_global_bytes) << "\n";
  } catch (const OutOfMemoryError& e) {
    std::cout << "  FAILED: " << e.what() << "\n";
  }
  return 0;
}
