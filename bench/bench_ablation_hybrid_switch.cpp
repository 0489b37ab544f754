// Section 7.4 ablation: the fuse/unfuse hybrid's decision boundary.
//
// Sweep the cluster's aggregate memory across the unfused footprint
// and record which schedule the hybrid (resilient_transform, deciding
// with core::check_capacity) picks and the resulting time.
// Expected shape: below the boundary only the fused schedule runs
// (slower in flops, but it runs); above it the hybrid switches to
// unfused and the time drops by the ~1.5x symmetry-breaking factor
// (minus communication differences).
#include <iostream>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "obs/bench_json.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "util/format.hpp"

int main() {
  using namespace fit;
  obs::BenchReport report("bench_ablation_hybrid_switch");
  auto p = core::make_problem(chem::custom_molecule("hyb", 64, 8, 3));
  const auto sz = p.sizes();
  const double footprint = 8.0 * double(sz.unfused_peak() + sz.c);

  TextTable t({"aggregate / footprint", "aggregate mem", "chosen",
               "sim time (s)", "peak global", "remote bytes"});
  for (double f : {0.3, 0.6, 0.9, 1.0, 1.2, 1.6, 3.0}) {
    runtime::MachineConfig m;
    m.name = "probe";
    m.n_nodes = 8;
    m.ranks_per_node = 4;
    m.mem_per_node_bytes = f * footprint / 8.0;
    m.flops_per_rank = 4e9;
    m.integrals_per_sec = 2e8;
    m.net_bandwidth_bps = 1e9;
    m.net_latency_s = 2e-6;
    m.local_bandwidth_bps = 2e10;

    core::ParOptions o;
    o.tile = 8;
    o.tile_l = 4;
    o.gather_result = false;
    runtime::Cluster cl(m, runtime::ExecutionMode::Simulate);
    const std::string key = "f" + fmt_fixed(f, 2);
    try {
      auto r = core::resilient_transform(p, cl, o);
      t.add_row({fmt_fixed(f, 2),
                 human_bytes(m.aggregate_memory_bytes()),
                 r.stats.schedule, fmt_fixed(r.stats.sim_time, 4),
                 human_bytes(r.stats.peak_global_bytes),
                 human_bytes(r.stats.remote_bytes)});
      report.add_scalar(key + ".sim_time_s", r.stats.sim_time);
      report.add_note(key + " chose " + r.stats.schedule);
    } catch (const fit::OutOfMemoryError&) {
      t.add_row({fmt_fixed(f, 2),
                 human_bytes(m.aggregate_memory_bytes()), "Failed", "-",
                 "-", "-"});
      report.add_note(key + " Failed (out of memory)");
    }
  }
  t.print("Sec 7.4 — hybrid decision boundary (n = 64, s = 8, "
          "unfused footprint " + human_bytes(footprint) + ")");
  report.add_table("Sec 7.4 — hybrid decision boundary", t);
  report.add_scalar("unfused_footprint_bytes", footprint);
  const std::string written = report.write();
  if (!written.empty()) std::cout << "bench JSON: " << written << "\n";
  return 0;
}
