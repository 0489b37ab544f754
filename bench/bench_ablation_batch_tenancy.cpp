// Batch/tenancy ablation: what does fleet-scale scheduling buy?
//
// The ROADMAP north star is serving many users, and an MP2 energy scan
// issues dozens of transforms sharing one basis. This bench measures
// the three properties the batch/tenant stack must deliver:
//
//   1. Amortization — a shared-basis batch fills the AO tensor A (and
//      pays its integral evaluation) once, so K batched transforms
//      beat K sequential solo runs on the same cluster. Reported as
//      transforms/hour at fixed aggregate memory; CI gates the
//      batched-vs-sequential speedup >= 1.2x.
//   2. Fairness under quotas — the deficit-round-robin tenant
//      dispenser (ga::plan_tasks + TenantSpec) must complete equal
//      tenant shares near-simultaneously and must never drive a
//      tenant's in-flight bytes past its quota. CI gates zero quota
//      violations.
//   3. Replay identity — Real-mode batch members are bit-identical to
//      solo runs, and a multi-tenant interleaved service workload
//      reproduces exactly the checksums of the same tenants run
//      serially on fresh services. CI gates zero mismatches.
//
// FOURINDEX_BENCH_SMOKE=1 shrinks the scan so the bench finishes in
// seconds.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "ga/task_counter.hpp"
#include "obs/bench_json.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "serve/cost_oracle.hpp"
#include "serve/service.hpp"
#include "util/format.hpp"

int main() {
  using namespace fit;
  obs::BenchReport report("bench_ablation_batch_tenancy");

  const bool smoke = std::getenv("FOURINDEX_BENCH_SMOKE") != nullptr;
  const std::size_t n = smoke ? 20 : 48;
  const std::size_t members = smoke ? 4 : 8;

  auto p = core::make_problem(chem::custom_molecule("scan", n, 2, 77));
  const auto bs = core::batch_member_bs(p, members);

  // A fleet node with a deliberately expensive integral engine — the
  // heavy-basis regime where A-generation is a first-class cost and
  // the scan's repeated fills are what batching exists to remove.
  runtime::MachineConfig m;
  m.name = "fleet-node";
  m.n_nodes = smoke ? 4 : 8;
  m.ranks_per_node = 2;
  m.mem_per_node_bytes = 2e9;
  m.flops_per_rank = 4e9;
  m.integrals_per_sec = 2e6;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 2e-6;
  m.local_bandwidth_bps = 2e10;

  core::ParOptions opt;
  opt.tile = smoke ? 6 : 8;
  opt.tile_l = 4;
  opt.gather_result = false;

  std::cout << "Batch/tenancy ablation: " << members
            << "-member shared-basis scan (n = " << n << ") on " << m.name
            << ", " << m.n_ranks() << " ranks\n\n";
  report.add_note(std::to_string(members) + "-member shared-basis scan, n = " +
                  std::to_string(n) + ", " + std::to_string(m.n_ranks()) +
                  " ranks on " + m.name);

  // ---- 1. batched vs sequential throughput --------------------------
  // Sequential baseline: each member runs solo on an identically
  // configured cluster; the scan's cost is the sum of the runs. The
  // batched run shares one cluster — same aggregate memory — and fills
  // A once for all members.
  double seq_s = 0.0, seq_peak = 0.0, seq_evals = 0.0;
  for (std::size_t mi = 0; mi < bs.size(); ++mi) {
    auto pm = core::make_problem(p.molecule);
    pm.b = bs[mi];
    runtime::Cluster cl(m, runtime::ExecutionMode::Simulate);
    const auto r = core::unfused_par_transform(pm, cl, opt);
    seq_s += r.stats.sim_time;
    seq_peak = std::max(seq_peak, r.stats.peak_global_bytes);
    seq_evals += r.stats.integral_evals;
  }

  runtime::Cluster cb(m, runtime::ExecutionMode::Simulate);
  const auto batched = core::batched_unfused_par_transform(p, bs, cb, opt);
  runtime::Cluster cf(m, runtime::ExecutionMode::Simulate);
  const auto batched_f =
      core::batched_fused_inner_par_transform(p, bs, cf, opt);

  const double k = static_cast<double>(members);
  const double seq_tph = 3600.0 * k / seq_s;
  const double bat_tph = 3600.0 * k / batched.stats.sim_time;
  const double speedup = seq_s / batched.stats.sim_time;
  const double agg_bytes =
      static_cast<double>(m.n_nodes) * m.mem_per_node_bytes;

  TextTable t({"scan", "sim time (s)", "transforms/h", "peak GA",
               "integral evals"});
  t.add_row({"sequential x" + std::to_string(members), fmt_fixed(seq_s, 3),
             fmt_fixed(seq_tph, 1), human_bytes(seq_peak),
             fmt_fixed(seq_evals, 0)});
  t.add_row({"batched (unfused)", fmt_fixed(batched.stats.sim_time, 3),
             fmt_fixed(bat_tph, 1), human_bytes(batched.stats.peak_global_bytes),
             fmt_fixed(batched.stats.integral_evals, 0)});
  t.add_row({"batched (fused-inner)",
             fmt_fixed(batched_f.stats.sim_time, 3),
             fmt_fixed(3600.0 * k / batched_f.stats.sim_time, 1),
             human_bytes(batched_f.stats.peak_global_bytes),
             fmt_fixed(batched_f.stats.integral_evals, 0)});
  t.print("Shared-basis scan: batched vs sequential at equal aggregate "
          "memory");
  std::cout << std::endl;
  report.add_table("batched vs sequential", t);

  report.add_scalar("scan.members", k);
  report.add_scalar("scan.sequential.sim_time_s", seq_s);
  report.add_scalar("scan.sequential.transforms_per_hour", seq_tph);
  report.add_scalar("scan.batched.sim_time_s", batched.stats.sim_time);
  report.add_scalar("scan.batched.transforms_per_hour", bat_tph);
  report.add_scalar("scan.batched.speedup", speedup);
  report.add_scalar("scan.batched.peak_global_bytes",
                    batched.stats.peak_global_bytes);
  report.add_scalar("scan.aggregate_bytes", agg_bytes);
  report.add_scalar("scan.batched.integral_evals",
                    batched.stats.integral_evals);
  report.add_scalar("scan.sequential.integral_evals", seq_evals);
  report.add_scalar("scan.fused.sim_time_s", batched_f.stats.sim_time);
  report.add_scalar("scan.fused.peak_global_bytes",
                    batched_f.stats.peak_global_bytes);

  // The modeled member-completion profile: under the unfused chain
  // members stream out one after another (useful latency), under the
  // fused schedules all complete at the makespan.
  report.add_scalar("scan.batched.first_member_done_s",
                    batched.member_done_s.front());
  report.add_scalar("scan.batched.last_member_done_s",
                    batched.member_done_s.back());

  // ---- 2. multi-tenant fairness and quota adherence -----------------
  // Two tenants with equal aggregate work but different task shapes
  // (many cheap vs few expensive) share one cluster under per-tenant
  // in-flight byte quotas. The DRR dispenser must finish both within a
  // modest makespan ratio and must never exceed either quota.
  auto cl_t =
      runtime::Cluster(m, runtime::ExecutionMode::Simulate);
  ga::TaskCounter counter(cl_t, "tenancy-bench");
  std::vector<std::size_t> tenant, owner;
  std::vector<double> cost, bytes;
  const std::size_t cheap = smoke ? 40 : 160;
  for (std::size_t i = 0; i < cheap; ++i) {  // tenant 0: many cheap
    tenant.push_back(0);
    cost.push_back(1e-3);
    bytes.push_back(64.0);
  }
  for (std::size_t i = 0; i < cheap / 5; ++i) {  // tenant 1: few heavy
    tenant.push_back(1);
    cost.push_back(5e-3);
    bytes.push_back(256.0);
  }
  owner.assign(tenant.size(), 0);
  for (std::size_t i = 0; i < owner.size(); ++i)
    owner[i] = i % cl_t.n_ranks();
  const std::vector<double> quota = {8.0 * 64.0, 4.0 * 256.0};
  ga::TenantSpec spec;
  spec.tenant = tenant;
  spec.task_bytes = bytes;
  spec.quota_bytes = quota;
  spec.n_tenants = 2;
  const auto plan = ga::plan_tasks(cl_t, ga::Balance::Counter, counter,
                                   cost, owner, spec);

  const double hi = std::max(plan.tenant_makespan_s[0],
                             plan.tenant_makespan_s[1]);
  const double lo = std::min(plan.tenant_makespan_s[0],
                             plan.tenant_makespan_s[1]);
  const double fairness = lo > 0 ? hi / lo : 0.0;
  double violations = 0.0;
  for (std::size_t i = 0; i < quota.size(); ++i)
    if (plan.tenant_peak_bytes[i] > quota[i]) violations += 1.0;

  TextTable tt({"tenant", "tasks", "makespan (s)", "peak bytes",
                "quota bytes"});
  for (std::size_t i = 0; i < quota.size(); ++i) {
    const auto count = std::count(tenant.begin(), tenant.end(), i);
    tt.add_row({std::to_string(i), std::to_string(count),
                fmt_fixed(plan.tenant_makespan_s[i], 4),
                fmt_fixed(plan.tenant_peak_bytes[i], 0),
                fmt_fixed(quota[i], 0)});
  }
  tt.print("Deficit-round-robin tenancy under per-tenant quotas");
  std::cout << std::endl;
  report.add_table("tenancy fairness and quotas", tt);

  report.add_scalar("tenancy.fairness_ratio", fairness);
  report.add_scalar("tenancy.quota_violations", violations);
  report.add_scalar("tenancy.quota_stalls",
                    static_cast<double>(plan.quota_stalls));
  report.add_scalar("tenancy.tenant0.peak_bytes", plan.tenant_peak_bytes[0]);
  report.add_scalar("tenancy.tenant1.peak_bytes", plan.tenant_peak_bytes[1]);
  report.add_scalar("tenancy.tenant0.quota_bytes", quota[0]);
  report.add_scalar("tenancy.tenant1.quota_bytes", quota[1]);

  // ---- 3. replay identity -------------------------------------------
  // (a) Real-mode batch members vs solo runs, bit for bit.
  double member_mismatches = 0.0;
  {
    auto pr = core::make_problem(chem::custom_molecule("scan-r", 12, 2, 78));
    const auto rbs = core::batch_member_bs(pr, 3);
    core::ParOptions ro;
    ro.tile = 4;
    ro.tile_l = 4;
    runtime::Cluster rc(runtime::system_b(1), runtime::ExecutionMode::Real);
    const auto rb = core::batched_unfused_par_transform(pr, rbs, rc, ro);
    for (std::size_t mi = 0; mi < rbs.size(); ++mi) {
      auto pm = core::make_problem(pr.molecule);
      pm.b = rbs[mi];
      runtime::Cluster sc(runtime::system_b(1),
                          runtime::ExecutionMode::Real);
      const auto solo = core::unfused_par_transform(pm, sc, ro);
      if (!rb.c[mi] || !solo.c ||
          rb.c[mi]->max_abs_diff(*solo.c) != 0.0)
        member_mismatches += 1.0;
    }
  }

  // (b) Interleaved multi-tenant service workload vs the same tenants
  // run serially, each on a fresh service: every checksum must match.
  double service_mismatches = 0.0;
  {
    serve::Request ra;
    ra.molecule = "custom";
    ra.custom_n = 12;
    ra.custom_s = 2;
    ra.n_nodes = 1;
    ra.tile = 4;
    ra.tile_l = 4;
    ra.real = true;
    ra.tenant = "alice";
    serve::Request rb2 = ra;
    rb2.tenant = "bob";
    rb2.batch = 2;

    serve::TransformService mixed{serve::CostOracle{}};
    const auto a1 = mixed.submit(ra);
    const auto b1 = mixed.submit(rb2);
    const auto a2 = mixed.submit(ra);  // warm: cache replay

    serve::TransformService alice{serve::CostOracle{}};
    serve::TransformService bob{serve::CostOracle{}};
    const auto sa = alice.submit(ra);
    const auto sb = bob.submit(rb2);
    if (a1.result_checksum != sa.result_checksum) service_mismatches += 1;
    if (a2.result_checksum != sa.result_checksum) service_mismatches += 1;
    if (b1.result_checksum != sb.result_checksum) service_mismatches += 1;
  }

  report.add_scalar("identity.member_mismatches", member_mismatches);
  report.add_scalar("identity.service_mismatches", service_mismatches);
  report.add_metrics("batched", cb.metrics());

  std::cout << "batched scan ran " << fmt_fixed(speedup, 3)
            << "x the sequential throughput (" << fmt_fixed(bat_tph, 1)
            << " vs " << fmt_fixed(seq_tph, 1)
            << " transforms/h); fairness ratio " << fmt_fixed(fairness, 3)
            << ", quota violations " << fmt_fixed(violations, 0)
            << ", replay mismatches "
            << fmt_fixed(member_mismatches + service_mismatches, 0) << "\n";

  const std::string written = report.write();
  if (!written.empty()) std::cout << "bench JSON: " << written << "\n";
  return 0;
}
