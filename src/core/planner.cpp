#include "core/planner.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace fit::core {

using bounds::FusionChoice;

Plan plan_fusion(double n, double s, double fast_memory_elements) {
  FIT_REQUIRE(n >= 2 && s >= 1 && fast_memory_elements >= 1,
              "bad planner arguments");
  Plan plan;
  plan.fast_memory_elements = fast_memory_elements;
  auto rows = bounds::analyze_fusion_choices(n, s);
  for (const auto& r : rows) {
    PlanEntry e;
    e.choice = r.choice;
    e.io_lower_bound = r.io_lower_bound;
    e.min_fast_memory = r.min_fast_memory;
    e.feasible = fast_memory_elements >= r.min_fast_memory;
    e.pruned = false;
    plan.entries.push_back(e);
  }
  // rows come sorted ascending by bound; the first feasible entry is
  // the winner, everything after it is pruned (its *lower bound*
  // already exceeds the winner's achievable I/O, which is tight for
  // the configurations we implement — Theorem 5.1 / Listing 7).
  bool found = false;
  for (auto& e : plan.entries) {
    if (!e.feasible) {
      e.note = "needs S >= " + human_count(e.min_fast_memory);
      continue;
    }
    if (!found) {
      plan.selected = e.choice;
      e.note = "selected";
      found = true;
    } else {
      e.pruned = true;
      e.note = "pruned: bound above selected choice's tight I/O";
    }
  }
  FIT_REQUIRE(found, "no feasible fusion configuration: fast memory "
                         << human_count(fast_memory_elements)
                         << " elements is below even the unfused need");
  return plan;
}

runtime::MachineConfig apply_rates(runtime::MachineConfig machine,
                                   const PlanRates& rates) {
  if (rates.flops_per_rank > 0) machine.flops_per_rank = rates.flops_per_rank;
  if (rates.net_bandwidth_bps > 0)
    machine.net_bandwidth_bps = rates.net_bandwidth_bps;
  if (rates.integrals_per_sec > 0)
    machine.integrals_per_sec = rates.integrals_per_sec;
  return machine;
}

ClusterPlan plan_for_cluster(const Problem& p,
                             const runtime::MachineConfig& machine,
                             std::size_t tile_l, const PlanRates& rates) {
  const runtime::MachineConfig m = apply_rates(machine, rates);
  ClusterPlan cp;
  const double n = static_cast<double>(p.n());
  const double s = static_cast<double>(p.irreps.order());
  const auto sz = p.sizes();
  cp.aggregate_need_unfused_bytes =
      8.0 * static_cast<double>(sz.unfused_peak() + sz.c);
  cp.aggregate_need_fused_bytes =
      8.0 * bounds::eq8_global_memory(n, static_cast<double>(tile_l), s);
  const double agg = m.aggregate_memory_bytes();

  // Inner transform (per l-slice): its output is the full C, which for
  // problems of interest exceeds local memory, so by Thm 6.2 full
  // reuse is impossible locally and op12/34 is the best remaining
  // choice (Thm 5.2). With a large local memory op1234 wins.
  const double local_elems = m.mem_per_rank_bytes() / 8.0;
  const double c_elems = static_cast<double>(sz.c);
  cp.inner_choice = local_elems >= c_elems + 2 * n * n * n
                        ? FusionChoice::Fused1234
                        : FusionChoice::Fused12_34;

  cp.max_n_unfused = bounds::max_unfused_problem(agg / 8.0, s);
  cp.max_n_fused = bounds::max_fused_problem(
      agg / 8.0, static_cast<double>(tile_l), s);

  // Coarse time estimates at the effective rates: symmetry-packed flop
  // volume (~3 n^5 flops unfused, ~1.5x fused — schedules_seq.hpp)
  // spread over aggregate compute, plus the configuration's I/O lower
  // bound over aggregate injection bandwidth. Deliberately optimistic
  // (a lower-bound-shaped estimate, like everything in this planner) —
  // it does not promise wall clocks.
  const double ranks = static_cast<double>(m.n_ranks());
  const double n5 = n * n * n * n * n;
  const double agg_flops = m.flops_per_rank * ranks;
  const double agg_net = m.net_bandwidth_bps * ranks;
  const double io_unfused =
      bounds::io_opt(FusionChoice::Unfused, n, s);
  const double io_fused = bounds::io_opt(FusionChoice::Fused1234, n, s);
  cp.est_seconds_unfused =
      3.0 * n5 / agg_flops + 8.0 * io_unfused / agg_net;
  cp.est_seconds_fused =
      4.5 * n5 / agg_flops + 8.0 * io_fused / agg_net;
  cp.rate_source = rates.source;
  return cp;
}

BatchPlan plan_batch(const Problem& p,
                     const runtime::MachineConfig& machine,
                     std::size_t n_members, const PlanRates& rates) {
  const runtime::MachineConfig m = apply_rates(machine, rates);
  BatchPlan bp;
  bp.n_members = n_members == 0 ? 1 : n_members;
  bp.rate_source = rates.source;

  const double n = static_cast<double>(p.n());
  const double s = static_cast<double>(p.irreps.order());
  const double a = static_cast<double>(p.sizes().a);
  const double members = static_cast<double>(bp.n_members);

  // Member-invariant work: evaluating the AO integrals into A, spread
  // over the ranks' integral engines plus the puts that store it.
  const double ranks = static_cast<double>(m.n_ranks());
  const double agg_net = m.net_bandwidth_bps * ranks;
  bp.est_seconds_shared =
      a / (m.integrals_per_sec * ranks) + 8.0 * a / agg_net;

  // Per-member work: the fused-inner chain's flops and I/O at the
  // effective rates (same lower-bound shape as plan_for_cluster's
  // fused estimate).
  const double n5 = n * n * n * n * n;
  const double agg_flops = m.flops_per_rank * ranks;
  const double io = bounds::io_opt(FusionChoice::Fused1234, n, s);
  bp.est_seconds_per_member = 4.5 * n5 / agg_flops + 8.0 * io / agg_net;

  bp.est_seconds_batched =
      bp.est_seconds_shared + members * bp.est_seconds_per_member;
  bp.est_seconds_sequential =
      members * (bp.est_seconds_shared + bp.est_seconds_per_member);
  return bp;
}

std::string to_string(const Plan& plan) {
  TextTable t({"fusion", "I/O lower bound", "min fast memory", "status"});
  for (const auto& e : plan.entries) {
    std::string status = e.pruned ? "pruned" : e.feasible
                             ? (e.choice == plan.selected ? "SELECTED" : "ok")
                             : "infeasible";
    t.add_row({bounds::to_string(e.choice), human_count(e.io_lower_bound),
               human_count(e.min_fast_memory), status});
  }
  std::ostringstream oss;
  oss << t.str("fusion plan (S = " +
               human_count(plan.fast_memory_elements) + " elements)");
  return oss.str();
}

BalancePick choose_balance(const runtime::Cluster& cluster,
                           const ga::TaskCounter& counter,
                           std::span<const double> cost_s,
                           std::span<const std::size_t> owner,
                           std::size_t batch) {
  // Candidates in tie-break order: the simpler mechanism wins when the
  // modeled makespans are equal (Static beats everything it ties —
  // dynamic balancing must *pay* for its scheduling traffic).
  static constexpr ga::Balance kCandidates[] = {
      ga::Balance::Static,  ga::Balance::Batched, ga::Balance::PerNode,
      ga::Balance::Tree,    ga::Balance::Steal,   ga::Balance::Counter,
  };
  BalancePick pick;
  pick.batch = batch;
  double best = std::numeric_limits<double>::infinity();
  for (ga::Balance b : kCandidates) {
    ga::TaskPlan plan =
        ga::plan_tasks(cluster, b, counter, cost_s, owner, batch);
    if (plan.makespan_s < best) {
      best = plan.makespan_s;
      pick.balance = b;
      pick.plan = std::move(plan);
    }
  }
  return pick;
}

}  // namespace fit::core
