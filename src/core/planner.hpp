// Lower-bounds-guided planning — the paper's methodology turned into
// an API. Instead of auto-tuning over thousands of fusion/tiling
// configurations, the planner:
//
//   1. computes the I/O lower bound of every fusion configuration
//      (Sec. 5.3) and prunes those whose *best possible* I/O cannot
//      beat a cheaper configuration's achievable I/O;
//   2. applies the capacity conditions (Thm 5.1: S >= 3n^2+n+1 for a
//      useful pair fusion; Thm 6.2: S >= |C| for full reuse) to mark
//      configurations infeasible for the machine at hand;
//   3. picks the feasible configuration with the least I/O bound,
//      which by Theorem 5.2's total order is op1234 when C fits in
//      aggregate memory and op12/34 for the inner transform.
//
// Whether a distributed chain fits the machine is not decided here:
// core::check_capacity answers it per rank.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bounds/transform_bounds.hpp"
#include "core/problem.hpp"
#include "ga/task_counter.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"

/// \file
/// \brief Lower-bounds-guided fusion planning (Sec. 5/6 conditions,
/// Thm 5.2 selection order, the Sec. 7 cluster-level bounds, and the
/// per-phase balance-mode chooser behind ga::Balance::Auto.

namespace fit::core {

/// One fusion configuration annotated with its bound analysis.
struct PlanEntry {
  /// The fusion configuration this entry describes.
  bounds::FusionChoice choice;
  /// I/O lower bound in elements, between slow and fast memory.
  double io_lower_bound;
  /// Elements of fast memory needed for the bound to be attainable.
  double min_fast_memory;
  /// True when the configuration fits the given fast memory.
  bool feasible;
  /// True when a better feasible choice dominates this one.
  bool pruned;
  /// Human-readable rationale (pruning/infeasibility/downgrade).
  std::string note;
};

/// The planner's verdict over all fusion configurations.
struct Plan {
  /// All five fusion choices, annotated with bounds and feasibility.
  std::vector<PlanEntry> entries;
  /// The selected (least-I/O feasible) configuration.
  bounds::FusionChoice selected;
  /// Fast-memory budget (elements) the plan was made against.
  double fast_memory_elements;
};

/// Analyze all fusion configurations for extent n, spatial factor s,
/// against a fast memory of `fast_memory_elements`, and select the
/// best feasible one.
Plan plan_fusion(double n, double s, double fast_memory_elements);

/// Effective machine rates the time-aware planner prices work at.
/// Zero fields mean "take the MachineConfig's nominal rate"; the
/// serve::CostOracle substitutes bench-measured values and labels the
/// source, so plan selection (and everything the DES claim planner
/// derives from the machine's alpha-beta model) tracks what the
/// hardware actually delivers rather than its data-sheet numbers.
struct PlanRates {
  double flops_per_rank = 0;       ///< 0 = machine nominal.
  double net_bandwidth_bps = 0;    ///< 0 = machine nominal.
  double integrals_per_sec = 0;    ///< 0 = machine nominal.
  std::string source = "nominal";  ///< "nominal" or "measured".
};

/// Substitute `rates` into a machine description. Clusters built from
/// the returned config charge compute and wire time at the effective
/// rates, which is how choose_balance's DES and the simulation itself
/// become oracle-backed without any schedule code changing.
runtime::MachineConfig apply_rates(runtime::MachineConfig machine,
                                   const PlanRates& rates);

/// Cluster-level plan (Sec. 7): the paper's aggregate bounds at the
/// disk <-> aggregate-memory level, and the inner schedule the
/// aggregate <-> local level picks for the per-slice transform. The
/// fused-vs-unfused decision itself is core::check_capacity's, per
/// rank; the aggregate needs here are reported, not decided on.
struct ClusterPlan {
  /// Schedule of the inner four-index transform.
  bounds::FusionChoice inner_choice;
  /// Aggregate bytes the unfused intermediate chain needs (Eq. 7).
  double aggregate_need_unfused_bytes;
  /// Aggregate bytes the fused outer schedule needs per l-slice (Eq. 8).
  double aggregate_need_fused_bytes;
  /// Largest extent n the cluster fits with the unfused chain.
  std::size_t max_n_unfused;
  /// Largest extent n the cluster fits with the fused schedule.
  std::size_t max_n_fused;
  /// Coarse transform-time estimates (seconds) at the rates the plan
  /// was priced with: symmetry-packed flop volume over aggregate
  /// compute plus the I/O lower bound over injection bandwidth. The
  /// service prices requests with plan_batch instead; perfbench's
  /// planner.plan_ms still times this function.
  double est_seconds_unfused = 0;
  double est_seconds_fused = 0;
  /// Where the pricing rates came from ("nominal" or "measured").
  std::string rate_source = "nominal";
};

/// Evaluate the two-level (disk/aggregate/local) plan of Sec. 7 for a
/// problem on a machine, with fused outer-slice width `tile_l`, priced
/// at explicit effective rates (the measured ones from
/// serve::CostOracle::rates(), or nominal defaults).
ClusterPlan plan_for_cluster(const Problem& p,
                             const runtime::MachineConfig& machine,
                             std::size_t tile_l, const PlanRates& rates = {});

/// Time estimates for a shared-basis batch of `n_members` transforms
/// run through the fused-inner chain, the one the serve layer runs (a
/// solo request is the batch of one): the member-invariant work, what
/// each member adds, and the batched-vs-sequential totals. Like
/// everything in this planner the estimates are lower-bound-shaped:
/// they do not promise wall clocks. What the batch needs in memory is
/// core::check_capacity's answer.
struct BatchPlan {
  /// Members the plan was made for.
  std::size_t n_members = 1;
  /// Estimated seconds of member-invariant work (evaluating the AO
  /// integrals into A), paid once per batch.
  double est_seconds_shared = 0;
  /// Estimated seconds each member adds (its contraction chain's flops
  /// and I/O at the effective rates).
  double est_seconds_per_member = 0;
  /// est_seconds_shared + n_members * est_seconds_per_member.
  double est_seconds_batched = 0;
  /// n_members * (est_seconds_shared + est_seconds_per_member): every
  /// member re-deriving A for itself, the no-batching baseline.
  double est_seconds_sequential = 0;
  /// Where the pricing rates came from ("nominal" or "measured").
  std::string rate_source = "nominal";
};

/// Evaluate the shared-basis batch plan for `n_members` fused-inner
/// transforms of problem `p` on a machine, priced at explicit effective
/// rates.
BatchPlan plan_batch(const Problem& p,
                     const runtime::MachineConfig& machine,
                     std::size_t n_members, const PlanRates& rates = {});

/// Render a plan as a printable table (used by examples/benches).
std::string to_string(const Plan& plan);

/// The per-phase verdict behind ga::Balance::Auto.
struct BalancePick {
  /// The winning fixed mode (never Auto).
  ga::Balance balance = ga::Balance::Static;
  /// Dequeue granularity the candidates were planned with (the caller's
  /// batch, or 0 when plan_tasks derived it from the auto rule).
  std::size_t batch = 0;
  /// The winning mode's claim plan, ready to replay — choosing and
  /// planning are one pass, so Auto never pays a second DES run.
  ga::TaskPlan plan;
};

/// Choose the cheapest balance mode for one claimed phase from the
/// alpha-beta cost model: runs ga::plan_tasks for every fixed mode on
/// the phase's cost estimates and picks the least simulated makespan
/// (TaskPlan::makespan_s). Ties prefer the simpler mechanism, in the
/// order Static, Batched, PerNode, Tree, Steal, Counter — so Auto
/// degenerates to Static whenever dynamic balancing cannot pay for its
/// own scheduling traffic. `batch` is forwarded to plan_tasks
/// (0 = the claims-per-rank auto rule).
BalancePick choose_balance(const runtime::Cluster& cluster,
                           const ga::TaskCounter& counter,
                           std::span<const double> cost_s,
                           std::span<const std::size_t> owner,
                           std::size_t batch = 0);

}  // namespace fit::core
