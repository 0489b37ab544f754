#include <gtest/gtest.h>

#include "chem/molecule.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/transform.hpp"
#include "runtime/machine.hpp"

namespace {

using namespace fit;
using bounds::FusionChoice;

TEST(Planner, SelectsFullFusionWhenCFits) {
  // Fast memory comfortably above |C| + 2n^3: op1234 is feasible and
  // has the least bound, so it must win.
  const double n = 64, s = 8;
  const double c = n * n * n * n / (4 * s);
  auto plan = core::plan_fusion(n, s, c + 3 * n * n * n);
  EXPECT_EQ(plan.selected, FusionChoice::Fused1234);
  // Everything else is pruned or infeasible — never "ok".
  for (const auto& e : plan.entries)
    if (e.choice != FusionChoice::Fused1234) {
      EXPECT_TRUE(e.pruned || !e.feasible);
    }
}

TEST(Planner, SelectsOp12_34WhenCDoesNotFit) {
  const double n = 64, s = 8;
  auto plan = core::plan_fusion(n, s, 4 * n * n);  // >= 3n^2+n+1, < |C|
  EXPECT_EQ(plan.selected, FusionChoice::Fused12_34);
}

TEST(Planner, SelectsUnfusedWhenFusionUseless) {
  // Theorem 5.1: below 3n^2+n+1 no pair fusion can reach its tight
  // bound; only the unfused configuration remains feasible.
  const double n = 64, s = 1;
  auto plan = core::plan_fusion(n, s, 2 * n * n);
  EXPECT_EQ(plan.selected, FusionChoice::Unfused);
}

TEST(Planner, ThrowsWhenNothingFits) {
  EXPECT_THROW(core::plan_fusion(64, 1, 16), fit::PreconditionError);
}

TEST(Planner, RenderedPlanMentionsSelection) {
  auto plan = core::plan_fusion(32, 2, 1e9);
  const std::string s = core::to_string(plan);
  EXPECT_NE(s.find("SELECTED"), std::string::npos);
  EXPECT_NE(s.find("op1234"), std::string::npos);
}

// Per-rank capacity check of `chain` over `members` transforms of p on
// an idle machine m, at tile 8 / tile_l 4.
core::CapacityCheck idle_check(const core::Problem& p, core::Chain chain,
                               std::size_t members,
                               const runtime::MachineConfig& m) {
  core::ParOptions o;
  o.tile = 8;
  o.tile_l = 4;
  return core::check_capacity(p, chain, members, o,
                              core::CapacityView::idle(m));
}

TEST(Planner, ClusterPlanHybridDecision) {
  auto p = core::make_problem(chem::custom_molecule("plan", 46, 8, 1));
  // Big machine: unfused fits.
  auto big = runtime::system_b(18);
  EXPECT_TRUE(idle_check(p, core::Chain::Unfused, 1, big).fits);
  // Small machine: must fuse.
  auto small = runtime::system_a(2);
  EXPECT_FALSE(idle_check(p, core::Chain::Unfused, 1, small).fits);
  auto cp_small = core::plan_for_cluster(p, small, 4);
  // Fused always admits at least as large a problem.
  EXPECT_GE(cp_small.max_n_fused, cp_small.max_n_unfused);
  EXPECT_LT(cp_small.aggregate_need_fused_bytes,
            cp_small.aggregate_need_unfused_bytes);
}

TEST(Planner, BatchPlanAmortizesSharedWork) {
  auto p = core::make_problem(chem::custom_molecule("plan", 46, 8, 1));
  auto big = runtime::system_b(18);
  auto bp = core::plan_batch(p, big, 6);
  EXPECT_EQ(bp.n_members, 6u);
  EXPECT_TRUE(idle_check(p, core::Chain::Unfused, 6, big).fits);
  // The shared A fill is paid once, so batched strictly beats running
  // the six transforms back to back, and the advantage is exactly the
  // 5 re-derivations of A.
  EXPECT_LT(bp.est_seconds_batched, bp.est_seconds_sequential);
  EXPECT_NEAR(bp.est_seconds_sequential - bp.est_seconds_batched,
              5.0 * bp.est_seconds_shared,
              1e-9 * bp.est_seconds_sequential);
  // Unfused batch: one member's chain in flight at a time, so the peak
  // does not grow with the member count.
  EXPECT_DOUBLE_EQ(
      idle_check(p, core::Chain::Unfused, 12, big).aggregate_peak_bytes,
      idle_check(p, core::Chain::Unfused, 6, big).aggregate_peak_bytes);
}

TEST(Planner, BatchPlanFusedPeakGrowsPerMember) {
  auto p = core::make_problem(chem::custom_molecule("plan", 46, 8, 1));
  auto small = runtime::system_a(2);
  EXPECT_FALSE(idle_check(p, core::Chain::Unfused, 4, small).fits);
  // Every member's C is resident under the fused batch, so the peak
  // charge scales with the member count.
  auto peak = [&](std::size_t members) {
    return idle_check(p, core::Chain::FusedInner, members, small)
        .aggregate_peak_bytes;
  };
  EXPECT_NEAR(peak(8) - peak(4), 4.0 * (peak(5) - peak(4)), 1.0);
  EXPECT_GT(peak(5), peak(4));
  // Measured rates propagate into the plan's label.
  core::PlanRates rates;
  rates.source = "measured";
  rates.flops_per_rank = 2e9;
  auto bpm = core::plan_batch(p, small, 4, rates);
  EXPECT_EQ(bpm.rate_source, "measured");
}

TEST(Planner, InnerChoiceIsOp1234OnlyWithHugeLocalMemory) {
  auto p = core::make_problem(chem::custom_molecule("inner", 46, 8, 1));
  auto m = runtime::system_a(4);
  auto cp = core::plan_for_cluster(p, m, 4);
  // Local memory (scaled MBs) is below |C|: op12/34 for the inner.
  EXPECT_EQ(cp.inner_choice, FusionChoice::Fused12_34);
  m.mem_per_node_bytes = 64e9;  // absurdly large local memory
  auto cp2 = core::plan_for_cluster(p, m, 4);
  EXPECT_EQ(cp2.inner_choice, FusionChoice::Fused1234);
}

TEST(Facade, DispatchesSequentialSchedules) {
  auto p = core::make_problem(chem::custom_molecule("api", 8, 2, 9));
  auto ref =
      core::four_index_transform(p, {core::Schedule::Reference, {}});
  ASSERT_TRUE(ref.c.has_value());
  for (auto s : {core::Schedule::Unfused, core::Schedule::Fused12_34,
                 core::Schedule::Recompute, core::Schedule::Fused1234}) {
    auto r = core::four_index_transform(p, {s, {}});
    ASSERT_TRUE(r.c.has_value()) << core::to_string(s);
    EXPECT_LT(r.c->max_abs_diff(*ref.c), 1e-9) << core::to_string(s);
    EXPECT_FALSE(r.distributed);
    EXPECT_GT(r.seq.flops, 0.0);
  }
}

TEST(Facade, DistributedRequiresCluster) {
  auto p = core::make_problem(chem::custom_molecule("api2", 8, 1, 9));
  EXPECT_THROW(core::four_index_transform(p, {core::Schedule::Hybrid, {}}),
               fit::PreconditionError);
}

TEST(Facade, DistributedDispatch) {
  auto p = core::make_problem(chem::custom_molecule("api3", 8, 1, 9));
  auto ref =
      core::four_index_transform(p, {core::Schedule::Reference, {}});
  auto machine = runtime::system_a(1);
  core::TransformOptions opt;
  opt.schedule = core::Schedule::ParFusedInner;
  opt.par.tile = 4;
  opt.par.tile_l = 2;
  runtime::Cluster cl(machine, runtime::ExecutionMode::Real);
  auto r = core::four_index_transform(p, opt, &cl);
  ASSERT_TRUE(r.c.has_value());
  EXPECT_TRUE(r.distributed);
  EXPECT_LT(r.c->max_abs_diff(*ref.c), 1e-9);
  EXPECT_EQ(r.par.schedule, "fused-inner");
}

TEST(Facade, ScheduleNames) {
  EXPECT_EQ(core::to_string(core::Schedule::Hybrid), "hybrid");
  EXPECT_EQ(core::to_string(core::Schedule::ParFused), "par-fused");
}

}  // namespace
