// Distributed schedules (Listings 4, 8, 10 and the hybrid) validated
// in Real mode against the sequential reference, plus checks of the
// memory/communication properties the paper claims for each and of
// the per-rank capacity check that decides between them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "core/transform.hpp"
#include "runtime/machine.hpp"
#include "util/rng.hpp"

namespace {

using namespace fit;
using runtime::Cluster;
using runtime::ExecutionMode;
using runtime::MachineConfig;

MachineConfig test_machine(std::size_t nodes, std::size_t rpn,
                           double mem_per_node = 64e6) {
  MachineConfig m;
  m.name = "test";
  m.n_nodes = nodes;
  m.ranks_per_node = rpn;
  m.mem_per_node_bytes = mem_per_node;
  m.flops_per_rank = 1e9;
  m.integrals_per_sec = 1e8;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 1e-6;
  m.local_bandwidth_bps = 1e10;
  return m;
}

struct ParCase {
  std::size_t n, s, ranks, tile, tile_l;
};

class ParSchedules : public ::testing::TestWithParam<ParCase> {
 protected:
  core::Problem make() {
    const auto c = GetParam();
    return core::make_problem(
        chem::custom_molecule("par", c.n, static_cast<unsigned>(c.s),
                              17 * c.n + c.s));
  }
  core::ParOptions options() {
    const auto c = GetParam();
    core::ParOptions o;
    o.tile = c.tile;
    o.tile_l = c.tile_l;
    return o;
  }
  Cluster cluster() {
    return Cluster(test_machine(2, GetParam().ranks / 2),
                   ExecutionMode::Real);
  }
};

TEST_P(ParSchedules, UnfusedMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto cl = cluster();
  auto r = core::unfused_par_transform(p, cl, options());
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
  EXPECT_GT(r.stats.flops, 0.0);
}

TEST_P(ParSchedules, FusedMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto cl = cluster();
  auto r = core::fused_par_transform(p, cl, options());
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
}

TEST_P(ParSchedules, FusedInnerMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto cl = cluster();
  auto r = core::fused_inner_par_transform(p, cl, options());
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
}

TEST_P(ParSchedules, HybridMatchesReference) {
  auto p = make();
  auto ref = core::reference_transform(p);
  auto cl = cluster();
  auto r = core::resilient_transform(p, cl, options());
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParSchedules,
    ::testing::Values(ParCase{8, 1, 2, 4, 2}, ParCase{8, 2, 4, 3, 4},
                      ParCase{12, 4, 4, 4, 4}, ParCase{12, 1, 6, 5, 3},
                      ParCase{16, 8, 8, 4, 8}, ParCase{10, 2, 2, 10, 10}));

// ---- Shared-basis batched schedules -----------------------------------

TEST(Batched, MembersBitIdenticalToSoloRuns) {
  auto p = core::make_problem(chem::custom_molecule("batch", 12, 2, 611));
  const auto bs = core::batch_member_bs(p, 3);
  ASSERT_EQ(bs.size(), 3u);
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;

  Cluster cb(test_machine(2, 2), ExecutionMode::Real);
  auto ru = core::batched_unfused_par_transform(p, bs, cb, opt);
  Cluster cf(test_machine(2, 2), ExecutionMode::Real);
  auto rf = core::batched_fused_inner_par_transform(p, bs, cf, opt);
  ASSERT_EQ(ru.c.size(), 3u);
  ASSERT_EQ(rf.c.size(), 3u);

  for (std::size_t m = 0; m < bs.size(); ++m) {
    // A solo problem whose B is this member's coefficient set.
    auto pm = core::make_problem(p.molecule);
    pm.b = bs[m];
    Cluster su(test_machine(2, 2), ExecutionMode::Real);
    auto solo_u = core::unfused_par_transform(pm, su, opt);
    Cluster sf(test_machine(2, 2), ExecutionMode::Real);
    auto solo_f = core::fused_inner_par_transform(pm, sf, opt);
    ASSERT_TRUE(ru.c[m].has_value());
    ASSERT_TRUE(rf.c[m].has_value());
    ASSERT_TRUE(solo_u.c.has_value());
    ASSERT_TRUE(solo_f.c.has_value());
    EXPECT_EQ(ru.c[m]->max_abs_diff(*solo_u.c), 0.0)
        << "unfused member " << m;
    EXPECT_EQ(rf.c[m]->max_abs_diff(*solo_f.c), 0.0)
        << "fused-inner member " << m;
  }
}

TEST(Batched, IntegralEvaluationIsPaidOncePerBatch) {
  auto p = core::make_problem(chem::custom_molecule("batch", 12, 2, 612));
  const auto bs = core::batch_member_bs(p, 4);
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;

  Cluster solo(test_machine(2, 2), ExecutionMode::Simulate);
  auto rs = core::unfused_par_transform(p, solo, opt);
  Cluster batch(test_machine(2, 2), ExecutionMode::Simulate);
  auto rb = core::batched_unfused_par_transform(p, bs, batch, opt);

  // A is filled once for the whole batch, so the batch evaluates
  // exactly as many integrals as one solo run — while doing ~4x the
  // contraction flops.
  EXPECT_DOUBLE_EQ(rb.stats.integral_evals, rs.stats.integral_evals);
  EXPECT_GT(rb.stats.flops, 3.5 * rs.stats.flops);

  // Same invariant for the fused-inner batch (per-slice fills).
  Cluster solo_f(test_machine(2, 2), ExecutionMode::Simulate);
  auto rsf = core::fused_inner_par_transform(p, solo_f, opt);
  Cluster batch_f(test_machine(2, 2), ExecutionMode::Simulate);
  auto rbf = core::batched_fused_inner_par_transform(p, bs, batch_f, opt);
  EXPECT_DOUBLE_EQ(rbf.stats.integral_evals, rsf.stats.integral_evals);
}

TEST(Batched, BatchedBeatsSequentialAndReportsMemberCompletion) {
  auto p = core::make_problem(chem::custom_molecule("batch", 12, 2, 613));
  const std::size_t count = 4;
  const auto bs = core::batch_member_bs(p, count);
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;

  Cluster batch(test_machine(2, 2), ExecutionMode::Simulate);
  auto rb = core::batched_unfused_par_transform(p, bs, batch, opt);
  ASSERT_EQ(rb.member_done_s.size(), count);
  for (std::size_t m = 1; m < count; ++m)
    EXPECT_GT(rb.member_done_s[m], rb.member_done_s[m - 1]);

  // Sequential baseline: each member as its own full transform (A
  // refilled every time).
  double sequential = 0;
  for (std::size_t m = 0; m < count; ++m) {
    auto pm = core::make_problem(p.molecule);
    pm.b = bs[m];
    Cluster cl(test_machine(2, 2), ExecutionMode::Simulate);
    sequential += core::unfused_par_transform(pm, cl, opt).stats.sim_time;
  }
  EXPECT_LT(rb.stats.sim_time, sequential);

  // Fused-inner batch: no member is done before the last slice.
  Cluster bf(test_machine(2, 2), ExecutionMode::Simulate);
  auto rbf = core::batched_fused_inner_par_transform(p, bs, bf, opt);
  ASSERT_EQ(rbf.member_done_s.size(), count);
  for (double d : rbf.member_done_s)
    EXPECT_DOUBLE_EQ(d, rbf.member_done_s.front());
}

TEST(Batched, SingleMemberBatchMatchesPlainSchedules) {
  // A solo run is the batch of one: same bits and the same modeled
  // work for both chains, under the static owner map and under the
  // planner-picked balance (whose batch memo must not change a run
  // that repeats no phase).
  auto p = core::make_problem(chem::custom_molecule("batch", 10, 2, 614));
  const auto bs = core::batch_member_bs(p, 1);
  for (const ga::Balance balance : {ga::Balance::Static, ga::Balance::Auto}) {
    SCOPED_TRACE(ga::to_string(balance));
    core::ParOptions opt;
    opt.tile = 5;
    opt.tile_l = 5;
    opt.balance = balance;
    auto check = [](const core::ParResult& solo,
                    const core::BatchParResult& batch) {
      ASSERT_TRUE(solo.c.has_value());
      ASSERT_EQ(batch.c.size(), 1u);
      ASSERT_TRUE(batch.c[0].has_value());
      EXPECT_EQ(batch.c[0]->max_abs_diff(*solo.c), 0.0);
      // Identical modeled work too: same phases, same claims, same
      // bytes, same memory high-water mark.
      EXPECT_DOUBLE_EQ(batch.stats.sim_time, solo.stats.sim_time);
      EXPECT_DOUBLE_EQ(batch.stats.remote_bytes, solo.stats.remote_bytes);
      EXPECT_DOUBLE_EQ(batch.stats.flops, solo.stats.flops);
      EXPECT_DOUBLE_EQ(batch.stats.integral_evals,
                       solo.stats.integral_evals);
      EXPECT_EQ(batch.stats.n_phases, solo.stats.n_phases);
      EXPECT_DOUBLE_EQ(batch.stats.peak_global_bytes,
                       solo.stats.peak_global_bytes);
    };
    {
      Cluster c1(test_machine(1, 2), ExecutionMode::Real);
      Cluster c2(test_machine(1, 2), ExecutionMode::Real);
      SCOPED_TRACE("unfused");
      check(core::unfused_par_transform(p, c1, opt),
            core::batched_unfused_par_transform(p, bs, c2, opt));
    }
    {
      Cluster c1(test_machine(1, 2), ExecutionMode::Real);
      Cluster c2(test_machine(1, 2), ExecutionMode::Real);
      SCOPED_TRACE("fused-inner");
      check(core::fused_inner_par_transform(p, c1, opt),
            core::batched_fused_inner_par_transform(p, bs, c2, opt));
    }
  }
}

TEST(ParProperties, FusedPeakMemoryFarBelowUnfused) {
  // The reason the fused schedule exists: its global high-water mark
  // is ~|C| + O(n^3 Tl) while unfused holds ~3n^4/4.
  auto p = core::make_problem(chem::custom_molecule("mem", 16, 1, 5));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 2;
  Cluster cu(test_machine(2, 2), ExecutionMode::Simulate);
  auto ru = core::unfused_par_transform(p, cu, o);
  Cluster cf(test_machine(2, 2), ExecutionMode::Simulate);
  auto rf = core::fused_par_transform(p, cf, o);
  Cluster cfi(test_machine(2, 2), ExecutionMode::Simulate);
  auto rfi = core::fused_inner_par_transform(p, cfi, o);
  EXPECT_LT(rf.stats.peak_global_bytes, 0.6 * ru.stats.peak_global_bytes);
  EXPECT_LT(rfi.stats.peak_global_bytes, rf.stats.peak_global_bytes);
}

TEST(ParProperties, FusedInnerMovesFewerBytesThanFused) {
  // Listing 10 eliminates the distributed O1 and O3 slice traffic.
  auto p = core::make_problem(chem::custom_molecule("comm", 24, 1, 5));
  core::ParOptions o;
  o.tile = 6;
  o.tile_l = 4;
  Cluster cf(test_machine(4, 4), ExecutionMode::Simulate);
  auto rf = core::fused_par_transform(p, cf, o);
  Cluster cfi(test_machine(4, 4), ExecutionMode::Simulate);
  auto rfi = core::fused_inner_par_transform(p, cfi, o);
  const double traffic_f = rf.stats.remote_bytes + rf.stats.local_bytes;
  const double traffic_fi = rfi.stats.remote_bytes + rfi.stats.local_bytes;
  EXPECT_LT(traffic_fi, 0.75 * traffic_f);
}

TEST(ParProperties, SimulateAndRealChargeIdenticalCounters) {
  auto p = core::make_problem(chem::custom_molecule("modes", 12, 2, 5));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 3;
  o.gather_result = false;
  Cluster cr(test_machine(2, 2), ExecutionMode::Real);
  auto rr = core::fused_inner_par_transform(p, cr, o);
  Cluster cs(test_machine(2, 2), ExecutionMode::Simulate);
  auto rs = core::fused_inner_par_transform(p, cs, o);
  EXPECT_DOUBLE_EQ(rr.stats.flops, rs.stats.flops);
  EXPECT_DOUBLE_EQ(rr.stats.remote_bytes, rs.stats.remote_bytes);
  EXPECT_DOUBLE_EQ(rr.stats.integral_evals, rs.stats.integral_evals);
  EXPECT_DOUBLE_EQ(rr.stats.peak_global_bytes, rs.stats.peak_global_bytes);
  EXPECT_NEAR(rr.stats.sim_time, rs.stats.sim_time, 1e-12);
}

TEST(ParProperties, AlphaParallelIncreasesATraffic) {
  // Sec. 7.3: parallelizing alpha multiplies the A communication.
  auto p = core::make_problem(chem::custom_molecule("alpha", 24, 1, 5));
  core::ParOptions o1;
  o1.tile = 4;
  o1.tile_l = 4;
  o1.alpha_parallel = 1;
  core::ParOptions o4 = o1;
  o4.alpha_parallel = 4;
  Cluster c1(test_machine(4, 6), ExecutionMode::Simulate);
  auto r1 = core::fused_inner_par_transform(p, c1, o1);
  Cluster c4(test_machine(4, 6), ExecutionMode::Simulate);
  auto r4 = core::fused_inner_par_transform(p, c4, o4);
  const double t1 = r1.stats.remote_bytes + r1.stats.local_bytes;
  const double t4 = r4.stats.remote_bytes + r4.stats.local_bytes;
  // Only the A portion of the traffic replicates (O2/C traffic is
  // unchanged), so total growth is material but sublinear in n_ac.
  EXPECT_GT(t4, 1.25 * t1);
}

TEST(ParProperties, UnfusedOomsWhereFusedRuns) {
  // The headline capability claim at miniature scale: pick a memory
  // budget between the fused and unfused footprints.
  auto p = core::make_problem(chem::custom_molecule("oom", 24, 4, 5));
  const auto sz = p.sizes();
  // Budget: 5x the output size — far below the ~3n^4/4 intermediates
  // but enough for C plus the O(n^3 Tl) fused slices.
  const double budget = 8.0 * 5.0 * static_cast<double>(sz.c);
  ASSERT_LT(budget, 8.0 * static_cast<double>(sz.unfused_peak()));
  core::ParOptions o;
  o.tile = 6;
  o.tile_l = 2;
  o.gather_result = false;
  auto machine = test_machine(2, 2, budget / 2);  // 2 nodes
  Cluster cu(machine, ExecutionMode::Simulate);
  EXPECT_THROW(core::unfused_par_transform(p, cu, o), fit::OutOfMemoryError);
  Cluster cf(machine, ExecutionMode::Simulate);
  EXPECT_NO_THROW(core::fused_inner_par_transform(p, cf, o));
}

TEST(ParProperties, HybridPicksByMemory) {
  auto p = core::make_problem(chem::custom_molecule("hyb", 16, 2, 5));
  const auto sz = p.sizes();
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 2;
  o.gather_result = false;
  // Plenty of memory: hybrid must choose unfused.
  Cluster big(test_machine(2, 2, 64e6), ExecutionMode::Simulate);
  auto rb = core::resilient_transform(p, big, o);
  EXPECT_EQ(rb.stats.schedule, "resilient(unfused)");
  // Tight memory: hybrid must choose the fused-inner schedule.
  const double tight = 8.0 * 4.0 * static_cast<double>(sz.c) / 2.0;
  Cluster small(test_machine(2, 2, tight), ExecutionMode::Simulate);
  auto rs = core::resilient_transform(p, small, o);
  EXPECT_EQ(rs.stats.schedule, "resilient(fused-inner)");
}

TEST(ParProperties, FusedFlopOverheadIsAboutOnePointFive) {
  auto p = core::make_problem(chem::custom_molecule("flp", 24, 1, 5));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.gather_result = false;
  Cluster cu(test_machine(2, 2), ExecutionMode::Simulate);
  auto ru = core::unfused_par_transform(p, cu, o);
  Cluster cf(test_machine(2, 2), ExecutionMode::Simulate);
  auto rf = core::fused_inner_par_transform(p, cf, o);
  const double ratio = rf.stats.flops / ru.stats.flops;
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 1.9);
}

TEST(ParProperties, ImbalanceReportedAboveOne) {
  auto p = core::make_problem(chem::custom_molecule("imb", 16, 1, 5));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.gather_result = false;
  Cluster cl(test_machine(2, 4), ExecutionMode::Simulate);
  auto r = core::fused_inner_par_transform(p, cl, o);
  EXPECT_GE(r.stats.worst_imbalance, 1.0);
  EXPECT_GT(r.stats.n_phases, 4u);
  EXPECT_GT(r.stats.sim_time, 0.0);
}

TEST(ParStats, SecondRunOnOneClusterReportsOnlyItsOwnWork) {
  // Every per-run field of ParStats covers this run alone: a fused-inner
  // run on a cluster that has just run unfused reports what the same
  // run reports on a fresh cluster.
  auto p = core::make_problem(chem::custom_molecule("rerun", 12, 2, 31));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.balance = ga::Balance::Counter;
  Cluster used(test_machine(2, 2), ExecutionMode::Simulate);
  core::unfused_par_transform(p, used, o);
  const core::ParStats second =
      core::fused_inner_par_transform(p, used, o).stats;
  Cluster fresh(test_machine(2, 2), ExecutionMode::Simulate);
  const core::ParStats alone =
      core::fused_inner_par_transform(p, fresh, o).stats;

  // Counts are exact; seconds are differences of running sums, so they
  // may differ in the last bits from a fresh cluster's.
  auto same_seconds = [](double a, double b) {
    EXPECT_NEAR(a, b, 1e-12 * std::abs(b));
  };
  EXPECT_EQ(second.n_phases, alone.n_phases);
  same_seconds(second.sim_time, alone.sim_time);
  EXPECT_EQ(second.flops, alone.flops);
  EXPECT_EQ(second.integral_evals, alone.integral_evals);
  EXPECT_EQ(second.remote_bytes, alone.remote_bytes);
  EXPECT_EQ(second.local_bytes, alone.local_bytes);
  same_seconds(second.overlapped_seconds, alone.overlapped_seconds);
  same_seconds(second.exposed_seconds, alone.exposed_seconds);
  EXPECT_DOUBLE_EQ(second.worst_imbalance, alone.worst_imbalance);
  EXPECT_EQ(second.sched_claims, alone.sched_claims);
  EXPECT_EQ(second.sched_steals, alone.sched_steals);
  same_seconds(second.sched_counter_wait_s, alone.sched_counter_wait_s);
  EXPECT_EQ(second.sched_counter_fetches, alone.sched_counter_fetches);
  EXPECT_EQ(second.sched_tree_hops, alone.sched_tree_hops);
  EXPECT_GT(second.sched_claims, 0.0);
}

TEST(ParProperties, NegativeCounterBatchEnvThrowsBeforeTheRun) {
  // Regression: FOURINDEX_COUNTER_BATCH=-4 used to warn and run the
  // whole transform with the default batch; the strict path raises
  // the typed parse error before any phase executes.
  auto p = core::make_problem(chem::custom_molecule("envneg", 10, 2, 175));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.gather_result = false;
  ::setenv("FOURINDEX_COUNTER_BATCH", "-4", 1);
  Cluster cl(test_machine(2, 2), ExecutionMode::Simulate);
  EXPECT_THROW(core::fused_inner_par_transform(p, cl, o), fit::ParseError);
  ::unsetenv("FOURINDEX_COUNTER_BATCH");
  Cluster cl2(test_machine(2, 2), ExecutionMode::Simulate);
  EXPECT_TRUE(core::fused_inner_par_transform(p, cl2, o).stats.sim_time >
              0.0);
}

}  // namespace

// ---- NWChem baseline models -----------------------------------------

#include "core/schedules_baseline.hpp"

namespace {

TEST(Baselines, NwchemUnfusedMatchesReference) {
  auto p = core::make_problem(chem::custom_molecule("bl1", 10, 2, 5));
  auto ref = core::reference_transform(p);
  Cluster cl(test_machine(2, 2), ExecutionMode::Real);
  core::ParOptions o;
  o.tile = 4;
  auto r = core::nwchem_unfused_par_transform(p, cl, o);
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
}

TEST(Baselines, NwchemRecomputeMatchesReference) {
  auto p = core::make_problem(chem::custom_molecule("bl2", 10, 2, 5));
  auto ref = core::reference_transform(p);
  Cluster cl(test_machine(2, 2), ExecutionMode::Real);
  core::ParOptions o;
  o.tile = 4;
  auto r = core::nwchem_recompute_par_transform(p, cl, o);
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
}

TEST(Baselines, NwchemUnfusedPeakExceedsOurUnfused) {
  // Keeping all five tensors live costs ~2x the eager-free peak.
  auto p = core::make_problem(chem::custom_molecule("bl3", 20, 1, 5));
  core::ParOptions o;
  o.tile = 5;
  o.gather_result = false;
  Cluster c1(test_machine(2, 2), ExecutionMode::Simulate);
  auto ours = core::unfused_par_transform(p, c1, o);
  Cluster c2(test_machine(2, 2), ExecutionMode::Simulate);
  auto theirs = core::nwchem_unfused_par_transform(p, c2, o);
  EXPECT_GT(theirs.stats.peak_global_bytes,
            1.5 * ours.stats.peak_global_bytes);
}

TEST(Baselines, RecomputeUsesTinyGlobalMemoryButManyIntegrals) {
  auto p = core::make_problem(chem::custom_molecule("bl4", 20, 1, 5));
  core::ParOptions o;
  o.tile = 5;
  o.gather_result = false;
  Cluster c1(test_machine(2, 2), ExecutionMode::Simulate);
  auto rec = core::nwchem_recompute_par_transform(p, c1, o);
  Cluster c2(test_machine(2, 2), ExecutionMode::Simulate);
  auto fus = core::fused_inner_par_transform(p, c2, o);
  // Global memory: only C (plus nothing else) for recompute.
  EXPECT_LT(rec.stats.peak_global_bytes, fus.stats.peak_global_bytes);
  // But many times the integral work (block-level recomputation).
  EXPECT_GT(rec.stats.integral_evals, 2.0 * fus.stats.integral_evals);
  EXPECT_GT(rec.stats.sim_time, fus.stats.sim_time);
}

}  // namespace

TEST(ParProperties, BalancedAlphaChunkingCorrectAndFlatter) {
  // Sec. 7.3 alternative load balancing: greedy weight-balanced alpha
  // chunks produce the same result with no more imbalance than the
  // contiguous baseline in the fused-12 phase.
  auto p = core::make_problem(chem::custom_molecule("bal", 16, 1, 5));
  auto ref = core::reference_transform(p);

  core::ParOptions contiguous;
  contiguous.tile = 2;
  contiguous.tile_l = 4;
  contiguous.alpha_parallel = 4;
  contiguous.alpha_chunking = core::ParOptions::AlphaChunking::Contiguous;
  core::ParOptions balanced = contiguous;
  balanced.alpha_chunking = core::ParOptions::AlphaChunking::Balanced;

  Cluster c1(test_machine(2, 4), ExecutionMode::Real);
  auto r1 = core::fused_inner_par_transform(p, c1, contiguous);
  Cluster c2(test_machine(2, 4), ExecutionMode::Real);
  auto r2 = core::fused_inner_par_transform(p, c2, balanced);
  ASSERT_TRUE(r1.c && r2.c);
  EXPECT_LT(r1.c->max_abs_diff(ref), 1e-9);
  EXPECT_LT(r2.c->max_abs_diff(ref), 1e-9);

  // Imbalance of the fused12 phases specifically.
  auto fused12_imbalance = [](const Cluster& cl) {
    double w = 1.0;
    for (const auto& ph : cl.phases())
      if (ph.label.rfind("fused12", 0) == 0)
        w = std::max(w, ph.imbalance);
    return w;
  };
  EXPECT_LE(fused12_imbalance(c2), fused12_imbalance(c1) + 1e-9);
}

// ---- nonblocking overlap ablation -----------------------------------

#include "runtime/faults.hpp"

namespace {

TEST(Overlap, AllSchedulesBitIdenticalWithOverlapOnAndOff) {
  // The pipelines issue the same GA operations in the same order and
  // the GA layer moves data eagerly at issue, so the transform result
  // must not merely be close — it must be the same bits.
  auto p = core::make_problem(chem::custom_molecule("ovl", 12, 2, 5));
  core::ParOptions on;
  on.tile = 4;
  on.tile_l = 3;
  on.overlap = true;
  core::ParOptions off = on;
  off.overlap = false;
  using Schedule = core::ParResult (*)(const core::Problem&, Cluster&,
                                       const core::ParOptions&);
  const Schedule schedules[] = {core::unfused_par_transform,
                                core::fused_par_transform,
                                core::fused_inner_par_transform};
  for (Schedule sched : schedules) {
    Cluster c1(test_machine(2, 2), ExecutionMode::Real);
    auto r1 = sched(p, c1, on);
    Cluster c2(test_machine(2, 2), ExecutionMode::Real);
    auto r2 = sched(p, c2, off);
    ASSERT_TRUE(r1.c && r2.c);
    EXPECT_EQ(r1.c->max_abs_diff(*r2.c), 0.0) << r1.stats.schedule;
    // Overlap changes only the clock model, never the traffic.
    EXPECT_DOUBLE_EQ(r1.stats.remote_bytes, r2.stats.remote_bytes);
    EXPECT_DOUBLE_EQ(r1.stats.flops, r2.stats.flops);
  }
}

TEST(Overlap, HidesCommOnACommBoundMachine) {
  // Slow wire, fast cores: the double-buffered pipelines must hide a
  // nonzero amount of transfer time and finish sooner than the
  // blocking ablation baseline.
  auto machine = test_machine(2, 2);
  machine.net_bandwidth_bps = 2e8;  // comm-bound
  auto p = core::make_problem(chem::custom_molecule("cb", 16, 1, 5));
  core::ParOptions on;
  on.tile = 4;
  on.tile_l = 4;
  on.gather_result = false;
  core::ParOptions off = on;
  off.overlap = false;
  for (auto sched :
       {core::unfused_par_transform, core::fused_inner_par_transform}) {
    Cluster c1(machine, ExecutionMode::Simulate);
    auto r1 = sched(p, c1, on);
    Cluster c2(machine, ExecutionMode::Simulate);
    auto r2 = sched(p, c2, off);
    EXPECT_GT(r1.stats.overlapped_seconds, 0.0) << r1.stats.schedule;
    EXPECT_LT(r1.stats.sim_time, r2.stats.sim_time) << r1.stats.schedule;
    // The blocking baseline by definition hides nothing.
    EXPECT_EQ(r2.stats.overlapped_seconds, 0.0) << r2.stats.schedule;
    // Exposed + overlapped together account for no more than the whole
    // transfer time, and the overlap run exposes strictly less.
    EXPECT_LT(r1.stats.exposed_seconds, r2.stats.exposed_seconds)
        << r1.stats.schedule;
  }
}

TEST(Overlap, FaultStormRecoveryStaysBitIdentical) {
  // The acceptance gate for the epoch/sync discipline: under a seeded
  // storm of rank kills and flaky one-sided ops, the overlap and
  // blocking runs see the *same* fault sequence (the pipelines issue
  // GA ops in the same order, so the op-sequence RNG draws align) and
  // either both recover to the exact reference bits or both fail
  // cleanly.
  std::uint64_t seed = 71;
  if (const char* env = std::getenv("FOURINDEX_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);

  auto p = core::make_problem(chem::custom_molecule("storm", 8, 1, 5));
  core::ParOptions on;
  on.tile = 4;
  on.overlap = true;
  core::ParOptions off = on;
  off.overlap = false;

  Cluster clean(test_machine(2, 2), ExecutionMode::Real);
  const auto ref = core::unfused_par_transform(p, clean, off);

  auto storm_machine = test_machine(2, 2);
  storm_machine.disk_bandwidth_bps = 1e9;  // recovery needs a PFS
  storm_machine.disk_latency_s = 1e-3;
  auto stormy = [&](const core::ParOptions& o)
      -> std::optional<tensor::PackedC> {
    Cluster cl(storm_machine, ExecutionMode::Real);
    runtime::CheckpointConfig cfg;
    cfg.max_retries = 5;
    cl.enable_recovery(cfg);
    runtime::FaultInjector inj(seed);
    inj.set_kill_prob(0.02);
    inj.set_op_failure_prob(0.002);
    cl.install_faults(inj);
    try {
      auto r = core::unfused_par_transform(p, cl, o);
      return std::move(r.c);
    } catch (const FaultError&) {
      return std::nullopt;
    }
  };
  const auto got_on = stormy(on);
  const auto got_off = stormy(off);
  ASSERT_EQ(got_on.has_value(), got_off.has_value());
  if (got_on) {
    EXPECT_EQ(got_on->max_abs_diff(*ref.c), 0.0);
    EXPECT_EQ(got_off->max_abs_diff(*ref.c), 0.0);
  }
}

}  // namespace

TEST(ParProperties, DistributedCStorageTracksExactPackedSize) {
  // With irrep-aligned tilings, the spatial tile filter is exact: the
  // distributed C footprint stays within the diagonal-tile padding of
  // the exact packed size n^4/(4s), rather than collapsing to n^4/4.
  for (unsigned s : {1u, 4u, 8u}) {
    auto p = core::make_problem(chem::custom_molecule("cstore", 48, s, 3));
    const auto sz = p.sizes();
    core::ParOptions o;
    o.tile = 6;
    o.tile_l = 48;  // single slice: peak == C + one slice set
    o.gather_result = false;
    Cluster cl(test_machine(2, 2, 1e9), ExecutionMode::Simulate);
    auto r = core::fused_inner_par_transform(p, cl, o);
    const double exact_c = 8.0 * double(sz.c);
    EXPECT_GT(r.stats.peak_global_bytes, exact_c);
    // C + the n^3-scale slice arrays, with < 2.2x padding overall.
    const double slices = 8.0 * 2.0 * double(48 * 48 * 48 * 48);
    EXPECT_LT(r.stats.peak_global_bytes, 2.2 * exact_c + slices) << s;
  }
}

// ---- The per-rank capacity check against real runs --------------------

namespace {

// check_capacity must predict exactly what a run does: over random
// (n, s, system, nodes, tile, tile_l, batch, chain) tuples its verdict
// equals whether a Simulate run of that chain completes with no
// out-of-memory error and no spilled tile. Each machine keeps its
// family's ranks per node, with memory scaled around the problem's
// packed footprint so that both outcomes are common; every other
// machine has a file system, where a tile that does not fit spills
// instead of failing.
TEST(CapacityCheck, VerdictMatchesSimulateRuns) {
  SplitMix64 g(20261018);
  std::size_t runs = 0, fits = 0;
  for (int i = 0; i < 240; ++i) {
    const std::size_t n = 8 + g.next_below(21);
    const unsigned s = 1u << g.next_below(3);
    const std::size_t nodes = 1 + g.next_below(3);
    const char family = "ABC"[g.next_below(3)];
    MachineConfig m = family == 'A'   ? runtime::system_a(nodes)
                      : family == 'B' ? runtime::system_b(nodes)
                                      : runtime::system_c(nodes);
    const auto p = core::make_problem(
        chem::custom_molecule("cap", n, s, 1000 + static_cast<unsigned>(i)));
    const auto sz = p.sizes();
    const double footprint = 8.0 * double(sz.unfused_peak() + sz.c);
    m.mem_per_node_bytes =
        footprint * (0.1 + 2.9 * g.next_double()) / double(nodes);
    if (i % 2 == 1) m.disk_bandwidth_bps = 1e9;
    core::ParOptions o;
    o.tile = 3 + g.next_below(6);
    o.tile_l = 1 + g.next_below(8);
    o.gather_result = false;
    const std::size_t batch = 1 + g.next_below(3);
    const auto chain =
        g.next_below(2) == 0 ? core::Chain::Unfused : core::Chain::FusedInner;

    const auto want = core::check_capacity(p, chain, batch, o,
                                           core::CapacityView::idle(m));
    Cluster cl(m, ExecutionMode::Simulate);
    const auto bs = core::batch_member_bs(p, batch);
    bool ran = true;
    try {
      if (chain == core::Chain::Unfused)
        core::batched_unfused_par_transform(p, bs, cl, o);
      else
        core::batched_fused_inner_par_transform(p, bs, cl, o);
    } catch (const OutOfMemoryError&) {
      ran = false;
    }
    ran = ran && cl.disk_peak() == 0;
    const std::string what =
        "case " + std::to_string(i) + ": n=" + std::to_string(n) +
        " s=" + std::to_string(s) + " " + m.name + "x" +
        std::to_string(nodes) + " tile=" + std::to_string(o.tile) +
        " tile_l=" + std::to_string(o.tile_l) +
        " batch=" + std::to_string(batch) +
        (chain == core::Chain::Unfused ? " unfused" : " fused-inner") +
        (m.disk_bandwidth_bps > 0 ? " (disk)" : "") + ": " +
        core::to_string(want);
    ASSERT_EQ(want.fits, ran) << what;
    if (ran) {
      // A run that fits peaks exactly where the check said it would.
      EXPECT_EQ(cl.global_peak(), want.aggregate_peak_bytes) << what;
      EXPECT_EQ(cl.memory(want.busiest_rank).peak(),
                want.busiest_peak_bytes)
          << what;
    }
    runs += 1;
    fits += want.fits ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GE(fits, runs / 5);
  EXPECT_GE(runs - fits, runs / 5);
}

// The Sec. 7.4 switch at 1.10x the unfused footprint, the switch
// bench's problem: an aggregate formula with a 10% slack says the
// unfused chain fits, but a rank's share of its tiles does not. The
// hybrid must see that and run fused-inner, neither failing nor
// falling back mid-run.
TEST(CapacityCheck, HybridRunsFusedInnerWhereOneRankCannotHoldUnfused) {
  auto p = core::make_problem(chem::custom_molecule("hyb", 64, 8, 3));
  const auto sz = p.sizes();
  const double footprint = 8.0 * double(sz.unfused_peak() + sz.c);
  MachineConfig m = test_machine(8, 4);
  m.mem_per_node_bytes = 1.10 * footprint / 8.0;
  core::ParOptions o;
  o.tile = 8;
  o.tile_l = 4;
  o.gather_result = false;
  const auto unfused = core::check_capacity(p, core::Chain::Unfused, 1, o,
                                            core::CapacityView::idle(m));
  EXPECT_FALSE(unfused.fits) << core::to_string(unfused);
  EXPECT_LE(1.10 * footprint, m.aggregate_memory_bytes());

  Cluster cl(m, ExecutionMode::Simulate);
  const auto out = core::four_index_transform(
      p, {core::Schedule::Hybrid, o}, &cl);
  EXPECT_EQ(out.par.schedule, "resilient(fused-inner)");
  const auto sums = cl.metrics().sums();
  EXPECT_EQ(sums.contains("plan.replans") ? sums.at("plan.replans") : 0.0,
            0.0);
  EXPECT_NE(out.par.note.find("rank " +
                              std::to_string(unfused.busiest_rank)),
            std::string::npos)
      << out.par.note;
}

// A live view with dead ranks: the check places what a dead rank would
// own on its live owner, as a run on that cluster does. One case kills
// a rank, the other a whole node.
TEST(CapacityCheck, LiveViewWithDeadRanksMatchesARunOnThatCluster) {
  auto p = core::make_problem(chem::custom_molecule("dead", 20, 2, 11));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 3;
  o.gather_result = false;
  const auto bs = core::batch_member_bs(p, 2);
  for (auto chain : {core::Chain::Unfused, core::Chain::FusedInner})
    for (bool whole_node : {false, true}) {
      Cluster cl(test_machine(3, 2), ExecutionMode::Simulate);
      if (whole_node)
        cl.kill_domain(1);
      else
        cl.kill_rank(4);
      const auto want =
          core::check_capacity(p, chain, 2, o, core::CapacityView::live(cl));
      if (chain == core::Chain::Unfused)
        core::batched_unfused_par_transform(p, bs, cl, o);
      else
        core::batched_fused_inner_par_transform(p, bs, cl, o);
      const std::string what =
          std::string(chain == core::Chain::Unfused ? "unfused" : "fused") +
          (whole_node ? ", node 1 dead" : ", rank 4 dead");
      ASSERT_TRUE(want.fits) << what;
      EXPECT_EQ(cl.global_peak(), want.aggregate_peak_bytes) << what;
      // Every live rank is empty and equally sized, so the busiest is
      // the lowest live rank with the highest peak.
      std::size_t busiest = 0;
      for (std::size_t r = 0; r < cl.n_ranks(); ++r)
        if (!cl.is_dead(r) &&
            (cl.is_dead(busiest) ||
             cl.memory(r).peak() > cl.memory(busiest).peak()))
          busiest = r;
      EXPECT_EQ(want.busiest_rank, busiest) << what;
      EXPECT_FALSE(cl.is_dead(want.busiest_rank)) << what;
      EXPECT_EQ(want.busiest_peak_bytes, cl.memory(busiest).peak()) << what;
    }
}

// The check reads a cluster and writes nothing to it: no metric, no
// timeline instant, no memory charge.
TEST(CapacityCheck, LeavesTheClusterUntouched) {
  auto p = core::make_problem(chem::custom_molecule("ro", 16, 2, 5));
  Cluster cl(test_machine(2, 2), ExecutionMode::Simulate);
  const auto names = cl.metrics().sums();
  const std::size_t instants = cl.timeline().n_instants();
  core::ParOptions o;
  o.tile = 4;
  for (auto chain : {core::Chain::Unfused, core::Chain::FusedInner})
    core::check_capacity(p, chain, 2, o, core::CapacityView::live(cl));
  EXPECT_EQ(cl.metrics().sums(), names);
  EXPECT_EQ(cl.timeline().n_instants(), instants);
  EXPECT_EQ(cl.global_peak(), 0.0);
  for (std::size_t r = 0; r < cl.n_ranks(); ++r)
    EXPECT_EQ(cl.memory(r).peak(), 0.0);
}

}  // namespace
