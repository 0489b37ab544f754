// Fault injection, phase-boundary checkpoint/restart, and
// bound-guided graceful degradation.
//
// The deterministic headline scenarios of the robustness work:
//   - a rank killed mid-transform is recovered from the last
//     phase-boundary checkpoint and the Real-mode result is
//     bit-identical to a fault-free run;
//   - a capacity shrink triggers a replan that downgrades the fusion
//     choice exactly when the Thm 5.1 / Thm 6.2 conditions fail;
//   - an exhausted retry budget raises FaultError instead of hanging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bounds/transform_bounds.hpp"
#include "chem/molecule.hpp"
#include "chem/mp2.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/transform.hpp"
#include "ga/global_array.hpp"
#include "obs/bench_json.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/cluster.hpp"
#include "runtime/faults.hpp"
#include "runtime/machine.hpp"
#include "tensor/tiling.hpp"
#include "util/hash.hpp"

namespace {

using namespace fit;
using bounds::FusionChoice;
using runtime::Cluster;
using runtime::ExecutionMode;
using runtime::FaultEvent;
using runtime::FaultInjector;
using runtime::FaultKind;
using runtime::MachineConfig;

MachineConfig fault_machine(std::size_t nodes, std::size_t rpn,
                            double mem_per_node = 64e6,
                            double disk_bps = 1e9) {
  MachineConfig m;
  m.name = "fault-test";
  m.n_nodes = nodes;
  m.ranks_per_node = rpn;
  m.mem_per_node_bytes = mem_per_node;
  m.flops_per_rank = 1e9;
  m.integrals_per_sec = 1e8;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 1e-6;
  m.local_bandwidth_bps = 1e10;
  m.disk_bandwidth_bps = disk_bps;
  m.disk_latency_s = 1e-3;
  return m;
}

core::Problem small_problem(std::size_t n = 10, unsigned s = 2) {
  return core::make_problem(chem::custom_molecule("faulty", n, s, 17 * n + s));
}

FaultEvent kill_event(std::size_t phase, std::size_t rank) {
  FaultEvent ev;
  ev.kind = FaultKind::KillRank;
  ev.phase = phase;
  ev.rank = rank;
  return ev;
}

FaultEvent transient_event(std::size_t phase, std::size_t rank,
                           std::size_t count) {
  FaultEvent ev;
  ev.kind = FaultKind::TransientOp;
  ev.phase = phase;
  ev.rank = rank;
  ev.count = count;
  return ev;
}

// ---- FaultInjector determinism --------------------------------------

TEST(FaultInjector, DecisionsArePureFunctionsOfTheSeed) {
  FaultInjector a(42), b(42), c(43);
  a.set_kill_prob(0.3);
  b.set_kill_prob(0.3);
  c.set_kill_prob(0.3);
  a.set_op_failure_prob(0.3);
  b.set_op_failure_prob(0.3);
  c.set_op_failure_prob(0.3);
  bool any_differs = false;
  for (std::size_t phase = 0; phase < 4; ++phase)
    for (std::size_t rank = 0; rank < 4; ++rank) {
      EXPECT_EQ(a.kill_roll(phase, rank), b.kill_roll(phase, rank));
      any_differs |= a.kill_roll(phase, rank) != c.kill_roll(phase, rank);
      for (std::size_t op = 0; op < 8; ++op) {
        EXPECT_EQ(a.should_fail_op(phase, 0, rank, op),
                  b.should_fail_op(phase, 0, rank, op));
        any_differs |= a.should_fail_op(phase, 1, rank, op) !=
                       c.should_fail_op(phase, 1, rank, op);
      }
    }
  EXPECT_TRUE(any_differs);  // a different seed gives a different storm
}

TEST(FaultInjector, InertByDefaultAndValidatesProbabilities) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.kill_roll(0, 0));
  EXPECT_FALSE(inj.should_fail_op(0, 0, 0, 0));
  EXPECT_THROW(inj.set_kill_prob(1.5), PreconditionError);
  EXPECT_THROW(inj.set_op_failure_prob(-0.1), PreconditionError);
  inj.set_op_failure_prob(1.0);
  EXPECT_TRUE(inj.armed());
  EXPECT_TRUE(inj.should_fail_op(3, 1, 2, 7));
}

// ---- rank death + checkpoint/restart --------------------------------

TEST(FaultRecovery, KilledRankIsRecoveredBitIdentically) {
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 2;

  Cluster clean(fault_machine(2, 2), ExecutionMode::Real);
  const auto ref = core::unfused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  Cluster faulty(fault_machine(2, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj(7);
  inj.schedule(kill_event(/*phase=*/2, /*rank=*/1));  // boundary before c2
  faulty.install_faults(inj);
  const auto got = core::unfused_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);  // bit-identical
  const auto eps = chem::synthetic_orbital_energies(p.n(), p.n() / 2);
  EXPECT_EQ(chem::mp2_energy(*got.c, p.n() / 2, eps),
            chem::mp2_energy(*ref.c, p.n() / 2, eps));

  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.kills"), 1.0);
  EXPECT_GE(reg.sum("checkpoint.writes"), 2.0);
  EXPECT_GE(reg.sum("checkpoint.restores"), 1.0);
  EXPECT_GT(reg.sum("checkpoint.bytes"), 0.0);
  EXPECT_EQ(faulty.n_live(), 3u);
  EXPECT_TRUE(faulty.is_dead(1));
  // Recovery traffic is charged: the faulty run is slower, not free.
  EXPECT_GT(faulty.sim_time(), clean.sim_time());
}

TEST(FaultRecovery, RankDeathWithoutRecoveryIsACheckpointError) {
  const auto p = small_problem(8, 1);
  core::ParOptions opt;
  opt.tile = 4;
  Cluster cl(fault_machine(2, 2, 64e6, /*disk_bps=*/0),
             ExecutionMode::Real);
  FaultInjector inj(3);
  inj.schedule(kill_event(1, 0));
  cl.install_faults(inj);
  EXPECT_THROW(core::unfused_par_transform(p, cl, opt), CheckpointError);
}

TEST(FaultRecovery, AllRanksDeadIsAFaultError) {
  Cluster cl(fault_machine(2, 1), ExecutionMode::Simulate);
  FaultInjector inj(5);
  inj.schedule(kill_event(0, 0));
  inj.schedule(kill_event(0, 1));
  cl.install_faults(inj);
  EXPECT_THROW(cl.run_phase("noop", [](runtime::RankCtx&) {}), FaultError);
}

TEST(FaultRecovery, EnableRecoveryRequiresAFileSystem) {
  Cluster cl(fault_machine(1, 2, 64e6, /*disk_bps=*/0),
             ExecutionMode::Simulate);
  EXPECT_THROW(cl.enable_recovery(), PreconditionError);
}

// ---- transient op faults + bounded retry ----------------------------

TEST(FaultRecovery, TransientOpFaultsAreRetriedBitIdentically) {
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;

  Cluster clean(fault_machine(2, 2), ExecutionMode::Real);
  const auto ref = core::unfused_par_transform(p, clean, opt);

  Cluster faulty(fault_machine(2, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj(11);
  // Rank 0's first two one-sided ops of phase "c1" fail: attempt 0 and
  // the first retry both abort, the second retry drains through.
  inj.schedule(transient_event(/*phase=*/1, /*rank=*/0, /*count=*/2));
  faulty.install_faults(inj);
  const auto got = core::unfused_par_transform(p, faulty, opt);

  ASSERT_TRUE(got.c.has_value());
  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.transient_ops"), 2.0);
  EXPECT_EQ(reg.sum("retry.attempts"), 2.0);
  EXPECT_EQ(reg.sum("retry.exhausted"), 0.0);
  EXPECT_GE(reg.sum("checkpoint.restores"), 2.0);  // one rollback per retry
}

TEST(FaultRecovery, ExhaustedRetryBudgetRaisesFaultError) {
  const auto p = small_problem(8, 1);
  core::ParOptions opt;
  opt.tile = 4;
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  runtime::CheckpointConfig cfg;
  cfg.max_retries = 2;
  cl.enable_recovery(cfg);
  FaultInjector inj(13);
  inj.schedule(transient_event(1, 0, static_cast<std::size_t>(-1)));
  cl.install_faults(inj);
  EXPECT_THROW(core::unfused_par_transform(p, cl, opt), FaultError);
  EXPECT_EQ(cl.metrics().sum("retry.exhausted"), 1.0);
  EXPECT_EQ(cl.metrics().sum("retry.attempts"), 3.0);  // budget + 1
}

TEST(FaultRecovery, WatchdogRaisesTimeoutError) {
  const auto p = small_problem(8, 1);
  core::ParOptions opt;
  opt.tile = 4;
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  runtime::CheckpointConfig cfg;
  cfg.max_retries = 100;           // budget alone would retry for long
  cfg.backoff_s = 1.0;
  cfg.phase_sim_timeout_s = 2.5;   // 1.0 + 2.0 backoff crosses this
  cl.enable_recovery(cfg);
  FaultInjector inj(17);
  inj.schedule(transient_event(1, 0, static_cast<std::size_t>(-1)));
  cl.install_faults(inj);
  EXPECT_THROW(core::unfused_par_transform(p, cl, opt), TimeoutError);
}

// ---- capacity / bandwidth degradation -------------------------------

TEST(FaultDegradation, CapacityShrinkAndDeathLowerAggregateCapacity) {
  Cluster cl(fault_machine(2, 2, 64e6), ExecutionMode::Simulate);
  const double full = cl.aggregate_capacity_bytes();
  EXPECT_EQ(full, cl.machine().aggregate_memory_bytes());

  FaultInjector inj(1);
  FaultEvent shrink;
  shrink.kind = FaultKind::CapacityShrink;
  shrink.phase = 0;
  shrink.factor = 0.5;
  inj.schedule(shrink);
  cl.install_faults(inj);
  cl.run_phase("noop", [](runtime::RankCtx&) {});
  EXPECT_DOUBLE_EQ(cl.aggregate_capacity_bytes(), 0.5 * full);
  EXPECT_EQ(cl.metrics().sum("fault.capacity_shrinks"), 1.0);

  cl.kill_rank(3);
  EXPECT_DOUBLE_EQ(cl.aggregate_capacity_bytes(), 0.375 * full);
}

TEST(FaultDegradation, BandwidthDegradeSlowsTheSimulatedClock) {
  const auto run = [](bool degrade) {
    Cluster cl(fault_machine(2, 1), ExecutionMode::Simulate);
    if (degrade) {
      FaultInjector inj(1);
      FaultEvent ev;
      ev.kind = FaultKind::NetDegrade;
      ev.phase = 0;
      ev.factor = 0.1;
      inj.schedule(ev);
      cl.install_faults(inj);
    }
    cl.run_phase("xfer", [](runtime::RankCtx& ctx) {
      ctx.charge_transfer(1 - ctx.rank(), 1e8);
    });
    return cl.sim_time();
  };
  EXPECT_GT(run(true), 5.0 * run(false));
}

// ---- bound-guided replanning (Thm 5.1 / 5.2 / 6.2) ------------------

TEST(Replan, DowngradesExactlyAtTheCapacityThresholds) {
  const double n = 24, s = 1;
  const auto sz = tensor::approx_sizes(n, s);
  const double full_reuse = bounds::full_reuse_min_fast_memory(sz, n);
  const double pair = bounds::fused_pair_min_fast_memory(n);
  ASSERT_GT(full_reuse, pair);

  const auto base = core::plan_fusion(n, s, 2.0 * full_reuse);
  EXPECT_EQ(base.selected, FusionChoice::Fused1234);

  // Exactly at the Thm 6.2 threshold full reuse still stands ...
  EXPECT_EQ(core::replan_fusion(base, full_reuse).selected,
            FusionChoice::Fused1234);
  // ... one element below it the selection must walk down Thm 5.2's
  // order, and the plan records the degradation.
  const auto below = core::replan_fusion(base, full_reuse - 1.0);
  EXPECT_NE(below.selected, FusionChoice::Fused1234);
  bool noted = false;
  for (const auto& e : below.entries)
    if (e.choice == below.selected)
      noted = e.note.find("degraded") != std::string::npos;
  EXPECT_TRUE(noted);

  // Below the Thm 5.1 pair-fusion threshold no fusion is useful: the
  // plan falls all the way back to the unfused chain.
  EXPECT_EQ(core::replan_fusion(base, pair - 1.0).selected,
            FusionChoice::Unfused);
  // replan on a replanned plan keeps the problem parameters.
  EXPECT_EQ(core::replan_fusion(below, 2.0 * full_reuse).selected,
            FusionChoice::Fused1234);
}

TEST(Replan, ResilientTransformDowngradesOnCapacityShrink) {
  const std::size_t n = 16;
  const auto p = small_problem(n, 1);
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 1;  // keeps the fused-inner slices well under the peak

  // Tiled (not packed) footprints of the distributed arrays: the
  // unfused chain's peak live pair is |O1|+|O2| in tile granularity.
  const double tile4 = static_cast<double>(opt.tile * opt.tile) *
                       static_cast<double>(opt.tile * opt.tile);
  const double nt = static_cast<double>(n / opt.tile);
  const double pair_tiles = nt * (nt + 1) / 2;
  const double o1_words = nt * nt * pair_tiles * tile4;
  const double o2_words = pair_tiles * pair_tiles * tile4;
  const double pair_peak_bytes = 8.0 * (o1_words + o2_words);
  // The shrunken aggregate must separate the two schedules: too small
  // for the unfused intermediates, roomy for the fused-inner slices.
  const double target = 0.9 * pair_peak_bytes;
  ASSERT_GT(target,
            1.5 * 8.0 * bounds::eq8_global_memory(
                            static_cast<double>(n),
                            static_cast<double>(opt.tile_l), 1.0));

  const double full = 1.25 * pair_peak_bytes;  // unfused fits initially
  MachineConfig m = fault_machine(2, 1, full / 2.0, /*disk_bps=*/0);
  Cluster cl(m, ExecutionMode::Real);
  ASSERT_TRUE(core::unfused_fits(p, cl));

  FaultInjector inj(2);
  FaultEvent shrink;
  shrink.kind = FaultKind::CapacityShrink;
  shrink.phase = 1;  // boundary before c1: O1 is live, O2 comes next
  shrink.factor = target / full;
  inj.schedule(shrink);
  cl.install_faults(inj);

  const auto got = core::resilient_transform(p, cl, opt);
  EXPECT_EQ(got.stats.schedule, "resilient(unfused->fused-inner)");
  EXPECT_NE(got.stats.note.find("downgraded"), std::string::npos);
  EXPECT_EQ(cl.metrics().sum("plan.replans"), 1.0);

  ASSERT_TRUE(got.c.has_value());
  const auto ref = core::reference_transform(p);
  EXPECT_LT(got.c->max_abs_diff(ref), 1e-9);
}

TEST(Replan, ResilientTransformUsesUnfusedWhenItFits) {
  const auto p = small_problem(8, 1);
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  core::TransformOptions opt;
  opt.schedule = core::Schedule::Resilient;
  opt.par.tile = 4;
  const auto out = core::four_index_transform(p, opt, &cl);
  EXPECT_EQ(out.par.schedule, "resilient(unfused)");
  EXPECT_EQ(core::to_string(core::Schedule::Resilient), "resilient");
  const auto ref = core::reference_transform(p);
  ASSERT_TRUE(out.c.has_value());
  EXPECT_LT(out.c->max_abs_diff(ref), 1e-9);
}

// ---- observability --------------------------------------------------

TEST(FaultObservability, BenchReportWithFaultMetricsValidates) {
  const auto p = small_problem(8, 1);
  core::ParOptions opt;
  opt.tile = 4;
  opt.gather_result = false;
  Cluster cl(fault_machine(2, 2), ExecutionMode::Simulate);
  cl.enable_recovery();
  FaultInjector inj(9);
  inj.schedule(kill_event(2, 1));
  cl.install_faults(inj);
  core::unfused_par_transform(p, cl, opt);

  obs::BenchReport report("test_fault_recovery");
  report.add_scalar("sim_time_s", cl.sim_time());
  report.add_metrics("faulty", cl.metrics());
  std::string why;
  EXPECT_TRUE(obs::validate_bench_json(report.to_json(), &why)) << why;
  const std::string doc = report.to_json().dump();
  EXPECT_NE(doc.find("fault.kills"), std::string::npos);
  EXPECT_NE(doc.find("checkpoint.bytes"), std::string::npos);
  EXPECT_NE(doc.find("retry.attempts"), std::string::npos);
}

// ---- correlated failure domains (node kills) ------------------------

FaultEvent node_kill_event(std::size_t phase, std::size_t domain) {
  FaultEvent ev;
  ev.kind = FaultKind::KillNode;
  ev.phase = phase;
  ev.rank = domain;  // the rank field carries the domain index
  return ev;
}

TEST(FaultDomains, GroupingFollowsTheMachineAndTheEnvOverride) {
  {
    Cluster cl(fault_machine(4, 2), ExecutionMode::Simulate);
    EXPECT_EQ(cl.domain_ranks(), 2u);
    EXPECT_EQ(cl.n_domains(), 4u);
    EXPECT_EQ(cl.domain_of(0), 0u);
    EXPECT_EQ(cl.domain_of(5), 2u);
  }
  ::setenv("FOURINDEX_RANKS_PER_NODE", "4", 1);
  {
    Cluster cl(fault_machine(4, 2), ExecutionMode::Simulate);
    EXPECT_EQ(cl.domain_ranks(), 4u);
    EXPECT_EQ(cl.n_domains(), 2u);
    EXPECT_EQ(cl.domain_of(5), 1u);
  }
  // Strict parsing: a garbled override warns and falls back to the
  // machine's grouping instead of truncating to a numeric prefix.
  ::setenv("FOURINDEX_RANKS_PER_NODE", "4abc", 1);
  {
    Cluster cl(fault_machine(4, 2), ExecutionMode::Simulate);
    EXPECT_EQ(cl.domain_ranks(), 2u);
  }
  // An oversized override clamps to one all-encompassing domain.
  ::setenv("FOURINDEX_RANKS_PER_NODE", "100", 1);
  {
    Cluster cl(fault_machine(4, 2), ExecutionMode::Simulate);
    EXPECT_EQ(cl.domain_ranks(), 8u);
    EXPECT_EQ(cl.n_domains(), 1u);
  }
  ::unsetenv("FOURINDEX_RANKS_PER_NODE");
}

TEST(FaultDomains, NodeKillIsRecoveredBitIdentically) {
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;

  Cluster clean(fault_machine(4, 2), ExecutionMode::Real);
  const auto ref = core::fused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  Cluster faulty(fault_machine(4, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj(21);
  // Boundary of slice 1's c2: both ranks of node 1 die at once, taking
  // carried C tiles (last written in slice 0's c4) with them.
  inj.schedule(node_kill_event(/*phase=*/7, /*domain=*/1));
  faulty.install_faults(inj);
  const auto got = core::fused_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  EXPECT_TRUE(faulty.is_dead(2));
  EXPECT_TRUE(faulty.is_dead(3));
  EXPECT_EQ(faulty.n_live(), 6u);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.domain_kills"), 1.0);
  EXPECT_EQ(reg.sum("fault.kills"), 2.0);
  EXPECT_EQ(got.stats.fault_domain_kills, 1.0);
  EXPECT_GE(reg.sum("checkpoint.restores"), 1.0);
}

TEST(FaultDomains, CounterSurvivesItsHomeNodeDeath) {
  // The c2 task counter's home rank is the stable FNV-1a hash of the
  // label; kill its whole node at the c2 boundary under
  // Balance::Counter. The already-planned claims of the dead ranks
  // are adopted by survivors and the counter re-homes — the result
  // must not change by a bit.
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;
  opt.balance = ga::Balance::Counter;

  Cluster clean(fault_machine(2, 2), ExecutionMode::Real);
  const auto ref = core::unfused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  Cluster faulty(fault_machine(2, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  const std::size_t home =
      static_cast<std::size_t>(util::fnv1a("c2")) % faulty.n_ranks();
  FaultInjector inj(23);
  inj.schedule(node_kill_event(/*phase=*/2, faulty.domain_of(home)));
  faulty.install_faults(inj);
  const auto got = core::unfused_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  EXPECT_TRUE(faulty.is_dead(home));
  const auto& reg = faulty.metrics();
  EXPECT_GT(reg.sum("sched.orphans_adopted"), 0.0);
  EXPECT_GE(reg.sum("sched.counter_reowns"), 1.0);
}

TEST(FaultDomains, DoubleFaultDuringRetryBackoffIsAbsorbed) {
  // A transient op failure aborts c1's first attempt; while the retry
  // backoff is pending, a whole node dies. The kill is applied after
  // the rollback, the node's tiles are re-owned and restored, and the
  // retry runs on the survivors — still bit-identical.
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;

  Cluster clean(fault_machine(4, 2), ExecutionMode::Real);
  const auto ref = core::unfused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  Cluster faulty(fault_machine(4, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj(29);
  inj.schedule(transient_event(/*phase=*/1, /*rank=*/0, /*count=*/1));
  FaultEvent late = node_kill_event(/*phase=*/1, /*domain=*/1);
  late.attempt = 1;  // fires inside attempt 0's backoff window
  inj.schedule(late);
  faulty.install_faults(inj);
  const auto got = core::unfused_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("retry.attempts"), 1.0);
  EXPECT_EQ(reg.sum("fault.domain_kills"), 1.0);
  EXPECT_EQ(reg.sum("fault.kills"), 2.0);
  EXPECT_EQ(faulty.n_live(), 6u);
}

// ---- multi-epoch verified checkpoint store --------------------------

TEST(CheckpointStore, KeepEpochsFollowsConfigAndEnv) {
  {
    Cluster cl(fault_machine(2, 2), ExecutionMode::Simulate);
    runtime::CheckpointConfig cfg;
    cfg.keep_epochs = 5;
    cl.enable_recovery(cfg);
    EXPECT_EQ(cl.checkpoints()->keep_epochs(), 5u);
  }
  ::setenv("FOURINDEX_CKPT_KEEP", "3", 1);
  {
    Cluster cl(fault_machine(2, 2), ExecutionMode::Simulate);
    cl.enable_recovery();
    EXPECT_EQ(cl.checkpoints()->keep_epochs(), 3u);
  }
  ::setenv("FOURINDEX_CKPT_KEEP", "zero", 1);
  {
    // Strict parsing: a garbled retention depth refuses to start
    // rather than silently running with the default.
    Cluster cl(fault_machine(2, 2), ExecutionMode::Simulate);
    EXPECT_THROW(cl.enable_recovery(), ParseError);
  }
  ::unsetenv("FOURINDEX_CKPT_KEEP");
}

TEST(CheckpointStore, CorruptionFallsBackToAnOlderVerifiedEpoch) {
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;

  Cluster clean(fault_machine(4, 2), ExecutionMode::Real);
  const auto ref = core::fused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  Cluster faulty(fault_machine(4, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj(31);
  inj.schedule(node_kill_event(/*phase=*/7, /*domain=*/0));
  FaultEvent rot;
  rot.kind = FaultKind::CkptCorrupt;
  rot.phase = 7;
  rot.count = static_cast<std::size_t>(-1);  // every at-rest copy
  rot.depth = 1;                             // newest generation only
  inj.schedule(rot);
  faulty.install_faults(inj);
  const auto got = core::fused_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  // The newest generation's carried C copies were rotted, so the dead
  // node's C tiles came from the previous verified epoch — observably
  // (fallback > 0), and still bit-exact (never zero-filled).
  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  EXPECT_GT(got.stats.recovery_fallback_epochs, 0.0);
  EXPECT_GT(got.stats.ckpt_verify_failures, 0.0);
  const auto& reg = faulty.metrics();
  EXPECT_GT(reg.sum("fault.ckpt_corrupts"), 0.0);
  EXPECT_EQ(reg.sum("checkpoint.zero_fills"), 0.0);
  // The rot that recovery did not consume is healed at the next
  // checkpoint: carried-copy verification fails and the tile is
  // rewritten fresh from the live array.
  EXPECT_GT(reg.sum("checkpoint.scrub_repairs"), 0.0);
}

TEST(CheckpointStore, TornWriteNeverPublishesAPartialEpoch) {
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  runtime::CheckpointConfig cfg;
  cfg.max_retries = 0;  // the first I/O fault is fatal, no retry
  cl.enable_recovery(cfg);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2)};  // 4 tiles
  ga::GlobalArray a(cl, "torn", dims);

  auto write_all = [&](double base) {
    return [&a, base](runtime::RankCtx& ctx) {
      if (ctx.rank() != 0) return;
      for (std::size_t t = 0; t < 4; ++t) {
        std::vector<double> buf = {base + double(t), 0.0};
        a.put(ctx, std::vector<std::size_t>{t}, buf.data());
      }
    };
  };
  cl.run_phase("w0", write_all(10.0));  // publishes generation 1
  ASSERT_EQ(cl.checkpoints()->n_generations(), 1u);

  FaultInjector inj(37);
  FaultEvent io;
  io.kind = FaultKind::CkptIo;
  io.phase = 1;
  io.count = 1;
  inj.schedule(io);
  cl.install_faults(inj);
  // The phase body succeeds; the checkpoint write at its barrier is
  // torn before the manifest is published and, with no retry budget,
  // surfaces as CheckpointError — the previous epoch stays visible.
  EXPECT_THROW(cl.run_phase("w1", write_all(20.0)), CheckpointError);
  EXPECT_EQ(cl.checkpoints()->n_generations(), 1u);
  EXPECT_EQ(cl.metrics().sum("checkpoint.io_faults"), 1.0);

  // Recovery after the torn write restores the last *published* cut:
  // the dead node's tiles (round-robin owners 2 and 3) come back with
  // their w0 content, while survivor-held tiles keep the w1 values
  // the aborted epoch never snapshotted.
  cl.kill_domain(1);
  cl.checkpoints()->restore_domain(std::vector<std::size_t>{2, 3});
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{2 * t}),
                     (t < 2 ? 20.0 : 10.0) + double(t));
}

TEST(CheckpointStore, IoFaultsAreAbsorbedByBoundedRetry) {
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  cl.enable_recovery();  // default budget: 3 retries
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2)};
  ga::GlobalArray a(cl, "flaky-pfs", dims);

  FaultInjector inj(41);
  FaultEvent io;
  io.kind = FaultKind::CkptIo;
  io.phase = 0;
  io.count = 2;  // two consecutive write attempts fail, the third lands
  inj.schedule(io);
  cl.install_faults(inj);
  cl.run_phase("w0", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    for (std::size_t t = 0; t < 4; ++t) {
      std::vector<double> buf = {1.0 + double(t), 0.0};
      a.put(ctx, std::vector<std::size_t>{t}, buf.data());
    }
  });
  EXPECT_EQ(cl.checkpoints()->n_generations(), 1u);
  EXPECT_EQ(cl.metrics().sum("checkpoint.io_faults"), 2.0);
  EXPECT_EQ(cl.metrics().sum("checkpoint.io_retries"), 2.0);
  EXPECT_GT(cl.sim_time(), 0.0);  // the backoff was charged, not free
}

TEST(CheckpointStore, ZeroFillOnlyWhenEveryGenerationIsBad) {
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  cl.enable_recovery();  // keeps 2 generations
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2)};
  ga::GlobalArray a(cl, "doomed", dims);
  cl.run_phase("w0", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    for (std::size_t t = 0; t < 4; ++t) {
      std::vector<double> buf = {5.0 + double(t), 0.0};
      a.put(ctx, std::vector<std::size_t>{t}, buf.data());
    }
  });
  cl.run_phase("idle", [](runtime::RankCtx&) {});
  ASSERT_EQ(cl.checkpoints()->n_generations(), 2u);

  // Catastrophic rot: every copy in every retained generation.
  cl.checkpoints()->inject_corruption(/*phase=*/2,
                                      static_cast<std::size_t>(-1),
                                      /*depth=*/2);
  cl.kill_domain(1);
  cl.checkpoints()->restore_domain(std::vector<std::size_t>{2, 3});

  const auto& reg = cl.metrics();
  const double dead_tiles = reg.sum("checkpoint.zero_fills");
  EXPECT_GT(dead_tiles, 0.0);
  // Both generations were tried and failed verification per tile.
  EXPECT_EQ(reg.sum("checkpoint.verify_failures"), 2.0 * dead_tiles);
  EXPECT_EQ(reg.sum("recovery.fallback_epochs"), 0.0);
  // The loss is surfaced as zeros, never as stale or garbage data.
  bool saw_zero = false;
  for (std::size_t t = 0; t < 4; ++t)
    if (a.tile_write_epoch(t) == 0) {
      saw_zero = true;
      EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{2 * t}), 0.0);
    }
  EXPECT_TRUE(saw_zero);
}

TEST(CheckpointStore, ForgetDropsSnapshotsFromEveryGeneration) {
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  cl.enable_recovery();
  auto a = std::make_unique<ga::GlobalArray>(
      cl, "ephemeral", std::vector<tensor::Tiling>{tensor::Tiling(8, 2)});
  cl.run_phase("w0", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    for (std::size_t t = 0; t < 4; ++t) {
      std::vector<double> buf = {1.0, 2.0};
      a->put(ctx, std::vector<std::size_t>{t}, buf.data());
    }
  });
  cl.run_phase("idle", [](runtime::RankCtx&) {});
  ASSERT_EQ(cl.checkpoints()->n_generations(), 2u);
  const double gc_before = cl.metrics().sum("checkpoint.gc_bytes");

  // Destroying the array forgets its snapshots in *both* live
  // generations; the freed store bytes are accounted as GC.
  a.reset();
  const double freed = cl.metrics().sum("checkpoint.gc_bytes") - gc_before;
  EXPECT_DOUBLE_EQ(freed, 2.0 * 4 * 2 * 8.0);  // 2 gens x 4 tiles x 2 els

  // The store still works after the forget: later arrays checkpoint
  // and restore cleanly across the same generations.
  ga::GlobalArray b(cl, "later",
                    std::vector<tensor::Tiling>{tensor::Tiling(8, 2)});
  cl.run_phase("w1", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    for (std::size_t t = 0; t < 4; ++t) {
      std::vector<double> buf = {9.0, 9.0};
      b.put(ctx, std::vector<std::size_t>{t}, buf.data());
    }
  });
  cl.kill_domain(1);
  cl.checkpoints()->restore_domain(std::vector<std::size_t>{2, 3});
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_DOUBLE_EQ(b.peek(std::vector<std::size_t>{2 * t}), 9.0);
}

TEST(CheckpointStore, NeverWrittenTilesRestoreAsZerosUnderSteal) {
  // A node dies right after arrays are created but before anything is
  // written to them; under Balance::Steal the survivors adopt the dead
  // queues. The never-written tiles restore as true zeros (no disk
  // read, no zero-fill alarm) and the result is still bit-identical.
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;
  opt.balance = ga::Balance::Steal;

  Cluster clean(fault_machine(4, 2), ExecutionMode::Real);
  const auto ref = core::fused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  Cluster faulty(fault_machine(4, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj(43);
  // Boundary of slice 1's c1: O1_l exists but is entirely unwritten.
  inj.schedule(node_kill_event(/*phase=*/6, /*domain=*/2));
  faulty.install_faults(inj);
  const auto got = core::fused_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("checkpoint.zero_fills"), 0.0);
  EXPECT_GT(reg.sum("sched.claims"), 0.0);
}

TEST(CheckpointStore, RotOfASharedCarriedCopyWalksBackOneEpoch) {
  // The idle phase's generation carries every tile of the one before,
  // sharing its payload bytes. Rot strikes only the newest
  // generation's copies; the older generation's copy of the same bytes
  // must still verify, and the restore must return it bit for bit.
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  cl.enable_recovery();  // keeps 2 generations
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2)};  // 4 tiles
  ga::GlobalArray a(cl, "shared", dims);  // tile t lives on rank t
  cl.run_phase("w0", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    for (std::size_t t = 0; t < 4; ++t) {
      std::vector<double> buf = {1.0 / 3.0 + double(t), -0.1 * double(t)};
      a.put(ctx, std::vector<std::size_t>{t}, buf.data());
    }
  });
  cl.run_phase("idle", [](runtime::RankCtx&) {});
  ASSERT_EQ(cl.checkpoints()->n_generations(), 2u);

  const std::size_t victim = 2;
  const std::vector<double> want = a.tile_data(victim);
  // Scribble over the live tile, so only the store can bring it back.
  a.restore_tile(victim, std::vector<double>{-1.0, -1.0},
                 a.tile_write_epoch(victim));
  cl.checkpoints()->inject_corruption(/*phase=*/2,
                                      static_cast<std::size_t>(-1),
                                      /*depth=*/1);
  cl.kill_rank(victim);
  cl.checkpoints()->restore_rank(victim);

  const auto& reg = cl.metrics();
  EXPECT_EQ(reg.sum("fault.ckpt_corrupts"), 4.0);  // every carried copy
  EXPECT_EQ(reg.sum("checkpoint.verify_failures"), 1.0);
  EXPECT_EQ(reg.sum("recovery.fallback_epochs"), 1.0);
  EXPECT_EQ(reg.sum("checkpoint.zero_fills"), 0.0);
  const std::vector<double>& got = a.tile_data(victim);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(double)));
}

TEST(CheckpointStore, HashedBytesEqualWrittenBytesAfterEveryWrite) {
  // A payload is digested once, when it transits the client link:
  // carried copies hash nothing, fresh copies, scrub repairs and
  // full-copy rewrites hash what they write, and a torn (retried)
  // write hashes nothing. So checkpoint.hashed_bytes equals
  // checkpoint.bytes after every write, under both policies.
  for (const int delta : {1, 0}) {
    SCOPED_TRACE(delta ? "delta" : "full copy");
    Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
    runtime::CheckpointConfig cfg;
    cfg.delta = delta;
    cl.enable_recovery(cfg);
    std::vector<tensor::Tiling> dims = {tensor::Tiling(16, 2)};  // 8 tiles
    ga::GlobalArray a(cl, "hashed", dims);
    FaultInjector inj(47);
    FaultEvent io;
    io.kind = FaultKind::CkptIo;
    io.phase = 2;
    io.count = 1;
    inj.schedule(io);
    cl.install_faults(inj);

    const auto& reg = cl.metrics();
    constexpr std::size_t kWrites = 6;
    for (std::size_t phase = 0; phase < kWrites; ++phase) {
      // Rot every at-rest copy of the newest generation: the next
      // delta write scrubs the carried ones from the live array.
      if (phase == 4)
        cl.checkpoints()->inject_corruption(phase,
                                            static_cast<std::size_t>(-1),
                                            /*depth=*/1);
      // Phase 0 writes every tile, each later phase only tile `phase`.
      cl.run_phase("w" + std::to_string(phase), [&](runtime::RankCtx& ctx) {
        if (ctx.rank() != 0) return;
        for (std::size_t t = 0; t < 8; ++t) {
          if (phase > 0 && t != phase) continue;
          std::vector<double> buf = {double(phase), double(t)};
          a.put(ctx, std::vector<std::size_t>{t}, buf.data());
        }
      });
      EXPECT_EQ(reg.sum("checkpoint.hashed_bytes"),
                reg.sum("checkpoint.bytes"))
          << "after write " << phase;
    }
    EXPECT_EQ(reg.sum("checkpoint.io_retries"), 1.0);
    const double full_copy_bytes = kWrites * 8 * 16.0;
    if (delta) {
      EXPECT_GT(reg.sum("checkpoint.scrub_repairs"), 0.0);
      EXPECT_LT(reg.sum("checkpoint.hashed_bytes"), full_copy_bytes);
    } else {
      EXPECT_EQ(reg.sum("checkpoint.hashed_bytes"), full_copy_bytes);
    }
  }
}

// ---- seeded stress matrix (CI fault-matrix job) ---------------------

TEST(FaultMatrix, SeededStormEitherCompletesExactlyOrFailsCleanly) {
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("FOURINDEX_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);

  const auto p = small_problem(8, 1);
  core::ParOptions opt;
  opt.tile = 4;

  Cluster clean(fault_machine(2, 2), ExecutionMode::Real);
  const auto ref = core::unfused_par_transform(p, clean, opt);

  Cluster faulty(fault_machine(2, 2), ExecutionMode::Real);
  runtime::CheckpointConfig cfg;
  cfg.max_retries = 5;
  faulty.enable_recovery(cfg);
  FaultInjector inj(seed);
  inj.set_kill_prob(0.02);
  inj.set_op_failure_prob(0.002);
  faulty.install_faults(inj);

  try {
    const auto got = core::unfused_par_transform(p, faulty, opt);
    ASSERT_TRUE(got.c.has_value());
    // Recovery is exact or it is a bug: no silent corruption allowed.
    EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);
  } catch (const FaultError&) {
    // Acceptable outcome: the storm exceeded the recovery envelope
    // (all ranks dead or retry budget drained) and said so.
  }
}

// ---- delta checkpointing --------------------------------------------

TEST(DeltaCheckpoint, RestoresBitIdenticallyAndWritesLessThanFullCopy) {
  // The same node-kill-mid-run scenario under both write policies:
  // delta (only tiles dirtied since the previous generation transit
  // the client link) and the full-copy comparator (every live tile
  // rewritten each epoch). Recovery must be bit-identical either way
  // — the policies differ only in checkpoint write volume.
  const auto p = small_problem();
  core::ParOptions opt;
  opt.tile = 4;
  opt.tile_l = 4;

  Cluster clean(fault_machine(4, 2), ExecutionMode::Real);
  const auto ref = core::fused_par_transform(p, clean, opt);
  ASSERT_TRUE(ref.c.has_value());

  struct Outcome {
    double ckpt_bytes;
    double dirty_fraction;
  };
  auto run = [&](int delta) {
    runtime::CheckpointConfig cfg;
    cfg.delta = delta;
    Cluster faulty(fault_machine(4, 2), ExecutionMode::Real);
    faulty.enable_recovery(cfg);
    EXPECT_EQ(faulty.checkpoints()->delta(), delta != 0);
    FaultInjector inj(21);
    inj.schedule(node_kill_event(/*phase=*/7, /*domain=*/1));
    faulty.install_faults(inj);
    const auto got = core::fused_par_transform(p, faulty, opt);
    EXPECT_TRUE(got.c.has_value());
    if (got.c.has_value()) {
      EXPECT_EQ(got.c->max_abs_diff(*ref.c), 0.0);  // exact recovery
    }
    const auto& reg = faulty.metrics();
    EXPECT_TRUE(faulty.is_dead(2));
    EXPECT_GE(reg.sum("checkpoint.restores"), 1.0);
    return Outcome{reg.sum("checkpoint.bytes"),
                   reg.sum("checkpoint.dirty_fraction")};
  };

  const Outcome full = run(/*delta=*/0);
  const Outcome delta = run(/*delta=*/1);
  // Full-copy rewrites every live tile: its dirty fraction is pinned
  // at 1 and its client write volume strictly dominates delta's.
  EXPECT_EQ(full.dirty_fraction, 1.0);
  EXPECT_LT(delta.ckpt_bytes, full.ckpt_bytes);
  EXPECT_LE(delta.dirty_fraction, 1.0);
}

TEST(DeltaCheckpoint, EnvToggleSelectsThePolicy) {
  const MachineConfig m = fault_machine(2, 2);
  ::setenv("FOURINDEX_CKPT_DELTA", "0", 1);
  {
    Cluster cl(m, ExecutionMode::Simulate);
    cl.enable_recovery();
    EXPECT_FALSE(cl.checkpoints()->delta());
  }
  // Strict parsing: a garbled value warns and keeps the default (on).
  ::setenv("FOURINDEX_CKPT_DELTA", "0abc", 1);
  {
    Cluster cl(m, ExecutionMode::Simulate);
    cl.enable_recovery();
    EXPECT_TRUE(cl.checkpoints()->delta());
  }
  ::unsetenv("FOURINDEX_CKPT_DELTA");
  {
    Cluster cl(m, ExecutionMode::Simulate);
    cl.enable_recovery();
    EXPECT_TRUE(cl.checkpoints()->delta());  // delta is the default
    runtime::CheckpointConfig cfg;
    cfg.delta = 0;  // explicit config wins over the environment
    Cluster cl2(m, ExecutionMode::Simulate);
    cl2.enable_recovery(cfg);
    EXPECT_FALSE(cl2.checkpoints()->delta());
  }
}

TEST(DeltaCheckpoint, NegativeRetentionDepthThrowsInsteadOfWrapping) {
  // Regression: FOURINDEX_CKPT_KEEP=-3 used to warn and silently run
  // with the default depth; a negative depth must refuse to start
  // rather than survive the size_t cast or mask the user's intent.
  ::setenv("FOURINDEX_CKPT_KEEP", "-3", 1);
  Cluster cl(fault_machine(2, 2), ExecutionMode::Simulate);
  EXPECT_THROW(cl.enable_recovery(), ParseError);
  ::unsetenv("FOURINDEX_CKPT_KEEP");
  cl.enable_recovery();
  EXPECT_EQ(cl.checkpoints()->keep_epochs(), 2u);
}

TEST(DeltaCheckpoint, ZeroTileEpochResetsDirtyFractionToZero) {
  // Regression: a checkpoint covering zero live tiles (every array
  // gone before the write — e.g. a transform's arrays destroyed, then
  // an explicit epoch taken) used to skip the gauge entirely, leaving
  // the previous epoch's fraction standing in the bench JSON; the
  // unguarded division would have emitted NaN, which serializes as
  // null and sails through jq's >= gates.
  Cluster cl(fault_machine(2, 2), ExecutionMode::Real);
  cl.enable_recovery();
  {
    std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2)};
    ga::GlobalArray a(cl, "ephemeral", dims);
    cl.run_phase("w0", [&](runtime::RankCtx& ctx) {
      if (ctx.rank() != 0) return;
      for (std::size_t t = 0; t < 4; ++t) {
        std::vector<double> buf = {1.0 + double(t), 0.0};
        a.put(ctx, std::vector<std::size_t>{t}, buf.data());
      }
    });
    EXPECT_GT(cl.metrics().sum("checkpoint.dirty_fraction"), 0.0);
  }  // the array unregisters here
  cl.checkpoints()->write();
  const double f = cl.metrics().sum("checkpoint.dirty_fraction");
  EXPECT_TRUE(std::isfinite(f));
  EXPECT_EQ(f, 0.0);
}

}  // namespace
