// Threaded executor: rank bodies of each phase run on a host thread
// pool. Counters must be exactly deterministic; numerical results
// agree with the serial executor to accumulation-order tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "ga/global_array.hpp"
#include "runtime/cluster.hpp"
#include "runtime/faults.hpp"
#include "runtime/machine.hpp"
#include "util/rng.hpp"

namespace {

using namespace fit;
using runtime::Cluster;
using runtime::ExecutionMode;
using runtime::MachineConfig;

MachineConfig machine(std::size_t nodes, std::size_t rpn) {
  MachineConfig m;
  m.name = "threaded-test";
  m.n_nodes = nodes;
  m.ranks_per_node = rpn;
  m.mem_per_node_bytes = 64e6;
  return m;
}

/// machine() with a parallel file system, so recovery (checkpoints and
/// phase retry) can be enabled.
MachineConfig disk_machine(std::size_t nodes, std::size_t rpn) {
  MachineConfig m = machine(nodes, rpn);
  m.disk_bandwidth_bps = 1e9;
  m.disk_latency_s = 1e-4;
  return m;
}

/// The sum of every counter in the cluster's registry, by name, host
/// clock readings (schedule.*.host_wall_s) aside.
std::map<std::string, double> counter_sums(const Cluster& cl) {
  std::map<std::string, double> out;
  for (const auto& name : cl.metrics().names())
    if (cl.metrics().kind(name) == obs::MetricKind::Counter &&
        !name.ends_with(".host_wall_s"))
      out[name] = cl.metrics().sum(name);
  return out;
}

TEST(Threaded, AllRanksExecuteExactlyOnce) {
  Cluster cl(machine(2, 8), ExecutionMode::Simulate, /*host_threads=*/4);
  std::vector<std::atomic<int>> hits(cl.n_ranks());
  cl.run_phase("count", [&](runtime::RankCtx& ctx) {
    hits[ctx.rank()].fetch_add(1);
    ctx.charge_flops(1e9);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_NEAR(cl.totals().flops, 1e9 * double(cl.n_ranks()), 1);
}

TEST(Threaded, CountersMatchSerialExactly) {
  auto p = core::make_problem(chem::custom_molecule("thr", 12, 2, 5));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 3;
  o.gather_result = false;
  Cluster serial(machine(2, 2), ExecutionMode::Simulate, 1);
  auto rs = core::fused_inner_par_transform(p, serial, o);
  Cluster threaded(machine(2, 2), ExecutionMode::Simulate, 4);
  auto rt = core::fused_inner_par_transform(p, threaded, o);
  EXPECT_DOUBLE_EQ(rs.stats.flops, rt.stats.flops);
  EXPECT_DOUBLE_EQ(rs.stats.remote_bytes, rt.stats.remote_bytes);
  EXPECT_DOUBLE_EQ(rs.stats.local_bytes, rt.stats.local_bytes);
  EXPECT_DOUBLE_EQ(rs.stats.integral_evals, rt.stats.integral_evals);
  EXPECT_NEAR(rs.stats.sim_time, rt.stats.sim_time, 1e-12);
  EXPECT_DOUBLE_EQ(rs.stats.peak_global_bytes, rt.stats.peak_global_bytes);
}

TEST(Threaded, RealModeMatchesReference) {
  auto p = core::make_problem(chem::custom_molecule("thr2", 12, 2, 5));
  auto ref = core::reference_transform(p);
  for (auto schedule :
       {&core::unfused_par_transform, &core::fused_par_transform,
        &core::fused_inner_par_transform}) {
    core::ParOptions o;
    o.tile = 4;
    o.tile_l = 3;
    Cluster cl(machine(2, 4), ExecutionMode::Real, /*host_threads=*/4);
    auto r = schedule(p, cl, o);
    ASSERT_TRUE(r.c.has_value());
    EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
  }
}

TEST(Threaded, ConcurrentAccumulateIsAtomic) {
  // All ranks accumulate into the same tile concurrently; the sum must
  // be exact (the acc path is serialized per array).
  Cluster cl(machine(2, 8), ExecutionMode::Real, /*host_threads=*/8);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(4, 4)};
  ga::GlobalArray a(cl, "acc", dims);
  const std::vector<std::size_t> coord = {0};
  const int reps = 50;
  cl.run_phase("acc", [&](runtime::RankCtx& ctx) {
    std::vector<double> buf = {1.0, 2.0, 3.0, 4.0};
    for (int i = 0; i < reps; ++i) a.acc(ctx, coord, buf.data());
  });
  const double factor = double(reps) * double(cl.n_ranks());
  EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{0}), 1.0 * factor);
  EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{3}), 4.0 * factor);
}

TEST(Threaded, ExceptionsPropagateToCaller) {
  auto m = machine(1, 8);
  m.local_scratch_bytes = 64;
  Cluster cl(m, ExecutionMode::Simulate, 4);
  EXPECT_THROW(
      cl.run_phase("oom",
                   [&](runtime::RankCtx& ctx) {
                     runtime::RankBuffer big(ctx, 1000, "too big");
                   }),
      fit::OutOfMemoryError);
}

TEST(Threaded, HostThreadsClampedToHardware) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // An absurd request is clamped so timing benches never oversubscribe.
  Cluster big(machine(1, 4), ExecutionMode::Simulate, 10000);
  EXPECT_LE(big.host_threads(), hw);
  EXPECT_GE(big.host_threads(), 1u);
  // A serial request stays serial.
  Cluster one(machine(1, 4), ExecutionMode::Simulate, 1);
  EXPECT_EQ(one.host_threads(), 1u);
}

TEST(Threaded, FourindexThreadsEnvOverridesRequest) {
  // FOURINDEX_THREADS takes precedence over the constructor argument
  // (still clamped to the hardware, so expect exactly 1 when set to 1).
  ASSERT_EQ(setenv("FOURINDEX_THREADS", "1", /*overwrite=*/1), 0);
  Cluster cl(machine(1, 4), ExecutionMode::Simulate, 8);
  unsetenv("FOURINDEX_THREADS");
  EXPECT_EQ(cl.host_threads(), 1u);
}

TEST(Threaded, HybridEndToEnd) {
  auto p = core::make_problem(chem::custom_molecule("thr3", 16, 4, 5));
  auto ref = core::reference_transform(p);
  Cluster cl(machine(2, 4), ExecutionMode::Real, 3);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  auto r = core::resilient_transform(p, cl, o);
  ASSERT_TRUE(r.c.has_value());
  EXPECT_LT(r.c->max_abs_diff(ref), 1e-9);
}

}  // namespace

TEST(Threaded, DynamicBalanceAndFaultsMatchAcrossLanes) {
  // Every registry counter (ga.*, comm.*, sched.*, fault.*, retry.*,
  // checkpoint.*) and the simulated time agree between one and four
  // lanes under dynamic balance, fault-free and with seeded transient
  // op faults: budgets on seeded ranks of seeded phases, so the phases
  // between them still run on every lane.
  auto p = core::make_problem(chem::custom_molecule("thr4", 12, 2, 5));
  for (auto balance : {ga::Balance::Counter, ga::Balance::Steal}) {
    for (bool faults : {false, true}) {
      SCOPED_TRACE(std::string(ga::to_string(balance)) +
                   (faults ? " with faults" : " fault-free"));
      core::ParOptions o;
      o.tile = 4;
      o.tile_l = 3;
      o.gather_result = false;
      o.balance = balance;
      auto run = [&](std::size_t lanes) {
        Cluster cl(disk_machine(2, 4), ExecutionMode::Simulate, lanes);
        cl.enable_recovery();
        if (faults) {
          runtime::FaultInjector inj(2024);
          SplitMix64 g(2024);
          for (int i = 0; i < 3; ++i) {
            runtime::FaultEvent ev;
            ev.kind = runtime::FaultKind::TransientOp;
            ev.phase = 1 + g.next_below(8);
            ev.rank = g.next_below(cl.n_ranks());
            ev.count = 1 + g.next_below(2);
            inj.schedule(ev);
          }
          cl.install_faults(inj);
        }
        const auto r = core::fused_inner_par_transform(p, cl, o);
        return std::make_pair(counter_sums(cl), r.stats.sim_time);
      };
      const auto [one, one_sim] = run(1);
      const auto [four, four_sim] = run(4);
      EXPECT_EQ(one_sim, four_sim);
      ASSERT_EQ(one.size(), four.size());
      for (const auto& [name, sum] : one) {
        ASSERT_TRUE(four.contains(name)) << name;
        EXPECT_EQ(sum, four.at(name)) << name;
      }
      EXPECT_GT(one.at("sched.claims"), 0.0);
      if (faults) {
        EXPECT_GT(one.at("fault.transient_ops"), 0.0);
        EXPECT_GT(one.at("retry.attempts"), 0.0);
      }
    }
  }
}

TEST(Threaded, InjectorInstalledBetweenPhasesFiresInTheNext) {
  // Whether faults are armed is read when a phase attempt builds its
  // rank contexts, so an injector installed between two phases of one
  // cluster is seen by the next phase's ops.
  Cluster cl(disk_machine(2, 4), ExecutionMode::Simulate, 4);
  cl.enable_recovery();
  ga::GlobalArray a(cl, "a", {tensor::Tiling(16, 4)});  // ranks 0-3 own one
  auto touch = [&](runtime::RankCtx& ctx) {
    for (std::size_t idx : a.tiles_of(ctx.rank()))
      a.put(ctx, a.tile_by_index(idx).coord, nullptr);
  };
  cl.run_phase("unarmed", touch);
  EXPECT_EQ(cl.metrics().sum("fault.transient_ops"), 0.0);

  runtime::FaultInjector inj(9);
  runtime::FaultEvent ev;
  ev.kind = runtime::FaultKind::TransientOp;
  ev.phase = cl.phase_index();
  ev.rank = 1;
  inj.schedule(ev);
  cl.install_faults(inj);
  cl.run_phase("armed", touch);
  EXPECT_EQ(cl.metrics().sum("fault.transient_ops"), 1.0);
  EXPECT_EQ(cl.metrics().sum("retry.attempts"), 1.0);
  EXPECT_EQ(cl.metrics().sum("ga.puts"), 4.0 + 4.0 + 1.0);  // + rank 0's
}
