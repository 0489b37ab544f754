// NXTVAL-style dynamic load balancing (Sec. 7.3): the task-counter /
// work-stealing claim planner and its integration into the parallel
// schedules.
//
// The deterministic headline claims:
//   - Balance::Static is bit-identical to the historical owner-
//     filtered loops and reports zero scheduler activity;
//   - Counter and Steal produce bit-identical Real-mode results (each
//     output tile is written by exactly one task per phase) while the
//     modeled time and sched.* metrics move;
//   - on a skewed workload the dynamic strategies beat Static on both
//     worst-rank imbalance and simulated wall-clock;
//   - a rank killed mid-drain under Balance::Steal has its orphaned
//     claims adopted by the surviving owner and the result stays
//     bit-identical to the fault-free run;
//   - a dead counter home rank is re-owned by its survivor
//     (sched.counter_reowns).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chem/molecule.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_baseline.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "ga/task_counter.hpp"
#include "runtime/cluster.hpp"
#include "runtime/faults.hpp"
#include "runtime/machine.hpp"

namespace {

using namespace fit;
using runtime::Cluster;
using runtime::ExecutionMode;
using runtime::FaultEvent;
using runtime::FaultInjector;
using runtime::FaultKind;
using runtime::MachineConfig;

MachineConfig sched_machine(std::size_t nodes, std::size_t rpn,
                            double mem_per_node = 64e6) {
  MachineConfig m;
  m.name = "sched-test";
  m.n_nodes = nodes;
  m.ranks_per_node = rpn;
  m.mem_per_node_bytes = mem_per_node;
  m.flops_per_rank = 1e9;
  m.integrals_per_sec = 1e8;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 1e-6;
  m.local_bandwidth_bps = 1e10;
  m.disk_bandwidth_bps = 1e9;  // recovery needs a PFS for checkpoints
  m.disk_latency_s = 1e-3;
  return m;
}

core::Problem sched_problem(std::size_t n = 12, unsigned s = 2) {
  return core::make_problem(chem::custom_molecule("sched", n, s, 17 * n + s));
}

core::ParOptions sched_options(ga::Balance b) {
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.balance = b;
  return o;
}

FaultEvent kill_event(std::size_t phase, std::size_t rank) {
  FaultEvent ev;
  ev.kind = FaultKind::KillRank;
  ev.phase = phase;
  ev.rank = rank;
  return ev;
}

// ---- plan_tasks (the claim DES) -------------------------------------

TEST(PlanTasks, StaticPlanMirrorsTheOwnerMap) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "static-plan");
  std::vector<std::size_t> owner = {0, 1, 2, 3, 0, 1, 2, 3, 1};
  std::vector<double> cost(owner.size(), 1.0);
  const auto plan =
      ga::plan_tasks(cl, ga::Balance::Static, counter, cost, owner);
  ASSERT_EQ(plan.claims.size(), 4u);
  EXPECT_EQ(plan.n_steals, 0u);
  EXPECT_EQ(plan.total_wait_s, 0.0);
  for (std::size_t r = 0; r < 4; ++r) {
    std::size_t prev = 0;
    for (const auto& c : plan.claims[r]) {
      EXPECT_EQ(owner[c.task], r);
      EXPECT_GE(c.task, prev);  // canonical ascending order
      EXPECT_EQ(c.wait_s, 0.0);
      EXPECT_FALSE(c.stolen);
      prev = c.task;
    }
  }
}

TEST(PlanTasks, CounterPlanIsExhaustiveDeterministicAndContended) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "counter-plan");
  std::vector<std::size_t> owner(17, 0);
  for (std::size_t t = 0; t < owner.size(); ++t) owner[t] = t % 4;
  std::vector<double> cost(owner.size(), 1e-6);
  const auto a = ga::plan_tasks(cl, ga::Balance::Counter, counter, cost,
                                owner);
  const auto b = ga::plan_tasks(cl, ga::Balance::Counter, counter, cost,
                                owner);
  std::multiset<std::size_t> claimed;
  for (std::size_t r = 0; r < a.claims.size(); ++r) {
    ASSERT_EQ(a.claims[r].size(), b.claims[r].size());
    ASSERT_FALSE(a.claims[r].empty());
    // Every rank's final fetch comes back empty — that is how it
    // learns the counter ran past the task count.
    EXPECT_EQ(a.claims[r].back().task, ga::TaskClaim::kNone);
    for (std::size_t i = 0; i < a.claims[r].size(); ++i) {
      EXPECT_EQ(a.claims[r][i].task, b.claims[r][i].task);  // determinism
      EXPECT_EQ(a.claims[r][i].wait_s, b.claims[r][i].wait_s);
      if (a.claims[r][i].task != ga::TaskClaim::kNone)
        claimed.insert(a.claims[r][i].task);
    }
  }
  EXPECT_EQ(claimed.size(), owner.size());  // each task exactly once
  EXPECT_EQ(*claimed.begin(), 0u);
  // With near-zero task cost all four ranks hammer the counter at
  // once: somebody must queue behind somebody.
  EXPECT_GT(a.total_wait_s, 0.0);
}

TEST(PlanTasks, StealPlanRebalancesASkewedOwnerMap) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "steal-plan");
  // Rank 0 owns every task: the other three can only make progress by
  // stealing.
  std::vector<std::size_t> owner(16, 0);
  std::vector<double> cost(owner.size(), 1.0);
  const auto plan =
      ga::plan_tasks(cl, ga::Balance::Steal, counter, cost, owner);
  EXPECT_GT(plan.n_steals, 0u);
  std::multiset<std::size_t> claimed;
  for (std::size_t r = 0; r < plan.claims.size(); ++r)
    for (const auto& c : plan.claims[r]) {
      EXPECT_NE(c.task, ga::TaskClaim::kNone);  // no terminal fetches
      EXPECT_TRUE(c.task < owner.size());
      if (c.stolen) {
        EXPECT_EQ(c.peer, 0u);
      }
      claimed.insert(c.task);
    }
  EXPECT_EQ(claimed.size(), owner.size());
  EXPECT_EQ(claimed.count(0), 1u);
  // The steal RTTs are worth paying: everyone ends with work.
  for (std::size_t r = 1; r < plan.claims.size(); ++r)
    EXPECT_FALSE(plan.claims[r].empty());
}

// Every real task claimed exactly once, no matter the mechanism.
std::multiset<std::size_t> claimed_tasks(const ga::TaskPlan& plan) {
  std::multiset<std::size_t> claimed;
  for (const auto& list : plan.claims)
    for (const auto& c : list)
      if (c.task != ga::TaskClaim::kNone) claimed.insert(c.task);
  return claimed;
}

TEST(PlanTasks, MitigatedPlansPartitionTheTaskSetDeterministically) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "mitigated-plan");
  std::vector<std::size_t> owner(37, 0);
  for (std::size_t t = 0; t < owner.size(); ++t) owner[t] = t % 4;
  std::vector<double> cost(owner.size(), 1e-6);
  for (ga::Balance b :
       {ga::Balance::Batched, ga::Balance::PerNode, ga::Balance::Tree}) {
    SCOPED_TRACE(ga::to_string(b));
    const auto a = ga::plan_tasks(cl, b, counter, cost, owner, 4);
    const auto c = ga::plan_tasks(cl, b, counter, cost, owner, 4);
    const auto claimed = claimed_tasks(a);
    EXPECT_EQ(claimed.size(), owner.size());  // each task exactly once
    EXPECT_EQ(std::set<std::size_t>(claimed.begin(), claimed.end()).size(),
              owner.size());
    EXPECT_GT(a.n_fetches, 0u);
    EXPECT_GT(a.makespan_s, 0.0);
    ASSERT_FALSE(a.counter_homes.empty());
    ASSERT_EQ(a.counter_homes.size(), a.counter_owners.size());
    for (std::size_t r = 0; r < a.claims.size(); ++r) {
      ASSERT_EQ(a.claims[r].size(), c.claims[r].size());
      // Every rank ends with the terminal empty fetch that tells it
      // the work ran out.
      ASSERT_FALSE(a.claims[r].empty());
      EXPECT_EQ(a.claims[r].back().task, ga::TaskClaim::kNone);
      EXPECT_TRUE(a.claims[r].back().fetched);
      for (std::size_t i = 0; i < a.claims[r].size(); ++i) {
        EXPECT_EQ(a.claims[r][i].task, c.claims[r][i].task);
        EXPECT_EQ(a.claims[r][i].wait_s, c.claims[r][i].wait_s);
        if (a.claims[r][i].fetched) {
          EXPECT_NE(a.claims[r][i].home, ga::TaskClaim::kNone);
        }
      }
    }
  }
}

TEST(PlanTasks, BatchedDequeueAmortizesTheFetchStream) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "batched-plan");
  std::vector<std::size_t> owner(17, 0);
  for (std::size_t t = 0; t < owner.size(); ++t) owner[t] = t % 4;
  std::vector<double> cost(owner.size(), 1e-6);
  const auto flat =
      ga::plan_tasks(cl, ga::Balance::Counter, counter, cost, owner);
  const auto batched =
      ga::plan_tasks(cl, ga::Balance::Batched, counter, cost, owner, 4);
  // 17 tasks in batches of 4: exactly ceil(17/4) = 5 loaded fetches,
  // against 17 for the flat counter.
  EXPECT_EQ(flat.n_fetches, 17u);
  EXPECT_EQ(batched.n_fetches, 5u);
  // Fewer serialized fetch-and-adds -> less queueing at the host.
  EXPECT_LT(batched.total_wait_s, flat.total_wait_s);
  // Batch tails ride the head's ticket: no fetch, no wait.
  std::size_t tails = 0;
  for (const auto& list : batched.claims)
    for (const auto& c : list)
      if (!c.fetched) {
        EXPECT_EQ(c.wait_s, 0.0);
        EXPECT_NE(c.task, ga::TaskClaim::kNone);
        ++tails;
      }
  EXPECT_EQ(tails, 17u - 5u);
}

TEST(PlanTasks, PerNodePlanKeepsOneCounterPerDomain) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "pernode-plan");
  std::vector<std::size_t> owner(24, 0);
  for (std::size_t t = 0; t < owner.size(); ++t) owner[t] = t % 4;
  std::vector<double> cost(owner.size(), 1e-6);
  const auto plan =
      ga::plan_tasks(cl, ga::Balance::PerNode, counter, cost, owner);
  // One counter per failure domain, each homed inside its domain.
  ASSERT_EQ(plan.counter_homes.size(), cl.n_domains());
  for (std::size_t d = 0; d < cl.n_domains(); ++d)
    EXPECT_EQ(cl.domain_of(plan.counter_homes[d]), d);
  EXPECT_EQ(claimed_tasks(plan).size(), owner.size());
}

TEST(PlanTasks, TreePlanRefillsThroughTheHierarchy) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "tree-plan");
  std::vector<std::size_t> owner(21, 0);
  for (std::size_t t = 0; t < owner.size(); ++t) owner[t] = t % 4;
  std::vector<double> cost(owner.size(), 1e-6);
  const auto plan =
      ga::plan_tasks(cl, ga::Balance::Tree, counter, cost, owner, 2);
  // Only the root is preloaded: the level-1 nodes must have ascended
  // for refills, and those hops are surfaced for the metrics.
  EXPECT_GT(plan.tree_hops, 0u);
  EXPECT_EQ(claimed_tasks(plan).size(), owner.size());
  // Leaf + root counters, each homed inside the rank group it covers.
  ASSERT_EQ(plan.counter_homes.size(), 3u);  // two leaves + root
}

TEST(PlanTasks, AutoBatchFollowsTheClaimsPerRankRule) {
  EXPECT_EQ(ga::auto_batch(17, 4), 1u);      // small: stay fine-grained
  EXPECT_EQ(ga::auto_batch(320, 8), 5u);     // 320 / (8 * 8)
  EXPECT_EQ(ga::auto_batch(100000, 4), 64u); // clamped at 64
  EXPECT_EQ(ga::auto_batch(0, 0), 1u);       // degenerate inputs
}

TEST(PlanTasks, AutoBatchSurvivesKillStormsAndOversizedClusters) {
  // Regression: a plan taken after a full-cluster kill storm
  // (live_count == 0) or with fewer tasks than live ranks must stay
  // at the finest batch — never divide by zero or hand out batches
  // that claim past the range end.
  EXPECT_EQ(ga::auto_batch(100, 0), 1u);  // kill storm: nobody alive
  EXPECT_EQ(ga::auto_batch(3, 8), 1u);    // tail phase: tasks < ranks
  // Regression: 8 * live_ranks wrapped to zero for rank counts above
  // 2^61 and the division faulted; the stepwise form cannot wrap.
  EXPECT_EQ(ga::auto_batch(5, std::size_t{1} << 61), 1u);
  EXPECT_EQ(ga::auto_batch(~std::size_t{0}, std::size_t{1} << 61), 1u);
}

TEST(PlanTasks, ChooseBalanceNeverLosesToAFixedMode) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "choose-plan");
  // Heavily skewed static map: dynamic modes should win the DES.
  std::vector<std::size_t> owner(64, 0);
  std::vector<double> cost(owner.size(), 1e-3);
  const auto pick = core::choose_balance(cl, counter, cost, owner);
  EXPECT_NE(pick.balance, ga::Balance::Auto);
  for (ga::Balance b :
       {ga::Balance::Static, ga::Balance::Counter, ga::Balance::Steal,
        ga::Balance::Batched, ga::Balance::PerNode, ga::Balance::Tree}) {
    const auto plan = ga::plan_tasks(cl, b, counter, cost, owner);
    EXPECT_LE(pick.plan.makespan_s, plan.makespan_s)
        << "auto lost to " << ga::to_string(b);
  }
  // On this skew the winner must be a dynamic mode (static's makespan
  // is the whole task list on rank 0).
  EXPECT_NE(pick.balance, ga::Balance::Static);
}

// ---- schedule integration -------------------------------------------

TEST(PlanTasksTenants, SingleTenantDegeneratesToTheUntenantedPlan) {
  // A TenantSpec with one tenant and no quotas must not perturb the
  // claim order: the DRR dispenser over one queue is the canonical
  // counter, bit for bit (claims, waits, fetch counts).
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "tenant-degenerate");
  std::vector<std::size_t> owner(23, 0);
  std::vector<double> cost(owner.size());
  for (std::size_t t = 0; t < owner.size(); ++t) {
    owner[t] = t % 4;
    cost[t] = 1e-6 * static_cast<double>(1 + t % 5);
  }
  std::vector<std::size_t> tenant(owner.size(), 0);
  ga::TenantSpec spec;
  spec.tenant = tenant;
  spec.n_tenants = 1;
  for (ga::Balance b : {ga::Balance::Counter, ga::Balance::Batched}) {
    const auto plain =
        ga::plan_tasks(cl, b, counter, cost, owner, /*batch=*/4);
    const auto tenanted =
        ga::plan_tasks(cl, b, counter, cost, owner, spec, /*batch=*/4);
    ASSERT_EQ(plain.claims.size(), tenanted.claims.size());
    for (std::size_t r = 0; r < plain.claims.size(); ++r) {
      ASSERT_EQ(plain.claims[r].size(), tenanted.claims[r].size());
      for (std::size_t i = 0; i < plain.claims[r].size(); ++i) {
        EXPECT_EQ(plain.claims[r][i].task, tenanted.claims[r][i].task);
        EXPECT_EQ(plain.claims[r][i].wait_s, tenanted.claims[r][i].wait_s);
        EXPECT_EQ(plain.claims[r][i].fetched,
                  tenanted.claims[r][i].fetched);
      }
    }
    EXPECT_EQ(plain.n_fetches, tenanted.n_fetches);
    EXPECT_EQ(tenanted.quota_stalls, 0u);
    ASSERT_EQ(tenanted.tenant_makespan_s.size(), 1u);
  }
}

TEST(PlanTasksTenants, DeficitRoundRobinInterleavesTenantsFairly) {
  // Two tenants with equal aggregate work: tenant 0 has many cheap
  // tasks, tenant 1 few expensive ones. Global canonical order would
  // drain all of tenant 0 first (its tasks come first in the task
  // list); DRR must interleave so both finish within a modest ratio.
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "tenant-fairness");
  std::vector<std::size_t> tenant, owner;
  std::vector<double> cost;
  for (std::size_t t = 0; t < 40; ++t) {  // tenant 0: 40 x 1ms
    tenant.push_back(0);
    cost.push_back(1e-3);
  }
  for (std::size_t t = 0; t < 8; ++t) {  // tenant 1: 8 x 5ms
    tenant.push_back(1);
    cost.push_back(5e-3);
  }
  owner.assign(tenant.size(), 0);
  for (std::size_t t = 0; t < owner.size(); ++t) owner[t] = t % 4;
  ga::TenantSpec spec;
  spec.tenant = tenant;
  spec.n_tenants = 2;
  const auto plan = ga::plan_tasks(cl, ga::Balance::Counter, counter, cost,
                                   owner, spec);
  ASSERT_EQ(plan.tenant_makespan_s.size(), 2u);
  EXPECT_GT(plan.tenant_makespan_s[0], 0.0);
  EXPECT_GT(plan.tenant_makespan_s[1], 0.0);
  const double hi = std::max(plan.tenant_makespan_s[0],
                             plan.tenant_makespan_s[1]);
  const double lo = std::min(plan.tenant_makespan_s[0],
                             plan.tenant_makespan_s[1]);
  EXPECT_LT(hi / lo, 1.5);  // equal shares finish near-simultaneously
  // Exhaustive and exactly-once, as for every other mode.
  std::multiset<std::size_t> claimed;
  for (const auto& list : plan.claims)
    for (const auto& c : list)
      if (c.task != ga::TaskClaim::kNone) claimed.insert(c.task);
  EXPECT_EQ(claimed.size(), tenant.size());
  EXPECT_EQ(claimed.count(0), 1u);
}

TEST(PlanTasksTenants, QuotasAreNeverExceededAndStallInsteadOfWedging) {
  // Tight quotas: tenant 0 may hold two tasks in flight, tenant 1 one.
  // The DES must stall fetches rather than overshoot, and the reported
  // per-tenant peak must respect the caps exactly.
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "tenant-quota");
  const std::size_t n = 24;
  std::vector<std::size_t> tenant(n), owner(n);
  std::vector<double> cost(n, 1e-3), bytes(n, 100.0);
  for (std::size_t t = 0; t < n; ++t) {
    tenant[t] = t % 2;
    owner[t] = t % 4;
  }
  std::vector<double> quota = {200.0, 100.0};
  ga::TenantSpec spec;
  spec.tenant = tenant;
  spec.task_bytes = bytes;
  spec.quota_bytes = quota;
  spec.n_tenants = 2;
  const auto plan = ga::plan_tasks(cl, ga::Balance::Counter, counter, cost,
                                   owner, spec);
  ASSERT_EQ(plan.tenant_peak_bytes.size(), 2u);
  EXPECT_LE(plan.tenant_peak_bytes[0], quota[0]);
  EXPECT_LE(plan.tenant_peak_bytes[1], quota[1]);
  EXPECT_GT(plan.tenant_peak_bytes[0], 0.0);
  // Four ranks fetching against three total in-flight slots: somebody
  // must have stalled on a quota at least once.
  EXPECT_GT(plan.quota_stalls, 0u);
  std::multiset<std::size_t> claimed;
  for (const auto& list : plan.claims)
    for (const auto& c : list)
      if (c.task != ga::TaskClaim::kNone) claimed.insert(c.task);
  EXPECT_EQ(claimed.size(), n);  // quota stalls defer, never drop
}

TEST(PlanTasksTenants, OversizedTaskOrWrongModeIsRejected) {
  Cluster cl(sched_machine(2, 2), ExecutionMode::Simulate);
  ga::TaskCounter counter(cl, "tenant-reject");
  std::vector<std::size_t> tenant = {0, 0}, owner = {0, 1};
  std::vector<double> cost = {1e-3, 1e-3};
  std::vector<double> bytes = {300.0, 50.0}, quota = {200.0};
  ga::TenantSpec spec;
  spec.tenant = tenant;
  spec.task_bytes = bytes;
  spec.quota_bytes = quota;
  spec.n_tenants = 1;
  EXPECT_THROW(ga::plan_tasks(cl, ga::Balance::Counter, counter, cost,
                              owner, spec),
               fit::Error);
  ga::TenantSpec ok = spec;
  std::vector<double> fits = {100.0, 50.0};
  ok.task_bytes = fits;
  EXPECT_THROW(ga::plan_tasks(cl, ga::Balance::Steal, counter, cost, owner,
                              ok),
               fit::Error);
  EXPECT_NO_THROW(ga::plan_tasks(cl, ga::Balance::Counter, counter, cost,
                                 owner, ok));
}

TEST(TaskSched, StaticIsInertAndDeterministic) {
  auto p = sched_problem();
  auto ref = core::reference_transform(p);
  Cluster cl1(sched_machine(2, 2), ExecutionMode::Real);
  auto r1 = core::fused_inner_par_transform(p, cl1,
                                            sched_options(ga::Balance::Static));
  Cluster cl2(sched_machine(2, 2), ExecutionMode::Real);
  auto r2 = core::fused_inner_par_transform(p, cl2,
                                            sched_options(ga::Balance::Static));
  ASSERT_TRUE(r1.c.has_value());
  ASSERT_TRUE(r2.c.has_value());
  EXPECT_LT(r1.c->max_abs_diff(ref), 1e-9);
  EXPECT_EQ(r1.c->max_abs_diff(*r2.c), 0.0);       // run-to-run identical
  EXPECT_EQ(r1.stats.sim_time, r2.stats.sim_time);  // and in modeled time
  // Static pays no scheduling traffic and reports no dynamic activity.
  EXPECT_EQ(r1.stats.sched_claims, 0.0);
  EXPECT_EQ(r1.stats.sched_steals, 0.0);
  EXPECT_EQ(r1.stats.sched_counter_wait_s, 0.0);
  EXPECT_EQ(cl1.metrics().sum("sched.claims"), 0.0);
  EXPECT_EQ(cl1.metrics().sum("sched.steals"), 0.0);
  EXPECT_EQ(cl1.metrics().sum("sched.counter_waits"), 0.0);
}

TEST(TaskSched, DynamicModesAreBitIdenticalToStatic) {
  auto p = sched_problem();
  Cluster cls(sched_machine(2, 2), ExecutionMode::Real);
  auto rs = core::fused_inner_par_transform(
      p, cls, sched_options(ga::Balance::Static));
  ASSERT_TRUE(rs.c.has_value());

  for (ga::Balance b :
       {ga::Balance::Counter, ga::Balance::Steal, ga::Balance::Batched,
        ga::Balance::PerNode, ga::Balance::Tree, ga::Balance::Auto}) {
    SCOPED_TRACE(ga::to_string(b));
    Cluster cl(sched_machine(2, 2), ExecutionMode::Real);
    auto r = core::fused_inner_par_transform(p, cl, sched_options(b));
    ASSERT_TRUE(r.c.has_value());
    // Same tasks, same bodies, one writer per output tile per phase:
    // the result does not merely agree, it is bit-identical.
    EXPECT_EQ(r.c->max_abs_diff(*rs.c), 0.0);
    if (b != ga::Balance::Auto) {  // Auto may legitimately pick Static
      EXPECT_GT(r.stats.sched_claims, 0.0);
    }
    if (b == ga::Balance::Counter) {
      EXPECT_GT(cl.metrics().sum("sched.counter_waits"), 0.0);
      EXPECT_GE(r.stats.sched_counter_wait_s, 0.0);
      // Scheduling is not free: the counter round trips show up in
      // the modeled time.
      EXPECT_GT(r.stats.sim_time, 0.0);
    }
  }
}

TEST(TaskSched, DynamicBalancingBeatsStaticOnSkewedWork) {
  // Contiguous alpha chunks carry the triangular alpha >= beta weight
  // (several-fold between the lightest and heaviest chunk), and with
  // n_ac == nranks the static map (tk*n_ac + ac) % nranks pins each
  // chunk index to a fixed rank — the systematic skew Sec. 7.3's
  // NXTVAL counter absorbs.
  auto p = sched_problem(32, 2);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 16;
  o.alpha_parallel = 6;
  o.alpha_chunking = core::ParOptions::AlphaChunking::Contiguous;
  o.gather_result = false;

  auto run = [&](ga::Balance b) {
    o.balance = b;
    Cluster cl(sched_machine(2, 3), ExecutionMode::Simulate);
    return core::fused_inner_par_transform(p, cl, o);
  };
  auto rs = run(ga::Balance::Static);
  auto rc = run(ga::Balance::Counter);
  auto rt = run(ga::Balance::Steal);
  EXPECT_GT(rs.stats.worst_imbalance, 1.2);  // the skew is real
  EXPECT_LT(rc.stats.worst_imbalance, rs.stats.worst_imbalance);
  EXPECT_LT(rt.stats.worst_imbalance, rs.stats.worst_imbalance);
  EXPECT_LT(rc.stats.sim_time, rs.stats.sim_time);
  EXPECT_LT(rt.stats.sim_time, rs.stats.sim_time);
  EXPECT_GT(rt.stats.sched_steals, 0.0);
  EXPECT_GT(rc.stats.sched_counter_wait_s, 0.0);
}

TEST(TaskSched, RecomputeScheduleStaysBitIdenticalUnderDynamicModes) {
  // The recompute baseline is the schedule whose phase ends in GA
  // accumulates — the op most sensitive to who executes a task. One
  // writer per (ta, tb, tc, td) tile per phase keeps every mode
  // bit-identical anyway.
  auto p = sched_problem();
  core::ParOptions o;
  o.tile = 4;
  auto run = [&](ga::Balance b) {
    o.balance = b;
    Cluster cl(sched_machine(2, 2), ExecutionMode::Real);
    return core::nwchem_recompute_par_transform(p, cl, o);
  };
  auto rs = run(ga::Balance::Static);
  ASSERT_TRUE(rs.c.has_value());
  for (ga::Balance b :
       {ga::Balance::Counter, ga::Balance::Steal, ga::Balance::Batched,
        ga::Balance::PerNode, ga::Balance::Tree}) {
    SCOPED_TRACE(ga::to_string(b));
    auto r = run(b);
    ASSERT_TRUE(r.c.has_value());
    EXPECT_EQ(r.c->max_abs_diff(*rs.c), 0.0);
    EXPECT_GT(r.stats.sched_claims, 0.0);
  }
}

TEST(TaskSched, MitigatedCountersCutTheFlatCounterWait) {
  // Same skewed workload the flat counter wins on imbalance but pays
  // per-claim round trips for: the mitigations must keep the balance
  // win while shrinking the scheduling cost (measured as summed
  // counter queueing).
  auto p = sched_problem(32, 2);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 16;
  o.alpha_parallel = 6;
  o.alpha_chunking = core::ParOptions::AlphaChunking::Contiguous;
  o.gather_result = false;
  auto run = [&](ga::Balance b) {
    o.balance = b;
    Cluster cl(sched_machine(2, 3), ExecutionMode::Simulate);
    return core::fused_inner_par_transform(p, cl, o);
  };
  auto rs = run(ga::Balance::Static);
  auto rc = run(ga::Balance::Counter);
  auto rb = run(ga::Balance::Batched);
  auto rn = run(ga::Balance::PerNode);
  auto rt = run(ga::Balance::Tree);
  // Fewer serialized fetches (batch amortization) and split request
  // streams (per-node) both cut the total queueing time.
  EXPECT_GT(rb.stats.sched_counter_fetches, 0.0);
  EXPECT_LT(rb.stats.sched_counter_fetches, rc.stats.sched_counter_fetches);
  EXPECT_LT(rb.stats.sched_counter_wait_s, rc.stats.sched_counter_wait_s);
  EXPECT_LT(rn.stats.sched_counter_wait_s, rc.stats.sched_counter_wait_s);
  EXPECT_GT(rt.stats.sched_tree_hops, 0.0);
  // The mitigations still rebalance the skew.
  EXPECT_LT(rb.stats.worst_imbalance, rs.stats.worst_imbalance);
  EXPECT_LT(rn.stats.worst_imbalance, rs.stats.worst_imbalance);
}

TEST(TaskSched, AutoIsNeverWorseThanTheFixedModes) {
  auto p = sched_problem(32, 2);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 16;
  o.alpha_parallel = 6;
  o.alpha_chunking = core::ParOptions::AlphaChunking::Contiguous;
  o.gather_result = false;
  auto run = [&](ga::Balance b) {
    o.balance = b;
    Cluster cl(sched_machine(2, 3), ExecutionMode::Simulate);
    return core::fused_inner_par_transform(p, cl, o).stats.sim_time;
  };
  double best = run(ga::Balance::Static);
  for (ga::Balance b :
       {ga::Balance::Counter, ga::Balance::Steal, ga::Balance::Batched,
        ga::Balance::PerNode, ga::Balance::Tree})
    best = std::min(best, run(b));
  const double auto_time = run(ga::Balance::Auto);
  // Auto picks per phase from the same DES the fixed modes replay, so
  // it can mix modes across phases; a small tolerance absorbs the gap
  // between the DES cost estimates and the replayed charges.
  EXPECT_LE(auto_time, best * 1.02);
}

// ---- faults ---------------------------------------------------------

TEST(TaskSchedFaults, MidDrainKillUnderStealIsAdoptedBitIdentically) {
  auto p = sched_problem();
  auto ref = core::reference_transform(p);
  const auto opt = sched_options(ga::Balance::Steal);

  Cluster clean(sched_machine(2, 2), ExecutionMode::Real);
  const auto want = core::fused_inner_par_transform(p, clean, opt);
  ASSERT_TRUE(want.c.has_value());

  // Phase 1 is "fused12 [l-slice 0]": the claim plan is drawn with
  // rank 1 alive, then the boundary kill fires before the phase body
  // runs — its queue is orphaned mid-drain.
  Cluster faulty(sched_machine(2, 2), ExecutionMode::Real);
  faulty.enable_recovery();
  FaultInjector inj;
  inj.schedule(kill_event(/*phase=*/1, /*rank=*/1));
  faulty.install_faults(inj);
  const auto got = core::fused_inner_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_LT(got.c->max_abs_diff(ref), 1e-9);
  EXPECT_EQ(got.c->max_abs_diff(*want.c), 0.0);  // bit-identical recovery
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.kills"), 1.0);
  EXPECT_GT(reg.sum("sched.orphans_adopted"), 0.0);
  EXPECT_TRUE(faulty.is_dead(1));
  // Adopted work is charged, not teleported: the survivor's run costs
  // more modeled time than the fault-free one.
  EXPECT_GT(faulty.sim_time(), clean.sim_time());
}

TEST(TaskSchedFaults, DeadCounterHomeIsReowned) {
  auto p = sched_problem();
  auto ref = core::reference_transform(p);
  const auto opt = sched_options(ga::Balance::Counter);

  Cluster faulty(sched_machine(2, 2), ExecutionMode::Real);
  // The counter for the first fused12 phase lives on a deterministic
  // (FNV-1a) home rank; kill exactly that rank at that phase.
  const std::size_t home =
      ga::TaskCounter(faulty, "fused12 [l-slice 0]").home();
  faulty.enable_recovery();
  FaultInjector inj;
  inj.schedule(kill_event(/*phase=*/1, home));
  faulty.install_faults(inj);
  const auto got = core::fused_inner_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_LT(got.c->max_abs_diff(ref), 1e-9);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.kills"), 1.0);
  EXPECT_GE(reg.sum("sched.counter_reowns"), 1.0);
  // Later phases plan against the re-homed counter without incident.
  EXPECT_GT(reg.sum("sched.claims"), 0.0);
}

TEST(TaskSchedFaults, DeadPerNodeCounterHomeIsReowned) {
  // Kill the rank hosting failure domain 0's counter at the phase
  // boundary: the planned claims against it must re-resolve to the
  // survivor (Cluster::live_owner) and the result stays bit-identical.
  auto p = sched_problem();
  auto ref = core::reference_transform(p);
  const auto opt = sched_options(ga::Balance::PerNode);

  Cluster faulty(sched_machine(2, 2), ExecutionMode::Real);
  const std::size_t home =
      ga::TaskCounter(faulty, "fused12 [l-slice 0]").domain_home(0);
  faulty.enable_recovery();
  FaultInjector inj;
  inj.schedule(kill_event(/*phase=*/1, home));
  faulty.install_faults(inj);
  const auto got = core::fused_inner_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_LT(got.c->max_abs_diff(ref), 1e-9);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.kills"), 1.0);
  EXPECT_GE(reg.sum("sched.counter_reowns"), 1.0);
  EXPECT_GT(reg.sum("sched.claims"), 0.0);
}

TEST(TaskSchedFaults, DeadTreeCounterHomeIsReowned) {
  // Same drill against the counter tree: kill the level-1 node of the
  // first rank group for the first fused12 phase.
  auto p = sched_problem();
  auto ref = core::reference_transform(p);
  const auto opt = sched_options(ga::Balance::Tree);

  Cluster faulty(sched_machine(2, 2), ExecutionMode::Real);
  const std::size_t home =
      ga::TaskCounter(faulty, "fused12 [l-slice 0]").tree_home(1, 0);
  faulty.enable_recovery();
  FaultInjector inj;
  inj.schedule(kill_event(/*phase=*/1, home));
  faulty.install_faults(inj);
  const auto got = core::fused_inner_par_transform(p, faulty, opt);
  ASSERT_TRUE(got.c.has_value());

  EXPECT_LT(got.c->max_abs_diff(ref), 1e-9);
  const auto& reg = faulty.metrics();
  EXPECT_EQ(reg.sum("fault.kills"), 1.0);
  EXPECT_GE(reg.sum("sched.counter_reowns"), 1.0);
  EXPECT_GT(reg.sum("sched.claims"), 0.0);
}

}  // namespace
