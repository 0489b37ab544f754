// End-to-end integration tests: the full pipeline (molecule ->
// problem -> distributed transform -> gathered result -> MP2) across
// schedules, modes, machines and failure paths.
#include <gtest/gtest.h>

#include <cmath>

#include "chem/molecule.hpp"
#include "chem/mp2.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_baseline.hpp"
#include "core/transform.hpp"
#include "runtime/machine.hpp"

namespace {

using namespace fit;
using runtime::Cluster;
using runtime::ExecutionMode;

// A miniature of the paper's benchmark setup: s = 8 spatial symmetry,
// ~quarter occupation, run on a (tiny) System A.
chem::Molecule mini_molecule(std::size_t n) {
  auto m = chem::custom_molecule("mini", n, 8, 12345);
  return m;
}

TEST(Integration, FullPipelineAllDistributedSchedules) {
  auto mol = mini_molecule(16);
  auto p = core::make_problem(mol);
  auto ref = core::reference_transform(p);
  auto eps = chem::synthetic_orbital_energies(mol.n_orbitals, mol.n_occupied);
  const double e_ref = chem::mp2_energy(ref, mol.n_occupied, eps);

  for (auto s : {core::Schedule::ParUnfused, core::Schedule::ParFused,
                 core::Schedule::ParFusedInner, core::Schedule::Hybrid}) {
    auto machine = runtime::system_a(1);
    Cluster cl(machine, ExecutionMode::Real);
    core::TransformOptions opt;
    opt.schedule = s;
    opt.par.tile = 4;
    opt.par.tile_l = 4;
    auto out = core::four_index_transform(p, opt, &cl);
    ASSERT_TRUE(out.c.has_value()) << core::to_string(s);
    EXPECT_LT(out.c->max_abs_diff(ref), 1e-9) << core::to_string(s);
    const double e = chem::mp2_energy(*out.c, mol.n_occupied, eps);
    EXPECT_NEAR(e, e_ref, 1e-9 * (1 + std::fabs(e_ref)))
        << core::to_string(s);
  }
}

TEST(Integration, BaselinesAgreeWithHybridNumerically) {
  auto mol = mini_molecule(12);
  auto p = core::make_problem(mol);
  auto machine = runtime::system_a(1);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 2;

  Cluster c1(machine, ExecutionMode::Real);
  auto hybrid = core::resilient_transform(p, c1, o);
  Cluster c2(machine, ExecutionMode::Real);
  auto unf = core::nwchem_unfused_par_transform(p, c2, o);
  Cluster c3(machine, ExecutionMode::Real);
  auto rec = core::nwchem_recompute_par_transform(p, c3, o);
  ASSERT_TRUE(hybrid.c && unf.c && rec.c);
  EXPECT_LT(unf.c->max_abs_diff(*hybrid.c), 1e-9);
  EXPECT_LT(rec.c->max_abs_diff(*hybrid.c), 1e-9);
}

TEST(Integration, Figure2ShapeAtMiniatureScale) {
  // The Figure 2 experiment end-to-end in one test: between the fused
  // and unfused footprints, the hybrid runs fused and beats the
  // surviving baseline; with ample memory it ties the unfused one.
  auto mol = mini_molecule(20);
  auto p = core::make_problem(mol);
  const auto sz = p.sizes();

  runtime::MachineConfig tight;
  tight.name = "tight";
  tight.n_nodes = 4;
  tight.ranks_per_node = 2;
  tight.mem_per_node_bytes = 8.0 * double(sz.unfused_peak()) / 4.0 * 0.5;
  core::ParOptions o;
  o.tile = 5;
  o.tile_l = 4;
  o.gather_result = false;

  Cluster cl_t(tight, ExecutionMode::Simulate);
  auto hybrid_t = core::resilient_transform(p, cl_t, o);
  EXPECT_EQ(hybrid_t.stats.schedule, "resilient(fused-inner)");

  Cluster cl_u(tight, ExecutionMode::Simulate);
  EXPECT_THROW(core::nwchem_unfused_par_transform(p, cl_u, o),
               fit::OutOfMemoryError);
  Cluster cl_r(tight, ExecutionMode::Simulate);
  auto rec = core::nwchem_recompute_par_transform(p, cl_r, o);
  EXPECT_GT(rec.stats.sim_time, hybrid_t.stats.sim_time);

  runtime::MachineConfig ample = tight;
  ample.mem_per_node_bytes *= 8;
  Cluster cl_a(ample, ExecutionMode::Simulate);
  auto hybrid_a = core::resilient_transform(p, cl_a, o);
  EXPECT_EQ(hybrid_a.stats.schedule, "resilient(unfused)");
  Cluster cl_n(ample, ExecutionMode::Simulate);
  auto unf = core::nwchem_unfused_par_transform(p, cl_n, o);
  EXPECT_NEAR(hybrid_a.stats.sim_time / unf.stats.sim_time, 1.0, 0.25);
}

TEST(Integration, PlannerDecisionMatchesRuntimeBehaviour) {
  // What check_capacity predicts must be what the unfused chain does
  // when run, and what resilient_transform picks.
  auto mol = mini_molecule(24);
  auto p = core::make_problem(mol);
  for (double scale : {0.7, 4.0}) {
    runtime::MachineConfig m;
    m.name = "probe";
    m.n_nodes = 4;
    m.ranks_per_node = 2;
    m.mem_per_node_bytes =
        scale * 8.0 * double(p.sizes().unfused_peak()) / 4.0;
    core::ParOptions o;
    o.tile = 5;
    o.tile_l = 4;
    o.gather_result = false;
    const bool fits = core::check_capacity(p, core::Chain::Unfused, 1, o,
                                           core::CapacityView::idle(m))
                          .fits;
    EXPECT_EQ(fits, scale > 1.0) << scale;
    Cluster cu(m, ExecutionMode::Simulate);
    if (fits)
      EXPECT_NO_THROW(core::unfused_par_transform(p, cu, o)) << scale;
    else
      EXPECT_THROW(core::unfused_par_transform(p, cu, o),
                   fit::OutOfMemoryError)
          << scale;
    Cluster cl(m, ExecutionMode::Simulate);
    auto r = core::resilient_transform(p, cl, o);
    if (!fits)
      EXPECT_EQ(r.stats.schedule, "resilient(fused-inner)") << scale;
    else
      EXPECT_EQ(r.stats.schedule, "resilient(unfused)") << scale;
  }
}

TEST(Integration, SimulatedTimeScalesDownWithRanks) {
  // Strong scaling sanity on a compute-bound configuration (slow
  // cores, effectively free network): more ranks => faster, and a 4x
  // rank increase buys a clearly sublinear-but-real speedup despite
  // the triangular load imbalance.
  auto mol = mini_molecule(24);
  auto p = core::make_problem(mol);
  core::ParOptions o;
  o.tile = 3;
  o.tile_l = 4;
  o.alpha_parallel = 2;
  o.gather_result = false;
  double first = 0, last = 0;
  double prev = 1e30;
  for (std::size_t nodes : {1u, 2u, 4u}) {
    runtime::MachineConfig m;
    m.name = "compute-bound";
    m.n_nodes = nodes;
    m.ranks_per_node = 4;
    m.mem_per_node_bytes = 1e9;
    m.flops_per_rank = 1e8;        // slow cores
    m.integrals_per_sec = 1e7;
    m.net_bandwidth_bps = 1e12;    // effectively free network
    m.net_latency_s = 1e-9;
    m.local_bandwidth_bps = 1e13;
    Cluster cl(m, ExecutionMode::Simulate);
    auto r = core::fused_inner_par_transform(p, cl, o);
    EXPECT_LE(r.stats.sim_time, prev * 1.02) << nodes;
    prev = r.stats.sim_time;
    if (nodes == 1) first = r.stats.sim_time;
    last = r.stats.sim_time;
  }
  EXPECT_GT(first / last, 1.8);  // 4x ranks: at least ~2x faster
}

TEST(Integration, GatheredResultSpatiallySparse) {
  // The gathered distributed result respects the irrep block sparsity:
  // forbidden entries read exactly zero.
  auto mol = mini_molecule(16);
  auto p = core::make_problem(mol);
  auto machine = runtime::system_a(1);
  Cluster cl(machine, ExecutionMode::Real);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  auto r = core::fused_inner_par_transform(p, cl, o);
  ASSERT_TRUE(r.c.has_value());
  const std::size_t n = mol.n_orbitals;
  for (std::size_t a = 0; a < n; a += 3)
    for (std::size_t b = 0; b <= a; b += 2)
      for (std::size_t c = 0; c < n; c += 3)
        for (std::size_t d = 0; d <= c; d += 2)
          if (!p.irreps.allowed(a, b, c, d)) {
            EXPECT_EQ(r.c->get(a, b, c, d), 0.0);
          }
}

TEST(Integration, RecomputeChargesIdenticalAcrossModes) {
  auto mol = mini_molecule(12);
  auto p = core::make_problem(mol);
  auto machine = runtime::system_a(1);
  core::ParOptions o;
  o.tile = 4;
  o.gather_result = false;
  Cluster cr(machine, ExecutionMode::Real);
  auto rr = core::nwchem_recompute_par_transform(p, cr, o);
  Cluster cs(machine, ExecutionMode::Simulate);
  auto rs = core::nwchem_recompute_par_transform(p, cs, o);
  EXPECT_DOUBLE_EQ(rr.stats.flops, rs.stats.flops);
  EXPECT_DOUBLE_EQ(rr.stats.remote_bytes, rs.stats.remote_bytes);
  EXPECT_DOUBLE_EQ(rr.stats.peak_global_bytes, rs.stats.peak_global_bytes);
}

}  // namespace

// ---- Determinism and paper-molecule smoke tests ----------------------

namespace {

TEST(Integration, SimulationIsBitDeterministic) {
  auto mol = mini_molecule(16);
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.gather_result = false;
  core::ParStats first;
  for (int run = 0; run < 3; ++run) {
    auto p = core::make_problem(mol);
    Cluster cl(runtime::system_a(2), ExecutionMode::Simulate);
    auto r = core::resilient_transform(p, cl, o);
    if (run == 0) {
      first = r.stats;
      continue;
    }
    EXPECT_EQ(r.stats.schedule, first.schedule);
    EXPECT_EQ(r.stats.sim_time, first.sim_time);
    EXPECT_EQ(r.stats.flops, first.flops);
    EXPECT_EQ(r.stats.remote_bytes, first.remote_bytes);
    EXPECT_EQ(r.stats.peak_global_bytes, first.peak_global_bytes);
  }
}

TEST(Integration, AllPaperMoleculesPlanAndSimulate) {
  // Every Sec. 8 molecule builds a problem, yields a consistent
  // cluster plan, and completes a simulated hybrid transform on
  // System B (the only system the paper ran all five on).
  for (const auto& mol : chem::paper_molecules()) {
    auto p = core::make_problem(mol);
    auto machine = runtime::system_b(18);
    auto plan = core::plan_for_cluster(p, machine, 4);
    EXPECT_GE(plan.max_n_fused, plan.max_n_unfused) << mol.name;
    core::ParOptions o;
    o.tile = 8;
    o.tile_l = 4;
    o.gather_result = false;
    const bool unfused_fits =
        core::check_capacity(p, core::Chain::Unfused, 1, o,
                             core::CapacityView::idle(machine))
            .fits;
    Cluster cl(machine, ExecutionMode::Simulate);
    auto r = core::resilient_transform(p, cl, o);
    EXPECT_GT(r.stats.sim_time, 0.0) << mol.name;
    // The check's fuse decision matches what the hybrid executed.
    const bool fused = r.stats.schedule == "resilient(fused-inner)";
    EXPECT_EQ(fused, !unfused_fits) << mol.name;
    // Shell-Mixed is the paper's capability case: must have fused.
    if (mol.name == "Shell-Mixed") {
      EXPECT_TRUE(fused);
    }
    if (mol.name == "Hyperpolar") {
      EXPECT_FALSE(fused);
    }
  }
}

}  // namespace
