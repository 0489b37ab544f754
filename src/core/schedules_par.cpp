#include "core/schedules_par.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/schedules_baseline.hpp"

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/tune.hpp"
#include "bounds/transform_bounds.hpp"
#include "chem/coeffs.hpp"
#include "core/sym_tile.hpp"
#include "core/planner.hpp"
#include "tensor/pairs.hpp"
#include "tensor/tiling.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"

namespace fit::core {

using blas::gemm;
using blas::gemm_batched;
using blas::gemm_flops;
using blas::Trans;
using ga::GlobalArray;
using runtime::Cluster;
using runtime::RankBuffer;
using runtime::RankCtx;
using tensor::Tiling;

namespace {

/// Shared state for one parallel transform run.
struct Par {
  const Problem& p;
  Cluster& cl;
  ParOptions opt;
  Tiling t;           // orbital tiling (all four dims)
  std::size_t nt;     // tile count per dimension
  // Spatial symmetry at tile granularity: irrep_mask[ti] is the set of
  // irreps present in orbital tile ti; pair_mask[ti][tj] the set of
  // xor-products. A C tile (ta,tb,tc,td) can hold an allowed quadruple
  // iff pair_mask[ta][tb] & pair_mask[tc][td] != 0.
  std::vector<std::uint32_t> irrep_mask;
  std::vector<std::vector<std::uint32_t>> pair_mask;

  // Kernel-engine counter levels at construction; finish() records the
  // deltas so each cluster's registry shows the real gemm work (and
  // packing traffic) its transforms triggered, next to the modeled
  // compute.flops charges.
  double gemm_calls0 = 0, gemm_flops0 = 0, gemm_pack0 = 0;

  // Dynamic-scheduler metrics (see run_claimed_phase): how many tasks
  // were claimed through the counter/steal paths, the counter waits
  // (count + seconds), steals, orphan adoptions after a mid-phase
  // rank death, and counter re-homings. Baselines at construction so
  // finish() can report this run's deltas in ParStats.
  obs::MetricsRegistry::Id id_sched_claims, id_sched_steals,
      id_sched_counter_waits, id_sched_counter_wait_s, id_sched_orphans,
      id_sched_reowns, id_sched_worst, id_sched_fetches, id_sched_hops,
      id_sched_occupancy;
  double sched_claims0 = 0, sched_steals0 = 0, sched_wait0 = 0,
         sched_fetches0 = 0, sched_hops0 = 0;
  // Fault/recovery activity baselines, same delta pattern: finish()
  // reports how much checkpoint fallback and domain killing this run
  // itself absorbed.
  double fallback0 = 0, verify_fail0 = 0, domain_kills0 = 0;
  std::size_t phases0 = 0;  // cl.phases() size before this run

  Par(const Problem& problem, Cluster& cluster, const ParOptions& options)
      : p(problem), cl(cluster), opt(options),
        t(Tiling::irrep_aligned(problem.irreps,
                                std::min(options.tile, problem.n()))),
        nt(t.ntiles()) {
    auto& gm = blas::gemm_metrics();
    gm.counter("gemm.calls");  // get-or-create so sum() is always valid
    gm.counter("gemm.flops");
    gm.counter("gemm.pack_bytes");
    gemm_calls0 = gm.sum("gemm.calls");
    gemm_flops0 = gm.sum("gemm.flops");
    gemm_pack0 = gm.sum("gemm.pack_bytes");
    auto& reg = cl.metrics();
    id_sched_claims = reg.counter("sched.claims");
    id_sched_steals = reg.counter("sched.steals");
    id_sched_counter_waits = reg.counter("sched.counter_waits");
    id_sched_counter_wait_s = reg.counter("sched.counter_wait_s");
    id_sched_orphans = reg.counter("sched.orphans_adopted");
    id_sched_reowns = reg.counter("sched.counter_reowns");
    id_sched_worst = reg.gauge("sched.worst_imbalance");
    id_sched_fetches = reg.counter("sched.counter_fetches");
    id_sched_hops = reg.counter("sched.tree_hops");
    id_sched_occupancy = reg.gauge("sched.counter_batch_occupancy");
    sched_claims0 = reg.sum("sched.claims");
    sched_steals0 = reg.sum("sched.steals");
    sched_wait0 = reg.sum("sched.counter_wait_s");
    sched_fetches0 = reg.sum("sched.counter_fetches");
    sched_hops0 = reg.sum("sched.tree_hops");
    // Session-level overrides: the strategy itself and the batched /
    // tree dequeue granularity (0 keeps the claims-per-rank rule).
    opt.balance = ga::balance_from_env(opt.balance);
    opt.counter_batch =
        util::env_size_strict("FOURINDEX_COUNTER_BATCH", opt.counter_batch,
                              /*min=*/0);
    reg.counter("recovery.fallback_epochs");  // get-or-create
    reg.counter("checkpoint.verify_failures");
    reg.counter("fault.domain_kills");
    fallback0 = reg.sum("recovery.fallback_epochs");
    verify_fail0 = reg.sum("checkpoint.verify_failures");
    domain_kills0 = reg.sum("fault.domain_kills");
    phases0 = cl.phases().size();
    irrep_mask.assign(nt, 0);
    for (std::size_t ti = 0; ti < nt; ++ti)
      for (std::size_t o = t.lo(ti); o < t.hi(ti); ++o)
        irrep_mask[ti] |= 1u << p.irreps.of(o);
    pair_mask.assign(nt, std::vector<std::uint32_t>(nt, 0));
    for (std::size_t ti = 0; ti < nt; ++ti)
      for (std::size_t tj = 0; tj < nt; ++tj)
        for (unsigned h1 = 0; h1 < p.irreps.order(); ++h1)
          for (unsigned h2 = 0; h2 < p.irreps.order(); ++h2)
            if ((irrep_mask[ti] >> h1 & 1) && (irrep_mask[tj] >> h2 & 1))
              pair_mask[ti][tj] |= 1u << (h1 ^ h2);
  }

  bool tile_allowed(std::size_t ta, std::size_t tb, std::size_t tc,
                    std::size_t td) const {
    return (pair_mask[ta][tb] & pair_mask[tc][td]) != 0;
  }

  ga::TileFilter spatial_filter() const {
    return [this](std::span<const std::size_t> c) {
      return c[0] >= c[1] && c[2] >= c[3] &&
             tile_allowed(c[0], c[1], c[2], c[3]);
    };
  }

  // Active transformation matrix: the problem's own B, unless a
  // batched run has pointed the contraction phases at one member's
  // coefficient set (the only thing distinguishing shared-basis batch
  // members from each other).
  const tensor::Matrix* b_active = nullptr;

  const double* b() const {
    return b_active ? b_active->data() : p.b.data();
  }
  std::size_t n() const { return p.n(); }
};

/// Double-buffered fetch/compute pipeline. `issue(i, slot)` starts the
/// nonblocking fetch for iteration i into buffer `slot`, `finish(i,
/// slot)` completes it, `compute(i, slot)` consumes it. With `overlap`
/// the fetch of iteration i+1 is in flight while iteration i
/// multiplies; without, the three steps run back to back, which costs
/// exactly what the blocking ops always did (an nb issue followed
/// immediately by its wait is fully exposed). Either way the GA
/// operations execute in the same order, so fault-injection points and
/// Real-mode results are identical.
template <class Issue, class Finish, class Compute>
void pipelined_fetch(std::size_t n, bool overlap, Issue&& issue,
                     Finish&& finish, Compute&& compute) {
  if (!overlap) {
    for (std::size_t i = 0; i < n; ++i) {
      issue(i, 0);
      finish(i, 0);
      compute(i, 0);
    }
    return;
  }
  if (n == 0) return;
  std::size_t cur = 0;
  issue(0, cur);
  for (std::size_t i = 0; i < n; ++i) {
    finish(i, cur);
    if (i + 1 < n) issue(i + 1, 1 - cur);
    compute(i, cur);
    cur = 1 - cur;
  }
}

/// Run one phase whose work is an indexed list of independently
/// executable tasks, distributed per ParOptions::balance.
///
/// The claim order is planned up front (ga::plan_tasks — a
/// deterministic discrete-event simulation of the NXTVAL counter /
/// steal protocol over `cost_of` estimates) and each rank *replays*
/// its claim list inside the phase, charging the scheduling traffic
/// through the alpha-beta model: a fetch-and-add round trip plus the
/// modeled contention stall per Counter claim, a control round trip
/// per steal. Static claims each task on its static owner in the
/// canonical order with zero overhead, which reproduces the
/// historical `if (owner != rank) continue` loops exactly — same GA
/// op sequence, same fault-injection points, same results.
///
/// Fault integration: the plan is computed *before* run_phase fires
/// the phase-boundary faults, so a rank killed at the boundary still
/// has a claim list. The survivor Cluster::live_owner maps it to
/// adopts those orphaned claims (after its own), and a dead counter
/// host is re-homed the same way — work is never lost, and Real-mode
/// results stay bit-identical because every output tile is written by
/// exactly one task per phase.
void run_claimed_phase(
    Par& par, const std::string& label, std::size_t n_tasks,
    const std::function<std::size_t(std::size_t)>& owner_of,
    const std::function<double(std::size_t)>& cost_of,
    const std::function<void(RankCtx&, std::size_t)>& body) {
  ga::Balance mode = par.opt.balance;
  std::vector<std::size_t> owner(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) owner[t] = owner_of(t);
  std::vector<double> cost;
  if (mode != ga::Balance::Static) {
    cost.resize(n_tasks);
    for (std::size_t t = 0; t < n_tasks; ++t) cost[t] = cost_of(t);
  }
  ga::TaskCounter counter(par.cl, label);
  ga::TaskPlan plan;
  if (mode == ga::Balance::Auto) {
    BalanceCache* memo = par.opt.balance_cache;
    const auto cached = memo ? memo->picks.find(label)
                             : std::unordered_map<std::string,
                                                  ga::Balance>::iterator{};
    if (memo && cached != memo->picks.end()) {
      // A previous identical run already chose for this phase: replay
      // its mode and skip the six-candidate DES — the whole point of
      // the serve schedule cache.
      mode = cached->second;
      plan = ga::plan_tasks(par.cl, mode, counter, cost, owner,
                            par.opt.counter_batch);
      memo->hits += 1;
    } else {
      // Planner-chosen mode: evaluate every fixed mode's claim DES on
      // this phase's cost estimates and replay the cheapest.
      BalancePick pick = choose_balance(par.cl, counter, cost, owner,
                                        par.opt.counter_batch);
      mode = pick.balance;
      plan = std::move(pick.plan);
      if (memo) memo->picks[label] = mode;
      FIT_LOG_DEBUG(label << ": auto balance picked "
                          << ga::to_string(mode) << " (makespan "
                          << plan.makespan_s << " s)");
    }
  } else {
    plan = ga::plan_tasks(par.cl, mode, counter, cost, owner,
                          par.opt.counter_batch);
  }
  auto& reg = par.cl.metrics();
  par.cl.run_phase(label, [&](RankCtx& ctx) {
    for (std::size_t nom = 0; nom < plan.claims.size(); ++nom) {
      if (plan.claims[nom].empty()) continue;
      if (nom != ctx.rank()) {
        // Orphan adoption: a nominal rank that died between planning
        // and the barrier executes nowhere — its survivor runs the
        // claims instead.
        if (!par.cl.is_dead(nom) || par.cl.live_owner(nom) != ctx.rank())
          continue;
        reg.add(par.id_sched_orphans, ctx.rank(),
                static_cast<double>(plan.claims[nom].size()));
      }
      for (const ga::TaskClaim& claim : plan.claims[nom]) {
        if (claim.fetched) {
          // One fetch-and-add against the claim's counter, whose live
          // host is re-resolved through Cluster::live_owner — a dead
          // counter home (flat, per-node or tree) re-targets here.
          counter.charge_fetch_add(ctx, claim.home, claim.wait_s);
          reg.add(par.id_sched_counter_waits, ctx.rank(), 1);
          reg.add(par.id_sched_counter_wait_s, ctx.rank(), claim.wait_s);
          if (claim.task != ga::TaskClaim::kNone)
            reg.add(par.id_sched_fetches, ctx.rank(), 1);
          if (claim.hops > 0)
            reg.add(par.id_sched_hops, ctx.rank(), claim.hops);
        } else if (claim.stolen) {
          const std::size_t victim = par.cl.live_owner(claim.peer);
          ctx.charge_transfer(victim, 8.0);  // steal request
          ctx.charge_transfer(victim, 8.0);  // grant
          reg.add(par.id_sched_steals, ctx.rank(), 1);
        }
        if (claim.task == ga::TaskClaim::kNone) continue;
        if (mode != ga::Balance::Static)
          reg.add(par.id_sched_claims, ctx.rank(), 1);
        const double t0 = ctx.elapsed();
        body(ctx, claim.task);
        if (par.cl.comm_tracing())
          ctx.note_span(label + " task " + std::to_string(claim.task), t0,
                        ctx.elapsed() - t0);
      }
    }
  });
  // Count counters whose planned host is no longer what live_owner
  // resolves to — those fetches were re-homed mid-phase (flat counter,
  // per-node counters and tree nodes all re-own independently).
  for (std::size_t i = 0; i < plan.counter_homes.size(); ++i)
    if (par.cl.live_owner(plan.counter_homes[i]) != plan.counter_owners[i])
      reg.add(par.id_sched_reowns, 0, 1);
  if (plan.n_fetches > 0)
    reg.set(par.id_sched_occupancy, 0,
            static_cast<double>(plan.n_tasks) /
                static_cast<double>(plan.n_fetches));
}

/// Task list for a tile-parallel phase: every existing tile of `out`,
/// statically owned by the tile's owner — identical, in Static mode,
/// to iterating out.tiles_of(rank).
std::function<std::size_t(std::size_t)> tile_owner_of(
    const GlobalArray& out) {
  return [&out](std::size_t idx) { return out.tile_by_index(idx).owner; };
}

/// Fill phase for an A-style array: owners produce their tiles with
/// the integral engine ("ComputeA"). `l_base` offsets the 4th
/// dimension for l-slice arrays (Listing 8/10 produce A per slice).
void fill_a(Par& par, GlobalArray& a, std::size_t l_base,
            const std::string& label) {
  const auto& m = par.cl.machine();
  run_claimed_phase(
      par, label, a.n_tiles(), tile_owner_of(a),
      [&](std::size_t idx) {
        const double el = static_cast<double>(a.tile_by_index(idx).elements);
        return el / m.integrals_per_sec + 8.0 * el / m.net_bandwidth_bps;
      },
      [&](RankCtx& ctx, std::size_t idx) {
        const auto& ti = a.tile_by_index(idx);
        RankBuffer buf(ctx, ti.elements, "A tile");
        ctx.charge_integrals(static_cast<double>(ti.elements));
        if (ctx.real())
          par.p.engine.fill_block(
              {ti.lo[0], ti.lo[1], ti.lo[2], l_base + ti.lo[3]},
              {ti.len[0], ti.len[1], ti.len[2], ti.len[3]}, buf.data());
        // Nonblocking: the put's wire time hides behind the next tile's
        // integral evaluation (the buffer is consumed eagerly at issue,
        // so reusing it next iteration is safe); the phase barrier
        // waits for whatever is still in flight.
        if (par.opt.overlap)
          a.nbput(ctx, ti.coord, buf.data());
        else
          a.put(ctx, ti.coord, buf.data());
      });
}

/// Contraction 1 phase: O1[a,j,k,l] += sum_i A[(ij),k,l] B[a,i].
/// Works for both the full tensors (unfused) and the l-slice tensors
/// (fused): A has a triangular (dims 0,1) filter, O1 is unfiltered in
/// (a,j) and shares A's (k,l) dims.
void contract1(Par& par, const GlobalArray& a, GlobalArray& o1,
               const std::string& label) {
  const std::size_t max_tile =
      par.t.max_width() * par.t.max_width() * a.tiling(2).max_width() *
      a.tiling(3).max_width();
  const std::size_t nslots = par.opt.overlap ? 2 : 1;
  const auto& m = par.cl.machine();
  auto cost = [&](std::size_t idx) {
    // nt gemms over the contracted i range plus nt sym-tile fetches.
    const auto& ti = o1.tile_by_index(idx);
    const double el = static_cast<double>(ti.elements);
    const double n = static_cast<double>(par.n());
    return 2.0 * el * n / m.flops_per_rank +
           (8.0 * el / double(ti.len[0]) * n) / m.net_bandwidth_bps +
           double(par.nt) * m.net_latency_s;
  };
  run_claimed_phase(
      par, label, o1.n_tiles(), tile_owner_of(o1), cost,
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = o1.tile_by_index(idx);
      const std::size_t lkl = ti.len[2] * ti.len[3];
      RankBuffer out(ctx, ti.elements, "O1 tile");
      RankBuffer abuf(ctx, nslots * max_tile, "A fetch");
      // Landing slots for mirrored A tiles, which stay in their stored
      // layout; charged as the model's transpose scratch.
      RankBuffer tbuf(ctx, nslots * max_tile, "A transpose");
      auto at = [&](RankBuffer& b, std::size_t s) {
        return ctx.real() ? b.data() + s * max_tile : nullptr;
      };
      const std::size_t ta = ti.coord[0], tj = ti.coord[1];
      SymFetch fetch[2];
      pipelined_fetch(
          par.nt, par.opt.overlap,
          [&](std::size_t tii, std::size_t s) {
            ga::TileCoord ac = {tii, tj, ti.coord[2], ti.coord[3]};
            fetch[s] = nbget_sym_tile(a, ctx, ac, 0, 1, at(abuf, s),
                                      at(tbuf, s));
          },
          [&](std::size_t, std::size_t s) {
            finish_sym_tile(ctx, fetch[s]);
          },
          [&](std::size_t tii, std::size_t s) {
            const std::size_t leni = par.t.len(tii);
            const std::size_t row = ti.len[1] * lkl;  // (j k l) extent
            ctx.charge_flops(gemm_flops(ti.len[0], row, leni));
            if (ctx.real()) {
              // out[a, (j k l)] += B[a, i] * A[i, (j k l)]
              const double* bt =
                  par.b() + par.t.lo(ta) * par.n() + par.t.lo(tii);
              const SymFetch& f = fetch[s];
              if (!f.mirrored)
                gemm(Trans::No, Trans::No, ti.len[0], row, leni, 1.0, bt,
                     par.n(), f.data, row, 1.0, out.data(), row);
              else
                // The mirrored tile landed as [j][i][(k l)]: one member
                // per j, writing out's (k l) columns of that j.
                gemm_batched(Trans::No, Trans::No, ti.len[0], lkl, leni, 1.0,
                             bt, par.n(), 0, f.data, lkl, leni * lkl, 1.0,
                             out.data(), row, lkl, ti.len[1]);
            }
          });
      if (par.opt.overlap)
        o1.nbput(ctx, ti.coord, out.data());
      else
        o1.put(ctx, ti.coord, out.data());
      });
}

/// Contraction 2 phase: O2[(ab),k,l] += sum_j O1[a,j,k,l] B[b,j].
void contract2(Par& par, const GlobalArray& o1, GlobalArray& o2,
               const std::string& label) {
  const std::size_t max_tile =
      par.t.max_width() * par.t.max_width() * o1.tiling(2).max_width() *
      o1.tiling(3).max_width();
  const std::size_t nslots = par.opt.overlap ? 2 : 1;
  const auto& m = par.cl.machine();
  auto cost = [&](std::size_t idx) {
    const auto& ti = o2.tile_by_index(idx);
    const double el = static_cast<double>(ti.elements);
    const double n = static_cast<double>(par.n());
    return 2.0 * el * n / m.flops_per_rank +
           (8.0 * el / double(ti.len[1]) * n) / m.net_bandwidth_bps +
           double(par.nt) * m.net_latency_s;
  };
  run_claimed_phase(
      par, label, o2.n_tiles(), tile_owner_of(o2), cost,
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = o2.tile_by_index(idx);
      const std::size_t lkl = ti.len[2] * ti.len[3];
      RankBuffer out(ctx, ti.elements, "O2 tile");
      RankBuffer o1buf(ctx, nslots * max_tile, "O1 fetch");
      auto at = [&](std::size_t s) {
        return ctx.real() ? o1buf.data() + s * max_tile : nullptr;
      };
      const std::size_t ta = ti.coord[0], tb = ti.coord[1];
      GlobalArray::NbHandle fetch[2];
      pipelined_fetch(
          par.nt, par.opt.overlap,
          [&](std::size_t tjj, std::size_t s) {
            ga::TileCoord oc = {ta, tjj, ti.coord[2], ti.coord[3]};
            fetch[s] = o1.nbget(ctx, oc, at(s));
          },
          [&](std::size_t, std::size_t s) { ctx.wait_transfer(fetch[s]); },
          [&](std::size_t tjj, std::size_t s) {
            const std::size_t lenj = par.t.len(tjj);
            ctx.charge_flops(
                gemm_flops(ti.len[1], lkl, lenj) * double(ti.len[0]));
            // One member per row a of the O1 tile; the B block is
            // shared.
            if (ctx.real())
              gemm_batched(Trans::No, Trans::No, ti.len[1], lkl, lenj, 1.0,
                           par.b() + par.t.lo(tb) * par.n() + par.t.lo(tjj),
                           par.n(), 0, at(s), lkl, lenj * lkl, 1.0,
                           out.data(), lkl, ti.len[1] * lkl, ti.len[0]);
          });
      if (par.opt.overlap)
        o2.nbput(ctx, ti.coord, out.data());
      else
        o2.put(ctx, ti.coord, out.data());
      });
}

/// Contraction 3 phase: O3[(ab),c,l] += sum_k O2[(ab),k,l] B[c,k].
/// `kl_symmetric` marks the unfused case where O2 stores only k >= l
/// tiles (transposed fetch needed); the l-slice O2 of Listing 8 has a
/// full k dimension.
void contract3(Par& par, const GlobalArray& o2, GlobalArray& o3,
               bool kl_symmetric, const std::string& label) {
  const std::size_t max_tile =
      par.t.max_width() * par.t.max_width() *
      std::max(o2.tiling(2).max_width(), o2.tiling(3).max_width()) *
      std::max(o2.tiling(2).max_width(), o2.tiling(3).max_width());
  const std::size_t nslots = par.opt.overlap ? 2 : 1;
  const auto& m = par.cl.machine();
  auto cost = [&](std::size_t idx) {
    const auto& ti = o3.tile_by_index(idx);
    const double el = static_cast<double>(ti.elements);
    const double nk = static_cast<double>(o2.tiling(2).extent());
    return 2.0 * el * nk / m.flops_per_rank +
           (8.0 * el / double(ti.len[2]) * nk) / m.net_bandwidth_bps +
           double(par.nt) * m.net_latency_s;
  };
  run_claimed_phase(
      par, label, o3.n_tiles(), tile_owner_of(o3), cost,
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = o3.tile_by_index(idx);
      RankBuffer out(ctx, ti.elements, "O3 tile");
      RankBuffer o2buf(ctx, nslots * max_tile, "O2 fetch");
      // Landing slots for mirrored O2 tiles (see contract1).
      RankBuffer tbuf(ctx, nslots * max_tile, "O2 transpose");
      auto at = [&](RankBuffer& b, std::size_t s) {
        return ctx.real() ? b.data() + s * max_tile : nullptr;
      };
      const std::size_t tc = ti.coord[2];
      SymFetch fetch[2];
      pipelined_fetch(
          par.nt, par.opt.overlap,
          [&](std::size_t tkk, std::size_t s) {
            ga::TileCoord oc = {ti.coord[0], ti.coord[1], tkk,
                                ti.coord[3]};
            if (kl_symmetric) {
              fetch[s] = nbget_sym_tile(o2, ctx, oc, 2, 3, at(o2buf, s),
                                        at(tbuf, s));
            } else {
              fetch[s] = SymFetch{o2.nbget(ctx, oc, at(o2buf, s)), false,
                                  at(o2buf, s)};
            }
          },
          [&](std::size_t, std::size_t s) {
            finish_sym_tile(ctx, fetch[s]);
          },
          [&](std::size_t tkk, std::size_t s) {
            const std::size_t lenk = par.t.len(tkk);
            const std::size_t lenc = ti.len[2], lenl = ti.len[3];
            ctx.charge_flops(gemm_flops(lenc, lenl, lenk) *
                             double(ti.len[0] * ti.len[1]));
            if (ctx.real()) {
              // One member per (a b) row, sharing the B block. A
              // mirrored member landed as [l][k], i.e. transposed.
              const SymFetch& f = fetch[s];
              gemm_batched(Trans::No, f.mirrored ? Trans::Yes : Trans::No,
                           lenc, lenl, lenk, 1.0,
                           par.b() + par.t.lo(tc) * par.n() + par.t.lo(tkk),
                           par.n(), 0, f.data, f.mirrored ? lenk : lenl,
                           lenk * lenl, 1.0, out.data(), lenl, lenc * lenl,
                           ti.len[0] * ti.len[1]);
            }
          });
      if (par.opt.overlap)
        o3.nbput(ctx, ti.coord, out.data());
      else
        o3.put(ctx, ti.coord, out.data());
      });
}

/// Contraction 4 phase: C[(ab),(cd)] += sum_l O3[(ab),c,l] B[d,l].
/// `l_base` offsets B's l column for slice arrays; accumulate = acc()
/// (Listing 8 contributes per slice), otherwise put().
void contract4(Par& par, const GlobalArray& o3, GlobalArray& c,
               std::size_t l_base, bool accumulate,
               const std::string& label) {
  const std::size_t max_tile = par.t.max_width() * par.t.max_width() *
                               par.t.max_width() * o3.tiling(3).max_width();
  const std::size_t nslots = par.opt.overlap ? 2 : 1;
  const auto& m = par.cl.machine();
  auto cost = [&](std::size_t idx) {
    const auto& ti = c.tile_by_index(idx);
    const double el = static_cast<double>(ti.elements);
    const double nl = static_cast<double>(o3.tiling(3).extent());
    return 2.0 * el * nl / m.flops_per_rank +
           (8.0 * el / double(ti.len[3]) * nl) / m.net_bandwidth_bps +
           double(o3.tiling(3).ntiles()) * m.net_latency_s;
  };
  run_claimed_phase(
      par, label, c.n_tiles(), tile_owner_of(c), cost,
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = c.tile_by_index(idx);
      RankBuffer out(ctx, ti.elements, "C tile");
      RankBuffer o3buf(ctx, nslots * max_tile, "O3 fetch");
      auto at = [&](std::size_t s) {
        return ctx.real() ? o3buf.data() + s * max_tile : nullptr;
      };
      const std::size_t td = ti.coord[3];
      const std::size_t nlt = o3.tiling(3).ntiles();
      GlobalArray::NbHandle fetch[2];
      pipelined_fetch(
          nlt, par.opt.overlap,
          [&](std::size_t tll, std::size_t s) {
            ga::TileCoord oc = {ti.coord[0], ti.coord[1], ti.coord[2],
                                tll};
            fetch[s] = o3.nbget(ctx, oc, at(s));
          },
          [&](std::size_t, std::size_t s) { ctx.wait_transfer(fetch[s]); },
          [&](std::size_t tll, std::size_t s) {
            const std::size_t lenl = o3.tiling(3).len(tll);
            ctx.charge_flops(gemm_flops(ti.len[2], ti.len[3], lenl) *
                             double(ti.len[0] * ti.len[1]));
            // One member per (a b) row, sharing the B block: the rows
            // are contiguous, so the batch folds into one tall pass.
            if (ctx.real())
              gemm_batched(Trans::No, Trans::Yes, ti.len[2], ti.len[3], lenl,
                           1.0, at(s), lenl, ti.len[2] * lenl,
                           par.b() + par.t.lo(td) * par.n() + l_base +
                               o3.tiling(3).lo(tll),
                           par.n(), 0, 1.0, out.data(), ti.len[3],
                           ti.len[2] * ti.len[3], ti.len[0] * ti.len[1]);
          });
      if (accumulate) {
        if (par.opt.overlap)
          c.nbacc(ctx, ti.coord, out.data());
        else
          c.acc(ctx, ti.coord, out.data());
      } else {
        if (par.opt.overlap)
          c.nbput(ctx, ti.coord, out.data());
        else
          c.put(ctx, ti.coord, out.data());
      }
      });
}

/// Gather the distributed C into a PackedC (Real mode).
tensor::PackedC gather_c(const Par& par, const GlobalArray& c) {
  tensor::PackedC out(par.n(), par.p.irreps);
  for (std::size_t idx = 0; idx < c.n_tiles(); ++idx) {
    const auto& ti = c.tile_by_index(idx);
    // The tile payload, row-major over the tile's four extents.
    const double* v = c.tile_data(idx).data();
    for (std::size_t a = ti.lo[0]; a < ti.lo[0] + ti.len[0]; ++a)
      for (std::size_t b = ti.lo[1]; b < ti.lo[1] + ti.len[1]; ++b) {
        if (b > a) {
          v += ti.len[2] * ti.len[3];
          continue;
        }
        const auto hab = par.p.irreps.pair_irrep(a, b);
        for (std::size_t cc = ti.lo[2]; cc < ti.lo[2] + ti.len[2]; ++cc)
          for (std::size_t d = ti.lo[3]; d < ti.lo[3] + ti.len[3];
               ++d, ++v) {
            if (d > cc) continue;
            if (par.p.irreps.pair_irrep(cc, d) != hab) continue;
            out.add(a, b, cc, d, *v);
          }
      }
  }
  return out;
}

ParResult finish(Par& par, const char* name,
                 const std::unique_ptr<GlobalArray>& c_ga,
                 const WallTimer& timer, const runtime::CommStats& before,
                 double sim_before) {
  ParResult r;
  r.stats.schedule = name;
  // The cluster's metrics registry is the source of truth; totals()
  // is its aggregate view, so these fields are registry-backed.
  const auto after = par.cl.totals();
  r.stats.sim_time = par.cl.sim_time() - sim_before;
  r.stats.flops = after.flops - before.flops;
  r.stats.integral_evals = after.integral_evals - before.integral_evals;
  r.stats.remote_bytes = after.remote_bytes - before.remote_bytes;
  r.stats.local_bytes = after.local_bytes - before.local_bytes;
  r.stats.overlapped_seconds =
      after.overlapped_seconds - before.overlapped_seconds;
  r.stats.exposed_seconds = after.exposed_seconds - before.exposed_seconds;
  r.stats.peak_global_bytes = par.cl.global_peak();
  // Worst per-phase imbalance of *this run* (the cluster-lifetime max
  // is Cluster::worst_imbalance); also published as the
  // sched.worst_imbalance gauge next to the scheduler counters.
  double worst = 1.0;
  for (std::size_t i = par.phases0; i < par.cl.phases().size(); ++i)
    worst = std::max(worst, par.cl.phases()[i].imbalance);
  r.stats.worst_imbalance = worst;
  r.stats.n_phases = par.cl.phases().size();
  r.stats.wall_seconds = timer.seconds();
  // Schedule-level registry entries: which schedule ran on this
  // cluster, how often, and the modeled time it contributed.
  auto& reg = par.cl.metrics();
  const std::string prefix = std::string("schedule.") + name;
  reg.add(reg.counter(prefix + ".runs"), 0, 1);
  reg.add(reg.counter(prefix + ".sim_time_s"), 0, r.stats.sim_time);
  reg.add(reg.counter(prefix + ".host_wall_s"), 0, r.stats.wall_seconds);
  // Actual kernel-engine activity during this transform (Real mode
  // drives the blocked gemm; Simulate mode leaves these at zero).
  auto& gm = blas::gemm_metrics();
  reg.add(reg.counter("gemm.calls"), 0,
          gm.sum("gemm.calls") - par.gemm_calls0);
  reg.add(reg.counter("gemm.flops"), 0,
          gm.sum("gemm.flops") - par.gemm_flops0);
  reg.add(reg.counter("gemm.pack_bytes"), 0,
          gm.sum("gemm.pack_bytes") - par.gemm_pack0);
  // Dynamic-scheduler activity of this run (zero under Static).
  r.stats.sched_claims = reg.sum("sched.claims") - par.sched_claims0;
  r.stats.sched_steals = reg.sum("sched.steals") - par.sched_steals0;
  r.stats.sched_counter_wait_s =
      reg.sum("sched.counter_wait_s") - par.sched_wait0;
  r.stats.sched_counter_fetches =
      reg.sum("sched.counter_fetches") - par.sched_fetches0;
  r.stats.sched_tree_hops = reg.sum("sched.tree_hops") - par.sched_hops0;
  r.stats.recovery_fallback_epochs =
      reg.sum("recovery.fallback_epochs") - par.fallback0;
  r.stats.ckpt_verify_failures =
      reg.sum("checkpoint.verify_failures") - par.verify_fail0;
  r.stats.fault_domain_kills =
      reg.sum("fault.domain_kills") - par.domain_kills0;
  reg.set(par.id_sched_worst, 0, worst);
  if (par.cl.mode() == runtime::ExecutionMode::Real &&
      par.opt.gather_result && c_ga)
    r.c = gather_c(par, *c_ga);
  return r;
}

std::unique_ptr<GlobalArray> make_c(Par& par) {
  std::vector<Tiling> dims(4, par.t);
  // Listing 10 distributes C by its (alpha,beta) block row so the
  // final accumulation is always local; harmless for the others.
  auto owner = [](std::span<const std::size_t> c, std::size_t nranks) {
    return (c[0] * (c[0] + 1) / 2 + c[1]) % nranks;
  };
  return std::make_unique<GlobalArray>(par.cl, "C", dims,
                                       par.spatial_filter(), owner);
}

}  // namespace

bool unfused_fits(const Problem& p, const runtime::Cluster& cluster) {
  const auto sz = p.sizes();
  // Peak live set of the unfused chain plus ~10% tile padding slack.
  const double need = 8.0 * (static_cast<double>(sz.unfused_peak()) +
                             static_cast<double>(sz.c)) *
                      1.10;
  return need <= cluster.aggregate_capacity_bytes();
}

ParResult unfused_par_transform(const Problem& p, Cluster& cluster,
                                const ParOptions& opt) {
  Par par(p, cluster, opt);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();
  std::vector<Tiling> dims(4, par.t);

  auto a = std::make_unique<GlobalArray>(
      cluster, "A", dims,
      ga::filter_and(ga::filter_triangular(0, 1),
                     ga::filter_triangular(2, 3)));
  fill_a(par, *a, 0, "fill A");

  auto o1 = std::make_unique<GlobalArray>(cluster, "O1", dims,
                                          ga::filter_triangular(2, 3));
  contract1(par, *a, *o1, "c1");
  a.reset();

  auto o2 = std::make_unique<GlobalArray>(
      cluster, "O2", dims,
      ga::filter_and(ga::filter_triangular(0, 1),
                     ga::filter_triangular(2, 3)));
  contract2(par, *o1, *o2, "c2");
  o1.reset();

  auto o3 = std::make_unique<GlobalArray>(cluster, "O3", dims,
                                          ga::filter_triangular(0, 1));
  contract3(par, *o2, *o3, /*kl_symmetric=*/true, "c3");
  o2.reset();

  auto c = make_c(par);
  contract4(par, *o3, *c, 0, /*accumulate=*/false, "c4");
  o3.reset();

  return finish(par, "unfused", c, timer, before, sim_before);
}

ParResult fused_par_transform(const Problem& p, Cluster& cluster,
                              const ParOptions& opt) {
  Par par(p, cluster, opt);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();
  auto c = make_c(par);

  const Tiling lt(par.n(), std::min(opt.tile_l, par.n()));
  for (std::size_t sl = 0; sl < lt.ntiles(); ++sl) {
    const std::size_t llo = lt.lo(sl);
    const std::size_t llen = lt.len(sl);
    const std::string tag = " [l-slice " + std::to_string(sl) + "]";
    std::vector<Tiling> sdims = {par.t, par.t, par.t, Tiling(llen, llen)};

    auto al = std::make_unique<GlobalArray>(cluster, "A_l", sdims,
                                            ga::filter_triangular(0, 1));
    fill_a(par, *al, llo, "fill A" + tag);

    auto o1 = std::make_unique<GlobalArray>(cluster, "O1_l", sdims);
    contract1(par, *al, *o1, "c1" + tag);
    al.reset();

    auto o2 = std::make_unique<GlobalArray>(cluster, "O2_l", sdims,
                                            ga::filter_triangular(0, 1));
    contract2(par, *o1, *o2, "c2" + tag);
    o1.reset();

    auto o3 = std::make_unique<GlobalArray>(cluster, "O3_l", sdims,
                                            ga::filter_triangular(0, 1));
    contract3(par, *o2, *o3, /*kl_symmetric=*/false, "c3" + tag);
    o2.reset();

    contract4(par, *o3, *c, llo, /*accumulate=*/true, "c4" + tag);
    o3.reset();
  }
  return finish(par, "fused", c, timer, before, sim_before);
}

namespace {

/// One member of a (possibly single-element) shared-basis batch as the
/// fused-inner slice driver sees it: where to accumulate its C, and
/// which transformation matrix to contract with.
struct FusedInnerMember {
  GlobalArray* c;
  const tensor::Matrix* b;
};

/// The fused-inner slice loop (Listing 10), shared between the
/// single-problem entry point and the shared-basis batch: per l-slice
/// the A slice is produced once and every member replays the fused12 /
/// fused34 phases against it with its own B. Phase labels are
/// per-slice but member-invariant, so an Auto balance memo amortizes
/// the claim DES across members as well.
void fused_inner_slices(Par& par,
                        std::span<const FusedInnerMember> members) {
  Cluster& cluster = par.cl;
  const ParOptions& opt = par.opt;
  const std::size_t n = par.n();
  const std::size_t nranks = cluster.n_ranks();

  // Alpha parallelization factor (Sec. 7.3): with only the fused k
  // loop parallel there are nt work units; splitting the alpha range
  // into chunks multiplies parallelism (and the A communication).
  const std::size_t n_ac =
      opt.alpha_parallel > 0
          ? opt.alpha_parallel
          : std::max<std::size_t>(1, (nranks + par.nt - 1) / par.nt);
  // Map alpha tiles to chunks. The triangular alpha >= beta structure
  // makes tile ta carry weight ~ sum_{tb<=ta} len(ta)*len(tb); greedy
  // assignment of heavy tiles to the lightest chunk (Sec. 7.3's
  // "alternative load balancing strategies") flattens the imbalance
  // that contiguous ranges exhibit.
  std::vector<std::size_t> chunk_map(par.nt);
  if (opt.alpha_chunking == ParOptions::AlphaChunking::Contiguous ||
      n_ac == 1) {
    for (std::size_t ta = 0; ta < par.nt; ++ta)
      chunk_map[ta] = ta * n_ac / par.nt;
  } else {
    std::vector<std::size_t> order(par.nt);
    for (std::size_t ta = 0; ta < par.nt; ++ta) order[ta] = ta;
    auto weight = [&](std::size_t ta) {
      double w = 0;
      for (std::size_t tb = 0; tb <= ta; ++tb)
        w += double(par.t.len(ta)) * double(par.t.len(tb));
      return w;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                return weight(x) > weight(y);
              });
    std::vector<double> load(n_ac, 0.0);
    for (std::size_t ta : order) {
      const std::size_t lightest = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      chunk_map[ta] = lightest;
      load[lightest] += weight(ta);
    }
  }
  auto chunk_of = [&](std::size_t ta) { return chunk_map[ta]; };
  // Static owner of fused12 work unit (tk, ac) — also the task index
  // modulo the rank count, which the claim plans are seeded from.
  auto unit_owner = [&](std::size_t tk, std::size_t ac) {
    return (tk * n_ac + ac) % nranks;
  };

  // (ta, tb <= ta) pair rows of the fused34 phase, in the historical
  // order: pair p = ta*(ta+1)/2 + tb is its own task index.
  std::vector<std::pair<std::size_t, std::size_t>> ab_pairs;
  for (std::size_t ta = 0; ta < par.nt; ++ta)
    for (std::size_t tb = 0; tb <= ta; ++tb) ab_pairs.emplace_back(ta, tb);

  const auto& mach = cluster.machine();
  const Tiling lt(n, std::min(opt.tile_l, n));
  for (std::size_t sl = 0; sl < lt.ntiles(); ++sl) {
    const std::size_t llo = lt.lo(sl);
    const std::size_t llen = lt.len(sl);
    const std::string tag = " [l-slice " + std::to_string(sl) + "]";
    std::vector<Tiling> sdims = {par.t, par.t, par.t, Tiling(llen, llen)};

    auto al = std::make_unique<GlobalArray>(cluster, "A_l", sdims,
                                            ga::filter_triangular(0, 1));
    fill_a(par, *al, llo, "fill A" + tag);

    // Tile pairs of the triangular A gather, in the historical
    // (tj outer, ti >= tj) order; indexable for the prefetch pipeline.
    std::vector<std::pair<std::size_t, std::size_t>> ij_tiles;
    for (std::size_t tj = 0; tj < par.nt; ++tj)
      for (std::size_t ti = tj; ti < par.nt; ++ti)
        ij_tiles.emplace_back(ti, tj);

    // Every member replays both fused phases against this slice's A
    // with its own B; the slice's A frees once the last member's
    // fused12 has consumed it, and only one member's O2 is ever live.
    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      const FusedInnerMember& mem = members[mi];
      par.b_active = mem.b;

      // O2_l distributed so that the rank computing work unit (tk, ac)
      // owns every O2 tile it produces — puts stay local.
      auto o2_owner = [&](std::span<const std::size_t> tc,
                          std::size_t ranks) {
        (void)ranks;
        return unit_owner(tc[2], chunk_of(tc[0]));
      };
      auto o2 = std::make_unique<GlobalArray>(
          cluster, "O2_l", sdims, ga::filter_triangular(0, 1), o2_owner);

      // ---- Fused contractions 1+2 (k-parallel, Listing 10 top) -------
      // Work unit (tk, ac) = task tk*n_ac + ac; cost = the A-block
      // gather plus this chunk's O1/O2 gemms and O2 puts.
      auto f12_cost = [&](std::size_t task) {
        const std::size_t ck = task / n_ac;
        const std::size_t ac = task % n_ac;
        const double ext = double(par.t.len(ck)) * double(llen);
        const double dn = static_cast<double>(n);
        double flops = 0, put_bytes = 0;
        for (std::size_t ta = 0; ta < par.nt; ++ta) {
          if (chunk_of(ta) != ac) continue;
          const double lena = static_cast<double>(par.t.len(ta));
          flops += 2.0 * lena * dn * ext * dn;  // O1 block
          for (std::size_t tb = 0; tb <= ta; ++tb) {
            const double lenb = static_cast<double>(par.t.len(tb));
            flops += 2.0 * lenb * ext * dn * lena;  // O2 tiles
            put_bytes += 8.0 * lena * lenb * ext;
          }
        }
        return flops / mach.flops_per_rank +
               (8.0 * dn * dn * ext + put_bytes) / mach.net_bandwidth_bps +
               double(ij_tiles.size()) * mach.net_latency_s;
      };
      run_claimed_phase(
          par, "fused12" + tag, par.nt * n_ac,
          [&](std::size_t task) { return task % nranks; }, f12_cost,
          [&](RankCtx& ctx, std::size_t task) {
            const std::size_t tk = task / n_ac;
            const std::size_t ac = task % n_ac;
            const std::size_t lenk = par.t.len(tk);
            const std::size_t m = lenk * llen;  // fused (k,l) extent
            // Gather the full (i,j) x (k in tk) x (l in slice) A block.
            // This is the A traffic that replicates with n_ac (Sec 7.3).
            RankBuffer bufa(ctx, n * n * m, "A block");
            {
              const std::size_t tw = par.t.max_width();
              const std::size_t fmax = tw * tw * m;
              const std::size_t nslots = par.opt.overlap ? 2 : 1;
              RankBuffer fetchbuf(ctx, nslots * fmax, "A fetch");
              auto at = [&](std::size_t s) {
                return ctx.real() ? fetchbuf.data() + s * fmax : nullptr;
              };
              GlobalArray::NbHandle fh[2];
              pipelined_fetch(
                  ij_tiles.size(), par.opt.overlap,
                  [&](std::size_t q, std::size_t s) {
                    ga::TileCoord ac4 = {ij_tiles[q].first,
                                         ij_tiles[q].second, tk, 0};
                    fh[s] = al->nbget(ctx, ac4, at(s));
                  },
                  [&](std::size_t, std::size_t s) {
                    ctx.wait_transfer(fh[s]);
                  },
                  [&](std::size_t q, std::size_t s) {
                    if (!ctx.real()) return;
                    ga::TileCoord ac4 = {ij_tiles[q].first,
                                         ij_tiles[q].second, tk, 0};
                    const auto& info = al->info(ac4);
                    const double* src = at(s);
                    for (std::size_t i = info.lo[0];
                         i < info.lo[0] + info.len[0]; ++i)
                      for (std::size_t j = info.lo[1];
                           j < info.lo[1] + info.len[1]; ++j)
                        for (std::size_t x = 0; x < m; ++x) {
                          const double v = *src++;
                          bufa.data()[(i * n + j) * m + x] = v;
                          bufa.data()[(j * n + i) * m + x] = v;
                        }
                  });
            }
            // Alpha-tile chunk [ta0, ta1) assigned to chunk ac.
            for (std::size_t ta = 0; ta < par.nt; ++ta) {
              if (chunk_of(ta) != ac) continue;
              const std::size_t lena = par.t.len(ta);
              // O1 block for all alpha in this tile, in fast memory
              // only — never communicated (the point of the fusion).
              RankBuffer o1blk(ctx, lena * n * m, "O1 block");
              ctx.charge_flops(gemm_flops(lena, n * m, n));
              if (ctx.real())
                gemm(Trans::No, Trans::No, lena, n * m, n, 1.0,
                     par.b() + par.t.lo(ta) * n, n, bufa.data(), n * m, 0.0,
                     o1blk.data(), n * m);
              for (std::size_t tb = 0; tb <= ta; ++tb) {
                const std::size_t lenb = par.t.len(tb);
                RankBuffer o2tile(ctx, lena * lenb * m, "O2 tile");
                ctx.charge_flops(gemm_flops(lenb, m, n) * double(lena));
                // One member per alpha row of the O1 block.
                if (ctx.real())
                  gemm_batched(Trans::No, Trans::No, lenb, m, n, 1.0,
                               par.b() + par.t.lo(tb) * n, n, 0,
                               o1blk.data(), m, n * m, 0.0, o2tile.data(), m,
                               lenb * m, lena);
                // Nonblocking: the O2 tile is consumed at issue, so the
                // put hides behind the next (tb / ta) iteration's gemm.
                if (par.opt.overlap)
                  o2->nbput(ctx, ga::TileCoord{ta, tb, tk, 0},
                            o2tile.data());
                else
                  o2->put(ctx, ga::TileCoord{ta, tb, tk, 0}, o2tile.data());
              }
            }
          });
      if (mi + 1 == members.size()) al.reset();

      // ---- Fused contractions 3+4 ((ab)-parallel, Listing 10 bottom) -
      // Task = (ta, tb) pair row; cost = the O2-row gather, the O3
      // block, and the spatially allowed (tc, td) C contributions —
      // the irregular per-row weight the dynamic strategies flatten.
      auto f34_cost = [&](std::size_t task) {
        const auto [ta, tb] = ab_pairs[task];
        const double lena = static_cast<double>(par.t.len(ta));
        const double lenb = static_cast<double>(par.t.len(tb));
        const double dn = static_cast<double>(n);
        const double dl = static_cast<double>(llen);
        double flops = 2.0 * dn * dl * dn * lena * lenb;  // O3 block
        double acc_bytes = 0;
        for (std::size_t tc = 0; tc < par.nt; ++tc)
          for (std::size_t td = 0; td <= tc; ++td) {
            if (!par.tile_allowed(ta, tb, tc, td)) continue;
            const double cd =
                double(par.t.len(tc)) * double(par.t.len(td));
            flops += 2.0 * cd * dl * lena * lenb;
            acc_bytes += 8.0 * lena * lenb * cd;
          }
        return flops / mach.flops_per_rank +
               (8.0 * lena * lenb * dn * dl + acc_bytes) /
                   mach.net_bandwidth_bps +
               double(par.nt) * mach.net_latency_s;
      };
      run_claimed_phase(
          par, "fused34" + tag, ab_pairs.size(),
          [&](std::size_t task) { return task % nranks; }, f34_cost,
          [&](RankCtx& ctx, std::size_t task) {
            const std::size_t ta = ab_pairs[task].first;
            const std::size_t tb = ab_pairs[task].second;
            const std::size_t lena = par.t.len(ta);
            const std::size_t lenb = par.t.len(tb);
            // Gather O2[(ab) row, all k] and compute the O3 block in
            // fast memory only — never communicated.
            RankBuffer bufo2(ctx, lena * lenb * n * llen, "O2 row");
            {
              const std::size_t tw = par.t.max_width();
              const std::size_t fmax = tw * tw * tw * llen;
              const std::size_t nslots = par.opt.overlap ? 2 : 1;
              RankBuffer fetchbuf(ctx, nslots * fmax, "O2 fetch");
              auto at = [&](std::size_t s) {
                return ctx.real() ? fetchbuf.data() + s * fmax : nullptr;
              };
              GlobalArray::NbHandle fh[2];
              pipelined_fetch(
                  par.nt, par.opt.overlap,
                  [&](std::size_t tk, std::size_t s) {
                    ga::TileCoord oc = {ta, tb, tk, 0};
                    fh[s] = o2->nbget(ctx, oc, at(s));
                  },
                  [&](std::size_t, std::size_t s) {
                    ctx.wait_transfer(fh[s]);
                  },
                  [&](std::size_t tk, std::size_t s) {
                    if (!ctx.real()) return;
                    ga::TileCoord oc = {ta, tb, tk, 0};
                    const auto& info = o2->info(oc);
                    const double* src = at(s);
                    for (std::size_t ia = 0; ia < lena; ++ia)
                      for (std::size_t ib = 0; ib < lenb; ++ib)
                        for (std::size_t k = info.lo[2];
                             k < info.lo[2] + info.len[2]; ++k)
                          for (std::size_t ll = 0; ll < llen; ++ll)
                            bufo2.data()[((ia * lenb + ib) * n + k) * llen +
                                         ll] = *src++;
                  });
            }
            RankBuffer bufo3(ctx, lena * lenb * n * llen, "O3 block");
            ctx.charge_flops(gemm_flops(n, llen, n) * double(lena * lenb));
            if (ctx.real())
              gemm_batched(Trans::No, Trans::No, n, llen, n, 1.0, par.b(), n,
                           0, bufo2.data(), llen, n * llen, 0.0,
                           bufo3.data(), llen, n * llen, lena * lenb);
            for (std::size_t tc = 0; tc < par.nt; ++tc)
              for (std::size_t td = 0; td <= tc; ++td) {
                if (!par.tile_allowed(ta, tb, tc, td)) continue;
                const std::size_t lenc = par.t.len(tc);
                const std::size_t lend = par.t.len(td);
                RankBuffer ctile(ctx, lena * lenb * lenc * lend, "C tile");
                ctx.charge_flops(gemm_flops(lenc, lend, llen) *
                                 double(lena * lenb));
                // One member per (a b) row; the B block is shared, so
                // the members fold into one tall pass.
                if (ctx.real())
                  gemm_batched(Trans::No, Trans::Yes, lenc, lend, llen, 1.0,
                               bufo3.data() + par.t.lo(tc) * llen, llen,
                               n * llen, par.b() + par.t.lo(td) * n + llo, n,
                               0, 1.0, ctile.data(), lend, lenc * lend,
                               lena * lenb);
                // Nonblocking: the accumulate lands at issue (under the
                // GA acc mutex); its wire time hides behind the next
                // (tc,td) tile's gemm.
                if (par.opt.overlap)
                  mem.c->nbacc(ctx, ga::TileCoord{ta, tb, tc, td},
                               ctile.data());
                else
                  mem.c->acc(ctx, ga::TileCoord{ta, tb, tc, td},
                             ctile.data());
              }
          });
      o2.reset();
    }
    par.b_active = nullptr;
  }
}

}  // namespace

ParResult fused_inner_par_transform(const Problem& p, Cluster& cluster,
                                    const ParOptions& opt) {
  Par par(p, cluster, opt);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();
  auto c = make_c(par);
  const FusedInnerMember self{c.get(), &p.b};
  fused_inner_slices(par, std::span<const FusedInnerMember>(&self, 1));
  return finish(par, "fused-inner", c, timer, before, sim_before);
}

BatchParResult batched_unfused_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    Cluster& cluster, const ParOptions& opt) {
  FIT_REQUIRE(!member_b.empty(), "batched transform needs >= 1 member");
  for (const auto& b : member_b)
    FIT_REQUIRE(b.rows() == p.irreps.n_orbitals() &&
                    b.cols() == p.irreps.n_orbitals(),
                "batch member B must be " << p.irreps.n_orbitals()
                                          << " x "
                                          << p.irreps.n_orbitals());
  // A private Auto memo (when the caller brought none) shares the
  // per-phase DES picks across members: the contraction phases have
  // identical shape for every member, so the six-candidate planning
  // is paid once per phase.
  ParOptions o = opt;
  BalanceCache local_memo;
  if (!o.balance_cache) o.balance_cache = &local_memo;
  Par par(p, cluster, o);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();
  std::vector<Tiling> dims(4, par.t);

  BatchParResult r;

  // The AO integral tensor is member-invariant: fill it — and pay its
  // integral evaluation — exactly once for the whole batch.
  auto a = std::make_unique<GlobalArray>(
      cluster, "A", dims,
      ga::filter_and(ga::filter_triangular(0, 1),
                     ga::filter_triangular(2, 3)));
  fill_a(par, *a, 0, "fill A");

  for (std::size_t m = 0; m < member_b.size(); ++m) {
    par.b_active = &member_b[m];

    auto o1 = std::make_unique<GlobalArray>(cluster, "O1", dims,
                                            ga::filter_triangular(2, 3));
    contract1(par, *a, *o1, "c1");
    if (m + 1 == member_b.size()) a.reset();

    auto o2 = std::make_unique<GlobalArray>(
        cluster, "O2", dims,
        ga::filter_and(ga::filter_triangular(0, 1),
                       ga::filter_triangular(2, 3)));
    contract2(par, *o1, *o2, "c2");
    o1.reset();

    auto o3 = std::make_unique<GlobalArray>(cluster, "O3", dims,
                                            ga::filter_triangular(0, 1));
    contract3(par, *o2, *o3, /*kl_symmetric=*/true, "c3");
    o2.reset();

    auto c = make_c(par);
    contract4(par, *o3, *c, 0, /*accumulate=*/false, "c4");
    o3.reset();

    r.member_done_s.push_back(cluster.sim_time() - sim_before);
    if (cluster.mode() == runtime::ExecutionMode::Real && o.gather_result)
      r.c.emplace_back(gather_c(par, *c));
    else
      r.c.emplace_back(std::nullopt);
    // Each member's C frees before the next member starts — the
    // unfused batch's live set never exceeds one member's chain.
    c.reset();
  }
  par.b_active = nullptr;

  static const std::unique_ptr<GlobalArray> no_c;  // already gathered
  r.stats =
      std::move(finish(par, "batched-unfused", no_c, timer, before,
                       sim_before)
                    .stats);
  return r;
}

BatchParResult batched_fused_inner_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    Cluster& cluster, const ParOptions& opt) {
  FIT_REQUIRE(!member_b.empty(), "batched transform needs >= 1 member");
  for (const auto& b : member_b)
    FIT_REQUIRE(b.rows() == p.irreps.n_orbitals() &&
                    b.cols() == p.irreps.n_orbitals(),
                "batch member B must be " << p.irreps.n_orbitals()
                                          << " x "
                                          << p.irreps.n_orbitals());
  ParOptions o = opt;
  BalanceCache local_memo;
  if (!o.balance_cache) o.balance_cache = &local_memo;
  Par par(p, cluster, o);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();

  // Every member's C accumulates across every l-slice, so all of them
  // stay allocated for the whole run — the memory/throughput trade
  // core::plan_batch accounts for.
  std::vector<std::unique_ptr<GlobalArray>> cs;
  std::vector<FusedInnerMember> members;
  cs.reserve(member_b.size());
  members.reserve(member_b.size());
  for (std::size_t m = 0; m < member_b.size(); ++m) {
    cs.push_back(make_c(par));
    members.push_back(FusedInnerMember{cs.back().get(), &member_b[m]});
  }

  fused_inner_slices(par, members);

  BatchParResult r;
  const double done = cluster.sim_time() - sim_before;
  for (std::size_t m = 0; m < member_b.size(); ++m) {
    // No member is complete before the last slice: every C is only
    // final at batch end.
    r.member_done_s.push_back(done);
    if (cluster.mode() == runtime::ExecutionMode::Real && o.gather_result)
      r.c.emplace_back(gather_c(par, *cs[m]));
    else
      r.c.emplace_back(std::nullopt);
    cs[m].reset();
  }

  static const std::unique_ptr<GlobalArray> no_c;  // already gathered
  r.stats =
      std::move(finish(par, "batched-fused-inner", no_c, timer, before,
                       sim_before)
                    .stats);
  return r;
}

std::vector<tensor::Matrix> batch_member_bs(const Problem& p,
                                            std::size_t count) {
  std::vector<tensor::Matrix> bs;
  bs.reserve(count);
  for (std::size_t m = 0; m < count; ++m)
    bs.push_back(m == 0 ? p.b
                        : chem::make_mo_coefficients(
                              p.irreps, p.molecule.seed * 7919 + 13 + m));
  return bs;
}

ParResult hybrid_transform(const Problem& p, Cluster& cluster,
                           const ParOptions& opt) {
  if (unfused_fits(p, cluster)) {
    auto r = unfused_par_transform(p, cluster, opt);
    r.stats.schedule = "hybrid(unfused)";
    return r;
  }
  auto r = fused_inner_par_transform(p, cluster, opt);
  r.stats.schedule = "hybrid(fused-inner)";
  return r;
}

ParResult resilient_transform(const Problem& p, Cluster& cluster,
                              const ParOptions& opt) {
  auto& reg = cluster.metrics();
  if (unfused_fits(p, cluster)) {
    try {
      auto r = unfused_par_transform(p, cluster, opt);
      r.stats.schedule = "resilient(unfused)";
      return r;
    } catch (const OutOfMemoryError& e) {
      // A capacity-shrink fault or rank death invalidated the choice
      // mid-run. The intermediates' GAs have been rolled back; degrade
      // along Thm 5.2's order to the O(n^3 Tl) fused-inner schedule
      // and recompute from the integrals.
      reg.add(reg.counter("plan.replans"), 0, 1);
      cluster.note_instant("replan: unfused -> fused-inner", 0);
      auto r = fused_inner_par_transform(p, cluster, opt);
      r.stats.schedule = "resilient(unfused->fused-inner)";
      r.stats.note =
          std::string("downgraded after capacity loss (live aggregate ") +
          human_bytes(cluster.aggregate_capacity_bytes()) + "): " + e.what();
      return r;
    }
  }
  auto r = fused_inner_par_transform(p, cluster, opt);
  r.stats.schedule = "resilient(fused-inner)";
  r.stats.note = "unfused intermediates exceed the live aggregate capacity";
  return r;
}

// ---- NWChem baseline models (see schedules_baseline.hpp) ------------

ParResult nwchem_unfused_par_transform(const Problem& p, Cluster& cluster,
                                       const ParOptions& opt) {
  Par par(p, cluster, opt);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();
  std::vector<Tiling> dims(4, par.t);

  // Production behaviour: every tensor is allocated up front and kept
  // until the end — the ~1.5 n^4 aggregate footprint.
  GlobalArray a(cluster, "A", dims,
                ga::filter_and(ga::filter_triangular(0, 1),
                               ga::filter_triangular(2, 3)));
  GlobalArray o1(cluster, "O1", dims, ga::filter_triangular(2, 3));
  GlobalArray o2(cluster, "O2", dims,
                 ga::filter_and(ga::filter_triangular(0, 1),
                                ga::filter_triangular(2, 3)));
  GlobalArray o3(cluster, "O3", dims, ga::filter_triangular(0, 1));
  auto c = make_c(par);

  fill_a(par, a, 0, "fill A");
  contract1(par, a, o1, "c1");
  contract2(par, o1, o2, "c2");
  contract3(par, o2, o3, /*kl_symmetric=*/true, "c3");
  contract4(par, o3, *c, 0, /*accumulate=*/false, "c4");

  auto r = finish(par, "nwchem-unfused", c, timer, before, sim_before);
  return r;
}

ParResult nwchem_recompute_par_transform(const Problem& p, Cluster& cluster,
                                         const ParOptions& opt) {
  Par par(p, cluster, opt);
  WallTimer timer;
  const auto before = cluster.totals();
  const double sim_before = cluster.sim_time();
  const std::size_t n = par.n();
  const std::size_t np = tensor::npairs(n);
  const std::size_t nranks = cluster.n_ranks();
  auto c = make_c(par);

  // Task = (ta, tb) pair row; dominated by the per-alpha integral
  // recomputation, so cost scales with lena regardless of how much of
  // the (b, c, d) work symmetry later discards — exactly the skew a
  // dynamic strategy absorbs.
  std::vector<std::pair<std::size_t, std::size_t>> ab_pairs;
  for (std::size_t ta = 0; ta < par.nt; ++ta)
    for (std::size_t tb = 0; tb <= ta; ++tb) ab_pairs.emplace_back(ta, tb);
  const auto& mach = cluster.machine();
  auto rc_cost = [&](std::size_t task) {
    const auto [ta, tb] = ab_pairs[task];
    const double lena = static_cast<double>(par.t.len(ta));
    const double lenb = static_cast<double>(par.t.len(tb));
    const double ints = lena * double(n) * double(n) * double(np);
    // Diagonal pair rows do the bb <= aa half of the (ia, ib) square.
    const double nab =
        ta == tb ? lena * (lena + 1.0) / 2.0 : lena * lenb;
    const double flops =
        2.0 * ints +
        nab * 2.0 * double(n) * double(n) * double(n);
    return ints / mach.integrals_per_sec + flops / mach.flops_per_rank;
  };
  run_claimed_phase(
      par, "recompute", ab_pairs.size(),
      [&](std::size_t task) { return task % nranks; }, rc_cost,
      [&](RankCtx& ctx, std::size_t task) {
        const Problem& prob = par.p;
        const std::size_t ta = ab_pairs[task].first;
        const std::size_t tb = ab_pairs[task].second;
        const std::size_t lena = par.t.len(ta);
        const std::size_t lenb = par.t.len(tb);
        // Per-row staging for the C contributions (full (c,d) range).
        RankBuffer crow(ctx, lena * lenb * n * n, "C row");
        RankBuffer o1buf(ctx, n * np, "O1 slice");
        RankBuffer o2buf(ctx, np, "O2 slice");
        RankBuffer o3row(ctx, n, "O3 row");
        // Host buffer for one column A(:, j, k, l), outside the memory
        // model: the modelled schedule consumes each integral as it is
        // produced.
        std::vector<double> acol(n);
        for (std::size_t ia = 0; ia < lena; ++ia) {
          const std::size_t aa = par.t.lo(ta) + ia;
          // Recompute the O1 slice for this alpha from on-the-fly
          // integrals — once per (pair-row, alpha): the block-level
          // redundancy factor of the direct scheme.
          ctx.charge_integrals(double(n) * double(n) * double(np));
          ctx.charge_flops(2.0 * double(n) * double(n) * double(np));
          if (ctx.real()) {
            for (std::size_t j = 0; j < n; ++j)
              for (std::size_t pkl = 0; pkl < np; ++pkl) {
                const auto [k, l] = tensor::unpack_pair(pkl);
                prob.engine.fill_block({0, j, k, l}, {n, 1, 1, 1},
                                       acol.data());
                double acc = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                  acc += acol[i] * prob.b(aa, i);
                o1buf.data()[j * np + pkl] = acc;
              }
          }
          for (std::size_t ib = 0; ib < lenb; ++ib) {
            const std::size_t bb = par.t.lo(tb) + ib;
            if (bb > aa) continue;
            const auto hab = prob.irreps.pair_irrep(aa, bb);
            ctx.charge_flops(2.0 * double(n) * double(np));  // O2
            ctx.charge_flops(2.0 * double(n) * double(n) * double(n));
            if (ctx.real()) {
              std::fill(o2buf.data(), o2buf.data() + np, 0.0);
              for (std::size_t j = 0; j < n; ++j)
                blas::axpy(np, prob.b(bb, j), o1buf.data() + j * np,
                           o2buf.data());
              for (std::size_t cc = 0; cc < n; ++cc) {
                for (std::size_t l = 0; l < n; ++l) {
                  double acc = 0.0;
                  for (std::size_t k = 0; k < n; ++k)
                    acc += o2buf.data()[tensor::pack_pair_sym(k, l)] *
                           prob.b(cc, k);
                  o3row.data()[l] = acc;
                }
                for (std::size_t d = 0; d <= cc; ++d) {
                  if (prob.irreps.pair_irrep(cc, d) != hab) continue;
                  crow.data()[((ia * lenb + ib) * n + cc) * n + d] =
                      blas::dot(n, o3row.data(), prob.b.row(d));
                }
              }
            }
            // c4 flops: one dot of length n per allowed (c >= d) pair.
            ctx.charge_flops(2.0 * double(n) * double(np) /
                             double(prob.irreps.order()));
          }
        }
        // Accumulate the staged row into the distributed C (local: C
        // is distributed by pair row).
        const std::size_t tw = par.t.max_width();
        RankBuffer ctile(ctx, tw * tw * tw * tw, "C tile");
        for (std::size_t tc = 0; tc < par.nt; ++tc)
          for (std::size_t td = 0; td <= tc; ++td) {
            if (!par.tile_allowed(ta, tb, tc, td)) continue;
            if (ctx.real()) {
              const std::size_t lenc = par.t.len(tc);
              const std::size_t lend = par.t.len(td);
              for (std::size_t ia = 0; ia < lena; ++ia)
                for (std::size_t ib = 0; ib < lenb; ++ib)
                  for (std::size_t icc = 0; icc < lenc; ++icc)
                    for (std::size_t id = 0; id < lend; ++id)
                      ctile.data()[((ia * lenb + ib) * lenc + icc) * lend +
                                   id] =
                          crow.data()[((ia * lenb + ib) * n +
                                       par.t.lo(tc) + icc) *
                                          n +
                                      par.t.lo(td) + id];
            }
            c->acc(ctx, ga::TileCoord{ta, tb, tc, td}, ctile.data());
          }
      });
  return finish(par, "nwchem-recompute", c, timer, before, sim_before);
}

}  // namespace fit::core
