#include "core/schedules_par.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
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

using Sums = std::map<std::string, double, std::less<>>;
/// A four-index tile coordinate that lives on the stack: the op loops
/// build one per GA op.
using Coord4 = std::array<std::size_t, 4>;

/// The ParStats fields that are one cluster counter's growth over the
/// run. The registry is the source of truth; finish() diffs it.
constexpr std::pair<double ParStats::*, const char*> kRunCounters[] = {
    {&ParStats::flops, "compute.flops"},
    {&ParStats::integral_evals, "compute.integral_evals"},
    {&ParStats::remote_bytes, "comm.remote_bytes"},
    {&ParStats::local_bytes, "comm.local_bytes"},
    {&ParStats::overlapped_seconds, "comm.overlapped_seconds"},
    {&ParStats::exposed_seconds, "comm.exposed_seconds"},
    {&ParStats::sched_claims, "sched.claims"},
    {&ParStats::sched_steals, "sched.steals"},
    {&ParStats::sched_counter_wait_s, "sched.counter_wait_s"},
    {&ParStats::sched_counter_fetches, "sched.counter_fetches"},
    {&ParStats::sched_tree_hops, "sched.tree_hops"},
    {&ParStats::recovery_fallback_epochs, "recovery.fallback_epochs"},
    {&ParStats::ckpt_verify_failures, "checkpoint.verify_failures"},
    {&ParStats::fault_domain_kills, "fault.domain_kills"},
};

/// after[name] - before[name]; a name missing from a snapshot reads 0.
double grown(const Sums& before, const Sums& after, std::string_view name) {
  auto at = [name](const Sums& s) {
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
  };
  return at(after) - at(before);
}

/// The tile grid every distributed schedule runs on: the orbital
/// tiling and the tile-level spatial symmetry masks. It needs no
/// cluster, so check_capacity lays out a chain's arrays from it too.
struct Grid {
  Tiling t;           // orbital tiling (all four dims)
  std::size_t nt;     // tile count per dimension
  // Spatial symmetry at tile granularity: irrep_mask[ti] is the set of
  // irreps present in orbital tile ti; pair_mask[ti][tj] the set of
  // xor-products. A C tile (ta,tb,tc,td) can hold an allowed quadruple
  // iff pair_mask[ta][tb] & pair_mask[tc][td] != 0.
  std::vector<std::uint32_t> irrep_mask;
  std::vector<std::vector<std::uint32_t>> pair_mask;

  Grid(const Problem& p, std::size_t tile)
      : t(Tiling::irrep_aligned(p.irreps, std::min(tile, p.n()))),
        nt(t.ntiles()) {
    FIT_REQUIRE(p.irreps.order() <= 32,
                "tile masks hold at most 32 irreps, not "
                    << p.irreps.order());
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
};

/// Shared state for one parallel transform run.
struct Par : Grid {
  const Problem& p;
  Cluster& cl;
  ParOptions opt;

  // Dynamic-scheduler metrics (see run_claimed_phase): how many tasks
  // were claimed through the counter/steal paths, the counter waits
  // (count + seconds), steals, orphan adoptions after a mid-phase
  // rank death, and counter re-homings.
  obs::MetricsRegistry::Id id_sched_claims, id_sched_steals,
      id_sched_counter_waits, id_sched_counter_wait_s, id_sched_orphans,
      id_sched_reowns, id_sched_worst, id_sched_fetches, id_sched_hops,
      id_sched_occupancy;

  // Where this run starts: finish() reports the run as the difference
  // from here of the host timer, the modeled clock, the phase list and
  // the counter sums of the cluster registry and the kernel engine.
  WallTimer timer;
  double sim0;
  std::size_t phases0;
  Sums reg0, gemm0;

  Par(const Problem& problem, Cluster& cluster, const ParOptions& options)
      : Grid(problem, options.tile), p(problem), cl(cluster), opt(options),
        sim0(cluster.sim_time()), phases0(cluster.phases().size()) {
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
    // Session-level overrides: the strategy itself and the batched /
    // tree dequeue granularity (0 keeps the claims-per-rank rule).
    opt.balance = ga::balance_from_env(opt.balance);
    opt.counter_batch =
        util::env_size_strict("FOURINDEX_COUNTER_BATCH", opt.counter_batch,
                              /*min=*/0);
    // Every run's registry lists what ParStats reports, even at zero.
    for (const auto& rc : kRunCounters) reg.counter(rc.second);
    reg0 = reg.sums();
    gemm0 = blas::gemm_metrics().sums();
  }

  // Active transformation matrix: the problem's own B, unless a batch
  // chain has pointed the contraction phases at one member's
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

/// The scheduler counters one rank's claims add up to in one phase
/// attempt. The rank body sums them here and adds each to the cluster
/// registry once, when it returns or unwinds (the claims of an attempt
/// that a transient fault aborts still count), so the lanes never meet
/// on the registry's lock per claim. The counter waits are kept one by
/// one: add_each rounds sched.counter_wait_s exactly as an add per
/// claim would.
struct SchedTally {
  double orphans = 0, counter_waits = 0, fetches = 0, hops = 0, steals = 0,
         claims = 0;
  std::vector<double> wait_s;

  void flush(const Par& par, std::size_t rank) const {
    auto& reg = par.cl.metrics();
    const std::pair<obs::MetricsRegistry::Id, double> sums[] = {
        {par.id_sched_orphans, orphans},
        {par.id_sched_counter_waits, counter_waits},
        {par.id_sched_fetches, fetches},
        {par.id_sched_hops, hops},
        {par.id_sched_steals, steals},
        {par.id_sched_claims, claims}};
    for (const auto& [id, v] : sums)
      if (v != 0) reg.add(id, rank, v);
    if (!wait_s.empty())
      reg.add_each(par.id_sched_counter_wait_s, rank, wait_s);
  }
};

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
  BalanceCache* memo = par.opt.balance_cache;
  if (mode == ga::Balance::Auto && memo && memo->picks.contains(label)) {
    // A previous identical run already chose for this phase: replay
    // its mode and skip the six-candidate DES — the whole point of
    // the serve schedule cache.
    mode = memo->picks.at(label);
    memo->hits += 1;
  }
  if (mode == ga::Balance::Auto) {
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
  } else {
    plan = ga::plan_tasks(par.cl, mode, counter, cost, owner,
                          par.opt.counter_batch);
  }
  auto run_claims = [&](RankCtx& ctx, SchedTally& tally) {
    for (std::size_t nom = 0; nom < plan.claims.size(); ++nom) {
      if (plan.claims[nom].empty()) continue;
      if (nom != ctx.rank()) {
        // Orphan adoption: a nominal rank that died between planning
        // and the barrier executes nowhere — its survivor runs the
        // claims instead.
        if (!par.cl.is_dead(nom) || par.cl.live_owner(nom) != ctx.rank())
          continue;
        tally.orphans += static_cast<double>(plan.claims[nom].size());
      }
      for (const ga::TaskClaim& claim : plan.claims[nom]) {
        if (claim.fetched) {
          // One fetch-and-add against the claim's counter, whose live
          // host is re-resolved through Cluster::live_owner — a dead
          // counter home (flat, per-node or tree) re-targets here.
          counter.charge_fetch_add(ctx, claim.home, claim.wait_s);
          tally.counter_waits += 1;
          tally.wait_s.push_back(claim.wait_s);
          if (claim.task != ga::TaskClaim::kNone) tally.fetches += 1;
          tally.hops += claim.hops;
        } else if (claim.stolen) {
          const std::size_t victim = par.cl.live_owner(claim.peer);
          ctx.charge_transfer(victim, 8.0);  // steal request
          ctx.charge_transfer(victim, 8.0);  // grant
          tally.steals += 1;
        }
        if (claim.task == ga::TaskClaim::kNone) continue;
        if (mode != ga::Balance::Static) tally.claims += 1;
        const double t0 = ctx.elapsed();
        body(ctx, claim.task);
        if (par.cl.comm_tracing())
          ctx.note_span(label + " task " + std::to_string(claim.task), t0,
                        ctx.elapsed() - t0);
      }
    }
  };
  par.cl.run_phase(label, [&](RankCtx& ctx) {
    SchedTally tally;
    try {
      run_claims(ctx, tally);
    } catch (...) {
      tally.flush(par, ctx.rank());
      throw;
    }
    tally.flush(par, ctx.rank());
  });
  auto& reg = par.cl.metrics();
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

/// What one Global Array of a chain is built from. The chains allocate
/// from these and check_capacity counts them, so both see the same
/// tilings, filters and owners.
struct ArraySpec {
  const char* name;
  std::vector<Tiling> dims;
  ga::TileFilter filter;
  ga::OwnerFn owner = {};  // empty = round-robin over existing tiles
};

std::unique_ptr<GlobalArray> alloc(Cluster& cluster, ArraySpec s) {
  return std::make_unique<GlobalArray>(cluster, s.name, std::move(s.dims),
                                       std::move(s.filter),
                                       std::move(s.owner));
}

/// Tile filter of an array whose dims (0,1) and (2,3) are both
/// triangular-stored symmetric pairs.
ga::TileFilter both_pairs() {
  return ga::filter_and(ga::filter_triangular(0, 1),
                        ga::filter_triangular(2, 3));
}

// The unfused chain's arrays span the full orbital grid (Listing 4):
// A and O2 store both symmetric pairs, O1 its (k,l) pair, O3 its (a,b)
// pair.
ArraySpec spec_a(const Grid& g) {
  return {"A", std::vector<Tiling>(4, g.t), both_pairs()};
}
ArraySpec spec_o1(const Grid& g) {
  return {"O1", std::vector<Tiling>(4, g.t), ga::filter_triangular(2, 3)};
}
ArraySpec spec_o2(const Grid& g) {
  return {"O2", std::vector<Tiling>(4, g.t), both_pairs()};
}
ArraySpec spec_o3(const Grid& g) {
  return {"O3", std::vector<Tiling>(4, g.t), ga::filter_triangular(0, 1)};
}

/// C, spatially filtered and distributed by its (alpha,beta) block row:
/// Listing 10's final accumulation is then always local; harmless for
/// the others.
ArraySpec spec_c(const Grid& g) {
  return {"C", std::vector<Tiling>(4, g.t), g.spatial_filter(),
          [](std::span<const std::size_t> c, std::size_t nranks) {
            return (c[0] * (c[0] + 1) / 2 + c[1]) % nranks;
          }};
}

/// Tile grid of a width-`llen` l slice (Listings 8 and 10).
std::vector<Tiling> slice_dims(const Grid& g, std::size_t llen) {
  return {g.t, g.t, g.t, Tiling(llen, llen)};
}

/// A_l, the integrals of one l slice, stored (i >= j)-triangular.
ArraySpec spec_a_l(const Grid& g, std::size_t llen) {
  return {"A_l", slice_dims(g, llen), ga::filter_triangular(0, 1)};
}

/// Listing 10's alpha parallelization (Sec. 7.3): the alpha range of
/// each k tile splits into n_ac chunks, alpha tile ta belongs to chunk
/// chunk_of[ta], and work unit (tk, ac) runs on rank
/// (tk * n_ac + ac) % nranks.
struct AlphaChunks {
  std::size_t n_ac;
  std::vector<std::size_t> chunk_of;

  AlphaChunks(const Grid& g, const ParOptions& opt, std::size_t nranks)
      // With only the fused k loop parallel there are nt work units;
      // splitting the alpha range into chunks multiplies parallelism
      // (and the A communication).
      : n_ac(opt.alpha_parallel > 0
                 ? opt.alpha_parallel
                 : std::max<std::size_t>(1, (nranks + g.nt - 1) / g.nt)),
        chunk_of(g.nt) {
    // The triangular alpha >= beta structure makes tile ta carry weight
    // ~ sum_{tb<=ta} len(ta)*len(tb); greedy assignment of heavy tiles
    // to the lightest chunk (Sec. 7.3's "alternative load balancing
    // strategies") flattens the imbalance that contiguous ranges
    // exhibit.
    if (opt.alpha_chunking == ParOptions::AlphaChunking::Contiguous ||
        n_ac == 1) {
      for (std::size_t ta = 0; ta < g.nt; ++ta)
        chunk_of[ta] = ta * n_ac / g.nt;
      return;
    }
    std::vector<std::size_t> order(g.nt);
    for (std::size_t ta = 0; ta < g.nt; ++ta) order[ta] = ta;
    auto weight = [&](std::size_t ta) {
      double w = 0;
      for (std::size_t tb = 0; tb <= ta; ++tb)
        w += double(g.t.len(ta)) * double(g.t.len(tb));
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
      chunk_of[ta] = lightest;
      load[lightest] += weight(ta);
    }
  }

  /// O2_l of a width-`llen` slice, distributed so that the rank that
  /// computes work unit (tk, ac) owns every O2 tile it produces: puts
  /// stay local.
  ArraySpec o2_spec(const Grid& g, std::size_t llen) const {
    return {"O2_l", slice_dims(g, llen), ga::filter_triangular(0, 1),
            [this](std::span<const std::size_t> c, std::size_t nranks) {
              return (c[2] * n_ac + chunk_of[c[0]]) % nranks;
            }};
  }
};

/// Task list for a tile-parallel phase: every existing tile of `out`,
/// statically owned by the tile's owner — identical, in Static mode,
/// to iterating out.tiles_of(rank).
std::function<std::size_t(std::size_t)> tile_owner_of(
    const GlobalArray& out) {
  return [&out](std::size_t idx) { return out.tile_by_index(idx).owner; };
}

/// Cost estimate of the contraction task that writes tile `idx` of
/// `out`: the gemm flops and the fetched operand bytes of contracting
/// `extent` indices into the tile's dim `d`, plus one latency for each
/// of the task's `fetches` tile fetches.
std::function<double(std::size_t)> contract_cost(const Par& par,
                                                 const GlobalArray& out,
                                                 std::size_t d,
                                                 std::size_t extent,
                                                 std::size_t fetches) {
  const auto& m = par.cl.machine();
  return [&m, &out, d, ext = static_cast<double>(extent),
          fetches](std::size_t idx) {
    const auto& ti = out.tile_by_index(idx);
    const double el = static_cast<double>(ti.elements);
    return 2.0 * el * ext / m.flops_per_rank +
           (8.0 * el / double(ti.len[d]) * ext) / m.net_bandwidth_bps +
           double(fetches) * m.net_latency_s;
  };
}

/// Landing slots of a pipelined_fetch: two slots of `slot` words under
/// ParOptions::overlap, one without, charged to the rank as `what`.
class FetchSlots {
 public:
  FetchSlots(const Par& par, RankCtx& ctx, std::size_t slot,
             const char* what)
      : buf_(ctx, (par.opt.overlap ? 2 : 1) * slot, what), slot_(slot) {}
  /// Slot `s`'s storage (nullptr in Simulate mode).
  double* at(std::size_t s) {
    return buf_.data() ? buf_.data() + s * slot_ : nullptr;
  }

 private:
  RankBuffer buf_;
  std::size_t slot_;
};

/// pipelined_fetch of the tiles coord_of(0..n-1) of `arr` into
/// FetchSlots of `slot` words charged as `what`: `use(i, data)` runs
/// once tile i has landed (data is nullptr in Simulate mode).
template <class CoordOf, class Use>
void fetch_tiles(const Par& par, RankCtx& ctx, const GlobalArray& arr,
                 std::size_t n, std::size_t slot, const char* what,
                 CoordOf&& coord_of, Use&& use) {
  FetchSlots slots(par, ctx, slot, what);
  GlobalArray::NbHandle fh[2];
  pipelined_fetch(
      n, par.opt.overlap,
      [&](std::size_t i, std::size_t s) {
        fh[s] = arr.nbget(ctx, coord_of(i), slots.at(s));
      },
      [&](std::size_t, std::size_t s) { ctx.wait_transfer(fh[s]); },
      [&](std::size_t i, std::size_t s) { use(i, slots.at(s)); });
}

/// Write one finished output tile: a put, or with `accumulate` an acc
/// into what the tile holds. Nonblocking under ParOptions::overlap:
/// the buffer is consumed at issue, so reusing it next iteration is
/// safe, the wire time hides behind that iteration's compute, and the
/// phase barrier waits for whatever is still in flight.
void store(const Par& par, RankCtx& ctx, GlobalArray& out,
           std::span<const std::size_t> coord, const double* data,
           bool accumulate = false) {
  if (!par.opt.overlap) {
    if (accumulate)
      out.acc(ctx, coord, data);
    else
      out.put(ctx, coord, data);
  } else if (accumulate) {
    out.nbacc(ctx, coord, data);
  } else {
    out.nbput(ctx, coord, data);
  }
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
        // The put hides behind the next tile's integral evaluation.
        store(par, ctx, a, ti.coord, buf.data());
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
  // nt gemms over the contracted i range plus nt sym-tile fetches.
  run_claimed_phase(
      par, label, o1.n_tiles(), tile_owner_of(o1),
      contract_cost(par, o1, 0, par.n(), par.nt),
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = o1.tile_by_index(idx);
      const std::size_t lkl = ti.len[2] * ti.len[3];
      RankBuffer out(ctx, ti.elements, "O1 tile");
      FetchSlots abuf(par, ctx, max_tile, "A fetch");
      // Landing slots for mirrored A tiles, which stay in their stored
      // layout; charged as the model's transpose scratch.
      FetchSlots tbuf(par, ctx, max_tile, "A transpose");
      const std::size_t ta = ti.coord[0], tj = ti.coord[1];
      SymFetch fetch[2];
      pipelined_fetch(
          par.nt, par.opt.overlap,
          [&](std::size_t tii, std::size_t s) {
            Coord4 ac = {tii, tj, ti.coord[2], ti.coord[3]};
            fetch[s] =
                nbget_sym_tile(a, ctx, ac, 0, 1, abuf.at(s), tbuf.at(s));
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
      store(par, ctx, o1, ti.coord, out.data());
      });
}

/// Contraction 2 phase: O2[(ab),k,l] += sum_j O1[a,j,k,l] B[b,j].
void contract2(Par& par, const GlobalArray& o1, GlobalArray& o2,
               const std::string& label) {
  const std::size_t max_tile =
      par.t.max_width() * par.t.max_width() * o1.tiling(2).max_width() *
      o1.tiling(3).max_width();
  run_claimed_phase(
      par, label, o2.n_tiles(), tile_owner_of(o2),
      contract_cost(par, o2, 1, par.n(), par.nt),
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = o2.tile_by_index(idx);
      const std::size_t lkl = ti.len[2] * ti.len[3];
      RankBuffer out(ctx, ti.elements, "O2 tile");
      const std::size_t ta = ti.coord[0], tb = ti.coord[1];
      fetch_tiles(
          par, ctx, o1, par.nt, max_tile, "O1 fetch",
          [&](std::size_t tjj) {
            return Coord4{ta, tjj, ti.coord[2], ti.coord[3]};
          },
          [&](std::size_t tjj, const double* o1t) {
            const std::size_t lenj = par.t.len(tjj);
            ctx.charge_flops(
                gemm_flops(ti.len[1], lkl, lenj) * double(ti.len[0]));
            // One member per row a of the O1 tile; the B block is
            // shared.
            if (ctx.real())
              gemm_batched(Trans::No, Trans::No, ti.len[1], lkl, lenj, 1.0,
                           par.b() + par.t.lo(tb) * par.n() + par.t.lo(tjj),
                           par.n(), 0, o1t, lkl, lenj * lkl, 1.0,
                           out.data(), lkl, ti.len[1] * lkl, ti.len[0]);
          });
      store(par, ctx, o2, ti.coord, out.data());
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
  run_claimed_phase(
      par, label, o3.n_tiles(), tile_owner_of(o3),
      contract_cost(par, o3, 2, o2.tiling(2).extent(), par.nt),
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = o3.tile_by_index(idx);
      RankBuffer out(ctx, ti.elements, "O3 tile");
      FetchSlots o2buf(par, ctx, max_tile, "O2 fetch");
      // Landing slots for mirrored O2 tiles (see contract1).
      FetchSlots tbuf(par, ctx, max_tile, "O2 transpose");
      const std::size_t tc = ti.coord[2];
      SymFetch fetch[2];
      pipelined_fetch(
          par.nt, par.opt.overlap,
          [&](std::size_t tkk, std::size_t s) {
            Coord4 oc = {ti.coord[0], ti.coord[1], tkk,
                                ti.coord[3]};
            if (kl_symmetric) {
              fetch[s] = nbget_sym_tile(o2, ctx, oc, 2, 3, o2buf.at(s),
                                        tbuf.at(s));
            } else {
              fetch[s] = SymFetch{o2.nbget(ctx, oc, o2buf.at(s)), false,
                                  o2buf.at(s)};
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
      store(par, ctx, o3, ti.coord, out.data());
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
  const std::size_t nlt = o3.tiling(3).ntiles();
  run_claimed_phase(
      par, label, c.n_tiles(), tile_owner_of(c),
      contract_cost(par, c, 3, o3.tiling(3).extent(), nlt),
      [&](RankCtx& ctx, std::size_t idx) {
      const auto& ti = c.tile_by_index(idx);
      RankBuffer out(ctx, ti.elements, "C tile");
      const std::size_t td = ti.coord[3];
      fetch_tiles(
          par, ctx, o3, nlt, max_tile, "O3 fetch",
          [&](std::size_t tll) {
            return Coord4{ti.coord[0], ti.coord[1], ti.coord[2], tll};
          },
          [&](std::size_t tll, const double* o3t) {
            const std::size_t lenl = o3.tiling(3).len(tll);
            ctx.charge_flops(gemm_flops(ti.len[2], ti.len[3], lenl) *
                             double(ti.len[0] * ti.len[1]));
            // One member per (a b) row, sharing the B block: the rows
            // are contiguous, so the batch folds into one tall pass.
            if (ctx.real())
              gemm_batched(Trans::No, Trans::Yes, ti.len[2], ti.len[3], lenl,
                           1.0, o3t, lenl, ti.len[2] * lenl,
                           par.b() + par.t.lo(td) * par.n() + l_base +
                               o3.tiling(3).lo(tll),
                           par.n(), 0, 1.0, out.data(), ti.len[3],
                           ti.len[2] * ti.len[3], ti.len[0] * ti.len[1]);
          });
      store(par, ctx, c, ti.coord, out.data(), accumulate);
      });
}

/// The distributed C gathered into a PackedC, in Real mode with
/// gather_result; empty otherwise.
std::optional<tensor::PackedC> gather_c(const Par& par,
                                        const GlobalArray& c) {
  if (par.cl.mode() != runtime::ExecutionMode::Real || !par.opt.gather_result)
    return std::nullopt;
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

/// This run's statistics: the difference between now and the Par's
/// construction. Also records the run in the cluster registry: the
/// schedule's run count and times, and the kernel-engine work (gemm.*)
/// it triggered, next to the modeled compute.flops charges (Real mode
/// drives the blocked gemm; Simulate mode adds zeros).
ParStats finish(Par& par, const char* name) {
  auto& reg = par.cl.metrics();
  const Sums reg1 = reg.sums();
  ParStats s;
  s.schedule = name;
  for (const auto& [field, metric] : kRunCounters)
    s.*field = grown(par.reg0, reg1, metric);
  s.sim_time = par.cl.sim_time() - par.sim0;
  s.peak_global_bytes = par.cl.global_peak();
  // Worst per-phase imbalance of *this run* (the cluster-lifetime max
  // is Cluster::worst_imbalance); also published as the
  // sched.worst_imbalance gauge next to the scheduler counters.
  const auto& phases = par.cl.phases();
  for (std::size_t i = par.phases0; i < phases.size(); ++i)
    s.worst_imbalance = std::max(s.worst_imbalance, phases[i].imbalance);
  s.n_phases = phases.size() - par.phases0;
  s.wall_seconds = par.timer.seconds();
  const std::string prefix = std::string("schedule.") + name;
  reg.add(reg.counter(prefix + ".runs"), 0, 1);
  reg.add(reg.counter(prefix + ".sim_time_s"), 0, s.sim_time);
  reg.add(reg.counter(prefix + ".host_wall_s"), 0, s.wall_seconds);
  const Sums gemm1 = blas::gemm_metrics().sums();
  for (const char* g : {"gemm.calls", "gemm.flops", "gemm.pack_bytes"})
    reg.add(reg.counter(g), 0, grown(par.gemm0, gemm1, g));
  reg.set(par.id_sched_worst, 0, s.worst_imbalance);
  return s;
}

/// One batch member's C is final: record when, relative to the run's
/// start, and its gathered tensor.
void collect(const Par& par, const GlobalArray& c, BatchParResult& r) {
  r.member_done_s.push_back(par.cl.sim_time() - par.sim0);
  r.c.push_back(gather_c(par, c));
}

/// A schedule over a shared-basis batch: runs every member with its own
/// B from `member_b` and collect()s each member's C once it is final.
using BatchChain = void (*)(Par&, std::span<const tensor::Matrix>,
                            BatchParResult&);

/// Runs `chain` over `member_b` and reports the batch as `name`.
/// Members repeat the same phase shapes, so under Auto balance a
/// private memo (when the caller brought none) pays the six-candidate
/// claim DES once per phase. A batch of one repeats no phase, so the
/// memo changes nothing for a solo run.
BatchParResult run_batch(BatchChain chain, const char* name,
                         const Problem& p,
                         std::span<const tensor::Matrix> member_b,
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
  BatchParResult r;
  chain(par, member_b, r);
  r.stats = finish(par, name);
  return r;
}

/// A solo run: the problem's own B as the batch of one.
ParResult run_solo(BatchChain chain, const char* name, const Problem& p,
                   Cluster& cluster, const ParOptions& opt) {
  BatchParResult r = run_batch(chain, name, p, std::span(&p.b, 1), cluster,
                               opt);
  return {std::move(r.c.front()), std::move(r.stats)};
}

/// Listing 4 x4 over a shared-basis batch: A is filled — and its
/// integral evaluation paid — exactly once; each member then runs the
/// four contractions with its own B. A frees after the last member's
/// first contraction, and each member's C is gathered and freed before
/// the next member starts, so the live set never exceeds A plus one
/// member's chain.
void unfused_chain(Par& par, std::span<const tensor::Matrix> member_b,
                   BatchParResult& r) {
  Cluster& cluster = par.cl;
  auto a = alloc(cluster, spec_a(par));
  fill_a(par, *a, 0, "fill A");

  for (std::size_t m = 0; m < member_b.size(); ++m) {
    par.b_active = &member_b[m];

    auto o1 = alloc(cluster, spec_o1(par));
    contract1(par, *a, *o1, "c1");
    if (m + 1 == member_b.size()) a.reset();

    auto o2 = alloc(cluster, spec_o2(par));
    contract2(par, *o1, *o2, "c2");
    o1.reset();

    auto o3 = alloc(cluster, spec_o3(par));
    contract3(par, *o2, *o3, /*kl_symmetric=*/true, "c3");
    o2.reset();

    auto c = alloc(cluster, spec_c(par));
    contract4(par, *o3, *c, 0, /*accumulate=*/false, "c4");
    o3.reset();
    collect(par, *c, r);
  }
}

/// Listing 10 over a shared-basis batch: per l-slice the A slice is
/// produced once and every member replays the fused12 / fused34 phases
/// against it with its own B. Phase labels are per-slice but
/// member-invariant, so an Auto balance memo amortizes the claim DES
/// across members as well. Every member's C accumulates across every
/// slice, so all of them stay allocated for the whole run — the
/// memory/throughput trade check_capacity accounts for — and none is
/// final before the last slice.
void fused_inner_chain(Par& par, std::span<const tensor::Matrix> member_b,
                       BatchParResult& r) {
  Cluster& cluster = par.cl;
  std::vector<std::unique_ptr<GlobalArray>> cs;
  for (std::size_t m = 0; m < member_b.size(); ++m)
    cs.push_back(alloc(cluster, spec_c(par)));
  const ParOptions& opt = par.opt;
  const std::size_t n = par.n();
  const std::size_t nranks = cluster.n_ranks();
  const AlphaChunks chunks(par, opt, nranks);
  const std::size_t n_ac = chunks.n_ac;

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
    auto al = alloc(cluster, spec_a_l(par, llen));
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
    for (std::size_t mi = 0; mi < member_b.size(); ++mi) {
      par.b_active = &member_b[mi];

      auto o2 = alloc(cluster, chunks.o2_spec(par, llen));

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
          if (chunks.chunk_of[ta] != ac) continue;
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
            auto a_tile = [&](std::size_t q) {
              return Coord4{ij_tiles[q].first, ij_tiles[q].second,
                                   tk, 0};
            };
            const std::size_t tw = par.t.max_width();
            fetch_tiles(
                par, ctx, *al, ij_tiles.size(), tw * tw * m, "A fetch",
                a_tile, [&](std::size_t q, const double* src) {
                  if (!ctx.real()) return;
                  const auto& info = al->info(a_tile(q));
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
            // Alpha-tile chunk [ta0, ta1) assigned to chunk ac.
            for (std::size_t ta = 0; ta < par.nt; ++ta) {
              if (chunks.chunk_of[ta] != ac) continue;
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
                // The put hides behind the next (tb / ta) gemm.
                store(par, ctx, *o2, Coord4{ta, tb, tk, 0},
                      o2tile.data());
              }
            }
          });
      if (mi + 1 == member_b.size()) al.reset();

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
            auto o2_tile = [&](std::size_t tk) {
              return Coord4{ta, tb, tk, 0};
            };
            const std::size_t tw = par.t.max_width();
            fetch_tiles(
                par, ctx, *o2, par.nt, tw * tw * tw * llen, "O2 fetch",
                o2_tile, [&](std::size_t tk, const double* src) {
                  if (!ctx.real()) return;
                  const auto& info = o2->info(o2_tile(tk));
                  for (std::size_t ia = 0; ia < lena; ++ia)
                    for (std::size_t ib = 0; ib < lenb; ++ib)
                      for (std::size_t k = info.lo[2];
                           k < info.lo[2] + info.len[2]; ++k)
                        for (std::size_t ll = 0; ll < llen; ++ll)
                          bufo2.data()[((ia * lenb + ib) * n + k) * llen +
                                       ll] = *src++;
                });
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
                // The accumulate lands at issue (under the GA acc
                // mutex) and hides behind the next (tc,td) tile's gemm.
                store(par, ctx, *cs[mi], Coord4{ta, tb, tc, td},
                      ctile.data(), /*accumulate=*/true);
              }
          });
      o2.reset();
    }
  }
  for (auto& c : cs) {
    collect(par, *c, r);
    c.reset();
  }
}

}  // namespace

CapacityView CapacityView::live(const runtime::Cluster& cluster) {
  CapacityView v;
  for (std::size_t r = 0; r < cluster.n_ranks(); ++r) {
    const auto& mem = cluster.memory(r);
    v.free_bytes.push_back(mem.capacity() - mem.used());
    v.live_owner.push_back(cluster.live_owner(r));
  }
  return v;
}

CapacityView CapacityView::idle(const runtime::MachineConfig& machine) {
  CapacityView v{std::vector<double>(machine.n_ranks(),
                                     machine.mem_per_rank_bytes()),
                 std::vector<std::size_t>(machine.n_ranks())};
  std::iota(v.live_owner.begin(), v.live_owner.end(), std::size_t{0});
  return v;
}

CapacityCheck check_capacity(const Problem& p, Chain chain,
                             std::size_t members, const ParOptions& opt,
                             const CapacityView& view) {
  const std::size_t nranks = view.free_bytes.size();
  FIT_REQUIRE(members >= 1 && nranks >= 1 &&
                  view.live_owner.size() == nranks,
              "capacity check needs >= 1 member and a view of every rank");
  const Grid g(p, opt.tile);
  // One array's bytes on each rank, tile by tile, as GlobalArray's
  // constructor would place them.
  auto bytes_of = [&](const ArraySpec& s) {
    std::vector<double> b(nranks, 0.0);
    ga::for_each_tile(s.dims, s.filter, s.owner, nranks,
                      [&](std::span<const std::size_t>, std::size_t,
                          std::size_t elements, std::size_t nominal) {
                        b[view.live_owner[nominal]] += 8.0 * double(elements);
                      });
    return b;
  };
  // Replays the chain's allocations (sign +1) and frees (-1); an
  // allocation is where a rank's live bytes can peak.
  std::vector<double> live(nranks, 0.0), peak(nranks, 0.0);
  double agg_live = 0, agg_peak = 0;
  auto charge = [&](const std::vector<double>& b, double sign) {
    for (std::size_t r = 0; r < nranks; ++r) {
      live[r] += sign * b[r];
      agg_live += sign * b[r];
      peak[r] = std::max(peak[r], live[r]);
    }
    agg_peak = std::max(agg_peak, agg_live);
  };
  if (chain == Chain::Unfused) {
    // unfused_chain: A, then per member O1 (A frees after the last
    // member's c1), O2, O3 and C, each freeing its input once written.
    const auto a = bytes_of(spec_a(g)), o1 = bytes_of(spec_o1(g)),
               o2 = bytes_of(spec_o2(g)), o3 = bytes_of(spec_o3(g)),
               c = bytes_of(spec_c(g));
    charge(a, 1);
    for (std::size_t m = 0; m < members; ++m) {
      charge(o1, 1);
      if (m + 1 == members) charge(a, -1);
      charge(o2, 1);
      charge(o1, -1);
      charge(o3, 1);
      charge(o2, -1);
      charge(c, 1);
      charge(o3, -1);
      charge(c, -1);
    }
  } else {
    // fused_inner_chain: every member's C for the whole run; per slice
    // A_l, then per member one O2_l (A_l frees after the last member's
    // fused12). Slices of equal width allocate the same arrays.
    const AlphaChunks chunks(g, opt, nranks);
    const auto c = bytes_of(spec_c(g));
    for (std::size_t m = 0; m < members; ++m) charge(c, 1);
    const Tiling lt(p.n(), std::min(opt.tile_l, p.n()));
    for (std::size_t sl = 0; sl < lt.ntiles(); ++sl) {
      if (sl > 0 && lt.len(sl) == lt.len(sl - 1)) continue;
      const auto al = bytes_of(spec_a_l(g, lt.len(sl)));
      const auto o2 = bytes_of(chunks.o2_spec(g, lt.len(sl)));
      charge(al, 1);
      for (std::size_t m = 0; m < members; ++m) {
        charge(o2, 1);
        if (m + 1 == members) charge(al, -1);
        charge(o2, -1);
      }
    }
  }
  CapacityCheck out;
  out.aggregate_peak_bytes = agg_peak;
  double worst = -1;
  for (std::size_t r = 0; r < nranks; ++r) {
    if (view.live_owner[r] != r) continue;  // dead: holds nothing
    const double free = view.free_bytes[r];
    out.fits = out.fits && peak[r] <= free;
    const double load =
        peak[r] <= 0 ? 0.0
        : free <= 0  ? std::numeric_limits<double>::infinity()
                     : peak[r] / free;
    if (load > worst) {
      worst = load;
      out.busiest_rank = r;
      out.busiest_peak_bytes = peak[r];
      out.busiest_free_bytes = free;
    }
  }
  return out;
}

std::string to_string(const CapacityCheck& check) {
  return "rank " + std::to_string(check.busiest_rank) + " peaks at " +
         human_bytes(check.busiest_peak_bytes) +
         " of Global-Array memory against its " +
         human_bytes(check.busiest_free_bytes) + " free";
}

ParResult unfused_par_transform(const Problem& p, Cluster& cluster,
                                const ParOptions& opt) {
  return run_solo(unfused_chain, "unfused", p, cluster, opt);
}

ParResult fused_par_transform(const Problem& p, Cluster& cluster,
                              const ParOptions& opt) {
  Par par(p, cluster, opt);
  auto c = alloc(cluster, spec_c(par));

  const Tiling lt(par.n(), std::min(opt.tile_l, par.n()));
  for (std::size_t sl = 0; sl < lt.ntiles(); ++sl) {
    const std::size_t llo = lt.lo(sl);
    const std::size_t llen = lt.len(sl);
    const std::string tag = " [l-slice " + std::to_string(sl) + "]";
    const std::vector<Tiling> sdims = slice_dims(par, llen);

    auto al = alloc(cluster, spec_a_l(par, llen));
    fill_a(par, *al, llo, "fill A" + tag);

    auto o1 = alloc(cluster, {"O1_l", sdims, {}});
    contract1(par, *al, *o1, "c1" + tag);
    al.reset();

    auto o2 = alloc(cluster, {"O2_l", sdims, ga::filter_triangular(0, 1)});
    contract2(par, *o1, *o2, "c2" + tag);
    o1.reset();

    auto o3 = alloc(cluster, {"O3_l", sdims, ga::filter_triangular(0, 1)});
    contract3(par, *o2, *o3, /*kl_symmetric=*/false, "c3" + tag);
    o2.reset();

    contract4(par, *o3, *c, llo, /*accumulate=*/true, "c4" + tag);
    o3.reset();
  }
  return {gather_c(par, *c), finish(par, "fused")};
}

ParResult fused_inner_par_transform(const Problem& p, Cluster& cluster,
                                    const ParOptions& opt) {
  return run_solo(fused_inner_chain, "fused-inner", p, cluster, opt);
}

BatchParResult batched_unfused_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    Cluster& cluster, const ParOptions& opt) {
  return run_batch(unfused_chain, "batched-unfused", p, member_b, cluster,
                   opt);
}

BatchParResult batched_fused_inner_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    Cluster& cluster, const ParOptions& opt) {
  return run_batch(fused_inner_chain, "batched-fused-inner", p, member_b,
                   cluster, opt);
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

ParResult resilient_transform(const Problem& p, Cluster& cluster,
                              const ParOptions& opt) {
  const CapacityCheck fit = check_capacity(p, Chain::Unfused, 1, opt,
                                           CapacityView::live(cluster));
  if (fit.fits) {
    try {
      auto r = unfused_par_transform(p, cluster, opt);
      r.stats.schedule = "resilient(unfused)";
      return r;
    } catch (const OutOfMemoryError& e) {
      // A capacity-shrink fault or rank death invalidated the choice
      // mid-run. The intermediates' GAs have been rolled back; degrade
      // along Thm 5.2's order to the O(n^3 Tl) fused-inner schedule
      // and recompute from the integrals.
      auto& reg = cluster.metrics();
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
  r.stats.note = "unfused chain does not fit: " + to_string(fit);
  return r;
}

// ---- NWChem baseline models (see schedules_baseline.hpp) ------------

ParResult nwchem_unfused_par_transform(const Problem& p, Cluster& cluster,
                                       const ParOptions& opt) {
  Par par(p, cluster, opt);

  // Production behaviour: every tensor is allocated up front and kept
  // until the end — the ~1.5 n^4 aggregate footprint.
  auto a = alloc(cluster, spec_a(par));
  auto o1 = alloc(cluster, spec_o1(par));
  auto o2 = alloc(cluster, spec_o2(par));
  auto o3 = alloc(cluster, spec_o3(par));
  auto c = alloc(cluster, spec_c(par));

  fill_a(par, *a, 0, "fill A");
  contract1(par, *a, *o1, "c1");
  contract2(par, *o1, *o2, "c2");
  contract3(par, *o2, *o3, /*kl_symmetric=*/true, "c3");
  contract4(par, *o3, *c, 0, /*accumulate=*/false, "c4");

  return {gather_c(par, *c), finish(par, "nwchem-unfused")};
}

ParResult nwchem_recompute_par_transform(const Problem& p, Cluster& cluster,
                                         const ParOptions& opt) {
  Par par(p, cluster, opt);
  const std::size_t n = par.n();
  const std::size_t np = tensor::npairs(n);
  const std::size_t nranks = cluster.n_ranks();
  auto c = alloc(cluster, spec_c(par));

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
            c->acc(ctx, Coord4{ta, tb, tc, td}, ctile.data());
          }
      });
  return {gather_c(par, *c), finish(par, "nwchem-recompute")};
}

}  // namespace fit::core
