// Chaos soak: a full Real-mode transform under layered, seeded fault
// storms — node kills, checkpoint corruption, checkpoint-I/O faults,
// disk degradation, transient one-sided failures — each seed asserting
// the recovered result is bit-identical to a clean run.
//
// Per seed the storm is a pure function of FOURINDEX_CHAOS_SEED (or
// the built-in seed list), so a CI failure replays exactly. Two
// deterministic guarantees are checked, not just "it finished":
//   - result_checksum (and max_abs_diff == 0) against the clean run:
//     recovery restored verified data, it did not zero-fill;
//   - recovery.fallback_epochs > 0 on every corrupting seed (the
//     newest generation was rotted, so restores provably came from an
//     older verified epoch) and == 0 on the no-corruption control.
// The jq gates in the chaos-soak CI job key on the soak.* scalars.
//
// A separate, fault-free measurement prices checkpointing on the host:
// soak.ckpt_host_overhead_ratio is the process CPU time of a
// checkpointed fused transform over the same transform without
// recovery, in perfbench ckpt-real's shape (n = 32, s = 4, tile 8,
// tile_l 4) on the soak's machine. Each rep runs both sides,
// alternating which goes first; the scalar is the median of the
// per-rep ratios over 5 reps (3 under FOURINDEX_BENCH_SMOKE). A store
// whose host cost follows the dirty set reads well under the CI bar.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "obs/bench_json.hpp"
#include "runtime/cluster.hpp"
#include "runtime/faults.hpp"
#include "runtime/machine.hpp"
#include "tensor/packed.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace fit;

// Same 32-bit FNV-1a fold convention as bench_gemm: exactly
// representable as a JSON number, equal folds = bit-identical tensors.
double result_checksum(const tensor::PackedC& c) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const std::size_t n = c.n();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      for (std::size_t cc = 0; cc < n; ++cc)
        for (std::size_t d = 0; d < n; ++d) {
          const double v = c.get(a, b, cc, d);
          h = util::fnv1a_bytes(&v, sizeof v, h);
        }
  return static_cast<double>((h >> 32) ^ (h & 0xffffffffull));
}

struct Storm {
  runtime::FaultInjector inj;
  std::size_t kill_phase = 0;
  std::size_t domain = 0;
  bool corrupt = true;
};

// The fused schedule runs five phases per l-slice (fill A, c1..c4) and
// keeps the C accumulator alive across all slices, so from the second
// slice on the newest checkpoint generation holds *carried* C copies —
// data at rest, the kind bit rot strikes and walk-back must cover.
// (The unfused schedule can never need walk-back: every intermediate
// is freshly rewritten in the generation preceding its only use.)
constexpr std::size_t kPhasesPerSlice = 5;

// Deterministic storm for one seed: the node kill (and the newest-
// generation rot) land at a mid-slice barrier of slice >= 1, where the
// dead domain's C tiles can only be rebuilt from an older verified
// epoch.
Storm make_storm(std::uint64_t seed, std::size_t n_slices,
                 std::size_t n_domains, std::size_t n_ranks, bool corrupt) {
  Storm s;
  s.inj = runtime::FaultInjector(seed);
  s.corrupt = corrupt;
  SplitMix64 g(seed * 0x9E3779B97F4A7C15ull + 0xC4A05);
  const std::size_t slice = 1 + g.next_below(n_slices - 1);
  // Boundaries of c2/c3/c4: the generation published one phase earlier
  // (end of c1/c2/c3) carries C unchanged since the previous slice.
  s.kill_phase = kPhasesPerSlice * slice + 2 + g.next_below(3);
  s.domain = g.next_below(n_domains);

  runtime::FaultEvent kill;
  kill.kind = runtime::FaultKind::KillNode;
  kill.phase = s.kill_phase;
  kill.rank = s.domain;  // domain index for KillNode
  s.inj.schedule(kill);

  if (corrupt) {
    // Rot every at-rest copy in the newest generation at the same
    // barrier the node dies: the restores that rebuild the dead
    // domain MUST walk back to the previous verified epoch.
    runtime::FaultEvent rot;
    rot.kind = runtime::FaultKind::CkptCorrupt;
    rot.phase = s.kill_phase;
    rot.count = SIZE_MAX;
    rot.depth = 1;
    s.inj.schedule(rot);

    // A couple of checkpoint-I/O faults shortly before the kill; the
    // bounded retry+backoff path must absorb them.
    runtime::FaultEvent io;
    io.kind = runtime::FaultKind::CkptIo;
    io.phase = s.kill_phase - 1;
    io.count = 1 + g.next_below(2);
    s.inj.schedule(io);
  }

  runtime::FaultEvent slow;
  slow.kind = runtime::FaultKind::DiskDegrade;
  slow.phase = 1 + g.next_below(2);
  slow.factor = 0.6;
  s.inj.schedule(slow);

  runtime::FaultEvent flaky;
  flaky.kind = runtime::FaultKind::TransientOp;
  flaky.phase = 1 + g.next_below(2);
  flaky.rank = g.next_below(n_ranks);
  flaky.count = 1;
  s.inj.schedule(flaky);
  return s;
}

// Per-rep CPU seconds of the checkpointed and the plain fused run, and
// their ratios (see the header).
struct HostOverhead {
  std::vector<double> ckpt_s, clean_s, ratios;
};

HostOverhead ckpt_host_overhead(const runtime::MachineConfig& m,
                                std::size_t reps) {
  const auto p =
      core::make_problem(chem::custom_molecule("ckpt-host", 32, 4, 51));
  core::ParOptions o;
  o.tile = 8;
  o.tile_l = 4;
  o.gather_result = true;
  // Pinned, so the reading does not follow FOURINDEX_CKPT_*.
  runtime::CheckpointConfig cfg;
  cfg.keep_epochs = 2;
  cfg.delta = 1;
  auto run = [&](bool ckpt) {
    const double t0 = process_cpu_seconds();
    {
      runtime::Cluster cl(m, runtime::ExecutionMode::Real);
      if (ckpt) cl.enable_recovery(cfg);
      core::fused_par_transform(p, cl, o);
    }
    return process_cpu_seconds() - t0;
  };
  run(true);  // warm-up: integral tables, packing buffers
  run(false);
  HostOverhead h;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const bool ckpt_first = rep % 2 == 0;
    const double first = run(ckpt_first);
    const double second = run(!ckpt_first);
    h.ckpt_s.push_back(ckpt_first ? first : second);
    h.clean_s.push_back(ckpt_first ? second : first);
    h.ratios.push_back(h.ckpt_s.back() / h.clean_s.back());
  }
  return h;
}

}  // namespace

int main() {
  using namespace fit;
  obs::BenchReport report("bench_chaos_soak");

  const bool smoke = std::getenv("FOURINDEX_BENCH_SMOKE") != nullptr;
  const std::size_t n = smoke ? 10 : 12;

  auto p = core::make_problem(chem::custom_molecule("chaotic", n, 2, 51));
  core::ParOptions o;
  o.tile = 4;
  o.tile_l = 4;
  o.gather_result = true;

  runtime::MachineConfig m;
  m.name = "chaos-soak";
  m.n_nodes = 4;
  m.ranks_per_node = 2;
  m.mem_per_node_bytes = 2e9;
  m.flops_per_rank = 1e9;
  m.integrals_per_sec = 1e8;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 2e-6;
  m.local_bandwidth_bps = 1e10;
  m.disk_bandwidth_bps = 1e9;  // checkpoint/restore target
  m.disk_latency_s = 1e-3;

  // Reference: clean Real-mode run. Its checksum is the contract every
  // storm survivor must reproduce bit-for-bit.
  runtime::Cluster clean(m, runtime::ExecutionMode::Real);
  const auto base = core::fused_par_transform(p, clean, o);
  if (!base.c) {
    std::cerr << "chaos soak: clean run produced no gathered result\n";
    return 1;
  }
  const double clean_sum = result_checksum(*base.c);

  // Second reference: fault-free but checkpointing. Storm overheads
  // are measured against this run, so the ratio isolates what the
  // *recovery* cost (restores, retries, walk-backs, re-execution) —
  // not the steady-state checkpoint traffic every run pays.
  runtime::Cluster ckpt_cl(m, runtime::ExecutionMode::Real);
  ckpt_cl.enable_recovery();
  const auto ckpt_ref = core::fused_par_transform(p, ckpt_cl, o);
  if (!ckpt_ref.c || ckpt_ref.c->max_abs_diff(*base.c) != 0.0) {
    std::cerr << "chaos soak: checkpointing alone changed the result\n";
    return 1;
  }
  const double delta_dirty =
      ckpt_cl.metrics().sum("checkpoint.dirty_fraction");

  // Full-copy comparator: the same fault-free checkpointing run with
  // delta checkpointing off (every live tile rewritten each epoch).
  // The storm legs below run under both policies; the CI gate asserts
  // the delta overhead ratio stays below this baseline's.
  runtime::CheckpointConfig fullcopy_cfg;
  fullcopy_cfg.delta = 0;
  runtime::Cluster fc_cl(m, runtime::ExecutionMode::Real);
  fc_cl.enable_recovery(fullcopy_cfg);
  const auto fc_ref = core::fused_par_transform(p, fc_cl, o);
  if (!fc_ref.c || fc_ref.c->max_abs_diff(*base.c) != 0.0) {
    std::cerr << "chaos soak: full-copy checkpointing changed the result\n";
    return 1;
  }

  const std::size_t n_slices = (n + o.tile_l - 1) / o.tile_l;
  if (n_slices < 2 || base.stats.n_phases != kPhasesPerSlice * n_slices) {
    std::cerr << "chaos soak: unexpected phase structure ("
              << base.stats.n_phases << " phases, " << n_slices
              << " slices)\n";
    return 1;
  }

  // Seed list: FOURINDEX_CHAOS_SEED pins one seed (the CI matrix loops
  // it over 1..10); otherwise soak a built-in range.
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("FOURINDEX_CHAOS_SEED")) {
    const auto v = util::parse_int(env);
    if (!v || *v < 1) {
      std::cerr << "chaos soak: bad FOURINDEX_CHAOS_SEED '" << env << "'\n";
      return 1;
    }
    seeds.push_back(static_cast<std::uint64_t>(*v));
  } else {
    for (std::uint64_t s = 1; s <= (smoke ? 3u : 10u); ++s)
      seeds.push_back(s);
  }

  std::size_t mismatches = 0, no_fallback = 0;
  double max_overhead = 0.0, fallback_total = 0.0, verify_fail_total = 0.0;
  double io_retry_total = 0.0, zero_fill_total = 0.0, domain_kill_total = 0.0;
  double fc_max_overhead = 0.0;

  TextTable t({"seed", "kill phase", "domain", "overhead", "fullcopy ovh",
               "fallback", "verify fails", "io retries", "max |diff|"});

  for (const std::uint64_t seed : seeds) {
    runtime::Cluster storm_cl(m, runtime::ExecutionMode::Real);
    storm_cl.enable_recovery();
    Storm storm = make_storm(seed, n_slices, storm_cl.n_domains(),
                             m.n_ranks(), /*corrupt=*/true);
    storm_cl.install_faults(storm.inj);
    const auto hit = core::fused_par_transform(p, storm_cl, o);

    const double diff = hit.c ? hit.c->max_abs_diff(*base.c) : -1.0;
    const bool identical = hit.c && diff == 0.0;
    if (!identical) ++mismatches;
    if (hit.stats.recovery_fallback_epochs <= 0.0) ++no_fallback;
    const double overhead = hit.stats.sim_time / ckpt_ref.stats.sim_time;
    max_overhead = std::max(max_overhead, overhead);
    fallback_total += hit.stats.recovery_fallback_epochs;
    verify_fail_total += hit.stats.ckpt_verify_failures;
    domain_kill_total += hit.stats.fault_domain_kills;
    const auto& reg = storm_cl.metrics();
    io_retry_total += reg.sum("checkpoint.io_retries");
    zero_fill_total += reg.sum("checkpoint.zero_fills");

    // The identical storm under full-copy checkpointing: bigger epoch
    // writes hit the degraded disk every slice, so its overhead ratio
    // bounds the delta policy's from above — the saving the delta
    // gate measures.
    runtime::Cluster fc_storm_cl(m, runtime::ExecutionMode::Real);
    fc_storm_cl.enable_recovery(fullcopy_cfg);
    Storm fc_storm = make_storm(seed, n_slices, fc_storm_cl.n_domains(),
                                m.n_ranks(), /*corrupt=*/true);
    fc_storm_cl.install_faults(fc_storm.inj);
    const auto fc_hit = core::fused_par_transform(p, fc_storm_cl, o);
    if (!fc_hit.c || fc_hit.c->max_abs_diff(*base.c) != 0.0) ++mismatches;
    const double fc_overhead =
        fc_hit.stats.sim_time / fc_ref.stats.sim_time;
    fc_max_overhead = std::max(fc_max_overhead, fc_overhead);

    t.add_row({std::to_string(seed), std::to_string(storm.kill_phase),
               std::to_string(storm.domain), fmt_fixed(overhead, 3),
               fmt_fixed(fc_overhead, 3),
               fmt_fixed(hit.stats.recovery_fallback_epochs, 0),
               fmt_fixed(hit.stats.ckpt_verify_failures, 0),
               fmt_fixed(reg.sum("checkpoint.io_retries"), 0),
               fmt_fixed(diff, 1)});
    if (seed == seeds.back()) report.add_metrics("storm", reg);
  }

  // Control: the same kill without corruption or I/O faults. The
  // newest generation stays intact, so every restore must come from
  // it — any fallback here would mean walk-back triggers spuriously.
  runtime::Cluster ctrl_cl(m, runtime::ExecutionMode::Real);
  ctrl_cl.enable_recovery();
  Storm ctrl = make_storm(seeds.front(), n_slices, ctrl_cl.n_domains(),
                          m.n_ranks(), /*corrupt=*/false);
  ctrl_cl.install_faults(ctrl.inj);
  const auto calm = core::fused_par_transform(p, ctrl_cl, o);
  const double ctrl_diff = calm.c ? calm.c->max_abs_diff(*base.c) : -1.0;
  if (!(calm.c && ctrl_diff == 0.0)) ++mismatches;
  const double ctrl_fallback = calm.stats.recovery_fallback_epochs;

  t.print("chaos soak (fused, Real mode, n = " + std::to_string(n) +
          ", " + std::to_string(m.n_ranks()) + " ranks, " +
          std::to_string(seeds.size()) + " seeds)");
  report.add_table("chaos soak", t);

  const HostOverhead host = ckpt_host_overhead(m, smoke ? 3 : 5);
  const double host_ratio = median(host.ratios);
  TextTable ht({"rep", "first", "ckpt CPU ms", "plain CPU ms", "ratio"});
  for (std::size_t r = 0; r < host.ratios.size(); ++r)
    ht.add_row({std::to_string(r), r % 2 == 0 ? "ckpt" : "plain",
                fmt_fixed(1e3 * host.ckpt_s[r], 1),
                fmt_fixed(1e3 * host.clean_s[r], 1),
                fmt_fixed(host.ratios[r], 3)});
  ht.print("checkpoint host overhead (fault-free fused, n = 32, tile 8, "
           "CPU clock; median ratio " + fmt_fixed(host_ratio, 3) + ")");
  report.add_table("checkpoint host overhead", ht);

  report.add_scalar("soak.seeds", double(seeds.size()));
  report.add_scalar("soak.mismatches", double(mismatches));
  report.add_scalar("soak.corrupt_runs_without_fallback",
                    double(no_fallback));
  report.add_scalar("soak.max_overhead_ratio", max_overhead);
  report.add_scalar("soak.fullcopy_max_overhead_ratio", fc_max_overhead);
  report.add_scalar("clean.sim_time_s", base.stats.sim_time);
  report.add_scalar("ckpt.sim_time_s", ckpt_ref.stats.sim_time);
  report.add_scalar("ckpt.fullcopy_sim_time_s", fc_ref.stats.sim_time);
  report.add_scalar("checkpoint.dirty_fraction", delta_dirty);
  report.add_scalar("soak.result_checksum", clean_sum);
  report.add_scalar("recovery.fallback_epochs", fallback_total);
  report.add_scalar("checkpoint.verify_failures", verify_fail_total);
  report.add_scalar("checkpoint.io_retries", io_retry_total);
  report.add_scalar("checkpoint.zero_fills", zero_fill_total);
  report.add_scalar("fault.domain_kills", domain_kill_total);
  report.add_scalar("nocorrupt.fallback_epochs", ctrl_fallback);
  report.add_scalar("soak.ckpt_host_overhead_ratio", host_ratio);
  report.add_note("every seed kills a whole node at a random barrier and "
                  "rots the newest checkpoint generation; survivors must "
                  "reproduce the clean result bit-for-bit from older "
                  "verified epochs (fallback > 0), never by zero-filling");

  const bool bad = mismatches > 0 || no_fallback > 0 ||
                   zero_fill_total > 0.0 || ctrl_fallback > 0.0 ||
                   max_overhead > fc_max_overhead;
  std::cout << "chaos soak: " << seeds.size() << " storms, "
            << mismatches << " mismatches, "
            << fmt_fixed(fallback_total, 0) << " fallback epochs ("
            << fmt_fixed(ctrl_fallback, 0) << " on the no-corruption "
            << "control), worst overhead " << fmt_fixed(max_overhead, 3)
            << "x delta vs " << fmt_fixed(fc_max_overhead, 3)
            << "x full-copy, checkpoint host overhead "
            << fmt_fixed(host_ratio, 2) << "x -> " << (bad ? "FAIL" : "ok")
            << "\n";
  report.write();
  return bad ? 1 : 0;
}
