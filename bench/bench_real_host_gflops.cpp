// Host GFLOP/s of the Real-mode schedules on one lane, read on the
// process CPU clock: the three distributed schedules (Listings 4, 8
// and 10 on a 16-rank System C) and the sequential unfused schedule
// (Listing 1), all on the same n = 32, s = 4, tile 8 problem. Each
// schedule is credited with its own flop count. The distributed path
// issues many small tile contractions; this bench tracks how close it
// runs to the sequential schedule's large GEMMs.
//
// The reps of the four schedules interleave, and each schedule reports
// its median rep, so a slow stretch of the host moves all four alike.
// The GEMM engine runs on one lane; run the bench with
// FOURINDEX_THREADS unset so these clusters execute their ranks on one
// host thread too (the CPU clock counts every thread either way) and
// the Simulate section below gets its two lanes.
//
// A second measurement times the integral fill alone on wall clocks:
// every tile of the packed A grid (ti >= tj, tk >= tl) of the same
// problem, filled with IntegralEngine::fill_block on the calling thread
// and again split by tile over a two-lane util::ThreadPool built once.
// Each side runs the same number of sweeps, calibrated so a two-lane
// window takes at least 30 ms (each side stays above 20 ms through host
// noise), and each rep reports one-lane wall over two-lane wall. A fill
// that writes shared state per element (an evaluation counter, say)
// bounces a cache line between the lanes and reads below 1.
//
// A third measurement prices Simulate mode's bookkeeping: the
// fused-inner transform of C60H20 on System B x2 at tile 4, with auto
// balance and a warm BalanceCache (the service's path for a repeated
// request), on a one-lane and on a two-lane cluster. Each rep runs both
// sides, alternating which goes first, and reports two-lane CPU over
// one-lane CPU: the modelled work is the same, so state the lanes share
// per op (a lock, a counter, a cache line) reads above 1.
//
// Scalars: real.<schedule>.host_gflops for par_unfused, par_fused,
// par_fused_inner and seq_unfused, real.<schedule>.gemm_calls (engine
// calls per transform), real.par_fused_inner_vs_seq,
// real.fill.two_lane_speedup (median over the reps),
// sim.two_lane_cpu_ratio (median over the reps), sim.two_lane.lanes
// (the host threads the two-lane cluster got; 1 under
// FOURINDEX_THREADS=1, where the ratio means nothing) and
// sim.host_ns_per_ga_op (one-lane CPU per one-sided GA op). CI's
// bench-smoke job gates the three ratios (>= 0.5, >= 1.3 and <= 1.3 on
// two lanes). FOURINDEX_BENCH_SMOKE=1 runs fewer reps.
//
// glibc's malloc moves its mmap and trim thresholds as a process frees
// large blocks, so where a transform's big buffers come from (and how
// many fresh pages it faults on the CPU clock) would depend on what
// ran before it. The bench pins both thresholds first.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "blas/tune.hpp"
#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/transform.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "tensor/tiling.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace fit;

struct Sample {
  double flops = 0;       // the schedule's own flop count
  double gemm_calls = 0;  // engine calls per transform
  std::vector<double> cpu_s;
};

struct FillTiming {
  double one_lane_s = 0, two_lane_s = 0;  // medians of one window each
  double elements = 0;                    // per window
  double speedup = 0;                     // median of per-rep ratios
};

/// One-lane vs two-lane wall time to fill every tile of the packed A
/// grid (see the file comment).
FillTiming time_fill(const chem::IntegralEngine& engine, std::size_t tile,
                     int reps) {
  struct Box {
    chem::IntegralEngine::Index4 lo, len;
  };
  const tensor::Tiling t(engine.n(), tile);
  std::vector<Box> boxes;
  double elements = 0;
  for (std::size_t ti = 0; ti < t.ntiles(); ++ti)
    for (std::size_t tj = 0; tj <= ti; ++tj)
      for (std::size_t tk = 0; tk < t.ntiles(); ++tk)
        for (std::size_t tl = 0; tl <= tk; ++tl) {
          boxes.push_back({{t.lo(ti), t.lo(tj), t.lo(tk), t.lo(tl)},
                           {t.len(ti), t.len(tj), t.len(tk), t.len(tl)}});
          elements += static_cast<double>(t.len(ti) * t.len(tj) *
                                          t.len(tk) * t.len(tl));
        }
  const std::size_t tile_max = t.max_width() * t.max_width() *
                               t.max_width() * t.max_width();
  std::vector<double> out[2] = {std::vector<double>(tile_max),
                                std::vector<double>(tile_max)};
  std::size_t sweeps = 1;
  // Lane `lane` of `lanes` fills every lanes-th tile, `sweeps` times.
  auto fill = [&](std::size_t lane, std::size_t lanes) {
    for (std::size_t s = 0; s < sweeps; ++s)
      for (std::size_t b = lane; b < boxes.size(); b += lanes)
        engine.fill_block(boxes[b].lo, boxes[b].len, out[lane].data());
  };
  util::ThreadPool pool(2);
  auto one_lane = [&] {
    WallTimer w;
    fill(0, 1);
    return w.seconds();
  };
  auto two_lanes = [&] {
    WallTimer w;
    pool.run_tasks(2, [&](std::size_t lane) { fill(lane, 2); });
    return w.seconds();
  };
  while (two_lanes() < 0.03) sweeps *= 2;

  std::vector<double> t1, t2, ratio;
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate which side goes first, so drift hits both alike.
    double one = 0, two = 0;
    if (rep % 2) {
      two = two_lanes();
      one = one_lane();
    } else {
      one = one_lane();
      two = two_lanes();
    }
    t1.push_back(one);
    t2.push_back(two);
    ratio.push_back(one / two);
  }
  return {median(t1), median(t2), elements * static_cast<double>(sweeps),
          median(ratio)};
}

struct SimLanes {
  double one_lane_s = 0, two_lane_s = 0;  // medians of one transform each
  double ratio = 0;         // median of per-rep two-lane / one-lane CPU
  double ga_ops = 0;        // one-sided GA ops per transform
  std::size_t lanes = 0;    // host threads the two-lane cluster got
};

/// One-lane vs two-lane CPU of a Simulate fused-inner transform (see
/// the file comment).
SimLanes time_sim_lanes(int reps) {
  const core::Problem p = core::make_problem(chem::paper_molecule("C60H20"));
  core::BalanceCache memo;
  core::ParOptions o;
  o.tile = 4;
  o.balance = ga::Balance::Auto;
  o.balance_cache = &memo;
  SimLanes out;
  auto run = [&](std::size_t threads) {
    runtime::Cluster cl(runtime::system_b(2),
                        runtime::ExecutionMode::Simulate, threads);
    const double t0 = process_cpu_seconds();
    core::fused_inner_par_transform(p, cl, o);
    const double secs = process_cpu_seconds() - t0;
    const runtime::CommStats tot = cl.totals();
    out.ga_ops = tot.ga_gets + tot.ga_puts + tot.ga_accs;
    if (threads > 1) out.lanes = cl.host_threads();
    return secs;
  };
  run(1);  // fills the memo: every timed rep replays its picks
  std::vector<double> t1, t2, ratio;
  for (int rep = 0; rep < reps; ++rep) {
    double one = 0, two = 0;
    if (rep % 2) {
      two = run(2);
      one = run(1);
    } else {
      one = run(1);
      two = run(2);
    }
    t1.push_back(one);
    t2.push_back(two);
    ratio.push_back(two / one);
  }
  out.one_lane_s = median(t1);
  out.two_lane_s = median(t2);
  out.ratio = median(ratio);
  return out;
}

}  // namespace

int main() {
#if defined(__GLIBC__)
  // Pin the thresholds glibc would otherwise move (see the file
  // comment): blocks up to 32 MiB come from the heap, and freed heap
  // stays mapped for the next transform.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  const char* smoke_env = std::getenv("FOURINDEX_BENCH_SMOKE");
  const bool smoke = smoke_env && smoke_env[0] == '1';
  const int reps = smoke ? 5 : 11;

  blas::GemmConfig one = blas::gemm_config();
  one.threads = 1;
  blas::set_gemm_config(one);

  const core::Problem p =
      core::make_problem(chem::custom_molecule("dist-real", 32, 4));
  struct Entry {
    const char* key;
    const char* label;
    core::Schedule schedule;
  };
  const Entry entries[] = {
      {"par_unfused", "par-unfused (Listing 4)", core::Schedule::ParUnfused},
      {"par_fused", "par-fused (Listing 8)", core::Schedule::ParFused},
      {"par_fused_inner", "par-fused-inner (Listing 10)",
       core::Schedule::ParFusedInner},
      {"seq_unfused", "seq-unfused (Listing 1)", core::Schedule::Unfused},
  };
  constexpr std::size_t kEntries = std::size(entries);
  std::vector<Sample> samples(kEntries);
  std::size_t host_threads = 1;
  auto& gm = blas::gemm_metrics();
  gm.counter("gemm.calls");
  // Rep 0 warms every schedule (packing buffers, integral tables) and
  // is not timed.
  for (int rep = 0; rep <= reps; ++rep)
    for (std::size_t e = 0; e < kEntries; ++e) {
      core::TransformOptions o;
      o.schedule = entries[e].schedule;
      o.par.tile = 8;
      const double calls0 = gm.sum("gemm.calls");
      const double t0 = process_cpu_seconds();
      core::TransformOutcome r;
      if (o.schedule == core::Schedule::Unfused) {
        r = core::four_index_transform(p, o);
      } else {
        runtime::Cluster cl(runtime::system_c(4),
                            runtime::ExecutionMode::Real);
        host_threads = cl.host_threads();
        r = core::four_index_transform(p, o, &cl);
      }
      const double secs = process_cpu_seconds() - t0;
      if (rep == 0) continue;
      Sample& s = samples[e];
      s.flops = r.distributed ? r.par.flops : r.seq.flops;
      s.gemm_calls = gm.sum("gemm.calls") - calls0;
      s.cpu_s.push_back(secs);
    }

  obs::BenchReport report("bench_real_host_gflops");
  TextTable t({"schedule", "flops", "CPU ms (median)", "host GFLOP/s",
               "gemm calls"});
  std::vector<double> gflops(kEntries);
  for (std::size_t e = 0; e < kEntries; ++e) {
    const Sample& s = samples[e];
    const double secs = median(s.cpu_s);
    gflops[e] = secs > 0 ? s.flops / secs / 1e9 : 0.0;
    t.add_row({entries[e].label, human_count(s.flops),
               fmt_fixed(secs * 1e3, 1), fmt_fixed(gflops[e], 2),
               human_count(s.gemm_calls)});
    const std::string key = std::string("real.") + entries[e].key;
    report.add_scalar(key + ".host_gflops", gflops[e]);
    report.add_scalar(key + ".gemm_calls", s.gemm_calls);
  }
  const double ratio = gflops[3] > 0 ? gflops[2] / gflops[3] : 0.0;
  report.add_scalar("real.par_fused_inner_vs_seq", ratio);
  const std::string title =
      "Real-mode host GFLOP/s on one lane (CPU clock, median of " +
      std::to_string(reps) + "; n = 32, s = 4, tile 8, 16 ranks)";
  t.print(title);
  report.add_table(title, t);
  report.add_note("cluster host threads: " + std::to_string(host_threads));
  std::cout << "par-fused-inner / seq-unfused = " << fmt_fixed(ratio, 3)
            << "\n";

  const FillTiming fill = time_fill(p.engine, 8, reps);
  TextTable ft({"lanes", "wall ms (median)", "ns per element"});
  ft.add_row({"1", fmt_fixed(fill.one_lane_s * 1e3, 1),
              fmt_fixed(fill.one_lane_s / fill.elements * 1e9, 2)});
  ft.add_row({"2", fmt_fixed(fill.two_lane_s * 1e3, 1),
              fmt_fixed(fill.two_lane_s / fill.elements * 1e9, 2)});
  report.add_scalar("real.fill.two_lane_speedup", fill.speedup);
  const std::string fill_title =
      "Integral fill of every packed A tile, one lane vs two (wall clock, "
      "median of " +
      std::to_string(reps) + "; " + human_count(fill.elements) +
      " elements per window)";
  ft.print(fill_title);
  report.add_table(fill_title, ft);
  std::cout << "fill two-lane speedup = " << fmt_fixed(fill.speedup, 3)
            << "\n";

  const SimLanes sim = time_sim_lanes(reps);
  const double ns_per_op = sim.one_lane_s / sim.ga_ops * 1e9;
  TextTable st({"lanes", "CPU ms (median)", "host ns per GA op"});
  st.add_row({"1", fmt_fixed(sim.one_lane_s * 1e3, 1),
              fmt_fixed(ns_per_op, 1)});
  st.add_row({std::to_string(sim.lanes), fmt_fixed(sim.two_lane_s * 1e3, 1),
              fmt_fixed(sim.two_lane_s / sim.ga_ops * 1e9, 1)});
  report.add_scalar("sim.two_lane_cpu_ratio", sim.ratio);
  report.add_scalar("sim.two_lane.lanes", static_cast<double>(sim.lanes));
  report.add_scalar("sim.host_ns_per_ga_op", ns_per_op);
  const std::string sim_title =
      "Simulate fused-inner C60H20 on System B x2, tile 4, auto balance "
      "with a warm memo: one lane vs two (CPU clock, median of " +
      std::to_string(reps) + "; " + human_count(sim.ga_ops) +
      " GA ops per transform)";
  st.print(sim_title);
  report.add_table(sim_title, st);
  std::cout << "Simulate two-lane / one-lane CPU = " << fmt_fixed(sim.ratio, 3)
            << " on " << sim.lanes << " lanes\n";
  const std::string written = report.write();
  if (!written.empty()) std::cout << "bench JSON: " << written << "\n";
  return 0;
}
