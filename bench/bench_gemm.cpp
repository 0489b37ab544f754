// Supporting microbenchmark: throughput of the from-scratch blocked
// DGEMM (fit::blas), including the n^3 x n "macro" shape every tensor
// contraction of the four-index transform reduces to (Sec. 5.1).
//
// Besides the google-benchmark sweep, a head-to-head section measures
// the engine against gemm_reference at n = 512 for 1/2/4 lanes and
// records the results as fourindex.bench/1 scalars
// (gemm.n512.gflops_t{1,2,4}, gemm.roofline_fraction, ...); CI's
// bench-smoke job gates roofline_fraction and the isa-sweep job forces
// FOURINDEX_CPU=scalar/sse2/avx over this bench and gates that
// gemm.n512.result_checksum is bit-identical across levels while
// GFLOP/s is non-decreasing with ISA width. gemm.isa / gemm.isa_detected
// record which kernel path actually ran. The report also carries the
// head-to-head as a table (reference, t1, t2, t4 and t4 ksplit4). A
// tile-shape section reports the engine's one-lane rate on the
// distributed chain's small products over its rate at 256^3
// (gemm.tile_vs_n256, gated in bench-smoke). With
// FOURINDEX_BENCH_SMOKE=1 only those two sections run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "blas/dispatch.hpp"
#include "blas/gemm.hpp"
#include "blas/tune.hpp"
#include "obs/bench_json.hpp"
#include "serve/cost_table.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  fit::SplitMix64 g(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = g.next_double(-1.0, 1.0);
  return v;
}

// FNV-1a over the raw result bytes, folded to 32 bits so the value is
// exactly representable as a JSON number: the isa-sweep job compares
// this scalar across forced ISA levels, where "equal checksums" means
// "bit-identical C matrices".
double result_checksum(const std::vector<double>& c) {
  std::uint64_t h = 1469598103934665603ull;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(c.data());
  for (std::size_t i = 0; i < c.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return static_cast<double>((h >> 32) ^ (h & 0xffffffffull));
}

void BM_GemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_vec(n * n, 1);
  auto b = random_vec(n * n, 2);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    fit::blas::gemm(fit::blas::Trans::No, fit::blas::Trans::No, n, n, n,
                    1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

// The contraction shape: (n^2 x n) * (n x n) — a tall-skinny product
// over the "macro" index (a modest slice; the full n^3 rows would
// dominate the benchmark run time without adding information).
void BM_GemmContractionShape(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = n * n;
  auto a = random_vec(rows * n, 3);
  auto b = random_vec(n * n, 4);
  std::vector<double> c(rows * n, 0.0);
  for (auto _ : state) {
    // C[m, a] = A[m, i] * B[a, i]^T
    fit::blas::gemm(fit::blas::Trans::No, fit::blas::Trans::Yes, rows, n,
                    n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * rows * n * n));
}
BENCHMARK(BM_GemmContractionShape)->Arg(32)->Arg(64)->Arg(96);

void BM_GemmReferenceSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_vec(n * n, 1);
  auto b = random_vec(n * n, 2);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    fit::blas::gemm_reference(fit::blas::Trans::No, fit::blas::Trans::No,
                              n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                              c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmReferenceSquare)->Arg(64)->Arg(128)->Arg(256);

// Console output as usual, plus every run captured into the shared
// fourindex.bench/1 JSON document (scalars <name>.seconds_per_iter and
// <name>.items_per_second) so CI archives this bench like the others.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(fit::obs::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      if (run.iterations > 0)
        report_->add_scalar(name + ".seconds_per_iter",
                            run.real_accumulated_time /
                                static_cast<double>(run.iterations));
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end())
        report_->add_scalar(name + ".items_per_second", it->second);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  fit::obs::BenchReport* report_;
};

double timed_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double best_of(int reps, const std::function<void()>& fn) {
  double best = timed_seconds(fn);
  for (int r = 1; r < reps; ++r) best = std::min(best, timed_seconds(fn));
  return best;
}

// Engine vs. reference at n = 512, plus lane scaling — the numbers the
// CI gate and the README "Performance" section quote.
void head_to_head(fit::obs::BenchReport& report) {
  const std::size_t n = 512;
  const double flops = fit::blas::gemm_flops(n, n, n);
  auto a = random_vec(n * n, 1);
  auto b = random_vec(n * n, 2);
  std::vector<double> c(n * n, 0.0);
  auto run_blocked = [&] {
    fit::blas::gemm(fit::blas::Trans::No, fit::blas::Trans::No, n, n, n, 1.0,
                    a.data(), n, b.data(), n, 0.0, c.data(), n);
  };
  auto run_reference = [&] {
    fit::blas::gemm_reference(fit::blas::Trans::No, fit::blas::Trans::No, n,
                              n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                              c.data(), n);
  };

  const auto base = fit::blas::gemm_config();
  const fit::blas::IsaLevel active = base.isa;
  report.add_scalar("gemm.config.mc", double(base.mc));
  report.add_scalar("gemm.config.kc", double(base.kc));
  report.add_scalar("gemm.config.nc", double(base.nc));
  report.add_scalar("gemm.config.threads", double(base.threads));
  report.add_scalar("gemm.isa", double(static_cast<int>(active)));
  report.add_scalar("gemm.isa_detected",
                    double(static_cast<int>(fit::blas::detected_isa())));
  report.add_note(std::string("kernel dispatch: running '") +
                  fit::blas::isa_name(active) + "' (detected '" +
                  fit::blas::isa_name(fit::blas::detected_isa()) + "')");
  std::printf("kernel dispatch: running '%s' (detected '%s')\n",
              fit::blas::isa_name(active),
              fit::blas::isa_name(fit::blas::detected_isa()));

  // Probe the clock now, immediately before the timed runs it is
  // compared against (the first call caches): under virtualized clocks
  // the probe and the kernel timings drift together, so measuring them
  // adjacently makes the roofline fraction a clean cycles-for-cycles
  // ratio. A second probe after the timed runs brackets them; the min
  // of the two discards a dilation burst that inflated one window
  // (see reprobe_cpu_hz in blas/tune.hpp).
  const double hz_before = fit::blas::estimated_cpu_hz();

  const double t_ref = best_of(2, run_reference);
  const double ref_gflops = flops / t_ref / 1e9;
  report.add_scalar("gemm.n512.reference_gflops", ref_gflops);
  std::printf("n=512 head-to-head: reference %.2f GFLOP/s\n", ref_gflops);

  double t1 = 0.0, t2 = 0.0, t4 = 0.0, t4_ksplit = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    auto cfg = base;
    cfg.threads = threads;
    fit::blas::set_gemm_config(cfg);
    run_blocked();  // warm the packing buffers / pool
    // Six reps, keep the best: the t1 number feeds the gated roofline
    // fraction, and on a noisy virtualized host a three-rep best still
    // sits measurably below the machine's ceiling.
    const double t = best_of(6, run_blocked);
    if (threads == 1) {
      t1 = t;
      // Dispatch changes throughput, never bits: this checksum must be
      // identical under every FOURINDEX_CPU level (isa-sweep gate).
      report.add_scalar("gemm.n512.result_checksum", result_checksum(c));
    }
    if (threads == 2) t2 = t;
    if (threads == 4) t4 = t;
    if (threads != 1) {
      report.add_scalar("gemm.n512.gflops_t" + std::to_string(threads),
                        flops / t / 1e9);
    }
    std::printf("n=512 head-to-head: engine t%zu %.2f GFLOP/s\n", threads,
                flops / t / 1e9);
  }

  // k-split parallel reduction at 4 lanes (the alternative driver
  // behind the dispatch table, chasing the M-split path's known 4-lane
  // efficiency ceiling at n = 512).
  {
    auto cfg = base;
    cfg.threads = 4;
    cfg.ksplit = 4;
    fit::blas::set_gemm_config(cfg);
    run_blocked();
    const double t = best_of(3, run_blocked);
    t4_ksplit = t;
    report.add_scalar("gemm.n512.gflops_t4_ksplit4", flops / t / 1e9);
    report.add_scalar("gemm.n512.ksplit4_checksum", result_checksum(c));
    std::printf("n=512 head-to-head: engine t4 ksplit4 %.2f GFLOP/s\n",
                flops / t / 1e9);
  }
  fit::blas::set_gemm_config(base);

  // Second t1 window, ~2 s after the first: a neighbor-load spike on a
  // shared host can depress every rep of one best-of window, so the
  // gated t1 number keeps the better of two temporally separated ones.
  {
    auto cfg = base;
    cfg.threads = 1;
    fit::blas::set_gemm_config(cfg);
    run_blocked();
    t1 = std::min(t1, best_of(6, run_blocked));
    fit::blas::set_gemm_config(base);
  }
  report.add_scalar("gemm.n512.gflops_t1", flops / t1 / 1e9);

  // Roofline accounting: measured single-lane rate against the
  // compute peak the clock probe + ISA width model credits this level
  // (tune.cpp). CI's bench-smoke job gates gemm.roofline_fraction.
  const double hz = std::min(hz_before, fit::blas::reprobe_cpu_hz());
  const double peak1 =
      hz * fit::blas::isa_flops_per_cycle(active) / 1e9;
  const double gflops1 = flops / t1 / 1e9;
  report.add_scalar("gemm.cpu_hz", hz);
  report.add_scalar("gemm.roofline_peak_gflops_t1", peak1);
  report.add_scalar("gemm.roofline_fraction", gflops1 / peak1);
  std::printf(
      "roofline: clock %.2f GHz, peak %.2f GFLOP/s at '%s', achieved %.2f "
      "(fraction %.2f)\n",
      hz / 1e9, peak1, fit::blas::isa_name(active), gflops1, gflops1 / peak1);

  const double speedup = t_ref / t1;
  report.add_scalar("gemm.n512.speedup_vs_reference", speedup);
  report.add_scalar("gemm.n512.parallel_efficiency_t4", t1 / t4 / 4.0);
  std::printf(
      "n=512 head-to-head: single-thread speedup vs reference %.2fx, "
      "4-lane efficiency %.0f%%\n",
      speedup, 100.0 * t1 / t4 / 4.0);

  struct Row {
    const char* driver;
    const char* lanes;
    double seconds;
  };
  const Row rows[] = {{"gemm_reference", "1", t_ref},
                      {"engine", "1", t1},
                      {"engine", "2", t2},
                      {"engine", "4", t4},
                      {"engine, ksplit 4", "4", t4_ksplit}};
  fit::TextTable table({"driver", "lanes", "GFLOP/s"});
  for (const Row& r : rows)
    table.add_row(
        {r.driver, r.lanes, fit::fmt_fixed(flops / r.seconds / 1e9, 2)});
  const std::string title = "DGEMM head-to-head at n = 512 (best of reps)";
  table.print(title);
  report.add_table(title, table);

  // Engine counters (flops, pack_bytes, gemm.isa gauge, ...) for the
  // archived document.
  report.add_metrics("gemm", fit::blas::gemm_metrics());
}

// Tile-shape engine speed, the rate the distributed chain's small
// products run at: one lane on contraction 3's unmirrored tile shape
// (an 8 x 8 block of an n x n matrix shared as A by 64 members of an
// 8 x 8 x 8 product, each member's B read in place) over one lane on a
// 256^3 product. The two shapes' reps alternate in one process so host
// drift moves both alike; each rate is the median of its reps. CI's
// bench-smoke job gates gemm.tile_vs_n256.
void tile_shape(fit::obs::BenchReport& report) {
  using fit::blas::Trans;
  const auto base = fit::blas::gemm_config();
  auto cfg = base;
  cfg.threads = 1;
  fit::blas::set_gemm_config(cfg);

  const std::size_t t = 8, members = 64, ld = 64, calls = 200;
  const auto block = random_vec(ld * ld, 5);
  const auto x = random_vec(members * t * t, 6);
  std::vector<double> out(members * t * t, 0.0);
  auto run_tile = [&] {
    for (std::size_t r = 0; r < calls; ++r)
      fit::blas::gemm_batched(Trans::No, Trans::No, t, t, t, 1.0,
                              block.data(), ld, 0, x.data(), t, t * t, 1.0,
                              out.data(), t, t * t, members);
  };
  const std::size_t n = 256;
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<double> c(n * n, 0.0);
  auto run_n256 = [&] {
    fit::blas::gemm(Trans::No, Trans::No, n, n, n, 1.0, a.data(), n,
                    b.data(), n, 0.0, c.data(), n);
  };
  const double tile_flops = fit::blas::gemm_flops(t, t, t) *
                            static_cast<double>(members * calls);
  const double n256_flops = fit::blas::gemm_flops(n, n, n);

  run_tile();  // warm the packing buffers
  run_n256();
  const int reps = 31;
  std::vector<double> tile_s, n256_s;
  for (int r = 0; r < reps; ++r) {
    tile_s.push_back(timed_seconds(run_tile));
    n256_s.push_back(timed_seconds(run_n256));
  }
  fit::blas::set_gemm_config(base);
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double tile_gflops = tile_flops / median(tile_s) / 1e9;
  const double n256_gflops = n256_flops / median(n256_s) / 1e9;
  report.add_scalar("gemm.tile.gflops_t1", tile_gflops);
  report.add_scalar("gemm.n256.gflops_t1", n256_gflops);
  report.add_scalar("gemm.tile_vs_n256", tile_gflops / n256_gflops);
  std::printf(
      "tile shape (8x8x8 x 64, A shared): %.2f GFLOP/s, 256^3: %.2f "
      "GFLOP/s, ratio %.2f\n",
      tile_gflops, n256_gflops, tile_gflops / n256_gflops);
}

// --record-costs: measured single-thread DGEMM rates over a ladder of
// flop-volume buckets (each within a decade of its neighbors, so the
// cost oracle's coverage rule holds from tiled contraction shapes up
// to n = 512). Rates feed serve::CostOracle as kind "gemm".
void record_gemm_costs(const std::string& path) {
  fit::serve::CostTable table;
  const auto base = fit::blas::gemm_config();
  auto cfg = base;
  cfg.threads = 1;
  fit::blas::set_gemm_config(cfg);
  for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}, std::size_t{512}}) {
    auto a = random_vec(n * n, 1);
    auto b = random_vec(n * n, 2);
    std::vector<double> c(n * n, 0.0);
    auto run = [&] {
      fit::blas::gemm(fit::blas::Trans::No, fit::blas::Trans::No, n, n, n,
                      1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    };
    run();  // warm the packing buffers
    const double flops = fit::blas::gemm_flops(n, n, n);
    const double t = best_of(n >= 512 ? 4 : 2, run);
    table.add({"gemm", flops, flops / t, "bench_gemm"});
    std::printf("record-costs: gemm shape %.3g -> %.2f GFLOP/s\n", flops,
                flops / t / 1e9);
  }
  fit::blas::set_gemm_config(base);
  fit::serve::record_costs(path, table);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string costs_path = fit::serve::record_costs_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fit::obs::BenchReport report("bench_gemm");
  report.add_note("flops = items processed; items_per_second is the "
                  "DGEMM flop rate");
  report.add_note("gemm.n512.* scalars: blocked engine vs gemm_reference "
                  "head-to-head (CI gates gemm.roofline_fraction >= 0.35 "
                  "and, in isa-sweep, cross-level checksum equality)");
  report.add_note("gemm.tile_vs_n256: one-lane GFLOP/s on contraction 3's "
                  "8x8x8 x 64 tile shape over one-lane GFLOP/s at 256^3, "
                  "reps interleaved (gated in bench-smoke)");
  const char* smoke = std::getenv("FOURINDEX_BENCH_SMOKE");
  if (!(smoke && smoke[0] == '1')) {
    JsonTeeReporter reporter(&report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  head_to_head(report);
  tile_shape(report);
  if (!costs_path.empty()) record_gemm_costs(costs_path);
  report.write();
  return 0;
}
