#include "blas/tune.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

namespace fit::blas {

namespace {

using util::env_size;

// Guarded on unistd availability only: each cache-level probe below
// guards on its *own* _SC_ macro. (Gating this shared helper on
// _SC_LEVEL1_DCACHE_SIZE — the old bug — silently disabled the L2/L3
// probes on platforms that define the L2/L3 macros but not the L1 one.)
#if defined(__unix__) || defined(__APPLE__)
std::size_t sysconf_bytes(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}
#endif

std::size_t round_up(std::size_t v, std::size_t unit) {
  return ((v + unit - 1) / unit) * unit;
}

std::mutex config_mutex;
GemmConfig* active_config = nullptr;  // never freed (process lifetime)

#if defined(__GNUC__) || defined(__clang__)

// One timed rep of the clock probe: a dependent chain of integer adds
// (1 cycle latency each on every core we target), with a compiler
// barrier keeping the chain in a register and un-collapsible. The loop
// counter and branch run in parallel with the chain, so elapsed time
// is chain length / core clock.
double clock_probe_hz_once() {
  // Long enough (~25-50 ms) to average over scheduler preemption and
  // the millisecond-scale glitches of para-virtualized monotonic
  // clocks; short reps read fast or slow by 2x under a loaded
  // hypervisor.
  constexpr std::size_t kIters = 25'000'000;  // 100M adds
  unsigned long long x = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kIters; ++i) {
    x += 1;
    __asm__ volatile("" : "+r"(x));
    x += 1;
    __asm__ volatile("" : "+r"(x));
    x += 1;
    __asm__ volatile("" : "+r"(x));
    x += 1;
    __asm__ volatile("" : "+r"(x));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(4 * kIters) / secs;
}

double clock_probe_hz() {
  // Median of several reps. On bare metal interference only makes a
  // rep slower, but under virtualized clocks a rep can also read *fast*
  // (time dilation while the vCPU was descheduled), so taking the max
  // swings by 2x run to run; the median is stable against outliers in
  // both directions.
  double reps[7];
  for (double& r : reps) r = clock_probe_hz_once();
  std::sort(std::begin(reps), std::end(reps));
  return reps[3];
}

#else

double clock_probe_hz() { return 0.0; }

#endif

}  // namespace

std::size_t l1d_cache_bytes() {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  return sysconf_bytes(_SC_LEVEL1_DCACHE_SIZE);
#else
  return 0;
#endif
}

std::size_t l2_cache_bytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  return sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
#else
  return 0;
#endif
}

std::size_t l3_cache_bytes() {
#if defined(_SC_LEVEL3_CACHE_SIZE)
  return sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
#else
  return 0;
#endif
}

double estimated_cpu_hz() {
  static const double hz = [] {
    if (const char* env = std::getenv("FOURINDEX_CPU_HZ")) {
      if (const auto v = util::parse_double(env); v && *v > 0.0) return *v;
      FIT_LOG_WARN("FOURINDEX_CPU_HZ='" << env
                                        << "' is not a positive number; "
                                           "measuring instead");
    }
    const double measured = clock_probe_hz();
    return measured > 0.0 ? measured : 3.0e9;
  }();
  return hz;
}

double reprobe_cpu_hz() {
  if (std::getenv("FOURINDEX_CPU_HZ")) return estimated_cpu_hz();
  const double measured = clock_probe_hz();
  return measured > 0.0 ? measured : estimated_cpu_hz();
}

double isa_flops_per_cycle(IsaLevel level) {
  // One multiply plus one dependent-free add can issue per cycle per
  // vector lane set; FP contraction is disabled in the kernel TUs so
  // FMA never doubles this.
  switch (level) {
    case IsaLevel::Scalar:
      return 2.0;
    case IsaLevel::Sse2:
      return 4.0;
    case IsaLevel::Avx:
    case IsaLevel::Avx2:
      return 8.0;
  }
  return 2.0;
}

double roofline_peak_gflops(IsaLevel level, std::size_t threads) {
  return estimated_cpu_hz() * isa_flops_per_cycle(level) *
         static_cast<double>(std::max<std::size_t>(1, threads)) / 1e9;
}

GemmConfig GemmConfig::autotuned() {
  const std::size_t l1 = l1d_cache_bytes() ? l1d_cache_bytes() : 32u << 10;
  const std::size_t l2 = l2_cache_bytes() ? l2_cache_bytes() : 512u << 10;
  const std::size_t l3 = l3_cache_bytes() ? l3_cache_bytes() : 8u << 20;

  GemmConfig cfg;
  // KC: one MR x KC A micro-panel plus one KC x NR B micro-panel
  // should occupy about half of L1, leaving room for the C tile and
  // streaming traffic.
  cfg.kc = std::clamp<std::size_t>(
      l1 / (2 * sizeof(double) * (kGemmMR + kGemmNR)), 64, 512);
  // MC: the packed MC x KC A block targets about half of L2.
  cfg.mc = std::clamp<std::size_t>(
      round_up(l2 / (2 * sizeof(double) * cfg.kc), kGemmMR), kGemmMR, 1024);
  // NC: the packed KC x NC B panel targets about half of L3.
  cfg.nc = std::clamp<std::size_t>(
      round_up(l3 / (2 * sizeof(double) * cfg.kc), kGemmNR), kGemmNR, 8192);

  cfg.threads = env_size(
      "FOURINDEX_GEMM_THREADS",
      env_size("FOURINDEX_THREADS", [] {
        const unsigned hw = std::thread::hardware_concurrency();
        return static_cast<std::size_t>(hw > 0 ? hw : 1);
      }()));

  // Explicit blocking overrides (rounded to the micro-tile so packing
  // never splits a micro-panel).
  cfg.mc = round_up(env_size("FOURINDEX_GEMM_MC", cfg.mc), kGemmMR);
  cfg.kc = env_size("FOURINDEX_GEMM_KC", cfg.kc);
  cfg.nc = round_up(env_size("FOURINDEX_GEMM_NC", cfg.nc), kGemmNR);
  cfg.ksplit = env_size("FOURINDEX_GEMM_KSPLIT", 1, /*min=*/0);

  // Kernel dispatch: cpuid-detected level narrowed by FOURINDEX_CPU
  // (strict-parsed; requests above the detected level clamp loudly).
  cfg.isa = resolve_isa();
  return cfg;
}

GemmConfig gemm_config() {
  std::lock_guard<std::mutex> lock(config_mutex);
  if (!active_config) active_config = new GemmConfig(GemmConfig::autotuned());
  return *active_config;
}

void set_gemm_config(const GemmConfig& cfg) {
  GemmConfig sane = cfg;
  sane.mc = std::max<std::size_t>(kGemmMR, round_up(sane.mc, kGemmMR));
  sane.kc = std::max<std::size_t>(1, sane.kc);
  sane.nc = std::max<std::size_t>(kGemmNR, round_up(sane.nc, kGemmNR));
  sane.threads = std::max<std::size_t>(1, sane.threads);
  if (sane.isa > detected_isa()) {
    FIT_LOG_WARN("gemm config requests ISA level '"
                 << isa_name(sane.isa) << "' above detected '"
                 << isa_name(detected_isa()) << "'; clamping");
    sane.isa = detected_isa();
  }
  std::lock_guard<std::mutex> lock(config_mutex);
  if (!active_config)
    active_config = new GemmConfig(sane);
  else
    *active_config = sane;
}

GemmConfig reset_gemm_config() {
  const GemmConfig cfg = GemmConfig::autotuned();
  set_gemm_config(cfg);
  return cfg;
}

obs::MetricsRegistry& gemm_metrics() {
  static obs::MetricsRegistry registry(1);
  return registry;
}

}  // namespace fit::blas
