// GEMM engine configuration: cache-size-probed blocking parameters,
// thread count and the dispatched ISA level, with environment
// overrides. The blocked DGEMM (gemm.cpp)
// reads the active config on every call, so tests and benchmarks can
// retune at runtime via set_gemm_config().
//
// Environment variables (all optional):
//   FOURINDEX_GEMM_MC / _KC / _NC   blocking parameters (elements);
//                                   rounded to the micro-tile (MR/NR)
//   FOURINDEX_GEMM_THREADS          macro-loop parallelism for GEMM
//   FOURINDEX_GEMM_KSPLIT           k-split reduction chunks (1 = off,
//                                   0 = auto by shape)
//   FOURINDEX_THREADS               process-wide default lane count
//                                   (shared thread pool, Cluster)
//   FOURINDEX_CPU=<level>           clamp the dispatched kernel ISA
//                                   (scalar / sse2 / avx / avx2 or
//                                   0-3); requests above the detected
//                                   level clamp loudly
//   FOURINDEX_CPU_HZ                override the measured clock the
//                                   roofline model uses
//
// Every ISA level produces the same bits; FOURINDEX_CPU=scalar pins the
// scalar kernels when even the dispatch should not vary.
#pragma once

#include <cstddef>

#include "blas/dispatch.hpp"

namespace fit::obs {
class MetricsRegistry;
}

namespace fit::blas {

/// Register micro-tile of the GEMM engine (compile-time constants of
/// the kernel library, exposed for autotuning/rounding and tests).
inline constexpr std::size_t kGemmMR = 4;
inline constexpr std::size_t kGemmNR = 8;

/// One engine configuration: blocking parameters, lane count, k-split
/// width and the dispatched ISA level. The blocked DGEMM snapshots the
/// active one per call.
struct GemmConfig {
  std::size_t mc = 128;    ///< A panel rows (L2-resident: mc*kc)
  std::size_t kc = 256;    ///< contraction block (L1-resident microtiles)
  std::size_t nc = 2048;   ///< B panel columns (L3-resident: kc*nc)
  std::size_t threads = 1; ///< lanes for the ic/jr macro loops
  std::size_t ksplit = 1;  ///< k-split reduction chunks (1 off, 0 auto)
  IsaLevel isa = resolve_isa();  ///< dispatched kernel table
  /// Always false: the scalar-pinning switch is gone (FOURINDEX_CPU=
  /// scalar pins the same kernels). Kept as a constant only because
  /// the benchmark harness prints it.
  static constexpr bool deterministic = false;

  /// Cache-size-probed defaults (sysconf cache probes with
  /// conservative fallbacks) with every FOURINDEX_GEMM_* /
  /// FOURINDEX_THREADS / FOURINDEX_CPU override applied. Reads the
  /// environment on every call.
  static GemmConfig autotuned();
};

/// Active engine configuration. Initialized to autotuned() on first
/// use; set_gemm_config replaces it (thread-safe snapshot semantics —
/// in-flight gemm calls finish under the config they started with).
GemmConfig gemm_config();
/// Install a new active configuration. Clamps the requested ISA level
/// to detected_isa(), loudly, so an installed config can never
/// dispatch to kernels the host cannot execute.
void set_gemm_config(const GemmConfig& cfg);
/// Re-probe caches and environment, install and return the result.
GemmConfig reset_gemm_config();

/// Probed L1 data-cache size in bytes (0 when the probe has no answer
/// — the autotuner then falls back to 32 KiB).
std::size_t l1d_cache_bytes();
/// Probed L2 cache size in bytes (0 = no answer; fallback 512 KiB).
std::size_t l2_cache_bytes();
/// Probed L3 cache size in bytes (0 = no answer; fallback 8 MiB).
std::size_t l3_cache_bytes();

/// Estimated core clock in Hz: a timed dependent-integer-add chain
/// (1 cycle/add on every core this runs on), best of several reps,
/// cached after the first call. FOURINDEX_CPU_HZ overrides the
/// measurement (strict-parsed; an escape hatch for hosts whose
/// virtualized clock defeats the probe). Falls back to 3 GHz when no
/// probe is possible.
double estimated_cpu_hz();

/// Uncached clock probe: measures afresh on every call (honouring a
/// FOURINDEX_CPU_HZ override, which always wins). Benches bracket
/// their timed section with estimated_cpu_hz() before and this after,
/// then take the min of the two: a hypervisor time-dilation burst
/// inflates an entire ~0.3 s probe window past what the median-of-reps
/// filter can reject, but rarely covers both windows, and dilation
/// only ever inflates the reading.
double reprobe_cpu_hz();

/// Double-precision flops/cycle/core the roofline model credits a
/// level: 2 (scalar mul+add dual issue), 4 (2-wide), 8 (4-wide).
/// Avx2 is also 8: the kernel library disables FMA contraction to
/// keep all levels bit-identical, so fused flops are not on the menu.
double isa_flops_per_cycle(IsaLevel level);

/// Roofline compute peak in GFLOP/s for `threads` cores at `level`:
/// estimated_cpu_hz() * isa_flops_per_cycle(level) * threads / 1e9.
/// The bench-smoke CI gate divides measured GFLOP/s by this.
double roofline_peak_gflops(IsaLevel level, std::size_t threads);

/// Process-wide engine metrics: counters gemm.calls / gemm.flops /
/// gemm.pack_bytes, gauge gemm.gflops (rate of the last blocked call)
/// and gauge gemm.isa (IsaLevel the last call dispatched to). Single-
/// rank registry, safe from any thread.
obs::MetricsRegistry& gemm_metrics();

}  // namespace fit::blas
