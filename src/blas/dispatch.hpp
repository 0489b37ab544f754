/// @file
/// Runtime CPU-feature dispatch for the kernel library.
///
/// The GEMM engine used to pick its micro-kernel at compile time
/// (`#if defined(__AVX__)`), so one binary carried exactly one path
/// and a portable build silently ran the narrow kernel on wide hosts.
/// This header replaces that with an rtcd-style (libvpx) table of
/// per-function pointers: every kernel the engine calls through —
/// micro-kernel, packing routines, level-1 helpers — exists once per
/// ISA level in its own translation unit
/// (compiled with that level's `-m` flags), and a `KernelTable` per
/// level is resolved at startup from a cpuid probe, optionally narrowed
/// by the `FOURINDEX_CPU` environment override.
///
/// Reproducibility contract: every level's kernels accumulate each C
/// element's k-products in the same order, and the kernel translation
/// units are compiled with FP contraction disabled, so all four levels
/// produce bit-identical results. Dispatch changes throughput only,
/// never bits — which is what lets CI force each level in turn and
/// gate on checksum equality.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "blas/gemm.hpp"

namespace fit::blas {

/// ISA levels the kernel library is built for, narrowest first. The
/// numeric values order by vector width; "above" means faster. On
/// non-x86 hosts the detector reports at most Sse2 (the generic
/// compiler-vector kernels — they lower to NEON pairs on AArch64).
enum class IsaLevel : int {
  Scalar = 0,  ///< portable C++ loops, no vector types
  Sse2 = 1,    ///< 2-wide double vectors (baseline x86-64 / NEON)
  Avx = 2,     ///< 4-wide double vectors, 256-bit registers
  Avx2 = 3,    ///< AVX2 code generation (FMA deliberately unused)
};

/// Number of IsaLevel values (table count; levels are dense from 0).
inline constexpr int kNumIsaLevels = 4;

/// Lower-case level name ("scalar", "sse2", "avx", "avx2") — the
/// spellings `FOURINDEX_CPU` accepts and metrics/bench JSON report.
const char* isa_name(IsaLevel level);

/// Inverse of isa_name. Returns nullopt for any other spelling
/// (parsing is strict: exact lower-case names only).
std::optional<IsaLevel> isa_from_name(std::string_view name);

/// Widest level the host can execute, from the cpuid/xgetbv probe
/// (util::cpu_features). Cached after the first call; thread-safe.
IsaLevel detected_isa();

/// Requested level from the `FOURINDEX_CPU` environment variable,
/// before clamping: the strict-parsed level name or numeric level
/// (util::parse_int), or nullopt when the variable is unset or does
/// not parse (a set-but-invalid value logs a warning — a misspelled
/// override is surfaced, never guessed at).
std::optional<IsaLevel> isa_from_env();

/// The level gemm actually dispatches to: detected_isa() narrowed by
/// `FOURINDEX_CPU` when set. A request above the detected level clamps
/// to it loudly (one warning per process): requesting avx2 on an
/// SSE2-only host must not execute illegal instructions, but silently
/// ignoring the request would hide a misconfigured fleet rollout.
/// Reads the environment on every call; GemmConfig::autotuned()
/// snapshots it into the active engine config.
IsaLevel resolve_isa();

/// MR x NR micro-kernel: multiplies a packed MR-row A micro-panel by
/// a kc x NR block of B in registers and adds the product into C,
/// `C += alpha * (Apanel * B)`. Row p of B is the NR adjacent doubles
/// at `b + p*b_step`: a packed NR-column micro-panel has b_step = NR,
/// and an unpacked operand whose NR columns are adjacent is read in
/// place. C's row i, columns [4h, 4h+4) are the four contiguous
/// doubles at `c + rows[i] + cols[4h]` (only every fourth column
/// offset is read). Each element gets exactly `c + alpha * s`, where
/// s sums its k-products left to right from +0.0 — at every level.
using MicroKernelFn = void (*)(std::size_t kc, const double* a_panel,
                               const double* b, std::size_t b_step,
                               double alpha, double* c,
                               const std::size_t* rows,
                               const std::size_t* cols);

/// A GEMM operand as the packing routines read it. The operand may be
/// a strided batch folded into one extent: element (r, p) — r a row of
/// op(A) or a column of op(B), p the contraction index — lives at
///
///     x + (r / span) * stride + (r % span) * r_step + p * p_step
///
/// so each batch member owns `span` consecutive values of r and the
/// members sit `stride` elements apart. A lone matrix is one member
/// (`span` at least its extent). The transpose flag is folded into the
/// two steps: op(A) = A has r_step = lda and p_step = 1, op(A) = A^T
/// the reverse.
struct StridedOperand {
  const double* x;     ///< first element of member 0
  std::size_t span;    ///< rows (A) / columns (B) per member; > 0
  std::size_t stride;  ///< element distance between members
  std::size_t r_step;  ///< element distance between adjacent r
  std::size_t p_step;  ///< element distance between adjacent p
};

/// Pack an mc x kc block of op(A) starting at (row0, col0) into
/// row-major micro-panels of MR rows (zero-padded to MR). Panels may
/// straddle batch members.
using PackAFn = void (*)(const StridedOperand& a, std::size_t row0,
                         std::size_t col0, std::size_t mc, std::size_t kc,
                         double* buf);

/// Pack a kc x nc block of op(B) starting at (row0, col0) into column
/// micro-panels of NR columns (zero-padded to NR). Panels may straddle
/// batch members.
using PackBFn = void (*)(const StridedOperand& b, std::size_t row0,
                         std::size_t col0, std::size_t kc, std::size_t nc,
                         double* buf);

/// Contiguous level-1 axpy: y[i] += alpha * x[i].
using AxpyFn = void (*)(std::size_t n, double alpha, const double* x,
                        double* y);

/// Contiguous level-1 scale: x[i] *= alpha.
using ScalFn = void (*)(std::size_t n, double alpha, double* x);

/// One ISA level's complete kernel set. Each entry is resolved from
/// the translation unit compiled for that level; all entries are
/// always non-null (tables for levels the host cannot run still
/// exist — they are just never selected by resolve_isa()).
struct KernelTable {
  IsaLevel level;            ///< the level this table implements
  MicroKernelFn micro_kernel;///< MR x NR C += alpha * A * B
  PackAFn pack_a;            ///< A-side packing routine
  PackBFn pack_b;            ///< B-side packing routine
  AxpyFn axpy;               ///< level-1 y += alpha*x
  ScalFn scal;               ///< level-1 x *= alpha
};

/// The kernel table for a forced level. Never executes kernel code
/// itself, so it is safe to inspect tables above detected_isa(); only
/// *calling* through such a table on an incapable host is illegal.
/// Ordinary callers should use the level from the active GemmConfig
/// (which resolve_isa() has already clamped).
const KernelTable& kernel_table_for(IsaLevel level);

}  // namespace fit::blas
