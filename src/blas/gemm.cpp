#include "blas/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blas/dispatch.hpp"
#include "blas/tune.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fit::blas {

namespace {

constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;

inline double at(const double* x, std::size_t ld, std::size_t i,
                 std::size_t j, Trans t) {
  return t == Trans::No ? x[i * ld + j] : x[j * ld + i];
}

// Persistent per-thread scratch — packing buffers and the offset
// tables of the C rows and columns a pass touches — grown on demand to
// what a pass needs and reused across gemm calls (steady state does
// zero allocations per call). Every lane packs through its own
// thread's scratch, so the k-split reduction — which runs whole
// blocked passes on pool threads — needs no extra plumbing.
struct Scratch {
  std::vector<double> pack_a, pack_b;
  std::vector<std::size_t> c_rows, c_cols;
};

Scratch& tls_scratch() {
  thread_local Scratch s;
  return s;
}

std::size_t* offsets_buf(std::vector<std::size_t>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// Cache-line-aligned view over a grown-on-demand vector: 32-byte
// kernel loads through micro-panels never straddle a line boundary
// (unaligned 256-bit loads that split lines measurably slow the
// micro-kernel down; std::vector only guarantees 16 bytes).
constexpr std::size_t kPackAlignDoubles = 64 / sizeof(double);

double* grown(std::vector<double>& buf, std::size_t n) {
  if (buf.size() < n + kPackAlignDoubles) buf.resize(n + kPackAlignDoubles);
  void* p = buf.data();
  std::size_t space = buf.size() * sizeof(double);
  return static_cast<double*>(std::align(64, n * sizeof(double), p, space));
}

// ---- engine metrics -------------------------------------------------

struct EngineMetrics {
  obs::MetricsRegistry::Id calls;
  obs::MetricsRegistry::Id flops;
  obs::MetricsRegistry::Id pack_bytes;
  obs::MetricsRegistry::Id gflops;
  obs::MetricsRegistry::Id isa;
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m = [] {
    auto& reg = gemm_metrics();
    return EngineMetrics{reg.counter("gemm.calls"), reg.counter("gemm.flops"),
                         reg.counter("gemm.pack_bytes"),
                         reg.gauge("gemm.gflops"), reg.gauge("gemm.isa")};
  }();
  return m;
}

// ---- optional kernel trace ------------------------------------------
//
// When FOURINDEX_TRACE_DIR is set, every gemm call that multiplies
// records one span (track = calling thread; a batched call is one span) into a process-global timeline written
// to $FOURINDEX_TRACE_DIR/gemm_kernels.trace.json at exit. Span labels
// carry the dispatched ISA level, so the trace records which kernel
// paths actually ran — not just which binary was built.

struct TraceState {
  bool enabled = false;
  std::string path;
  std::string process_name;
  obs::Timeline timeline;
  std::mutex track_mutex;
  std::size_t next_track = 0;
  std::chrono::steady_clock::time_point t0;
};

TraceState* g_trace = nullptr;

TraceState& trace_state() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_trace = new TraceState;  // leaked: must outlive atexit
    if (const char* dir = std::getenv("FOURINDEX_TRACE_DIR")) {
      if (dir[0] != '\0') {
        g_trace->enabled = true;
        g_trace->path = std::string(dir) + "/gemm_kernels.trace.json";
        g_trace->process_name = std::string("gemm kernels [detected ") +
                                isa_name(detected_isa()) + "]";
        g_trace->t0 = std::chrono::steady_clock::now();
        std::atexit([] {
          g_trace->timeline.write_chrome_trace(g_trace->path,
                                               g_trace->process_name);
        });
      }
    }
  });
  return *g_trace;
}

std::size_t trace_track(TraceState& ts) {
  thread_local std::size_t track = static_cast<std::size_t>(-1);
  if (track == static_cast<std::size_t>(-1)) {
    std::lock_guard<std::mutex> lock(ts.track_mutex);
    track = ts.next_track++;
  }
  return track;
}

double trace_now(TraceState& ts) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ts.t0)
      .count();
}

std::size_t round_up(std::size_t v, std::size_t unit) {
  return ((v + unit - 1) / unit) * unit;
}

// Span of an operand or C axis that is not split into batch members.
constexpr std::size_t kLone = static_cast<std::size_t>(-1);

// Largest M extent whose pass reads B in place (see BlockedPass::run).
constexpr std::size_t kDirectRows = 4 * MR;

// One axis of the (folded) C block: index r lives at offset
// (r / span) * stride + (r % span) * step from the C pointer.
struct Axis {
  std::size_t span, stride, step;

  // Offsets of the `count` consecutive indices starting at r.
  void offsets(std::size_t r, std::size_t count, std::size_t* out) const {
    std::size_t member = r / span, within = r % span;
    for (std::size_t q = 0; q < count; ++q) {
      out[q] = member * stride + within * step;
      if (++within == span) {
        within = 0;
        ++member;
      }
    }
  }
};

// True when a micro-tile's NR column offsets in C come in runs of 4
// adjacent elements (runs that straddle members pass only when the
// members are themselves adjacent).
bool quad_runs(const std::size_t* off) {
  for (std::size_t h = 0; h < NR; h += 4)
    if (off[h + 3] - off[h] != 3) return false;
  return true;
}

// One blocked pass (jc -> pc -> ic loop nest) over the contraction
// range [k0, k0+klen) of op(A)*op(B), accumulating alpha-scaled
// products into the C block at dst (beta already applied by the
// caller). m and n are the folded extents: a batch folded into M or N
// is one pass whose micro-tiles may straddle members, which the
// operand views and the C axes resolve. `tasks` lanes split the ic
// loop; the pc loop stays sequential, so each C element accumulates
// its k-products in a fixed order at any thread count. Returns the
// number of doubles packed (the gemm.pack_bytes traffic).
struct BlockedPass {
  const KernelTable* kt;
  std::size_t m, n;
  double alpha;
  StridedOperand a, b;
  Axis rows, cols;
  std::size_t KC, NC, MC;

  double run(std::size_t k0, std::size_t klen, double* dst,
             std::size_t tasks) const {
    const std::size_t n_ic_blocks = (m + MC - 1) / MC;
    const std::size_t n_tasks = std::max<std::size_t>(
        1, std::min(tasks, n_ic_blocks));
    // A short M extent (one ic block of at most kDirectRows rows) reads
    // each B element only m/MR times, so packing B costs about as much
    // as the reads it serves. When every micro-panel's NR columns are
    // adjacent doubles (unit r_step, member width a multiple of NR —
    // NC is one too), the micro-kernel reads B in place instead.
    const bool direct = m <= kDirectRows && n_ic_blocks == 1 &&
                        b.r_step == 1 && std::min(b.span, n) % NR == 0;
    // Packing buffers sized to the panels this pass packs.
    const std::size_t kc_max = std::min(KC, klen);
    Scratch& own = tls_scratch();
    double* bbuf =
        direct ? nullptr
               : grown(own.pack_b, round_up(std::min(NC, n), NR) * kc_max);
    std::size_t* coff = offsets_buf(own.c_cols, std::min(NC, n));
    std::size_t packed = 0;
    for (std::size_t jc = 0; jc < n; jc += NC) {
      const std::size_t nc = std::min(NC, n - jc);
      cols.offsets(jc, nc, coff);
      for (std::size_t pc = k0; pc < k0 + klen; pc += KC) {
        const std::size_t kc = std::min(KC, k0 + klen - pc);
        // One packed-B panel per (jc, pc), shared read-only by all
        // lanes; each ic block packs its slice of A.
        if (!direct) {
          kt->pack_b(b, pc, jc, kc, nc, bbuf);
          packed += round_up(nc, NR) * kc;
        }
        packed += round_up(m, MR) * kc;

        auto body = [&](std::size_t task) {
          Scratch& lane = tls_scratch();
          double* abuf =
              grown(lane.pack_a, round_up(std::min(MC, m), MR) * kc_max);
          std::size_t* roff = offsets_buf(lane.c_rows, std::min(MC, m));
          // Strided ic-block assignment: block sizes are uniform
          // except the last, so a static partition stays balanced.
          for (std::size_t blk = task; blk < n_ic_blocks; blk += n_tasks) {
            const std::size_t ic = blk * MC;
            const std::size_t mc = std::min(MC, m - ic);
            rows.offsets(ic, mc, roff);
            kt->pack_a(a, ic, pc, mc, kc, abuf);
            // In-place B: member and in-member column of micro-panel jr.
            std::size_t b_member = jc / b.span, b_within = jc % b.span;
            for (std::size_t jr = 0; jr < nc; jr += NR) {
              const std::size_t jb = std::min(NR, nc - jr);
              const double* bp;
              std::size_t b_step;
              if (direct) {
                bp = b.x + b_member * b.stride + b_within + pc * b.p_step;
                b_step = b.p_step;
                if ((b_within += NR) == b.span) {
                  b_within = 0;
                  ++b_member;
                }
              } else {
                bp = bbuf + (jr / NR) * kc * NR;
                b_step = NR;
              }
              const std::size_t* cj = coff + jr;
              // Full-width tiles whose columns come in contiguous runs
              // of 4 go through the per-ISA update kernel.
              const bool quads = jb == NR && quad_runs(cj);
              for (std::size_t ir = 0; ir < mc; ir += MR) {
                const std::size_t ib = std::min(MR, mc - ir);
                const double* ap = abuf + (ir / MR) * kc * MR;
                const std::size_t* ri = roff + ir;
                alignas(64) double acc[MR * NR] = {};
                kt->micro_kernel(kc, ap, bp, b_step, acc);
                if (quads && ib == MR) {
                  double* q[MR * NR / 4];
                  for (std::size_t i = 0; i < MR; ++i)
                    for (std::size_t h = 0; h < NR / 4; ++h)
                      q[i * (NR / 4) + h] = dst + ri[i] + cj[4 * h];
                  kt->tile_update(acc, alpha, q);
                  continue;
                }
                for (std::size_t i = 0; i < ib; ++i)
                  for (std::size_t j = 0; j < jb; ++j)
                    dst[ri[i] + cj[j]] += alpha * acc[i * NR + j];
              }
            }
          }
        };
        if (n_tasks <= 1)
          body(0);
        else
          util::ThreadPool::shared().run_tasks(n_tasks, body);
      }
    }
    return static_cast<double>(packed);
  }
};

}  // namespace

void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, double alpha, const double* a,
                    std::size_t lda, const double* b, std::size_t ldb,
                    double beta, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += at(a, lda, i, p, ta) * at(b, ldb, p, j, tb);
      c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
    }
  }
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          double alpha, const double* a, std::size_t lda, const double* b,
          std::size_t ldb, double beta, double* c, std::size_t ldc) {
  gemm_batched(ta, tb, m, n, k, alpha, a, lda, 0, b, ldb, 0, beta, c, ldc,
               0, 1);
}

void gemm_batched(Trans ta, Trans tb, std::size_t m, std::size_t n,
                  std::size_t k, double alpha, const double* a,
                  std::size_t lda, std::size_t stride_a, const double* b,
                  std::size_t ldb, std::size_t stride_b, double beta,
                  double* c, std::size_t ldc, std::size_t stride_c,
                  std::size_t batch) {
  FIT_REQUIRE(ldc >= n || m == 0, "gemm: ldc too small");
  // op(A) is read as a[i*lda+p] (No) or a[p*lda+i] (Yes); op(B) as
  // b[p*ldb+j] (No) or b[j*ldb+p] (Yes).
  const std::size_t lda_min = (ta == Trans::No) ? k : m;
  const std::size_t ldb_min = (tb == Trans::No) ? n : k;
  FIT_REQUIRE(lda >= lda_min || m == 0 || k == 0,
              "gemm: lda too small for op(A)");
  FIT_REQUIRE(ldb >= ldb_min || n == 0 || k == 0,
              "gemm: ldb too small for op(B)");
  FIT_REQUIRE(stride_c != 0 || batch <= 1,
              "gemm_batched: members would share one C block");
  if (m == 0 || n == 0 || batch == 0) return;

  const GemmConfig cfg = gemm_config();
  // Determinism mode pins the scalar level through the same dispatch
  // table FOURINDEX_CPU=scalar resolves to — one verified code path,
  // not a parallel compile-time branch.
  const IsaLevel level = cfg.deterministic ? IsaLevel::Scalar : cfg.isa;
  const KernelTable& kt = kernel_table_for(level);

  // Scale every member's C by beta once, up front; beta == 1 skips the
  // pass entirely.
  for (std::size_t mb = 0; mb < batch; ++mb) {
    double* cm = c + mb * stride_c;
    if (beta == 0.0) {
      for (std::size_t i = 0; i < m; ++i)
        std::fill(cm + i * ldc, cm + i * ldc + n, 0.0);
    } else if (beta != 1.0) {
      for (std::size_t i = 0; i < m; ++i) kt.scal(n, beta, cm + i * ldc);
    }
  }
  if (k == 0 || alpha == 0.0) return;

  const double flops = gemm_flops(m, n, k) * static_cast<double>(batch);
  auto& em = engine_metrics();
  auto& reg = gemm_metrics();
  reg.add(em.calls, 0, 1.0);
  reg.add(em.flops, 0, flops);
  reg.set(em.isa, 0, static_cast<double>(level));

  // The blocking rules, applied to one member's m x n x k exactly as a
  // lone call applies them — for k > KC they fix each C element's
  // summation order, so they must not see the folded shape. A small
  // product contracts in a single kc = k block: the one-accumulator
  // order of a plain triple loop.
  const bool small = m * n * k < 32 * 32 * 32;
  const std::size_t KC = small ? k : cfg.kc;
  const std::size_t NC = cfg.nc;
  const std::size_t kc_blocks = (k + KC - 1) / KC;
  // k-split selection. The decision depends only on the shape
  // and the blocking (never on the lane count), and each chunk is a
  // contiguous range of whole KC blocks reduced in fixed chunk order —
  // so for a given config, results stay bit-identical across thread
  // counts, exactly like the M-split path.
  std::size_t ksplit = 1;
  if (!small) {
    ksplit = cfg.ksplit;
    if (ksplit == 0) {
      // Auto: only tall-k shapes whose M extent cannot feed multiple
      // lanes benefit; everything else stays on the M-split path.
      const std::size_t m_blocks = (m + MR - 1) / MR;
      ksplit = (m_blocks < 4 && kc_blocks >= 8) ? 4 : 1;
    }
    ksplit = std::max<std::size_t>(1, std::min(ksplit, kc_blocks));
  }

  TraceState& ts = trace_state();
  const double t_trace0 = ts.enabled ? trace_now(ts) : 0.0;
  const auto t_wall0 = std::chrono::steady_clock::now();

  // Operand views: the transpose folds into the steps, a batch fold
  // into span/stride.
  auto view_a = [&](const double* x, std::size_t span,
                    std::size_t stride) {
    return ta == Trans::No ? StridedOperand{x, span, stride, lda, 1}
                           : StridedOperand{x, span, stride, 1, lda};
  };
  auto view_b = [&](const double* x, std::size_t span,
                    std::size_t stride) {
    return tb == Trans::No ? StridedOperand{x, span, stride, 1, ldb}
                           : StridedOperand{x, span, stride, ldb, 1};
  };
  // A pass over one member (or a fold, once the caller widens it).
  auto member_pass = [&](std::size_t mb) {
    return BlockedPass{&kt,
                       m,
                       n,
                       alpha,
                       view_a(a + mb * stride_a, kLone, 0),
                       view_b(b + mb * stride_b, kLone, 0),
                       Axis{kLone, 0, ldc},
                       Axis{kLone, 0, 1},
                       KC,
                       NC,
                       cfg.mc};
  };
  // Nested calls (a Cluster rank body on a pool thread) run their lanes
  // inline anyway, so they keep one lane and the cache-tuned MC.
  const std::size_t max_lanes =
      util::ThreadPool::on_worker()
          ? 1
          : std::min(cfg.threads, util::ThreadPool::shared().size());
  double packed = 0.0;

  if (ksplit > 1) {
    // Parallel reduction over contraction chunks, member by member:
    // each chunk runs a full single-lane blocked pass into a private
    // zeroed buffer, and the buffers fold into C sequentially in chunk
    // order.
    const std::size_t lanes = std::max<std::size_t>(
        1, std::min(max_lanes, (m + MR - 1) / MR));
    const std::size_t blocks_per_chunk = (kc_blocks + ksplit - 1) / ksplit;
    const std::size_t n_tasks = std::min(lanes, ksplit);
    std::vector<double> partials(ksplit * m * n);
    std::vector<double> chunk_packed(ksplit);
    for (std::size_t mb = 0; mb < batch; ++mb) {
      BlockedPass pass = member_pass(mb);
      pass.rows = Axis{kLone, 0, n};
      std::fill(partials.begin(), partials.end(), 0.0);
      auto chunk_body = [&](std::size_t task) {
        for (std::size_t s = task; s < ksplit; s += n_tasks) {
          const std::size_t k0 = std::min(k, s * blocks_per_chunk * KC);
          const std::size_t k1 =
              std::min(k, (s + 1) * blocks_per_chunk * KC);
          chunk_packed[s] =
              k0 < k1 ? pass.run(k0, k1 - k0, partials.data() + s * m * n, 1)
                      : 0.0;
        }
      };
      if (n_tasks <= 1)
        chunk_body(0);
      else
        util::ThreadPool::shared().run_tasks(n_tasks, chunk_body);
      double* cm = c + mb * stride_c;
      for (std::size_t s = 0; s < ksplit; ++s) {
        const double* buf = partials.data() + s * m * n;
        for (std::size_t i = 0; i < m; ++i)
          kt.axpy(n, 1.0, buf + i * n, cm + i * ldc);
        packed += chunk_packed[s];
      }
    }
  } else {
    // M-split: lanes divide the ic loop of one pass. A shared A folds
    // the batch into N (member i owns columns [i*n, (i+1)*n)), a
    // shared B folds it into M; with neither shared each member runs
    // its own pass.
    auto run = [&](BlockedPass& pass, double* dst) {
      const bool tiny = static_cast<double>(pass.m) *
                            static_cast<double>(pass.n) *
                            static_cast<double>(k) <
                        32.0 * 32 * 32;
      const std::size_t lanes =
          tiny ? 1
               : std::max<std::size_t>(
                     1, std::min(max_lanes, (pass.m + MR - 1) / MR));
      // Shrink MC below the cache-tuned value when needed so every
      // lane gets >= 2 blocks.
      if (lanes > 1) {
        const std::size_t balanced =
            round_up((pass.m + 2 * lanes - 1) / (2 * lanes), MR);
        pass.MC = std::max<std::size_t>(MR, std::min(pass.MC, balanced));
      }
      packed += pass.run(0, k, dst, lanes);
    };
    if (stride_a == 0) {
      BlockedPass pass = member_pass(0);
      pass.n = batch * n;
      pass.b = view_b(b, n, stride_b);
      pass.cols = Axis{n, stride_c, 1};
      run(pass, c);
    } else if (stride_b == 0) {
      BlockedPass pass = member_pass(0);
      pass.m = batch * m;
      pass.a = view_a(a, m, stride_a);
      pass.rows = Axis{m, stride_c, ldc};
      run(pass, c);
    } else {
      for (std::size_t mb = 0; mb < batch; ++mb) {
        BlockedPass pass = member_pass(mb);
        run(pass, c + mb * stride_c);
      }
    }
  }

  reg.add(em.pack_bytes, 0, packed * sizeof(double));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_wall0)
          .count();
  if (secs > 0.0) reg.set(em.gflops, 0, flops / secs / 1e9);
  if (ts.enabled) {
    char label[96];
    if (batch > 1)
      std::snprintf(label, sizeof(label), "gemm %zux%zux%zu x%zu [%s]", m, n,
                    k, batch, isa_name(level));
    else
      std::snprintf(label, sizeof(label), "gemm %zux%zux%zu [%s]", m, n, k,
                    isa_name(level));
    const std::size_t name_id = ts.timeline.intern(label);
    ts.timeline.add_span(name_id, trace_track(ts), t_trace0,
                         trace_now(ts) - t_trace0);
  }
}

}  // namespace fit::blas
