// Runtime CPU-dispatch suite: the kernel tables themselves (every
// pointer present at every forced level), the FOURINDEX_CPU resolution
// rules (strict parse, loud clamp to detected features), and the
// cross-level reproducibility contract — every ISA level bit-matches
// the scalar reference on randomized GemmProperty-style cases.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <vector>

#include "blas/dispatch.hpp"
#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/tune.hpp"
#include "obs/metrics.hpp"
#include "util/cpuid.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using fit::blas::IsaLevel;
using fit::blas::Trans;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  fit::SplitMix64 g(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = g.next_double(-1.0, 1.0);
  return v;
}

// RAII environment override (tests run single-threaded; setenv is safe
// here).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_old_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

IsaLevel level_of(int i) { return static_cast<IsaLevel>(i); }

TEST(Dispatch, EveryTableEntryIsNonNullAtEveryLevel) {
  for (int i = 0; i < fit::blas::kNumIsaLevels; ++i) {
    const auto& t = fit::blas::kernel_table_for(level_of(i));
    EXPECT_EQ(t.level, level_of(i));
    EXPECT_NE(t.micro_kernel, nullptr) << fit::blas::isa_name(level_of(i));
    EXPECT_NE(t.tile_update, nullptr);
    EXPECT_NE(t.pack_a, nullptr);
    EXPECT_NE(t.pack_b, nullptr);
    EXPECT_NE(t.axpy, nullptr);
    EXPECT_NE(t.scal, nullptr);
  }
}

TEST(Dispatch, NamesRoundTripAndParseStrictly) {
  for (int i = 0; i < fit::blas::kNumIsaLevels; ++i) {
    const auto parsed = fit::blas::isa_from_name(
        fit::blas::isa_name(level_of(i)));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level_of(i));
  }
  EXPECT_FALSE(fit::blas::isa_from_name("AVX").has_value());
  EXPECT_FALSE(fit::blas::isa_from_name("avx512").has_value());
  EXPECT_FALSE(fit::blas::isa_from_name("sse2 ").has_value());
  EXPECT_FALSE(fit::blas::isa_from_name("").has_value());
}

TEST(Dispatch, DetectionIsConsistentWithCpuFeatures) {
  const auto& f = fit::util::cpu_features();
  const IsaLevel d = fit::blas::detected_isa();
  if (f.avx2 && f.fma) {
    EXPECT_EQ(d, IsaLevel::Avx2);
  }
  if (!f.avx) {
    EXPECT_LT(d, IsaLevel::Avx);
  }
  // The detector is stable (cached) across calls.
  EXPECT_EQ(fit::blas::detected_isa(), d);
}

TEST(Dispatch, EnvOverrideSelectsRequestedLevel) {
  for (const char* name : {"scalar", "sse2"}) {
    ScopedEnv env("FOURINDEX_CPU", name);
    EXPECT_EQ(fit::blas::resolve_isa(), *fit::blas::isa_from_name(name));
    // Numeric spelling resolves identically.
    const auto cfg = fit::blas::GemmConfig::autotuned();
    EXPECT_EQ(cfg.isa, *fit::blas::isa_from_name(name));
  }
  {
    ScopedEnv env("FOURINDEX_CPU", "0");
    EXPECT_EQ(fit::blas::resolve_isa(), IsaLevel::Scalar);
  }
}

TEST(Dispatch, RequestAboveDetectedClampsToDetected) {
  // avx2 is the widest level, so this request can only ever clamp
  // down (or be granted exactly on an AVX2 host).
  ScopedEnv env("FOURINDEX_CPU", "avx2");
  EXPECT_EQ(fit::blas::resolve_isa(), fit::blas::detected_isa());
  const auto cfg = fit::blas::GemmConfig::autotuned();
  EXPECT_EQ(cfg.isa, fit::blas::detected_isa());
}

TEST(Dispatch, InvalidEnvFallsBackToDetected) {
  for (const char* bad : {"fastest", "3x", " avx", "-1", "17"}) {
    ScopedEnv env("FOURINDEX_CPU", bad);
    EXPECT_EQ(fit::blas::resolve_isa(), fit::blas::detected_isa()) << bad;
  }
}

TEST(Dispatch, SetGemmConfigClampsIsaToDetected) {
  const auto base = fit::blas::gemm_config();
  auto cfg = base;
  cfg.isa = IsaLevel::Avx2;  // may exceed this host
  fit::blas::set_gemm_config(cfg);
  EXPECT_LE(fit::blas::gemm_config().isa, fit::blas::detected_isa());
  fit::blas::set_gemm_config(base);
}

// The core contract: every runnable level produces bit-identical
// results to the scalar level on randomized shapes spanning the
// micro-tile edge cases, all Trans combinations, padded strides and
// the alpha/beta grid.
TEST(DispatchProperty, AllLevelsBitMatchScalarReference) {
  const auto base = fit::blas::gemm_config();
  const IsaLevel widest = fit::blas::detected_isa();

  fit::SplitMix64 g(0xd15ba7c4);
  const std::size_t dims[] = {1, 3, 5, 8, 9, 17, 31, 33, 65, 90};
  const double scalars[] = {0.0, 1.0, -0.5};
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t m = dims[g.next_below(std::size(dims))];
    const std::size_t n = dims[g.next_below(std::size(dims))];
    const std::size_t k = dims[g.next_below(std::size(dims))];
    const Trans ta = (g.next_u64() & 1) ? Trans::Yes : Trans::No;
    const Trans tb = (g.next_u64() & 1) ? Trans::Yes : Trans::No;
    const double alpha = scalars[g.next_below(std::size(scalars))];
    const double beta = scalars[g.next_below(std::size(scalars))];
    const std::size_t arows = (ta == Trans::No) ? m : k;
    const std::size_t acols = (ta == Trans::No) ? k : m;
    const std::size_t brows = (tb == Trans::No) ? k : n;
    const std::size_t bcols = (tb == Trans::No) ? n : k;
    const std::size_t lda = acols + g.next_below(4);
    const std::size_t ldb = bcols + g.next_below(4);
    const std::size_t ldc = n + g.next_below(4);

    const auto a = random_vec(arows * lda, g.next_u64());
    const auto b = random_vec(brows * ldb, g.next_u64());
    const auto c_init = random_vec(m * ldc, g.next_u64());

    // Scalar level is the reference bits.
    std::vector<double> c_scalar = c_init;
    {
      auto cfg = base;
      cfg.isa = IsaLevel::Scalar;
      fit::blas::set_gemm_config(cfg);
      fit::blas::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                      beta, c_scalar.data(), ldc);
    }

    for (int i = 0; i <= static_cast<int>(widest); ++i) {
      auto cfg = base;
      cfg.isa = level_of(i);
      fit::blas::set_gemm_config(cfg);
      std::vector<double> c = c_init;
      fit::blas::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                      beta, c.data(), ldc);
      ASSERT_EQ(0, std::memcmp(c_scalar.data(), c.data(),
                               c.size() * sizeof(double)))
          << "level=" << fit::blas::isa_name(level_of(i)) << " m=" << m
          << " n=" << n << " k=" << k << " ta=" << int(ta)
          << " tb=" << int(tb) << " alpha=" << alpha << " beta=" << beta;
    }
  }
  fit::blas::set_gemm_config(base);
}

// Level-1 table entries: every level computes the same bits as the
// scalar entry (element-wise ops are order-preserving).
TEST(DispatchProperty, LevelHelpersBitMatchScalar) {
  const auto& scalar = fit::blas::kernel_table_for(IsaLevel::Scalar);
  const IsaLevel widest = fit::blas::detected_isa();
  const std::size_t n = 257;
  const auto x = random_vec(n, 1);
  const auto y0 = random_vec(n, 3);

  for (int i = 1; i <= static_cast<int>(widest); ++i) {
    const auto& t = fit::blas::kernel_table_for(level_of(i));

    auto y_ref = y0, y_t = y0;
    scalar.axpy(n, -1.75, x.data(), y_ref.data());
    t.axpy(n, -1.75, x.data(), y_t.data());
    EXPECT_EQ(0, std::memcmp(y_ref.data(), y_t.data(), n * sizeof(double)));

    y_ref = y0;
    y_t = y0;
    scalar.scal(n, 0.3, y_ref.data());
    t.scal(n, 0.3, y_t.data());
    EXPECT_EQ(0, std::memcmp(y_ref.data(), y_t.data(), n * sizeof(double)));
  }
}

// The k-split parallel-reduction driver: numerically equivalent to the
// reference, and — because the chunking depends only on shape and
// blocking — bit-identical across thread counts.
TEST(DispatchKsplit, MatchesReferenceAndIsThreadCountInvariant) {
  const auto base = fit::blas::gemm_config();
  const std::size_t m = 8, n = 64, k = 2048;  // tall-k: the target shape
  const auto a = random_vec(m * k, 7);
  const auto b = random_vec(k * n, 8);
  const auto c_init = random_vec(m * n, 9);

  std::vector<double> c_ref = c_init;
  fit::blas::gemm_reference(Trans::No, Trans::No, m, n, k, 1.0, a.data(), k,
                            b.data(), n, 1.0, c_ref.data(), n);

  for (const std::size_t ksplit : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}}) {
    std::vector<double> first;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      auto cfg = base;
      cfg.ksplit = ksplit;
      cfg.threads = threads;
      fit::blas::set_gemm_config(cfg);
      std::vector<double> c = c_init;
      fit::blas::gemm(Trans::No, Trans::No, m, n, k, 1.0, a.data(), k,
                      b.data(), n, 1.0, c.data(), n);
      EXPECT_LT(fit::blas::max_abs_diff(m * n, c_ref.data(), c.data()),
                1e-10 * static_cast<double>(k + 1))
          << "ksplit=" << ksplit << " threads=" << threads;
      if (first.empty())
        first = c;
      else
        ASSERT_EQ(0,
                  std::memcmp(first.data(), c.data(), c.size() * sizeof(double)))
            << "ksplit=" << ksplit << " threads=" << threads;
    }
  }
  fit::blas::set_gemm_config(base);
}

// gemm_batched folds a batch into one blocked pass — into N when A is
// shared, into M when B is shared — with micro-tiles that straddle
// members. Every member must still get exactly the bits of a lone gemm
// call: at every runnable level and lane count, for every Trans pair
// and beta, with member extents that are not multiples of MR/NR, with
// k beyond KC (small and blocked members, and the k-split reduction), and
// with C members stacked or interleaved column-wise in shared rows.
TEST(DispatchBatched, BitMatchesLoopOfGemmCalls) {
  const auto base = fit::blas::gemm_config();
  const IsaLevel widest = fit::blas::detected_isa();
  struct Shape {
    std::size_t m, n, k;
  };
  // (5,13,200) is small with k > KC = 16 while the batch of three is
  // not (the rules must see one member); (7,11,600) is blocked with
  // k > KC at the default blocking; (5,50,150) takes the k-split
  // reduction under auto k-split; (33,17,64) spans several MC/NC blocks.
  // (5,16,40) and (5,24,300) have member widths that are multiples of
  // NR and at most 16 rows even when B is shared, so passes over
  // untransposed B read it in place (small and blocked, across NC
  // blocks at NC = 16).
  const Shape shapes[] = {{5, 13, 200}, {7, 11, 600}, {5, 50, 150},
                          {6, 9, 1},    {33, 17, 64}, {5, 16, 40},
                          {5, 24, 300}};
  struct Blocking {
    std::size_t kc, mc, nc, ksplit;
  };
  const Blocking blockings[] = {{base.kc, base.mc, base.nc, 1},
                                {16, 8, 16, 1},
                                {16, 8, 16, 0}};
  enum Sharing { SharedA, SharedB, Unshared, SharedBoth };
  const std::size_t batch = 3;
  int iter = 0;
  for (const Shape& sh : shapes)
    for (const Sharing sharing : {SharedA, SharedB, Unshared, SharedBoth})
      for (const Trans ta : {Trans::No, Trans::Yes})
        for (const Trans tb : {Trans::No, Trans::Yes})
          for (const double beta : {0.0, 1.0, 0.5}) {
            const std::size_t m = sh.m, n = sh.n, k = sh.k;
            const bool interleaved = (iter++ % 2) == 1;
            const double alpha = interleaved ? -0.5 : 1.0;
            const std::size_t lda = (ta == Trans::No ? k : m) + 2;
            const std::size_t ldb = (tb == Trans::No ? n : k) + 1;
            const std::size_t arows = ta == Trans::No ? m : k;
            const std::size_t brows = tb == Trans::No ? k : n;
            const std::size_t sa =
                (sharing == SharedA || sharing == SharedBoth) ? 0
                                                              : arows * lda + 3;
            const std::size_t sb =
                (sharing == SharedB || sharing == SharedBoth) ? 0
                                                              : brows * ldb + 5;
            // C members stacked block after block, or interleaved as
            // column groups of shared rows.
            const std::size_t ldc = interleaved ? batch * n + 1 : n + 3;
            const std::size_t sc = interleaved ? n : m * ldc + 1;
            const auto a = random_vec(arows * lda + (batch - 1) * sa, iter);
            const auto b = random_vec(brows * ldb + (batch - 1) * sb,
                                      iter + 1000);
            const auto c0 =
                random_vec(m * ldc + (batch - 1) * sc, iter + 2000);
            for (const Blocking& bl : blockings)
              for (int lvl = 0; lvl <= static_cast<int>(widest); ++lvl)
                for (const std::size_t threads :
                     {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
                  auto cfg = base;
                  cfg.kc = bl.kc;
                  cfg.mc = bl.mc;
                  cfg.nc = bl.nc;
                  cfg.ksplit = bl.ksplit;
                  cfg.isa = level_of(lvl);
                  cfg.threads = threads;
                  fit::blas::set_gemm_config(cfg);
                  std::vector<double> want = c0;
                  for (std::size_t i = 0; i < batch; ++i)
                    fit::blas::gemm(ta, tb, m, n, k, alpha,
                                    a.data() + i * sa, lda,
                                    b.data() + i * sb, ldb, beta,
                                    want.data() + i * sc, ldc);
                  std::vector<double> got = c0;
                  fit::blas::gemm_batched(ta, tb, m, n, k, alpha, a.data(),
                                          lda, sa, b.data(), ldb, sb, beta,
                                          got.data(), ldc, sc, batch);
                  ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                           got.size() * sizeof(double)))
                      << "level=" << fit::blas::isa_name(level_of(lvl))
                      << " threads=" << threads << " m=" << m << " n=" << n
                      << " k=" << k << " sharing=" << sharing
                      << " ta=" << int(ta) << " tb=" << int(tb)
                      << " beta=" << beta << " kc=" << bl.kc
                      << " ksplit=" << bl.ksplit
                      << " interleaved=" << interleaved;
                }
          }
  fit::blas::set_gemm_config(base);
}

TEST(DispatchBatched, RejectsMembersSharingC) {
  std::vector<double> a(4, 1.0), b(4, 1.0), c(4, 0.0);
  EXPECT_THROW(fit::blas::gemm_batched(Trans::No, Trans::No, 2, 2, 2, 1.0,
                                       a.data(), 2, 0, b.data(), 2, 0, 0.0,
                                       c.data(), 2, 0, 2),
               fit::Error);
}

TEST(Dispatch, GemmReportsIsaMetric) {
  const auto base = fit::blas::gemm_config();
  auto cfg = base;
  cfg.isa = IsaLevel::Scalar;
  fit::blas::set_gemm_config(cfg);
  const std::size_t n = 48;
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<double> c(n * n, 0.0);
  fit::blas::gemm(Trans::No, Trans::No, n, n, n, 1.0, a.data(), n, b.data(),
                  n, 0.0, c.data(), n);
  auto& reg = fit::blas::gemm_metrics();
  EXPECT_EQ(reg.value("gemm.isa", 0),
            static_cast<double>(IsaLevel::Scalar));
  fit::blas::set_gemm_config(base);
}

TEST(Roofline, ModelIsSane) {
  EXPECT_GT(fit::blas::estimated_cpu_hz(), 1e8);   // > 100 MHz
  EXPECT_LT(fit::blas::estimated_cpu_hz(), 1e11);  // < 100 GHz
  EXPECT_EQ(fit::blas::isa_flops_per_cycle(IsaLevel::Scalar), 2.0);
  EXPECT_EQ(fit::blas::isa_flops_per_cycle(IsaLevel::Sse2), 4.0);
  EXPECT_EQ(fit::blas::isa_flops_per_cycle(IsaLevel::Avx), 8.0);
  EXPECT_EQ(fit::blas::isa_flops_per_cycle(IsaLevel::Avx2), 8.0);
  const double p1 = fit::blas::roofline_peak_gflops(IsaLevel::Avx, 1);
  EXPECT_GT(p1, 0.0);
  EXPECT_DOUBLE_EQ(fit::blas::roofline_peak_gflops(IsaLevel::Avx, 4),
                   4.0 * p1);
}

TEST(Roofline, CpuHzEnvOverrideWins) {
  // estimated_cpu_hz is cached, so exercise the parse path indirectly:
  // a fresh subprocess would be needed to re-resolve; here we only
  // check the cached value is a fixed point across calls.
  EXPECT_EQ(fit::blas::estimated_cpu_hz(), fit::blas::estimated_cpu_hz());
}

}  // namespace
