#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

TEST(Error, RequireThrowsPrecondition) {
  EXPECT_THROW(FIT_REQUIRE(false, "boom " << 42), fit::PreconditionError);
  EXPECT_NO_THROW(FIT_REQUIRE(true, "fine"));
}

TEST(Error, CheckThrowsInternal) {
  EXPECT_THROW(FIT_CHECK(false, "bug"), fit::InternalError);
}

TEST(Error, MessageContainsContext) {
  try {
    FIT_REQUIRE(1 == 2, "value was " << 7);
    FAIL() << "should have thrown";
  } catch (const fit::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("value was 7"), std::string::npos);
  }
}

TEST(Error, FaultTaxonomyDerivesFromError) {
  // Every recovery-related exception is a fit::Error, so a single
  // catch (const fit::Error&) at the driver level is sufficient.
  EXPECT_THROW(throw fit::FaultError("rank died"), fit::Error);
  EXPECT_THROW(throw fit::TimeoutError("watchdog"), fit::Error);
  EXPECT_THROW(throw fit::CheckpointError("no pfs"), fit::Error);
  EXPECT_THROW(throw fit::OutOfMemoryError("oom"), fit::Error);
}

TEST(Error, FaultTaxonomyIsDistinguishable) {
  // The three recovery errors are siblings, not subtypes of each
  // other: catching one must not swallow the others.
  try {
    throw fit::FaultError("exhausted retries");
  } catch (const fit::TimeoutError&) {
    FAIL() << "FaultError caught as TimeoutError";
  } catch (const fit::CheckpointError&) {
    FAIL() << "FaultError caught as CheckpointError";
  } catch (const fit::FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos);
  }
  try {
    throw fit::CheckpointError("rank death with no recovery enabled");
  } catch (const fit::FaultError&) {
    FAIL() << "CheckpointError caught as FaultError";
  } catch (const fit::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("recovery"), std::string::npos);
  }
}

TEST(Error, StdExceptionCatchSeesTaxonomy) {
  // what() survives a catch through the std::exception base.
  try {
    throw fit::TimeoutError("phase c2 watchdog: 3.5s > 2.5s budget");
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  fit::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  fit::SplitMix64 a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  fit::SplitMix64 g(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = g.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  fit::SplitMix64 g(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(g.next_below(17), 17u);
}

TEST(Rng, HashToUnitIsPure) {
  EXPECT_EQ(fit::hash_to_unit(3, 5, 7), fit::hash_to_unit(3, 5, 7));
  EXPECT_NE(fit::hash_to_unit(3, 5, 7), fit::hash_to_unit(3, 5, 8));
  const double v = fit::hash_to_unit(12, 34, 56);
  EXPECT_GE(v, -1.0);
  EXPECT_LT(v, 1.0);
}

// ---- payload digest ----------------------------------------------------

// One 8x8x8x4 tile of doubles with every bit position in use, the
// shape of a checkpointed A/C tile.
std::vector<double> tile_payload() {
  std::vector<double> v(8 * 8 * 8 * 4);
  fit::SplitMix64 g(77);
  for (double& x : v) x = g.next_double(-1.0, 1.0);
  return v;
}

// Flips every bit of buf[0, len) in turn; returns how many flips left
// the digest unchanged.
std::size_t flips_missed(unsigned char* buf, std::size_t len) {
  const std::uint64_t base = fit::util::digest_words(buf, len);
  std::size_t missed = 0;
  for (std::size_t i = 0; i < len; ++i)
    for (int b = 0; b < 8; ++b) {
      buf[i] ^= static_cast<unsigned char>(1u << b);
      missed += fit::util::digest_words(buf, len) == base;
      buf[i] ^= static_cast<unsigned char>(1u << b);
    }
  return missed;
}

TEST(Digest, EverySingleBitFlipOfATilePayloadChangesIt) {
  auto v = tile_payload();
  auto* bytes = reinterpret_cast<unsigned char*>(v.data());
  const std::size_t len = v.size() * sizeof(double);
  const std::uint64_t base = fit::util::digest_words(bytes, len);
  EXPECT_EQ(flips_missed(bytes, len), 0u);
  EXPECT_EQ(fit::util::digest_words(bytes, len), base);  // flips undone
}

TEST(Digest, ShortAndRaggedLengthsWork) {
  std::vector<unsigned char> buf(96);
  fit::SplitMix64 g(5);
  for (auto& c : buf) c = static_cast<unsigned char>(g.next_u64());
  // Below one 32-byte stripe (0, 8, 24), exactly one (32), one plus a
  // word (40), and two stripes plus a partial word (77).
  const std::size_t lengths[] = {0, 8, 24, 32, 40, 77};
  std::set<std::uint64_t> seen;
  for (const std::size_t len : lengths) {
    const std::uint64_t d = fit::util::digest_words(buf.data(), len);
    EXPECT_TRUE(seen.insert(d).second) << "prefix of " << len << " bytes";
    // The same bytes at an odd address give the same digest.
    std::vector<unsigned char> shifted(len + 1);
    std::memcpy(shifted.data() + 1, buf.data(), len);
    EXPECT_EQ(fit::util::digest_words(shifted.data() + 1, len), d) << len;
    // A byte past the end does not matter; every bit inside does.
    buf[len] ^= 0xFF;
    EXPECT_EQ(fit::util::digest_words(buf.data(), len), d) << len;
    buf[len] ^= 0xFF;
    EXPECT_EQ(flips_missed(buf.data(), len), 0u) << len;
  }
  // An empty payload may come without a buffer.
  EXPECT_EQ(fit::util::digest_words(nullptr, 0),
            fit::util::digest_words(buf.data(), 0));
  // The length is part of the digest: zero runs of different lengths
  // differ.
  const unsigned char zeros[16] = {};
  EXPECT_NE(fit::util::digest_words(zeros, 0),
            fit::util::digest_words(zeros, 8));
  EXPECT_NE(fit::util::digest_words(zeros, 8),
            fit::util::digest_words(zeros, 16));
}

TEST(Digest, EqualPayloadsGiveEqualDigests) {
  const auto a = tile_payload();
  const std::vector<double> b(a);  // a separate buffer, same bytes
  EXPECT_EQ(fit::util::digest_words(a.data(), 8 * a.size()),
            fit::util::digest_words(b.data(), 8 * b.size()));
  // Bits, not values: +0.0 and -0.0 compare equal but digest apart.
  const double pos = 0.0, neg = -0.0;
  EXPECT_NE(fit::util::digest_words(&pos, 8),
            fit::util::digest_words(&neg, 8));
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(fit::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(fit::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(fit::median({7.0}), 7.0);
  EXPECT_THROW(fit::median({}), fit::PreconditionError);
}

TEST(Stats, BasicMoments) {
  fit::RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, Imbalance) {
  fit::RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.imbalance(), 1.5);
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(fit::human_bytes(512), "512 B");
  EXPECT_EQ(fit::human_bytes(1024), "1.00 KB");
  EXPECT_EQ(fit::human_bytes(1536), "1.50 KB");
  EXPECT_EQ(fit::human_bytes(1024.0 * 1024 * 1024), "1.00 GB");
}

TEST(Format, HumanCount) {
  EXPECT_EQ(fit::human_count(999), "999");
  EXPECT_EQ(fit::human_count(1500), "1.50K");
  EXPECT_EQ(fit::human_count(2.5e6), "2.50M");
}

TEST(Format, Table) {
  fit::TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str("demo");
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), fit::PreconditionError);
}

}  // namespace

// ---- Logging ---------------------------------------------------------

#include "util/logging.hpp"

namespace {

TEST(Logging, LevelRoundTrip) {
  const auto saved = fit::log_level();
  fit::set_log_level(fit::LogLevel::Error);
  EXPECT_EQ(fit::log_level(), fit::LogLevel::Error);
  fit::set_log_level(saved);
}

TEST(Logging, ParseNames) {
  using fit::LogLevel;
  EXPECT_EQ(fit::parse_log_level("debug", LogLevel::Off), LogLevel::Debug);
  EXPECT_EQ(fit::parse_log_level("warn", LogLevel::Off), LogLevel::Warn);
  EXPECT_EQ(fit::parse_log_level("bogus", LogLevel::Info), LogLevel::Info);
}

TEST(Logging, BelowThresholdIsNotEvaluated) {
  // The message expression must not run when filtered out.
  const auto saved = fit::log_level();
  fit::set_log_level(fit::LogLevel::Off);
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return "x";
  };
  FIT_LOG_DEBUG("value " << expensive());
  EXPECT_EQ(evaluations, 0);
  fit::set_log_level(saved);
}

}  // namespace

// ---- Args ------------------------------------------------------------

#include "util/args.hpp"

namespace {

TEST(Args, AllForms) {
  // A bare flag consumes a following non-option token as its value,
  // so trailing flags and leading positionals keep forms unambiguous.
  const char* argv[] = {"prog", "--n=32",  "--tile", "8",
                        "positional1", "77", "--verbose"};
  fit::Args args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get_int("n", 0), 32);
  EXPECT_EQ(args.get_int("tile", 0), 8);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "positional1");
  EXPECT_EQ(args.positional_int(1, -1), 77);
  EXPECT_EQ(args.positional_int(5, -1), -1);
}

TEST(Args, DoubleValues) {
  const char* argv[] = {"prog", "--scale=2.5"};
  fit::Args args(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double("other", 1.5), 1.5);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  fit::util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const std::size_t n = 100;
  std::vector<std::atomic<int>> hits(n);
  pool.run_tasks(n, [&](std::size_t t) { hits[t].fetch_add(1); });
  for (std::size_t t = 0; t < n; ++t) EXPECT_EQ(hits[t].load(), 1);
  // The pool is reusable: a second job on the same workers.
  std::atomic<int> total{0};
  pool.run_tasks(7, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 7);
}

TEST(ThreadPool, SerialPoolNeedsNoWorkers) {
  fit::util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int sum = 0;
  pool.run_tasks(5, [&](std::size_t t) { sum += static_cast<int>(t); });
  EXPECT_EQ(sum, 10);
}

TEST(ThreadPool, NestedRunTasksDegradesToInline) {
  fit::util::ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.run_tasks(8, [&](std::size_t) {
    EXPECT_TRUE(fit::util::ThreadPool::on_worker());
    // Re-entering the pool from a task must not deadlock.
    pool.run_tasks(3, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 24);
  EXPECT_FALSE(fit::util::ThreadPool::on_worker());
}

TEST(ThreadPool, FirstExceptionPropagates) {
  fit::util::ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.run_tasks(16, [&](std::size_t t) {
      executed.fetch_add(1);
      if (t == 5) throw std::runtime_error("task 5 failed");
    });
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5 failed");
  }
  // All claimed tasks ran to completion before the rethrow.
  EXPECT_EQ(executed.load(), 16);
}

TEST(ThreadPool, ParallelForCoversRangeInChunks) {
  fit::util::ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(fit::util::ThreadPool::default_thread_count(), 1u);
  EXPECT_GE(fit::util::ThreadPool::shared().size(), 1u);
}

}  // namespace

// ---- Strict parsing --------------------------------------------------

#include <cstdlib>

#include "util/parse.hpp"

namespace {

TEST(Parse, IntAcceptsWholeNumbersOnly) {
  using fit::util::parse_int;
  EXPECT_EQ(parse_int("8"), 8);
  EXPECT_EQ(parse_int("+8"), 8);
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(Parse, IntRejectsPrefixSemantics) {
  // The historical strtol bug: every one of these used to "parse".
  using fit::util::parse_int;
  EXPECT_FALSE(parse_int("8abc").has_value());
  EXPECT_FALSE(parse_int("8 ").has_value());
  EXPECT_FALSE(parse_int(" 8").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("3.5").has_value());
  EXPECT_FALSE(parse_int("0x10").has_value());
  EXPECT_FALSE(parse_int("+").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(Parse, DoubleAcceptsDecimalAndScientific) {
  using fit::util::parse_double;
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-0.5").value(), -0.5);
  EXPECT_DOUBLE_EQ(parse_double("1e-3").value(), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("7").value(), 7.0);
}

TEST(Parse, DoubleRejectsGarbageAndNonFinite) {
  using fit::util::parse_double;
  EXPECT_FALSE(parse_double("2.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double(" 1.0").has_value());
  EXPECT_FALSE(parse_double("1.0 ").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
}

TEST(Parse, EnvSizeFallsBackLoudlyNotByTruncating) {
  const char* var = "FOURINDEX_TEST_ENV_SIZE";
  ::setenv(var, "8", 1);
  EXPECT_EQ(fit::util::env_size(var, 3), 8u);
  // The motivating bug: "8abc" must NOT become 8.
  ::setenv(var, "8abc", 1);
  EXPECT_EQ(fit::util::env_size(var, 3), 3u);
  ::setenv(var, "0", 1);  // below min=1
  EXPECT_EQ(fit::util::env_size(var, 3), 3u);
  ::setenv(var, "-2", 1);
  EXPECT_EQ(fit::util::env_size(var, 3), 3u);
  ::unsetenv(var);
  EXPECT_EQ(fit::util::env_size(var, 5), 5u);
}

TEST(Parse, EnvSizeStrictThrowsInsteadOfFallingBack) {
  const char* var = "FOURINDEX_TEST_ENV_SIZE_STRICT";
  ::setenv(var, "8", 1);
  EXPECT_EQ(fit::util::env_size_strict(var, 3), 8u);
  // Regression: a negative value must never survive to the size_t
  // cast — reject it through the typed-error path, not a warning.
  ::setenv(var, "-2", 1);
  EXPECT_THROW(fit::util::env_size_strict(var, 3), fit::ParseError);
  EXPECT_THROW(fit::util::env_size_strict(var, 3, /*min=*/0),
               fit::ParseError);
  ::setenv(var, "8abc", 1);
  EXPECT_THROW(fit::util::env_size_strict(var, 3), fit::ParseError);
  ::setenv(var, "0", 1);  // below the default min=1
  EXPECT_THROW(fit::util::env_size_strict(var, 3), fit::ParseError);
  EXPECT_EQ(fit::util::env_size_strict(var, 3, /*min=*/0), 0u);
  ::unsetenv(var);
  EXPECT_EQ(fit::util::env_size_strict(var, 5), 5u);
}

TEST(Args, MalformedValuesThrowTypedErrors) {
  const char* argv[] = {"prog", "--tile=8abc", "--scale=2.5x", "12z"};
  fit::Args args(4, const_cast<char**>(argv));
  EXPECT_THROW(args.get_int("tile", 0), fit::ParseError);
  EXPECT_THROW(args.get_double("scale", 0.0), fit::ParseError);
  EXPECT_THROW(args.positional_int(0, -1), fit::ParseError);
  // Absent keys still fall back instead of throwing.
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.positional_int(5, -1), -1);
}

TEST(Args, ParseErrorIsPartOfTheTaxonomy) {
  const char* argv[] = {"prog", "--n=1e99999"};
  fit::Args args(2, const_cast<char**>(argv));
  // Catchable at the driver level like every other fit error.
  EXPECT_THROW(args.get_double("n", 0.0), fit::Error);
}

}  // namespace
