// MetricsRegistry: the single place every subsystem reports its
// quantitative state into — communication bytes and message counts
// from the GA layer, flop/integral charges from the schedules, memory
// and disk high-water marks from the cluster, cache-simulator I/O from
// trace::MemorySim.
//
// A metric is a named counter, gauge, or histogram:
//   counter    monotone per-rank accumulator (bytes moved, flops, ...);
//              aggregate views: sum / max / per-rank value;
//   gauge      last-written per-rank value (memory in use, ...);
//   histogram  streaming distribution (RunningStats: count, min, max,
//              mean, stddev) — per-phase makespans, imbalance, ...
//
// All operations are thread-safe (one internal mutex). This is cheap
// because writers batch: RankCtx buffers its charges locally and the
// cluster merges them into the registry once per rank per phase, so
// the lock is taken a handful of times per phase, never per element.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace fit::obs {

enum class MetricKind { Counter, Gauge, Histogram };

class MetricsRegistry {
 public:
  /// `n_ranks` fixes the width of every per-rank metric created in
  /// this registry (1 for single-address-space users).
  explicit MetricsRegistry(std::size_t n_ranks = 1);

  using Id = std::size_t;

  /// Get-or-create. Re-requesting a name with a different kind is a
  /// precondition error.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id histogram(std::string_view name);

  /// Counter accumulate / gauge set for one rank's slot.
  void add(Id id, std::size_t rank, double v);
  void set(Id id, std::size_t rank, double v);
  /// Counter accumulate of every value of `vs`, in order, into one
  /// rank's slot under one lock: the slot rounds exactly as the same
  /// add() calls made one by one would leave it.
  void add_each(Id id, std::size_t rank, std::span<const double> vs);
  /// One write of apply(): by the metric's kind, a counter add or a
  /// gauge set of `v` in one rank's slot.
  struct Write {
    Id id;
    std::size_t rank;
    double v;
  };
  /// Every write of `ws`, in order, under one lock: each slot ends as
  /// the same add() and set() calls made one by one would leave it.
  void apply(std::span<const Write> ws);
  /// Histogram observation (global, not per rank).
  void observe(Id id, double v);

  std::size_t n_ranks() const { return n_ranks_; }
  std::size_t n_metrics() const;
  bool contains(std::string_view name) const;
  MetricKind kind(std::string_view name) const;

  /// Aggregate views over the per-rank slots.
  double sum(std::string_view name) const;
  double max(std::string_view name) const;
  double value(std::string_view name, std::size_t rank) const;
  /// Snapshot of one histogram.
  RunningStats hist(std::string_view name) const;
  /// Snapshot of sum() for every counter and gauge, by name: diff two
  /// of them to get what happened in between (a name created after the
  /// first one counts from zero).
  std::map<std::string, double, std::less<>> sums() const;

  /// Names in creation order.
  std::vector<std::string> names() const;

  /// Snapshot of the whole registry:
  ///   { "<name>": {"kind": "counter", "sum": s, "max": m,
  ///                "per_rank": [..]}           (counter/gauge)
  ///     "<name>": {"kind": "histogram", "count": n, "min": .., ...} }
  /// `per_rank` is included only when `per_rank_views` is set (it is
  /// n_ranks values per metric — large for big simulated clusters).
  json::Value to_json(bool per_rank_views = true) const;

 private:
  struct Metric {
    std::string name;
    MetricKind kind;
    std::vector<double> per_rank;  // counter/gauge slots
    RunningStats hist;             // histogram state
  };

  Id get_or_create(std::string_view name, MetricKind kind);
  const Metric& named(std::string_view name) const;

  std::size_t n_ranks_;
  // On a cache line of its own (shared only with what it guards):
  // every lane takes this lock, and an owner such as runtime::Cluster,
  // often a stack object, keeps fields beside it that lanes read
  // without the lock. Unaligned, whether the two shared a line
  // depended on the owner's address.
  alignas(64) mutable std::mutex mutex_;
  std::vector<Metric> metrics_;
};

}  // namespace fit::obs
