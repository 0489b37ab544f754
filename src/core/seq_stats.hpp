// Execution statistics for the sequential (single-address-space)
// schedules: flop counts, integral evaluations, and peak simultaneous
// memory in tensor words — the quantities the paper's Listings 1-3 and
// 7 annotate in their comments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

/// \file
/// \brief Execution statistics (flops, integral evaluations, peak
/// words) for the sequential schedules.

namespace fit::core {

/// What a sequential schedule did: the quantities the paper's listings
/// annotate in their comments.
struct SeqStats {
  /// Floating-point operations (2 per multiply-add).
  double flops = 0;
  /// On-the-fly integral evaluations (ComputeA) made by this run alone,
  /// not by earlier runs on the same problem.
  std::uint64_t integral_evals = 0;
  /// Max simultaneously live tensor words.
  std::size_t peak_words = 0;
  /// Host time spent executing the schedule.
  double wall_seconds = 0;

  /// Register these counters under "<prefix>.flops" / ".integral_evals"
  /// (counters, rank 0) and "<prefix>.peak_words" / ".wall_seconds"
  /// (gauges) — the sequential schedules' view into the shared
  /// observability registry.
  void publish(obs::MetricsRegistry& registry,
               const std::string& prefix) const {
    registry.add(registry.counter(prefix + ".flops"), 0, flops);
    registry.add(registry.counter(prefix + ".integral_evals"), 0,
                 static_cast<double>(integral_evals));
    registry.set(registry.gauge(prefix + ".peak_words"), 0,
                 static_cast<double>(peak_words));
    registry.set(registry.gauge(prefix + ".wall_seconds"), 0,
                 wall_seconds);
  }
};

/// Tracks current/peak live tensor words. Schedules charge/release
/// around each allocation so peak_words reproduces the listings'
/// "Memory required" annotations.
class MemMeter {
 public:
  /// Charge `words` live words; updates the peak.
  void alloc(std::size_t words) {
    current_ += words;
    peak_ = std::max(peak_, current_);
  }
  /// Release `words` previously charged with alloc.
  void release(std::size_t words) { current_ -= words; }

  /// Currently live words.
  std::size_t current() const { return current_; }
  /// High-water mark of live words.
  std::size_t peak() const { return peak_; }

 private:
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace fit::core
