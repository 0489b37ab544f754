// Small statistics accumulators used by benchmarks and the runtime's
// per-rank load-balance reporting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace fit {

/// Median of `v` (the mean of the middle two for an even count).
inline double median(std::vector<double> v) {
  FIT_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Streaming min/max/mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  /// max/mean ratio; 1.0 means perfectly balanced. Used to report the
  /// load imbalance of Sec. 7.3 (triangular alpha>=beta distribution).
  double imbalance() const {
    FIT_REQUIRE(n_ > 0, "imbalance of empty stats");
    return mean() > 0 ? max() / mean() : 1.0;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace fit
