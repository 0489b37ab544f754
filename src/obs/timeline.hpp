// Phase timeline recorder: per-track (simulated rank) spans plus
// instant events, exported as Chrome trace-event JSON — load the file
// in chrome://tracing or https://ui.perfetto.dev to inspect the BSP
// execution visually. Load imbalance (e.g. the triangular alpha >=
// beta distribution of the paper's Sec. 7.3) shows up as ragged span
// ends before each barrier.
//
// Times are simulated seconds; the exporter converts to the trace
// format's microseconds. Span names are interned (one string per
// distinct phase label) so recording thousands of ranks stays cheap.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace fit::obs {

/// Thread-safe: recording and export take one internal mutex
/// (recording happens once per rank per phase — never hot).
class Timeline {
 public:
  /// Intern a span/instant name; returns a dense id.
  std::size_t intern(std::string_view name);

  /// A completed span on `track` starting at simulated time `t_start`
  /// (seconds) lasting `duration` seconds.
  void add_span(std::size_t name_id, std::size_t track, double t_start,
                double duration);

  /// A point event (OOM, spill, ...) on `track` at time `t`.
  void add_instant(std::size_t name_id, std::size_t track, double t);

  std::size_t n_spans() const;
  std::size_t n_instants() const;
  std::string name(std::size_t id) const;

  /// Chrome trace-event document: {"traceEvents": [...], ...}. One
  /// "X" (complete) event per span with pid 0 / tid = track, one "i"
  /// event per instant, plus process/thread metadata naming the
  /// tracks "rank N".
  json::Value to_chrome_json(const std::string& process_name) const;

  /// Serialize to_chrome_json() to `path`. Returns false (and logs a
  /// warning) if the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  struct Span {
    std::size_t name_id;
    std::size_t track;
    double t_start;
    double duration;
  };
  struct Instant {
    std::size_t name_id;
    std::size_t track;
    double t;
  };

  // On a cache line of its own, like MetricsRegistry's lock.
  alignas(64) mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::size_t max_track_ = 0;
};

}  // namespace fit::obs
