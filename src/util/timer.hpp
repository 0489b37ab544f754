// Timing helpers: a wall-clock stopwatch and the process CPU clock.
#pragma once

#include <chrono>
#include <ctime>

namespace fit {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// CPU seconds used so far by all threads of this process
/// (CLOCK_PROCESS_CPUTIME_ID). Unlike the wall clock it does not run
/// while the host withholds the CPU, so benches time host work on it.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace fit
