// Public facade of the fourindex library.
//
// One call — four_index_transform() — runs any of the paper's
// schedules, sequential or distributed, and returns the transformed
// tensor together with uniform execution statistics. See README.md
// for a tour and examples/ for runnable programs.
#pragma once

#include <optional>
#include <string>

#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "runtime/cluster.hpp"

/// \file
/// \brief Public facade: one entry point over every schedule in the
/// library.

namespace fit::core {

/// Every schedule the facade can run.
enum class Schedule {
  Reference,     ///< dense O(n^5), no symmetry — correctness oracle
  Unfused,       ///< Listing 1
  Fused12_34,    ///< Listing 2 (op12/34)
  Recompute,     ///< Listing 3
  Fused1234,     ///< Listing 7 (op1234)
  ParUnfused,    ///< Listing 4 x4, distributed
  ParFused,      ///< Listing 8, distributed
  ParFusedInner, ///< Listing 10, distributed
  Hybrid,        ///< Sec. 7.4 fuse/unfuse hybrid: runs Resilient
  Resilient,     ///< hybrid + fault recovery and bound-guided degradation
};

/// Printable name of a schedule.
std::string to_string(Schedule s);

/// Facade options: which schedule, and the distributed knobs.
struct TransformOptions {
  /// Schedule to run.
  Schedule schedule = Schedule::Hybrid;
  /// Options used by the distributed schedules.
  ParOptions par;
};

/// Uniform result of four_index_transform.
struct TransformOutcome {
  /// The transformed tensor (absent for Simulate-mode runs).
  std::optional<tensor::PackedC> c;
  /// Populated by sequential schedules.
  SeqStats seq;
  /// Populated by distributed schedules.
  ParStats par;
  /// True when a distributed schedule ran.
  bool distributed = false;
};

/// Run the transform. Distributed schedules require `cluster`;
/// sequential ones ignore it. Throws OutOfMemoryError when a
/// distributed schedule does not fit the cluster (the paper's
/// "Failed" outcome).
TransformOutcome four_index_transform(const Problem& p,
                                      const TransformOptions& opt = {},
                                      runtime::Cluster* cluster = nullptr);

}  // namespace fit::core
