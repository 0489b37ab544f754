// The repository benchmark's harness: three closed-loop workloads
// driven through the library's public API only.
//
//   dist-real   Real-mode distributed transforms (par-unfused,
//               par-fused, par-fused-inner in equal thirds) through
//               core::four_index_transform on a fresh 16-rank System C
//               cluster per op.
//   serve-mix   an in-process serve::Server on a per-run socket, one
//               server thread, one client sending NDJSON lines.
//   ckpt-real   Real-mode core::fused_par_transform on the chaos soak's
//               8-rank machine with recovery on and a fresh seeded
//               fault storm per op.
//
// run.py builds this package, pins the environment and composes the
// final result line from the JSON document run_workload prints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/json.hpp"
#include "tensor/packed.hpp"

namespace perfbench {

/// What one harness process does.
struct Options {
  std::string workload;       ///< dist-real | serve-mix | ckpt-real
  std::uint64_t seed = 1;     ///< workload seed (inputs are derived)
  double seconds = 10;        ///< timed window length
  bool setup_only = false;    ///< stop where the first timed op starts
  bool traced = false;        ///< record spans and per-layer metrics
  std::string scratch;        ///< per-run directory (socket, traces)
  std::string costs;          ///< fourindex.costs/1 table for serve-mix
};

/// Attempts and failures of the timed ops, with the first reasons.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  /// Count one op; a non-empty `failure` counts it as failed.
  void record(const std::string& failure);
};

/// dist-real: empty when `c` is within 1e-9 of the reference and
/// bit-identical to the first result of its class (`first`, when
/// given); otherwise the reason the op failed.
std::string check_dist_result(const std::optional<fit::tensor::PackedC>& c,
                              const fit::tensor::PackedC& reference,
                              const fit::tensor::PackedC* first);

/// ckpt-real: empty when the storm survivor is bit-identical to the
/// clean run, walked back at least one generation and zero-filled
/// nothing.
std::string check_storm_result(const std::optional<fit::tensor::PackedC>& c,
                               const fit::tensor::PackedC& clean,
                               double fallback_epochs, double zero_fills);

/// The fields of one serve response line the checks compare.
struct ServeReply {
  std::string outcome;
  double checksum = 0;
  double sim_seconds = 0;
  double est_seconds = 0;
  double ticket = 0;
  std::size_t ran = 0;  ///< queued requests a release ran
  bool cache_hit = false;
};

/// Parse a response line; throws fit::Error when it is not a response.
ServeReply parse_reply(const std::string& line);

/// serve-mix: empty when `reply` is not an error and matches the first
/// response to the same request in outcome, checksum, simulated time
/// and released-queue size.
std::string check_serve_reply(const ServeReply& reply,
                              const ServeReply& first);

/// Run one harness process; prints one JSON document as the last line
/// of standard output. Returns the process exit code.
int run_workload(const Options& opt);

}  // namespace perfbench
