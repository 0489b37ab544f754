// Measured-cost oracle behind the serve planner: wraps a persisted
// CostTable and answers "what rates does this machine actually
// deliver?" in the form the planner consumes (core::PlanRates).
//
// The oracle substitutes bench-measured GEMM, link, and integral rates
// for the MachineConfig's nominal ones wherever the table has a bucket
// for the shape at hand; a missing bucket falls back to the nominal
// rate LOUDLY — one warning per (kind, shape) class and a counted
// serve.oracle_fallbacks metric — so a plan priced on data-sheet
// numbers is always visible as such.
#pragma once

#include <cstddef>
#include <string>

#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "runtime/machine.hpp"
#include "serve/cost_table.hpp"

namespace fit::serve {

/// Rates queries answered from bench measurements, nominal fallback.
class CostOracle {
 public:
  /// An empty oracle: every query falls back to nominal (without
  /// warnings — there is nothing to miss from).
  CostOracle() = default;
  /// Oracle over a measured table. When `reg` is given, fallbacks are
  /// counted on its "serve.oracle_fallbacks" counter.
  explicit CostOracle(CostTable table, obs::MetricsRegistry* reg = nullptr);

  /// Build from FOURINDEX_COST_TABLE: unset means an empty (all
  /// nominal) oracle; a set-but-unreadable or malformed path throws
  /// fit::ParseError — a serve process must not silently run nominal
  /// after being told to run measured.
  static CostOracle from_env(obs::MetricsRegistry* reg = nullptr);

  /// Effective planner rates for a transform of orbital extent `n`
  /// with tile width `tile` on `nominal`: the measured GEMM rate at
  /// the transform's dominant contraction volume (2 n^3 tile flops),
  /// the measured link rate at the tile message size (8 tile^2 bytes),
  /// and the measured integral-evaluation rate at extent n. Each
  /// missing bucket keeps the nominal rate and counts a fallback.
  /// PlanRates::source reads "measured" when at least the GEMM rate —
  /// the term that dominates plan selection — was backed by a bucket.
  core::PlanRates rates(const runtime::MachineConfig& nominal, double n,
                        std::size_t tile) const;

  /// True when the oracle carries any measurements at all.
  bool measured() const { return !table_.empty(); }
  /// Nominal-rate substitutions performed so far (missing buckets).
  std::size_t fallbacks() const { return fallbacks_; }
  /// The backing measurement table.
  const CostTable& table() const { return table_; }

 private:
  double rate_or_nominal(const char* kind, double shape,
                         double nominal_rate) const;

  CostTable table_;
  obs::MetricsRegistry* reg_ = nullptr;
  mutable std::size_t fallbacks_ = 0;
};

}  // namespace fit::serve
