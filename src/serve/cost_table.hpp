// Persisted measured-cost table — the ggml_mulmat_bench pattern: bench
// runs record (shape bucket, measured rate) samples to a JSON file,
// and the planner later interpolates a rate for the shapes a request
// actually needs. The table gets better every time a bench runs with
// --record-costs; a missing bucket is a *loud* fallback to the
// machine's nominal rate, never a silent guess (serve::CostOracle).
//
// Schema "fourindex.costs/1":
//   {
//     "schema":  "fourindex.costs/1",
//     "samples": [ {"kind": str, "shape": number, "rate": number,
//                   "origin": str}, .. ]
//   }
// Kinds in use: "gemm" (shape = flop volume 2mnk, rate = flop/s per
// rank), "link" (shape = message bytes, rate = effective bytes/s per
// rank), "integrals" (shape = orbital extent n, rate = evals/s).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace fit::serve {

/// One measured sample: a kind, a shape bucket, and the rate the bench
/// observed there. `origin` records which bench measured it.
struct CostSample {
  std::string kind;    ///< "gemm", "link", or "integrals".
  double shape = 0;    ///< Shape bucket (see kind conventions above).
  double rate = 0;     ///< Measured rate at that shape.
  std::string origin;  ///< Bench that recorded the sample.
};

/// Sorted (kind, shape) -> rate samples with log-shape interpolation.
class CostTable {
 public:
  /// Schema tag of the persisted document.
  static constexpr const char* kSchema = "fourindex.costs/1";

  /// Record one sample (shape and rate must be positive and finite).
  void add(CostSample s);
  /// Merge every sample of `other` into this table.
  void merge(const CostTable& other);

  /// Number of samples held.
  std::size_t size() const { return samples_.size(); }
  /// True when no samples are held.
  bool empty() const { return samples_.empty(); }

  /// True when `kind` holds a sample within one decade of `shape` —
  /// the coverage test behind the oracle's loud-fallback rule: a rate
  /// extrapolated across more than 10x in shape is a guess, not a
  /// measurement.
  bool has_bucket(std::string_view kind, double shape) const;

  /// Rate for (kind, shape): piecewise-linear in log(shape) between
  /// the bracketing samples, clamped to the boundary rate outside the
  /// sampled range. nullopt exactly when has_bucket is false.
  std::optional<double> estimate_rate(std::string_view kind,
                                      double shape) const;

  /// Seconds to perform `work` units of `kind` at the estimated rate;
  /// nullopt when the bucket is missing.
  std::optional<double> estimate_seconds(std::string_view kind,
                                         double shape, double work) const;

  /// The persisted document (schema above).
  obs::json::Value to_json() const;
  /// Parse a persisted document; throws fit::ParseError on a wrong
  /// schema, missing keys, or non-finite/non-positive samples.
  static CostTable from_json(const obs::json::Value& doc);

  /// Read a table from `path`; throws fit::ParseError when the file is
  /// unreadable or malformed (a *set but broken* cost table must stop
  /// the serve process, not silently degrade every plan to nominal).
  static CostTable load(const std::string& path);
  /// Write the table to `path`; returns false (with a warning) when
  /// the file cannot be written.
  bool save(const std::string& path) const;

  /// All samples, sorted by (kind, shape).
  const std::vector<CostSample>& samples() const { return samples_; }

 private:
  std::vector<CostSample> samples_;  // kept sorted by (kind, shape)
};

/// Bench-side --record-costs support: scan argv for "--record-costs"
/// or "--record-costs=PATH", strip the flag (so google-benchmark's own
/// argument check never sees it), and return the table path — the
/// explicit PATH, else $FOURINDEX_COST_TABLE, else
/// "fourindex.costs.json". Empty when the flag is absent.
std::string record_costs_flag(int* argc, char** argv);

/// Merge `fresh` into whatever table already sits at `path` (if
/// readable) and save the union — benches accumulate into one table
/// across runs. Returns false (with a warning) when the save fails.
bool record_costs(const std::string& path, const CostTable& fresh);

}  // namespace fit::serve
