// The persistent transform service: parse a request, admit it against
// what its chain will hold, price it at the cost oracle's measured
// rates, and execute it — with a schedule cache so a repeated identical
// request skips the per-phase balance DES.
//
// Every request runs one chain, fused-inner, and a solo request is the
// batch of one. Admission first bounds the request (ranks, orbitals,
// batch width, the C tile grids) and rejects one whose C alone exceeds
// the machine, both from closed-form sizes before anything is built.
// It then checks the chain per rank on the idle machine
// (core::check_capacity, a dry run of the chain, once per request
// fingerprint) and reserves the check's aggregate peak. Three verdicts:
//   admitted   the peak fits the live remainder: the unreserved bytes
//              of the machine the request names, capped by the
//              tenant's unreserved quota;
//   queued     it fits the idle machine (and the quota) but not the
//              live remainder — parked up to the configured queue
//              depth (FOURINDEX_SERVE_QUEUE) and retried on every
//              release;
//   rejected   the request exceeds the service's bounds, some rank of
//              the idle machine cannot hold its share, the peak
//              exceeds the quota, or the queue is full.
//
// Memory accounting: plan-only requests hold their reservation until
// they are released; executing requests run to completion before the
// next request is admitted, so they hold none. Each machine, (system,
// nodes), is its own reservation pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "core/schedules_par.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/cost_oracle.hpp"
#include "util/error.hpp"

namespace fit::serve {

/// One transform request, as carried by the NDJSON protocol.
struct Request {
  std::string molecule = "Hyperpolar";  ///< Paper name, or "custom".
  std::size_t custom_n = 0;             ///< Extent for "custom".
  unsigned custom_s = 1;                ///< Irrep order for "custom".
  std::string system = "A";             ///< Machine family: A | B | C.
  std::size_t n_nodes = 4;              ///< Cluster size in nodes.
  std::string balance = "auto";         ///< ga::Balance spelling.
  std::size_t tile = 4;                 ///< Tile extent per index.
  std::size_t tile_l = 8;               ///< L-dimension tile extent.
  bool real = false;       ///< Real execution (checksummed) vs Simulate.
  bool plan_only = false;  ///< Admit + reserve, do not execute.
  /// Shared-basis batch width: the members run through one fused-inner
  /// schedule (core::batched_fused_inner_par_transform), paying the AO
  /// integral fill once; 1 = a solo request, the batch of one.
  std::size_t batch = 1;
  /// Submitting tenant. Admission charges this tenant's reservations
  /// against Options::tenant_quota_bytes, and the queue drain rotates
  /// across tenants instead of strict FIFO. Empty = the anonymous
  /// single tenant (exactly the untenanted behavior).
  std::string tenant;
};

/// Parse the "transform" request object. Throws fit::ParseError with a
/// stable taxonomy: "request is not a JSON object", "missing string
/// field '...'", "unknown molecule '...'", "unknown system '...'",
/// "unknown balance mode '...'", "field '...' must be a positive
/// number", "custom molecule needs field 'n' >= 2", "field
/// 'irrep_order' must be a power of two <= 32".
Request parse_request(const obs::json::Value& v);

/// The admission controller's verdict.
enum class Admission {
  Admitted,  ///< The chain's peak fits the live remainder.
  Queued,    ///< Fits an idle machine; parked until a release.
  Rejected,  ///< Exceeds the service's bounds or the idle machine,
             ///< or the queue is full.
  Error      ///< Malformed request; see Response::error.
};
/// Wire spelling of a verdict ("admitted", "queued", ...).
const char* to_string(Admission a);

/// One response line of the NDJSON protocol.
struct Response {
  Admission admission = Admission::Error;  ///< The verdict.
  bool cache_hit = false;  ///< Schedule cache replayed this plan.
  std::uint64_t ticket = 0;      ///< Reservation/queue handle (0 = none).
  std::string fusion;            ///< The chain that runs: "fused-inner".
  std::string balance;           ///< Balance mode the request ran with.
  std::string rate_source;       ///< "measured" or "nominal".
  double est_seconds = 0;        ///< Planner estimate at those rates.
  double sim_seconds = 0;        ///< Modeled time (0 when not executed).
  double result_checksum = 0;    ///< FNV fold of C (real mode only; a
                                 ///< batch folds its members' folds).
  std::size_t batch = 1;         ///< Shared-basis batch width echoed back.
  std::string tenant;            ///< Submitting tenant echoed back.
  std::string note;              ///< Why a request waits (queued).
  std::string error;             ///< Non-empty for Rejected / Error.

  /// The response as a JSON object, ready for one NDJSON line.
  obs::json::Value to_json() const;
};

/// The persistent service: admission by the fused-inner chain's
/// per-rank capacity check and aggregate peak (per tenant, against the
/// unreserved machine and the tenant's quota), oracle-rated pricing, a
/// schedule cache keyed per batch fingerprint, and a queue of waiting
/// requests drained round-robin across tenants (plain FIFO when only
/// one tenant is present).
class TransformService {
 public:
  /// Tunables not carried per-request.
  struct Options {
    /// Queue slots for requests that fit an idle machine but not the
    /// current reservations. Default from FOURINDEX_SERVE_QUEUE (4).
    std::size_t queue_depth = 4;
    /// Per-tenant cap on reserved aggregate bytes (0 = uncapped). A
    /// request whose need exceeds the cap outright is Rejected; one
    /// blocked only by the tenant's live reservations is Queued and
    /// retried as they release. Default from FOURINDEX_TENANT_QUOTA
    /// (bytes, 0).
    double tenant_quota_bytes = 0;
  };

  /// Service with default options around \p oracle.
  explicit TransformService(CostOracle oracle);
  /// Service with explicit options around \p oracle.
  TransformService(CostOracle oracle, Options opt);
  /// Oracle from FOURINDEX_COST_TABLE, queue depth from
  /// FOURINDEX_SERVE_QUEUE.
  static TransformService from_env();

  /// Admit (and unless plan_only/queued/rejected, execute) a request.
  Response submit(const Request& r);
  /// Read one parsed NDJSON request document and submit it; a malformed
  /// request becomes an Admission::Error response carrying the taxonomy
  /// message instead of an exception (the server loop stays up).
  Response submit(const obs::json::Value& doc);
  /// Parse one NDJSON request line and submit it; a line that is not
  /// JSON is answered the same way.
  Response submit_line(const std::string& json_line);

  /// Release a reservation (a finished plan_only admission). Frees its
  /// memory and retries the queue FIFO; every queued request that now
  /// fits runs and its response is returned.
  std::vector<Response> release(std::uint64_t ticket);

  /// Reserved aggregate bytes currently held against admissions,
  /// summed over the machines.
  double reserved_bytes() const;
  /// Requests parked in the FIFO queue.
  std::size_t queued() const { return queue_.size(); }
  /// Bytes currently reserved by one tenant's live admissions.
  double tenant_reserved(const std::string& tenant) const;
  /// Per-tenant reserved bytes for every tenant holding a reservation.
  const std::unordered_map<std::string, double>& tenant_reservations()
      const {
    return tenant_reserved_;
  }
  /// The per-tenant reservation cap in force (0 = uncapped).
  double tenant_quota_bytes() const { return opt_.tenant_quota_bytes; }

  /// serve.* counters/gauges: requests, admitted, queued, rejected,
  /// errors, cache_hits, cache_misses, des_skips, oracle_fallbacks,
  /// released, reserved_bytes, queue_depth.
  obs::MetricsRegistry& metrics() { return *reg_; }
  /// Read-only view of the serve.* counters.
  const obs::MetricsRegistry& metrics() const { return *reg_; }

  /// The cost oracle rating this service's plans.
  const CostOracle& oracle() const { return oracle_; }

 private:
  struct Ticketed {
    std::uint64_t ticket;
    Request request;
    double need_bytes;  // reserved (holds) or required (queued)
  };

  std::uint64_t fingerprint(const Request& r, const std::string& source) const;
  Response admit_and_run(const Request& r, bool from_queue);
  /// The taxonomy reply to `e`, echoing what `req` (if it parsed) asked.
  Response failed(const Error& e, const Request* req);
  Response run(const Request& r, const core::Problem& p,
               const core::PlanRates& rates, core::BalanceCache& memo,
               Response rsp);

  CostOracle oracle_;
  Options opt_;
  /// Heap-held so the service stays movable (MetricsRegistry owns a
  /// mutex) and the oracle's registry pointer survives moves.
  std::unique_ptr<obs::MetricsRegistry> reg_ =
      std::make_unique<obs::MetricsRegistry>(1);
  /// The schedule cache: per-phase balance picks of each fingerprint's
  /// earlier runs.
  std::unordered_map<std::uint64_t, core::BalanceCache> cache_;
  /// core::check_capacity verdicts on the idle machine, per fingerprint.
  std::unordered_map<std::uint64_t, core::CapacityCheck> capacity_checks_;
  std::deque<Ticketed> queue_;
  std::vector<Ticketed> holds_;
  /// Live reservation bytes per machine, (system, nodes): a hold counts
  /// only against the machine it named (entries erased at zero).
  std::map<std::pair<std::string, std::size_t>, double> reserved_;
  /// Live reservation bytes per tenant (entries erased at zero).
  std::unordered_map<std::string, double> tenant_reserved_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace fit::serve
