#include "serve/cost_oracle.hpp"

#include <cstdlib>
#include <utility>

#include "util/logging.hpp"

namespace fit::serve {

CostOracle::CostOracle(CostTable table, obs::MetricsRegistry* reg)
    : table_(std::move(table)), reg_(reg) {
  if (reg_) reg_->counter("serve.oracle_fallbacks");
}

CostOracle CostOracle::from_env(obs::MetricsRegistry* reg) {
  const char* path = std::getenv("FOURINDEX_COST_TABLE");
  if (!path || !*path) return CostOracle(CostTable{}, reg);
  CostOracle o(CostTable::load(path), reg);
  FIT_LOG_INFO("cost oracle: " << o.table().size() << " samples from '"
                               << path << "'");
  return o;
}

double CostOracle::rate_or_nominal(const char* kind, double shape,
                                   double nominal_rate) const {
  if (const auto r = table_.estimate_rate(kind, shape)) return *r;
  ++fallbacks_;
  if (reg_) reg_->add(reg_->counter("serve.oracle_fallbacks"), 0, 1);
  if (!table_.empty())
    FIT_LOG_WARN("cost oracle: no '" << kind << "' bucket near shape "
                                     << shape
                                     << "; falling back to the nominal rate "
                                     << nominal_rate);
  return nominal_rate;
}

core::PlanRates CostOracle::rates(const runtime::MachineConfig& nominal,
                                  double n, std::size_t tile) const {
  core::PlanRates r;
  const double t = static_cast<double>(tile);
  const double gemm_shape = 2.0 * n * n * n * t;  // dominant contraction
  const double link_shape = 8.0 * t * t;          // one tile message
  const bool gemm_backed = table_.has_bucket("gemm", gemm_shape);
  r.flops_per_rank =
      rate_or_nominal("gemm", gemm_shape, nominal.flops_per_rank);
  r.net_bandwidth_bps =
      rate_or_nominal("link", link_shape, nominal.net_bandwidth_bps);
  r.integrals_per_sec =
      rate_or_nominal("integrals", n, nominal.integrals_per_sec);
  // Plan selection is dominated by the compute term: call the rates
  // measured exactly when the GEMM bucket was real.
  r.source = gemm_backed ? "measured" : "nominal";
  return r;
}

}  // namespace fit::serve
