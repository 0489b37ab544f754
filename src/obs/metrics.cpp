#include "obs/metrics.hpp"

#include <algorithm>

namespace fit::obs {

namespace {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

MetricsRegistry::MetricsRegistry(std::size_t n_ranks)
    : n_ranks_(std::max<std::size_t>(1, n_ranks)) {}

MetricsRegistry::Id MetricsRegistry::get_or_create(std::string_view name,
                                                   MetricKind kind) {
  FIT_REQUIRE(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  for (Id i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      FIT_REQUIRE(metrics_[i].kind == kind,
                  "metric '" << name << "' already registered as "
                             << kind_name(metrics_[i].kind)
                             << ", requested as " << kind_name(kind));
      return i;
    }
  }
  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  if (kind != MetricKind::Histogram) m.per_rank.assign(n_ranks_, 0.0);
  metrics_.push_back(std::move(m));
  return metrics_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  return get_or_create(name, MetricKind::Counter);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  return get_or_create(name, MetricKind::Gauge);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name) {
  return get_or_create(name, MetricKind::Histogram);
}

void MetricsRegistry::add(Id id, std::size_t rank, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  FIT_REQUIRE(id < metrics_.size(), "unknown metric id");
  Metric& m = metrics_[id];
  FIT_REQUIRE(m.kind == MetricKind::Counter,
              "add() on non-counter metric '" << m.name << "'");
  FIT_REQUIRE(rank < n_ranks_, "metric rank out of range");
  m.per_rank[rank] += v;
}

void MetricsRegistry::add_each(Id id, std::size_t rank,
                               std::span<const double> vs) {
  std::lock_guard<std::mutex> lock(mutex_);
  FIT_REQUIRE(id < metrics_.size(), "unknown metric id");
  Metric& m = metrics_[id];
  FIT_REQUIRE(m.kind == MetricKind::Counter,
              "add_each() on non-counter metric '" << m.name << "'");
  FIT_REQUIRE(rank < n_ranks_, "metric rank out of range");
  for (double v : vs) m.per_rank[rank] += v;
}

void MetricsRegistry::set(Id id, std::size_t rank, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  FIT_REQUIRE(id < metrics_.size(), "unknown metric id");
  Metric& m = metrics_[id];
  FIT_REQUIRE(m.kind == MetricKind::Gauge,
              "set() on non-gauge metric '" << m.name << "'");
  FIT_REQUIRE(rank < n_ranks_, "metric rank out of range");
  m.per_rank[rank] = v;
}

void MetricsRegistry::observe(Id id, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  FIT_REQUIRE(id < metrics_.size(), "unknown metric id");
  Metric& m = metrics_[id];
  FIT_REQUIRE(m.kind == MetricKind::Histogram,
              "observe() on non-histogram metric '" << m.name << "'");
  m.hist.add(v);
}

std::size_t MetricsRegistry::n_metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

const MetricsRegistry::Metric& MetricsRegistry::named(
    std::string_view name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return m;
  FIT_REQUIRE(false, "unknown metric '" << name << "'");
  __builtin_unreachable();
}

bool MetricsRegistry::contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : metrics_)
    if (m.name == name) return true;
  return false;
}

MetricKind MetricsRegistry::kind(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return named(name).kind;
}

double MetricsRegistry::sum(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric& m = named(name);
  FIT_REQUIRE(m.kind != MetricKind::Histogram,
              "sum() of histogram '" << m.name << "' — use hist()");
  double s = 0;
  for (double v : m.per_rank) s += v;
  return s;
}

double MetricsRegistry::max(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric& m = named(name);
  FIT_REQUIRE(m.kind != MetricKind::Histogram,
              "max() of histogram '" << m.name << "' — use hist()");
  double mx = 0;
  for (double v : m.per_rank) mx = std::max(mx, v);
  return mx;
}

double MetricsRegistry::value(std::string_view name,
                              std::size_t rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric& m = named(name);
  FIT_REQUIRE(m.kind != MetricKind::Histogram,
              "value() of histogram '" << m.name << "' — use hist()");
  FIT_REQUIRE(rank < n_ranks_, "metric rank out of range");
  return m.per_rank[rank];
}

RunningStats MetricsRegistry::hist(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Metric& m = named(name);
  FIT_REQUIRE(m.kind == MetricKind::Histogram,
              "hist() of non-histogram '" << m.name << "'");
  return m.hist;
}

std::map<std::string, double, std::less<>> MetricsRegistry::sums() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double, std::less<>> out;
  for (const auto& m : metrics_) {
    if (m.kind == MetricKind::Histogram) continue;
    double s = 0;
    for (double v : m.per_rank) s += v;
    out.emplace(m.name, s);
  }
  return out;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& m : metrics_) out.push_back(m.name);
  return out;
}

json::Value MetricsRegistry::to_json(bool per_rank_views) const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Value out = json::Value::object();
  for (const auto& m : metrics_) {
    json::Value& e = out[m.name];
    e["kind"] = kind_name(m.kind);
    if (m.kind == MetricKind::Histogram) {
      e["count"] = static_cast<double>(m.hist.count());
      e["sum"] = m.hist.sum();
      e["min"] = m.hist.min();
      e["max"] = m.hist.max();
      e["mean"] = m.hist.mean();
      e["stddev"] = m.hist.stddev();
    } else {
      double s = 0, mx = 0;
      for (double v : m.per_rank) {
        s += v;
        mx = std::max(mx, v);
      }
      e["sum"] = s;
      e["max"] = mx;
      if (per_rank_views) {
        json::Value ranks = json::Value::array();
        for (double v : m.per_rank) ranks.push_back(v);
        e["per_rank"] = std::move(ranks);
      }
    }
  }
  return out;
}

}  // namespace fit::obs
