#include "serve/cost_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace fit::serve {

namespace {

bool sample_order(const CostSample& a, const CostSample& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.shape < b.shape;
}

}  // namespace

void CostTable::add(CostSample s) {
  FIT_REQUIRE(std::isfinite(s.shape) && s.shape > 0 &&
                  std::isfinite(s.rate) && s.rate > 0,
              "cost sample needs positive finite shape and rate (kind '"
                  << s.kind << "')");
  FIT_REQUIRE(!s.kind.empty(), "cost sample needs a kind");
  const auto at =
      std::lower_bound(samples_.begin(), samples_.end(), s, sample_order);
  // Same (kind, shape) measured again: the newer rate wins — benches
  // re-run and the table should track the latest hardware behavior.
  if (at != samples_.end() && at->kind == s.kind && at->shape == s.shape) {
    at->rate = s.rate;
    at->origin = std::move(s.origin);
    return;
  }
  samples_.insert(at, std::move(s));
}

void CostTable::merge(const CostTable& other) {
  for (const auto& s : other.samples_) add(s);
}

bool CostTable::has_bucket(std::string_view kind, double shape) const {
  if (!(std::isfinite(shape) && shape > 0)) return false;
  for (const auto& s : samples_) {
    if (s.kind != kind) continue;
    if (std::fabs(std::log10(shape / s.shape)) <= 1.0) return true;
  }
  return false;
}

std::optional<double> CostTable::estimate_rate(std::string_view kind,
                                               double shape) const {
  if (!has_bucket(kind, shape)) return std::nullopt;
  // samples_ is sorted by (kind, shape): find the bracketing pair.
  const CostSample* lo = nullptr;
  const CostSample* hi = nullptr;
  for (const auto& s : samples_) {
    if (s.kind != kind) continue;
    if (s.shape <= shape) lo = &s;
    if (s.shape >= shape && !hi) hi = &s;
  }
  if (lo && !hi) return lo->rate;  // above the sampled range
  if (hi && !lo) return hi->rate;  // below the sampled range
  if (lo == hi || hi->shape == lo->shape) return lo->rate;
  const double t = (std::log(shape) - std::log(lo->shape)) /
                   (std::log(hi->shape) - std::log(lo->shape));
  return lo->rate + t * (hi->rate - lo->rate);
}

obs::json::Value CostTable::to_json() const {
  obs::json::Value doc = obs::json::Value::object();
  doc["schema"] = kSchema;
  obs::json::Value arr = obs::json::Value::array();
  for (const auto& s : samples_) {
    obs::json::Value e = obs::json::Value::object();
    e["kind"] = s.kind;
    e["shape"] = s.shape;
    e["rate"] = s.rate;
    e["origin"] = s.origin;
    arr.push_back(std::move(e));
  }
  doc["samples"] = std::move(arr);
  return doc;
}

CostTable CostTable::from_json(const obs::json::Value& doc) {
  auto fail = [](const std::string& why) -> CostTable {
    throw ParseError("cost table: " + why);
  };
  if (!doc.is_object()) return fail("document is not an object");
  const auto* schema = doc.find("schema");
  if (!schema || !schema->is_string() || schema->as_string() != kSchema)
    return fail(std::string("missing or unknown schema (want '") + kSchema +
                "')");
  const auto* samples = doc.find("samples");
  if (!samples || !samples->is_array()) return fail("missing array 'samples'");
  CostTable t;
  for (std::size_t i = 0; i < samples->size(); ++i) {
    const auto& e = samples->at(i);
    const std::string at = "samples[" + std::to_string(i) + "]";
    if (!e.is_object()) return fail(at + " is not an object");
    const auto* kind = e.find("kind");
    const auto* shape = e.find("shape");
    const auto* rate = e.find("rate");
    if (!kind || !kind->is_string() || kind->as_string().empty())
      return fail(at + " missing non-empty string 'kind'");
    if (!shape || !shape->is_number() || !(shape->as_number() > 0) ||
        !std::isfinite(shape->as_number()))
      return fail(at + " missing positive finite number 'shape'");
    if (!rate || !rate->is_number() || !(rate->as_number() > 0) ||
        !std::isfinite(rate->as_number()))
      return fail(at + " missing positive finite number 'rate'");
    CostSample s;
    s.kind = kind->as_string();
    s.shape = shape->as_number();
    s.rate = rate->as_number();
    if (const auto* origin = e.find("origin"); origin && origin->is_string())
      s.origin = origin->as_string();
    t.add(std::move(s));
  }
  return t;
}

CostTable CostTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw ParseError("cost table: cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(obs::json::parse(text.str()));
  } catch (const obs::json::ParseError& e) {
    throw ParseError("cost table '" + path + "': " + e.what());
  }
}

bool CostTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    FIT_LOG_WARN("cannot write cost table to '" << path << "'");
    return false;
  }
  out << to_json().dump(2);
  if (!out.good()) {
    FIT_LOG_WARN("short write of cost table to '" << path << "'");
    return false;
  }
  return true;
}

std::string record_costs_flag(int* argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--record-costs") {
      path = "-";  // flag present, path from the environment below
    } else if (arg.rfind("--record-costs=", 0) == 0) {
      path = arg.substr(std::string_view("--record-costs=").size());
    } else {
      argv[w++] = argv[i];
    }
  }
  *argc = w;
  if (path == "-" || (path.empty() && std::getenv("FOURINDEX_RECORD_COSTS"))) {
    const char* env = std::getenv("FOURINDEX_COST_TABLE");
    path = env && *env ? env : "fourindex.costs.json";
  }
  return path;
}

bool record_costs(const std::string& path, const CostTable& fresh) {
  CostTable merged;
  if (std::ifstream probe(path); probe) {
    try {
      merged = CostTable::load(path);
    } catch (const ParseError& e) {
      // A corrupt table must not survive a recording run: replace it.
      FIT_LOG_WARN("replacing unreadable cost table: " << e.what());
      merged = CostTable{};
    }
  }
  merged.merge(fresh);
  const bool ok = merged.save(path);
  if (ok)
    FIT_LOG_INFO("recorded " << fresh.size() << " cost samples into '"
                             << path << "' (" << merged.size() << " total)");
  return ok;
}

}  // namespace fit::serve
