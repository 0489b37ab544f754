#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "runtime/cluster.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

namespace fit::serve {

namespace {

// Same 32-bit FNV-1a fold convention as the benches: exactly
// representable as a JSON number, equal folds = bit-identical tensors.
double result_checksum(const tensor::PackedC& c) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const std::size_t n = c.n();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      for (std::size_t cc = 0; cc < n; ++cc)
        for (std::size_t d = 0; d < n; ++d) {
          const double v = c.get(a, b, cc, d);
          h = util::fnv1a_bytes(&v, sizeof v, h);
        }
  return static_cast<double>((h >> 32) ^ (h & 0xffffffffull));
}

runtime::MachineConfig machine_for(const Request& r) {
  if (r.system == "A") return runtime::system_a(r.n_nodes);
  if (r.system == "B") return runtime::system_b(r.n_nodes);
  return runtime::system_c(r.n_nodes);
}

chem::Molecule molecule_for(const Request& r) {
  if (r.molecule == "custom")
    return chem::custom_molecule("serve", r.custom_n, r.custom_s);
  return chem::paper_molecule(r.molecule);
}

// What one request may ask of the service. Admission checks a request
// with a dry run of its chain, which builds every array on a cluster of
// the request's ranks, each with a dense index of its tile grid (8
// bytes per cell). The rank, orbital and batch bounds are checked
// before anything is built; the dry run itself stops before it walks
// more than kMaxCheckCells tile-grid cells (64 MB of index at most, at
// about 20 ns a cell on a current x86 core).
constexpr std::size_t kMaxRanks = std::size_t{1} << 16;
constexpr std::size_t kMaxOrbitals = 2048;
constexpr std::size_t kMaxBatch = 64;
constexpr double kMaxCheckCells = 0x1p23;

const char* kCounters[] = {
    "serve.requests",   "serve.admitted",     "serve.queued",
    "serve.rejected",   "serve.errors",       "serve.cache_hits",
    "serve.cache_misses", "serve.des_skips",  "serve.released",
    "serve.executed",   "serve.batch_requests", "serve.batch_members",
    "serve.quota_rejected",
};

// Size fields lie below 2^64: converting a double outside [0, 2^64) to
// std::size_t is undefined.
constexpr double kSizeLimit = 0x1p64;

}  // namespace

Request parse_request(const obs::json::Value& v) {
  if (!v.is_object()) throw ParseError("request is not a JSON object");
  Request r;

  auto get_string = [&](const char* key, std::string& into, bool required) {
    const auto* f = v.find(key);
    if (!f) {
      if (required)
        throw ParseError(std::string("missing string field '") + key + "'");
      return;
    }
    if (!f->is_string())
      throw ParseError(std::string("field '") + key + "' must be a string");
    into = f->as_string();
  };
  auto get_size = [&](const char* key, std::size_t& into) {
    const auto* f = v.find(key);
    if (!f) return;
    // Range first, then the cast.
    const double x = f->is_number() ? f->as_number() : 0.0;
    if (!(x >= 1 && x < kSizeLimit) || x != std::floor(x))
      throw ParseError(std::string("field '") + key +
                       "' must be a positive number");
    into = static_cast<std::size_t>(x);
  };
  auto get_bool = [&](const char* key, bool& into) {
    const auto* f = v.find(key);
    if (!f) return;
    if (!f->is_bool())
      throw ParseError(std::string("field '") + key + "' must be a boolean");
    into = f->as_bool();
  };

  get_string("molecule", r.molecule, /*required=*/true);
  get_string("system", r.system, /*required=*/false);
  get_string("balance", r.balance, /*required=*/false);
  get_string("tenant", r.tenant, /*required=*/false);
  get_size("nodes", r.n_nodes);
  get_size("tile", r.tile);
  get_size("tile_l", r.tile_l);
  get_size("batch", r.batch);
  get_bool("real", r.real);
  get_bool("plan_only", r.plan_only);

  if (r.molecule == "custom") {
    std::size_t n = 0;
    get_size("n", n);
    if (n < 2) throw ParseError("custom molecule needs field 'n' >= 2");
    r.custom_n = n;
    std::size_t s = 1;
    get_size("irrep_order", s);
    // The schedules' tile masks carry one bit per irrep in 32 bits.
    if (s > 32 || (s & (s - 1)) != 0)
      throw ParseError("field 'irrep_order' must be a power of two <= 32");
    r.custom_s = static_cast<unsigned>(s);
  } else {
    bool known = false;
    for (const auto& m : chem::paper_molecules())
      known = known || m.name == r.molecule;
    if (!known) throw ParseError("unknown molecule '" + r.molecule + "'");
  }
  if (r.system != "A" && r.system != "B" && r.system != "C")
    throw ParseError("unknown system '" + r.system + "' (want A|B|C)");
  if (!ga::parse_balance(r.balance))
    throw ParseError("unknown balance mode '" + r.balance + "'");
  return r;
}

const char* to_string(Admission a) {
  switch (a) {
    case Admission::Admitted: return "admitted";
    case Admission::Queued:   return "queued";
    case Admission::Rejected: return "rejected";
    case Admission::Error:    return "error";
  }
  return "error";
}

obs::json::Value Response::to_json() const {
  obs::json::Value doc = obs::json::Value::object();
  doc["outcome"] = to_string(admission);
  doc["cache_hit"] = cache_hit;
  doc["ticket"] = ticket;
  doc["fusion"] = fusion;
  doc["balance"] = balance;
  doc["rate_source"] = rate_source;
  doc["est_seconds"] = est_seconds;
  doc["sim_seconds"] = sim_seconds;
  doc["result_checksum"] = result_checksum;
  doc["batch"] = static_cast<double>(batch);
  doc["tenant"] = tenant;
  doc["note"] = note;
  doc["error"] = error;
  return doc;
}

TransformService::TransformService(CostOracle oracle)
    : TransformService(std::move(oracle), Options{}) {}

TransformService::TransformService(CostOracle oracle, Options opt)
    : oracle_(std::move(oracle)), opt_(opt) {
  for (const char* name : kCounters) reg_->counter(name);
  reg_->gauge("serve.reserved_bytes");
  reg_->gauge("serve.queue_depth");
  // Re-point the oracle's fallback counting at this registry so
  // serve.oracle_fallbacks reflects exactly this service's plans.
  oracle_ = CostOracle(oracle_.table(), reg_.get());
}

TransformService TransformService::from_env() {
  Options opt;
  opt.queue_depth = util::env_size_strict("FOURINDEX_SERVE_QUEUE", 4,
                                          /*min=*/0);
  opt.tenant_quota_bytes = static_cast<double>(
      util::env_size_strict("FOURINDEX_TENANT_QUOTA", 0, /*min=*/0));
  return TransformService(CostOracle::from_env(), opt);
}

double TransformService::tenant_reserved(const std::string& tenant) const {
  const auto it = tenant_reserved_.find(tenant);
  return it == tenant_reserved_.end() ? 0.0 : it->second;
}

std::uint64_t TransformService::fingerprint(const Request& r,
                                            const std::string& source) const {
  std::uint64_t h = util::fnv1a(r.molecule);
  h = util::fnv1a_u64(r.custom_n, h);
  h = util::fnv1a_u64(r.custom_s, h);
  h = util::fnv1a(r.system, h);
  h = util::fnv1a_u64(r.n_nodes, h);
  h = util::fnv1a(r.balance, h);
  h = util::fnv1a_u64(r.tile, h);
  h = util::fnv1a_u64(r.tile_l, h);
  h = util::fnv1a_u64(r.real ? 1 : 0, h);
  // The batch width changes the schedule (and the balance memo's phase
  // shapes); the tenant does not — tenants share cache entries.
  h = util::fnv1a_u64(r.batch, h);
  h = util::fnv1a(source, h);
  return h;
}

double TransformService::reserved_bytes() const {
  double sum = 0;
  for (const auto& [machine, bytes] : reserved_) sum += bytes;
  return sum;
}

Response TransformService::submit(const Request& r) {
  reg_->add(reg_->counter("serve.requests"), 0, 1);
  Response rsp = admit_and_run(r, /*from_queue=*/false);
  reg_->set(reg_->gauge("serve.reserved_bytes"), 0, reserved_bytes());
  reg_->set(reg_->gauge("serve.queue_depth"), 0,
           static_cast<double>(queue_.size()));
  return rsp;
}

Response TransformService::submit(const obs::json::Value& doc) {
  std::optional<Request> req;
  try {
    req = parse_request(doc);
    return submit(*req);
  } catch (const Error& e) {
    return failed(e, req ? &*req : nullptr);
  }
}

Response TransformService::submit_line(const std::string& json_line) {
  obs::json::Value doc;
  try {
    doc = obs::json::parse(json_line);
  } catch (const Error& e) {
    return failed(e, nullptr);
  }
  return submit(doc);
}

Response TransformService::failed(const Error& e, const Request* req) {
  // Malformed request or JSON, or a request that failed while being
  // planned or run: a taxonomy response, not a dead server. A request
  // that parsed gets its batch width and tenant echoed back.
  reg_->add(reg_->counter("serve.errors"), 0, 1);
  Response rsp;
  rsp.admission = Admission::Error;
  rsp.error = e.what();
  if (req) {
    rsp.batch = req->batch;
    rsp.tenant = req->tenant;
  }
  return rsp;
}

Response TransformService::admit_and_run(const Request& r, bool from_queue) {
  Response rsp;
  rsp.batch = r.batch;
  rsp.tenant = r.tenant;
  auto reject = [&](const std::string& error, bool quota_bound) {
    rsp.admission = Admission::Rejected;
    rsp.error = error;
    reg_->add(reg_->counter("serve.rejected"), 0, 1);
    if (quota_bound) reg_->add(reg_->counter("serve.quota_rejected"), 0, 1);
    return rsp;
  };

  // The service's bounds, before anything is built.
  const runtime::MachineConfig nominal = machine_for(r);
  const chem::Molecule mol = molecule_for(r);
  const std::size_t n = mol.n_orbitals;
  const std::string beyond = "exceeds the service's bounds: ";
  if (r.n_nodes > kMaxRanks / nominal.ranks_per_node)
    return reject(beyond + std::to_string(r.n_nodes) + " nodes of " +
                      std::to_string(nominal.ranks_per_node) +
                      " ranks are more than " + std::to_string(kMaxRanks) +
                      " ranks",
                  false);
  if (n > kMaxOrbitals)
    return reject(beyond + "n = " + std::to_string(n) + " is more than " +
                      std::to_string(kMaxOrbitals) + " orbitals",
                  false);
  if (r.batch > kMaxBatch)
    return reject(beyond + "a batch of " + std::to_string(r.batch) +
                      " is more than " + std::to_string(kMaxBatch) +
                      " members",
                  false);

  const double total_bytes = nominal.aggregate_memory_bytes();
  // The memory this tenant could ever see: the idle machine, capped by
  // its quota.
  const bool quota_active = opt_.tenant_quota_bytes > 0;
  const double idle_bytes =
      quota_active ? std::min(total_bytes, opt_.tenant_quota_bytes)
                   : total_bytes;
  // Whether a cap on idle_bytes is the quota's rather than the machine's.
  const bool quota_cap = quota_active && idle_bytes < total_bytes;
  const std::string over = quota_cap ? "exceeds the tenant quota: "
                                     : "exceeds the idle machine: ";

  // Every member's C stays resident for the whole run, so a request
  // whose C alone exceeds what this tenant could ever hold is rejected
  // from the closed-form sizes, before the problem is built.
  const double members = static_cast<double>(r.batch);
  const double c_bytes =
      8.0 *
      static_cast<double>(
          tensor::packed_sizes(n, core::problem_irreps(mol)).c) *
      members;
  if (c_bytes > idle_bytes)
    return reject(over + "every member's C alone holds " +
                      human_bytes(c_bytes),
                  quota_cap);

  const core::Problem p = core::make_problem(mol);
  const core::PlanRates rates =
      oracle_.rates(nominal, static_cast<double>(n), r.tile);
  const std::uint64_t key = fingerprint(r, rates.source);

  // The chain must fit every rank of the idle machine. That depends on
  // the request alone, so each fingerprint is checked once.
  auto at = capacity_checks_.find(key);
  if (at == capacity_checks_.end()) {
    core::ParOptions o;
    o.tile = r.tile;
    o.tile_l = r.tile_l;
    try {
      at = capacity_checks_
               .emplace(key, core::check_capacity(
                                 p, core::Chain::FusedInner, r.batch, o,
                                 core::CapacityView::idle(nominal),
                                 kMaxCheckCells))
               .first;
    } catch (const core::CheckBudgetError& e) {
      return reject(beyond + e.what(), false);
    }
  }
  const core::CapacityCheck& fit = at->second;
  if (!fit.fits)
    return reject("exceeds the idle machine: " + core::to_string(fit), false);
  // The reservation: what the chain holds at its peak, summed over the
  // ranks. It fits the idle machine whenever every rank does, so only a
  // quota can refuse it here.
  const double need = fit.aggregate_peak_bytes;
  if (need > idle_bytes)
    return reject(over + "the chain peaks at " + human_bytes(need) +
                      " in aggregate",
                  quota_cap);

  // What is free for this tenant right now: the unreserved remainder of
  // its machine, further capped by the quota minus the tenant's own
  // live reservations.
  const std::pair machine{r.system, r.n_nodes};
  const auto pool = reserved_.find(machine);
  double avail_bytes =
      total_bytes - (pool == reserved_.end() ? 0.0 : pool->second);
  if (quota_active)
    avail_bytes = std::min(
        avail_bytes, opt_.tenant_quota_bytes - tenant_reserved(r.tenant));
  if (need > avail_bytes) {
    if (from_queue || queue_.size() >= opt_.queue_depth) {
      rsp.admission = Admission::Rejected;
      rsp.error = from_queue ? "still blocked by reservations"
                             : "queue full (" +
                                   std::to_string(opt_.queue_depth) +
                                   " waiting slots)";
      if (!from_queue) reg_->add(reg_->counter("serve.rejected"), 0, 1);
      return rsp;
    }
    rsp.admission = Admission::Queued;
    rsp.ticket = next_ticket_++;
    rsp.note = quota_active
                   ? "fits the tenant's idle share; waiting for a release"
                   : "fits the idle machine; waiting for a release";
    queue_.push_back({rsp.ticket, r, need});
    reg_->add(reg_->counter("serve.queued"), 0, 1);
    return rsp;
  }

  rsp.admission = Admission::Admitted;
  rsp.fusion = "fused-inner";
  reg_->add(reg_->counter("serve.admitted"), 0, 1);
  // The planner's amortized estimate for the batch (a solo request is
  // the batch of one).
  rsp.rate_source = rates.source;
  rsp.est_seconds =
      core::plan_batch(p, nominal, r.batch, rates).est_seconds_batched;
  if (r.batch > 1) {
    reg_->add(reg_->counter("serve.batch_requests"), 0, 1);
    reg_->add(reg_->counter("serve.batch_members"), 0, members);
  }

  // Schedule cache: the balance memo, keyed on the request fingerprint
  // (which folds the batch width — a batch's phase shapes differ from
  // a solo run's). A warm request replays its per-phase DES picks.
  auto [memo, miss] = cache_.try_emplace(key);
  rsp.cache_hit = !miss;
  reg_->add(reg_->counter(rsp.cache_hit ? "serve.cache_hits"
                                      : "serve.cache_misses"),
           0, 1);

  if (r.plan_only) {
    rsp.ticket = next_ticket_++;
    holds_.push_back({rsp.ticket, r, need});
    reserved_[machine] += need;
    tenant_reserved_[r.tenant] += need;
    return rsp;
  }
  return run(r, p, rates, memo->second, std::move(rsp));
}

Response TransformService::run(const Request& r, const core::Problem& p,
                               const core::PlanRates& rates,
                               core::BalanceCache& memo, Response rsp) {
  const runtime::MachineConfig eff = core::apply_rates(machine_for(r), rates);
  runtime::Cluster cl(eff, r.real ? runtime::ExecutionMode::Real
                                  : runtime::ExecutionMode::Simulate);
  core::ParOptions o;
  o.tile = r.tile;
  o.tile_l = r.tile_l;
  o.balance = *ga::parse_balance(r.balance);
  o.gather_result = r.real;
  o.balance_cache = &memo;
  const std::size_t des_hits0 = memo.hits;

  rsp.balance = r.balance;
  // A batch fills A once and runs every member's chain; its response
  // checksum is the FNV fold of the member checksums, so a client (or
  // the replay gate) can reproduce it from solo runs.
  const auto member_b = core::batch_member_bs(p, r.batch);
  const core::BatchParResult res =
      core::batched_fused_inner_par_transform(p, member_b, cl, o);
  rsp.sim_seconds = res.stats.sim_time;
  if (r.real && r.batch == 1) {
    rsp.result_checksum = result_checksum(*res.c.front());
  } else if (r.real) {
    std::uint64_t h = util::kFnvOffsetBasis;
    for (const auto& c : res.c) {
      const double cs = result_checksum(*c);
      h = util::fnv1a_bytes(&cs, sizeof cs, h);
    }
    rsp.result_checksum = static_cast<double>((h >> 32) ^ (h & 0xffffffffull));
  }
  reg_->add(reg_->counter("serve.executed"), 0, 1);
  reg_->add(reg_->counter("serve.des_skips"), 0,
           static_cast<double>(memo.hits - des_hits0));
  return rsp;
}

std::vector<Response> TransformService::release(std::uint64_t ticket) {
  std::vector<Response> ran;
  const auto held =
      std::find_if(holds_.begin(), holds_.end(),
                   [&](const Ticketed& t) { return t.ticket == ticket; });
  if (held == holds_.end()) {
    Response rsp;
    rsp.admission = Admission::Error;
    rsp.error = "unknown ticket " + std::to_string(ticket);
    reg_->add(reg_->counter("serve.errors"), 0, 1);
    ran.push_back(std::move(rsp));
    return ran;
  }
  if (const auto pool =
          reserved_.find({held->request.system, held->request.n_nodes});
      pool != reserved_.end()) {
    pool->second = std::max(0.0, pool->second - held->need_bytes);
    if (pool->second <= 0) reserved_.erase(pool);
  }
  if (const auto tr = tenant_reserved_.find(held->request.tenant);
      tr != tenant_reserved_.end()) {
    tr->second = std::max(0.0, tr->second - held->need_bytes);
    if (tr->second <= 0) tenant_reserved_.erase(tr);
  }
  holds_.erase(held);
  reg_->add(reg_->counter("serve.released"), 0, 1);

  // Tenant-aware drain: rotate across the tenants present in the
  // queue, strict FIFO within each tenant — one tenant's blocked head
  // never starves another tenant's runnable work, and with a single
  // tenant this is exactly the old FIFO drain (the head either runs
  // now or keeps its place and blocks everything behind it).
  bool progress = true;
  while (progress && !queue_.empty()) {
    progress = false;
    std::vector<std::string> tenants;  // first-appearance order
    for (const auto& t : queue_)
      if (std::find(tenants.begin(), tenants.end(), t.request.tenant) ==
          tenants.end())
        tenants.push_back(t.request.tenant);
    for (const auto& tn : tenants) {
      const auto head = std::find_if(
          queue_.begin(), queue_.end(),
          [&](const Ticketed& t) { return t.request.tenant == tn; });
      if (head == queue_.end()) continue;
      Response rsp = admit_and_run(head->request, /*from_queue=*/true);
      if (rsp.admission == Admission::Rejected &&
          rsp.error == "still blocked by reservations")
        continue;
      queue_.erase(head);
      ran.push_back(std::move(rsp));
      progress = true;
    }
  }
  reg_->set(reg_->gauge("serve.reserved_bytes"), 0, reserved_bytes());
  reg_->set(reg_->gauge("serve.queue_depth"), 0,
           static_cast<double>(queue_.size()));
  return ran;
}

}  // namespace fit::serve
