#include "serve/service.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "chem/molecule.hpp"
#include "core/problem.hpp"
#include "runtime/cluster.hpp"
#include "util/error.hpp"
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

core::Problem problem_for(const Request& r) {
  if (r.molecule == "custom")
    return core::make_problem(
        chem::custom_molecule("serve", r.custom_n, r.custom_s));
  return core::make_problem(chem::paper_molecule(r.molecule));
}

double selected_need_bytes(const core::Plan& plan) {
  for (const auto& e : plan.entries)
    if (e.choice == plan.selected) return 8.0 * e.min_fast_memory;
  return 0;  // unreachable: plan_fusion always annotates the winner
}

const char* kCounters[] = {
    "serve.requests",  "serve.admitted",     "serve.degraded",
    "serve.queued",    "serve.rejected",     "serve.errors",
    "serve.cache_hits", "serve.cache_misses", "serve.des_skips",
    "serve.released",  "serve.executed",     "serve.batch_requests",
    "serve.batch_members", "serve.quota_rejected",
};

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
    if (!f->is_number() || !(f->as_number() >= 1) ||
        f->as_number() != static_cast<double>(
                              static_cast<std::size_t>(f->as_number())))
      throw ParseError(std::string("field '") + key +
                       "' must be a positive number");
    into = static_cast<std::size_t>(f->as_number());
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
    case Admission::Degraded: return "degraded";
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

Response TransformService::submit(const Request& r) {
  reg_->add(reg_->counter("serve.requests"), 0, 1);
  Response rsp = admit_and_run(r, /*from_queue=*/false);
  reg_->set(reg_->gauge("serve.reserved_bytes"), 0, reserved_bytes_);
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
  const core::Problem p = problem_for(r);
  const runtime::MachineConfig nominal = machine_for(r);
  const double n = static_cast<double>(p.n());
  const double s = static_cast<double>(p.irreps.order());
  const double total_bytes = nominal.aggregate_memory_bytes();

  // The memory this tenant could ever see: the idle machine, capped by
  // its quota. The ladder never hands one tenant another's share.
  const bool quota_active = opt_.tenant_quota_bytes > 0;
  const double idle_bytes =
      quota_active ? std::min(total_bytes, opt_.tenant_quota_bytes)
                   : total_bytes;
  // What is free for this tenant right now: the machine's unreserved
  // remainder, further capped by the quota minus the tenant's own live
  // reservations.
  double avail_bytes = total_bytes - reserved_bytes_;
  if (quota_active)
    avail_bytes = std::min(
        avail_bytes, opt_.tenant_quota_bytes - tenant_reserved(r.tenant));
  const double idle_elems = idle_bytes / 8.0;
  const double avail_elems = avail_bytes / 8.0;

  const core::PlanRates rates = oracle_.rates(nominal, n, r.tile);

  // A batch charges admission for its aggregate peak: under the fused
  // schedules every member's C stays resident.
  core::BatchPlan bp;
  if (r.batch > 1) bp = core::plan_batch(p, nominal, r.tile_l, r.batch, rates);
  const double batch_need = r.batch > 1 ? bp.total_need_bytes : 0.0;

  // Unconstrained plan: what the Thm 5.2 order picks on the machine
  // this tenant could ever have. Failing here — or a batch whose peak
  // exceeds it — means the request can never run: Rejected.
  core::Plan full;
  bool never_fits = batch_need > idle_bytes;
  std::string never_why =
      never_fits ? "the batch's aggregate peak exceeds it" : "";
  if (!never_fits) {
    try {
      full = core::plan_fusion(n, s, idle_elems);
    } catch (const Error& e) {
      never_fits = true;
      never_why = e.what();
    }
  }
  if (never_fits) {
    rsp.admission = Admission::Rejected;
    const bool quota_bound = quota_active && idle_bytes < total_bytes;
    rsp.error = (quota_bound ? std::string("exceeds the tenant quota: ")
                             : std::string("exceeds the idle machine: ")) +
                never_why;
    reg_->add(reg_->counter("serve.rejected"), 0, 1);
    if (quota_bound) reg_->add(reg_->counter("serve.quota_rejected"), 0, 1);
    return rsp;
  }

  // Constrained plan: the same ladder against what is actually free
  // for this tenant. A downgrade is a Degraded admission; not even
  // unfused fitting is the queue/reject boundary.
  core::Plan now;
  bool fits = avail_elems >= 1 && batch_need <= avail_bytes;
  bool degraded = false;
  if (fits) {
    try {
      now = avail_elems + 0.5 < idle_elems
                ? core::replan_fusion(full, avail_elems)
                : full;
      degraded = now.selected != full.selected;
    } catch (const Error&) {
      fits = false;
    }
  }
  if (!fits) {
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
    queue_.push_back(
        {rsp.ticket, r,
         std::max(selected_need_bytes(full), batch_need)});
    reg_->add(reg_->counter("serve.queued"), 0, 1);
    return rsp;
  }

  rsp.admission = degraded ? Admission::Degraded : Admission::Admitted;
  rsp.fusion = bounds::to_string(now.selected);
  if (degraded) {
    for (const auto& e : now.entries)
      if (e.choice == now.selected) rsp.note = e.note;
    reg_->add(reg_->counter("serve.degraded"), 0, 1);
  } else {
    reg_->add(reg_->counter("serve.admitted"), 0, 1);
  }

  // Schedule cache: measured rates + the cluster plan + the balance
  // memo, keyed on the request fingerprint (which folds the batch
  // width — a batch's phase shapes differ from a solo run's). The
  // admission ladder above always runs (it depends on live
  // reservations); the cache is what lets a warm request skip the
  // cluster re-plan and the per-phase DES.
  const std::uint64_t key = fingerprint(r, rates.source);
  auto it = cache_.find(key);
  rsp.cache_hit = it != cache_.end();
  reg_->add(reg_->counter(rsp.cache_hit ? "serve.cache_hits"
                                      : "serve.cache_misses"),
           0, 1);
  if (!rsp.cache_hit) {
    CacheEntry fresh;
    fresh.rates = rates;
    fresh.plan = core::plan_for_cluster(p, nominal, r.tile_l, rates);
    fresh.fusion = bounds::to_string(now.selected);
    fresh.batch_plan = bp;
    it = cache_.emplace(key, std::move(fresh)).first;
  }
  CacheEntry& entry = it->second;
  entry.need_bytes = std::max(selected_need_bytes(now), batch_need);
  rsp.rate_source = entry.rates.source;
  rsp.est_seconds = now.selected == bounds::FusionChoice::Unfused
                        ? entry.plan.est_seconds_unfused
                        : entry.plan.est_seconds_fused;
  if (r.batch > 1) {
    reg_->add(reg_->counter("serve.batch_requests"), 0, 1);
    reg_->add(reg_->counter("serve.batch_members"), 0,
             static_cast<double>(r.batch));
    // The planner's amortized estimate, upgraded to the bench-measured
    // batch throughput when the cost table carries a bucket.
    rsp.est_seconds = bp.est_seconds_batched;
    if (const double tps = oracle_.batch_transforms_per_s(r.batch);
        tps > 0)
      rsp.est_seconds = static_cast<double>(r.batch) / tps;
  }

  if (r.plan_only) {
    rsp.ticket = next_ticket_++;
    holds_.push_back({rsp.ticket, r, entry.need_bytes});
    reserved_bytes_ += entry.need_bytes;
    tenant_reserved_[r.tenant] += entry.need_bytes;
    return rsp;
  }
  return run(r, entry, std::move(rsp));
}

Response TransformService::run(const Request& r, CacheEntry& entry,
                               Response rsp) {
  const core::Problem p = problem_for(r);
  const runtime::MachineConfig eff =
      core::apply_rates(machine_for(r), entry.rates);
  runtime::Cluster cl(eff, r.real ? runtime::ExecutionMode::Real
                                  : runtime::ExecutionMode::Simulate);
  core::ParOptions o;
  o.tile = r.tile;
  o.tile_l = r.tile_l;
  o.balance = *ga::parse_balance(r.balance);
  o.gather_result = r.real;
  o.balance_cache = &entry.balance_memo;
  const std::size_t des_hits0 = entry.balance_memo.hits;

  const bool unfused =
      rsp.fusion == bounds::to_string(bounds::FusionChoice::Unfused);
  rsp.balance = r.balance;
  if (r.batch > 1) {
    // Shared-basis batch: fill A once, run every member's chain. The
    // response checksum is the FNV fold of the member checksums, so a
    // client (or the replay gate) can reproduce it from solo runs.
    const auto member_b = core::batch_member_bs(p, r.batch);
    const core::BatchParResult res =
        unfused ? core::batched_unfused_par_transform(p, member_b, cl, o)
                : core::batched_fused_inner_par_transform(p, member_b, cl,
                                                          o);
    rsp.sim_seconds = res.stats.sim_time;
    if (r.real) {
      std::uint64_t h = util::kFnvOffsetBasis;
      for (const auto& c : res.c) {
        if (!c) continue;
        const double cs = result_checksum(*c);
        h = util::fnv1a_bytes(&cs, sizeof cs, h);
      }
      rsp.result_checksum =
          static_cast<double>((h >> 32) ^ (h & 0xffffffffull));
    }
  } else {
    const core::ParResult res =
        unfused ? core::unfused_par_transform(p, cl, o)
                : core::fused_inner_par_transform(p, cl, o);
    rsp.sim_seconds = res.stats.sim_time;
    if (r.real && res.c) rsp.result_checksum = result_checksum(*res.c);
  }
  reg_->add(reg_->counter("serve.executed"), 0, 1);
  reg_->add(reg_->counter("serve.des_skips"), 0,
           static_cast<double>(entry.balance_memo.hits - des_hits0));
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
  reserved_bytes_ = std::max(0.0, reserved_bytes_ - held->need_bytes);
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
  reg_->set(reg_->gauge("serve.reserved_bytes"), 0, reserved_bytes_);
  reg_->set(reg_->gauge("serve.queue_depth"), 0,
           static_cast<double>(queue_.size()));
  return ran;
}

}  // namespace fit::serve
