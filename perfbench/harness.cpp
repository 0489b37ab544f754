#include "harness.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <exception>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "blas/gemm.hpp"
#include "blas/tune.hpp"
#include "chem/molecule.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "core/transform.hpp"
#include "obs/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/cluster.hpp"
#include "runtime/faults.hpp"
#include "runtime/machine.hpp"
#include "serve/cost_oracle.hpp"
#include "serve/cost_table.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace fit;
namespace json = fit::obs::json;

void Ledger::record(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (first_failure.empty()) first_failure = failure;
}

namespace {

bool finite_tensor(const tensor::PackedC& c) { return std::isfinite(c.norm2()); }

}  // namespace

std::string check_dist_result(const std::optional<tensor::PackedC>& c,
                              const tensor::PackedC& reference,
                              const tensor::PackedC* first) {
  if (!c) return "no gathered result";
  if (!finite_tensor(*c)) return "non-finite result";
  const double err = c->max_abs_diff(reference);
  if (!(err <= 1e-9))
    return "result differs from reference_transform by " + std::to_string(err);
  if (first && c->max_abs_diff(*first) != 0.0)
    return "result not bit-identical to the first result of its class";
  return "";
}

std::string check_storm_result(const std::optional<tensor::PackedC>& c,
                               const tensor::PackedC& clean,
                               double fallback_epochs, double zero_fills) {
  if (!c) return "no gathered result";
  if (!finite_tensor(*c) || c->max_abs_diff(clean) != 0.0)
    return "storm result not bit-identical to the clean run";
  if (zero_fills != 0.0) return "recovery zero-filled tiles";
  if (!(fallback_epochs > 0.0)) return "storm recorded no fallback epoch";
  return "";
}

ServeReply parse_reply(const std::string& line) {
  const json::Value doc = json::parse(line);
  const json::Value* outcome = doc.find("outcome");
  if (!outcome || !outcome->is_string())
    throw Error("serve: response without an outcome: " + line);
  ServeReply r;
  r.outcome = outcome->as_string();
  auto number = [&](const char* key) {
    const json::Value* v = doc.find(key);
    return v && v->is_number() ? v->as_number() : 0.0;
  };
  r.checksum = number("result_checksum");
  r.sim_seconds = number("sim_seconds");
  r.est_seconds = number("est_seconds");
  r.ticket = number("ticket");
  if (const json::Value* ran = doc.find("ran"); ran && ran->is_array())
    r.ran = ran->size();
  if (const json::Value* hit = doc.find("cache_hit"); hit && hit->is_bool())
    r.cache_hit = hit->as_bool();
  return r;
}

std::string check_serve_reply(const ServeReply& reply,
                              const ServeReply& first) {
  if (reply.outcome == "error") return "error response";
  if (reply.outcome != first.outcome)
    return "outcome '" + reply.outcome + "' differs from the first '" +
           first.outcome + "'";
  if (reply.checksum != first.checksum)
    return "result checksum differs from the first response";
  if (reply.sim_seconds != first.sim_seconds)
    return "sim_seconds differs from the first response";
  if (reply.ran != first.ran) return "release ran a different queue";
  return "";
}

namespace {

using Clock = std::chrono::steady_clock;

// ---- clock and spans -------------------------------------------------

Clock::time_point g_origin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

// CPU seconds of the whole process, every thread included. Unlike the
// wall clock it does not run while the hypervisor holds a vCPU.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  long parent = -1;
  long op = -1;
};

// Spans kept in memory around the harness's own calls into the
// library (client thread only), written out when the run ends.
struct Tracer {
  bool enabled = false;
  long op = -1;  // timed op in progress (-1: setup or probes)
  std::vector<Span> spans;
  std::vector<long> open;
};
Tracer g_trace;

class Scoped {
 public:
  explicit Scoped(const char* name) : start_(now_s()), cpu_start_(cpu_now_s()) {
    if (!g_trace.enabled) return;
    id_ = static_cast<long>(g_trace.spans.size());
    g_trace.spans.push_back({name, start_, start_,
                             g_trace.open.empty() ? -1 : g_trace.open.back(),
                             g_trace.op});
    g_trace.open.push_back(id_);
  }
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  /// End the span now; returns its duration in seconds.
  double close() {
    if (end_ < 0) {
      end_ = now_s();
      cpu_ = cpu_now_s() - cpu_start_;
      if (id_ >= 0) {
        g_trace.spans[static_cast<std::size_t>(id_)].end = end_;
        g_trace.open.pop_back();
      }
    }
    return end_ - start_;
  }

  /// Process CPU seconds between the start and close().
  double cpu_s() const { return cpu_; }

 private:
  double start_;
  double cpu_start_;
  double end_ = -1;
  double cpu_ = 0;
  long id_ = -1;
};

// ---- small helpers ----------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Peak resident set size of this process (the kernel's high-water
// mark, VmHWM), in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 g(seed * 0x9E3779B97F4A7C15ull ^ salt);
  return g.next_u64();
}

// Per-op work counts by registry metric name: the op's cluster
// registry (every cluster here is fresh per op, and its schedule
// records the gemm.* work it triggered), or diffs of the service
// registry and blas::gemm_metrics() around a request; plus two values
// the harness reads itself, "runtime.phases" and "runtime.sim_s".
using Counts = std::map<std::string, double>;

Counts snapshot(const obs::MetricsRegistry& reg) {
  Counts c;
  for (const std::string& name : reg.names())
    if (reg.kind(name) != obs::MetricKind::Histogram) c[name] = reg.sum(name);
  return c;
}

// Adds `after - before` to `into`, name by name.
void add_diff(Counts& into, const Counts& before, const Counts& after) {
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    into[name] += v - (it == before.end() ? 0.0 : it->second);
  }
}

void add(Counts& into, const Counts& c) { add_diff(into, {}, c); }

double count(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The count metrics every workload reports: output name, the count
// summed over the count ops, and what it is divided by (the number of
// ops when null).
struct CountMetric {
  const char* name;
  const char* count;
  const char* per;
};
const CountMetric kCountMetrics[] = {
    {"blas.calls_per_op", "gemm.calls", nullptr},
    {"blas.flops_per_call", "gemm.flops", "gemm.calls"},
    {"blas.pack_bytes_per_flop", "gemm.pack_bytes", "gemm.flops"},
    {"chem.integral_evals_per_op", "compute.integral_evals", nullptr},
    {"ga.gets_per_op", "ga.gets", nullptr},
    {"ga.puts_per_op", "ga.puts", nullptr},
    {"ga.accs_per_op", "ga.accs", nullptr},
    {"ga.remote_bytes_per_op", "comm.remote_bytes", nullptr},
    {"ga.local_bytes_per_op", "comm.local_bytes", nullptr},
    {"runtime.phases_per_op", "runtime.phases", nullptr},
    {"runtime.sim_s_per_op", "runtime.sim_s", nullptr},
    {"checkpoint.bytes_per_op", "checkpoint.bytes", nullptr},
    {"checkpoint.restored_bytes_per_op", "checkpoint.restored_bytes", nullptr},
    {"checkpoint.dirty_fraction", "checkpoint.dirty_fraction", nullptr},
    {"recovery.fallback_epochs_per_op", "recovery.fallback_epochs", nullptr},
    {"checkpoint.io_retries_per_op", "checkpoint.io_retries", nullptr},
    {"retry.attempts_per_op", "retry.attempts", nullptr},
};

void put_counts(json::Value& m, const Counts& total, double ops) {
  for (const CountMetric& c : kCountMetrics)
    m[c.name] = ratio(count(total, c.count),
                      c.per ? count(total, c.per) : ops);
}

// Counts of one op on a fresh cluster.
Counts cluster_counts(const runtime::Cluster& cl) {
  Counts c = snapshot(cl.metrics());
  c["runtime.phases"] = static_cast<double>(cl.phases().size());
  c["runtime.sim_s"] = cl.sim_time();
  return c;
}

// Host GFLOP/s of a plain one-lane sequential unfused run of `p`
// (median of `reps`), the baseline the distributed schedules are
// compared against.
double seq_unfused_gflops(const core::Problem& p, int reps) {
  const blas::GemmConfig saved = blas::gemm_config();
  blas::GemmConfig one = saved;
  one.threads = 1;
  blas::set_gemm_config(one);
  std::vector<double> secs;
  double flops = 0;
  for (int r = 0; r < reps; ++r) {
    Scoped span("core.unfused_transform");
    core::SeqStats st;
    core::unfused_transform(p, &st);
    secs.push_back(span.close());
    flops = st.flops;
  }
  blas::set_gemm_config(saved);
  return flops / median(secs) / 1e9;
}

// ---- workloads ---------------------------------------------------------

/// The outcome of one timed op.
struct OpResult {
  double latency_s = 0;     ///< wall seconds of the operation itself
  double cpu_s = 0;         ///< process CPU seconds of the same span
  std::string failure;      ///< empty when every check passed
  double credit_flops = 0;  ///< SeqStats::flops credited (Real work)
  double own_flops = 0;     ///< the schedule's own ParStats::flops
  Counts counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Class names in class-index order.
  virtual std::vector<std::string> classes() const = 0;
  /// Class of the i-th timed op.
  virtual int class_of(std::size_t i) const = 0;
  /// Tail percentile reported as op_tail_ms.
  virtual double tail_q() const = 0;
  /// Timed ops the count metrics cover (a traced run does at least
  /// this many, so the counts repeat exactly at a given seed).
  virtual std::size_t count_ops() const = 0;
  /// Ops of one full mix cycle; the timed window ends on a cycle
  /// boundary so every run measures the mix in its exact weights.
  virtual std::size_t cycle_ops() const = 0;
  /// Correctness references; run before the clock, never counted.
  virtual void oracle() = 0;
  /// Construction plus one cold op of every op class (setup_s).
  virtual void setup() = 0;
  /// Work outside any clock between setup and the first timed op.
  virtual void before_timed(json::Value&) {}
  /// The i-th timed op.
  virtual OpResult op(std::size_t i) = 0;
  /// Traced-run per-layer metrics beyond the shared ones; `total`
  /// sums the counts of the first count_ops() ops.
  virtual void per_layer(json::Value& m, const std::vector<OpResult>& ops,
                         const Counts& total) = 0;
  /// Effective settings worth printing beside the metrics.
  virtual void settings(json::Value& s) = 0;
  /// Registry snapshots written beside the spans of a traced run.
  virtual void registries(json::Value&) {}
  /// Stop everything the workload started.
  virtual void teardown() {}
  /// Wall and CPU seconds of harness-only work (replays, parse probes)
  /// inside the timed window, excluded from the traced throughput.
  double harness_only_s = 0;
  double harness_only_cpu_s = 0;
};

// ---- dist-real --------------------------------------------------------

class DistReal : public Workload {
 public:
  static constexpr std::size_t kN = 32, kTile = 8;
  static constexpr unsigned kIrreps = 4;

  explicit DistReal(const Options& opt)
      : traced_(opt.traced), mol_seed_(derive(opt.seed, 0xD157)) {}

  std::vector<std::string> classes() const override {
    return {"par_unfused", "par_fused", "par_fused_inner"};
  }
  int class_of(std::size_t i) const override { return static_cast<int>(i % 3); }
  double tail_q() const override { return 0.90; }
  std::size_t count_ops() const override { return 3; }
  std::size_t cycle_ops() const override { return 3; }

  void oracle() override {
    const core::Problem q = problem();
    ref_ = core::reference_transform(q);
    core::SeqStats st;
    const tensor::PackedC seq = core::unfused_transform(q, &st);
    credit_ = st.flops;
    if (!(seq.max_abs_diff(*ref_) <= 1e-9))
      throw Error("dist-real: sequential unfused disagrees with the reference");
  }

  void setup() override {
    p_.emplace(problem());
    for (int c = 0; c < 3; ++c) {
      std::optional<tensor::PackedC> out;
      run_once(c, out);
      if (ref_) {
        const std::string bad = check_dist_result(out, *ref_, nullptr);
        if (!bad.empty()) throw Error("dist-real cold " + classes()[c] + ": " + bad);
      }
      first_[c] = std::move(out);
    }
  }

  OpResult op(std::size_t i) override {
    const int c = class_of(i);
    std::optional<tensor::PackedC> out;
    OpResult r = run_once(c, out);
    r.credit_flops = credit_;
    r.failure = check_dist_result(out, *ref_,
                                  first_[c] ? &*first_[c] : nullptr);
    return r;
  }

  void per_layer(json::Value& m, const std::vector<OpResult>& ops,
                 const Counts&) override {
    std::array<double, 3> flops{}, secs{};
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].failure.empty()) continue;
      flops[class_of(i)] += ops[i].own_flops;
      secs[class_of(i)] += ops[i].latency_s;
    }
    const auto names = classes();
    for (int c = 0; c < 3; ++c)
      m["core." + names[c] + ".host_gflops"] =
          secs[c] > 0 ? flops[c] / secs[c] / 1e9 : 0.0;
    const double seq = seq_unfused_gflops(*p_, 5);
    m["core.seq_unfused.host_gflops"] = seq;
    const double fi = m["core.par_fused_inner.host_gflops"].as_number();
    m["core.par_fused_inner_vs_seq"] = seq > 0 ? fi / seq : 0.0;
  }

  void registries(json::Value& r) override { r["cluster"] = last_registry_; }

  void settings(json::Value& s) override {
    s["molecule"] = "custom n=" + std::to_string(kN) + " s=" +
                    std::to_string(kIrreps) + " seed=" +
                    std::to_string(mol_seed_);
    s["machine"] = "system_c(4): 16 ranks";
    s["tile"] = kTile;
    s["cluster_host_threads"] = host_threads_;
  }

 private:
  core::Problem problem() const {
    return core::make_problem(
        chem::custom_molecule("dist-real", kN, kIrreps, mol_seed_));
  }

  OpResult run_once(int c, std::optional<tensor::PackedC>& out) {
    static const core::Schedule kSchedules[3] = {
        core::Schedule::ParUnfused, core::Schedule::ParFused,
        core::Schedule::ParFusedInner};
    OpResult r;
    Scoped op_span("dist.op");
    std::unique_ptr<runtime::Cluster> cl;
    {
      Scoped s("runtime.Cluster");
      cl = std::make_unique<runtime::Cluster>(runtime::system_c(4),
                                              runtime::ExecutionMode::Real);
    }
    cl->set_comm_tracing(false);  // link spans only cost memory here
    host_threads_ = cl->host_threads();
    core::TransformOptions o;
    o.schedule = kSchedules[c];
    o.par.tile = kTile;
    core::TransformOutcome res;
    {
      Scoped s("core.four_index_transform");
      res = core::four_index_transform(*p_, o, cl.get());
    }
    r.latency_s = op_span.close();
    r.cpu_s = op_span.cpu_s();
    r.own_flops = res.par.flops;
    r.counts = cluster_counts(*cl);
    if (traced_) last_registry_ = cl->metrics().to_json(false);
    out = std::move(res.c);
    return r;
  }

  bool traced_;
  json::Value last_registry_;
  std::uint64_t mol_seed_;
  std::optional<core::Problem> p_;
  std::optional<tensor::PackedC> ref_;
  double credit_ = 0;
  std::array<std::optional<tensor::PackedC>, 3> first_;
  std::size_t host_threads_ = 0;
};

// ---- ckpt-real --------------------------------------------------------

class CkptReal : public Workload {
 public:
  static constexpr std::size_t kN = 32, kTile = 8, kTileL = 4;
  static constexpr unsigned kIrreps = 4;
  // The fused schedule runs five phases per l-slice (fill A, c1..c4).
  static constexpr std::size_t kPhasesPerSlice = 5;

  explicit CkptReal(const Options& opt)
      : traced_(opt.traced),
        seed_(opt.seed),
        mol_seed_(derive(opt.seed, 0xC4C7)) {
    // The chaos soak's machine: 4 nodes x 2 ranks with a simulated PFS.
    m_.name = "chaos-soak";
    m_.n_nodes = 4;
    m_.ranks_per_node = 2;
    m_.mem_per_node_bytes = 2e9;
    m_.flops_per_rank = 1e9;
    m_.integrals_per_sec = 1e8;
    m_.net_bandwidth_bps = 1e9;
    m_.net_latency_s = 2e-6;
    m_.local_bandwidth_bps = 1e10;
    m_.disk_bandwidth_bps = 1e9;
    m_.disk_latency_s = 1e-3;
    o_.tile = kTile;
    o_.tile_l = kTileL;
    o_.gather_result = true;
    ckpt_.keep_epochs = 2;
    ckpt_.delta = 1;
  }

  std::vector<std::string> classes() const override { return {"storm"}; }
  int class_of(std::size_t) const override { return 0; }
  double tail_q() const override { return 0.75; }
  std::size_t count_ops() const override { return 6; }
  std::size_t cycle_ops() const override { return 1; }

  void oracle() override {
    const core::Problem q = problem();
    const tensor::PackedC ref = core::reference_transform(q);
    core::SeqStats st;
    core::unfused_transform(q, &st);
    credit_ = st.flops;
    runtime::Cluster cl(m_, runtime::ExecutionMode::Real);
    core::ParResult res = core::fused_par_transform(q, cl, o_);
    if (!res.c || !(res.c->max_abs_diff(ref) <= 1e-9))
      throw Error("ckpt-real: clean fused run disagrees with the reference");
    if (res.stats.n_phases != kPhasesPerSlice * n_slices())
      throw Error("ckpt-real: unexpected phase structure");
    clean_ = std::move(res.c);
  }

  void setup() override {
    p_.emplace(problem());
    std::optional<tensor::PackedC> out;
    double fallback = 0;
    const OpResult cold = run_storm(0, out, fallback);
    if (clean_) {
      const std::string bad =
          check_storm_result(out, *clean_, fallback,
                             count(cold.counts, "checkpoint.zero_fills"));
      if (!bad.empty()) throw Error("ckpt-real cold op: " + bad);
    }
  }

  OpResult op(std::size_t i) override {
    std::optional<tensor::PackedC> out;
    double fallback = 0;
    OpResult r = run_storm(i + 1, out, fallback);
    r.credit_flops = credit_;
    r.failure =
        check_storm_result(out, *clean_, fallback,
                           count(r.counts, "checkpoint.zero_fills"));
    return r;
  }

  void per_layer(json::Value& m, const std::vector<OpResult>& ops,
                 const Counts&) override {
    double flops = 0, secs = 0;
    std::vector<double> storm;
    for (const OpResult& r : ops) {
      if (!r.failure.empty()) continue;
      flops += r.own_flops;
      secs += r.latency_s;
      storm.push_back(r.latency_s);
    }
    m["core.par_fused.host_gflops"] = secs > 0 ? flops / secs / 1e9 : 0.0;
    m["core.seq_unfused.host_gflops"] = seq_unfused_gflops(*p_, 5);
    // The same transform without recovery or faults, for the host
    // cost of checkpointing and recovery.
    std::vector<double> clean;
    for (int k = 0; k < 5; ++k) {
      Scoped span("ckpt.clean_op");
      runtime::Cluster cl(m_, runtime::ExecutionMode::Real);
      cl.set_comm_tracing(false);
      core::fused_par_transform(*p_, cl, o_);
      clean.push_back(span.close());
    }
    m["checkpoint.host_overhead_ratio"] = median(storm) / median(clean);
  }

  void registries(json::Value& r) override { r["cluster"] = last_registry_; }

  void settings(json::Value& s) override {
    s["molecule"] = "custom n=" + std::to_string(kN) + " s=" +
                    std::to_string(kIrreps) + " seed=" +
                    std::to_string(mol_seed_);
    s["machine"] = "chaos-soak: 4 nodes x 2 ranks, PFS 1 GB/s";
    s["tile"] = kTile;
    s["tile_l"] = kTileL;
    s["ckpt_keep_epochs"] = keep_;
    s["ckpt_delta"] = delta_;
    s["cluster_host_threads"] = host_threads_;
  }

 private:
  core::Problem problem() const {
    return core::make_problem(
        chem::custom_molecule("ckpt-real", kN, kIrreps, mol_seed_));
  }
  std::size_t n_slices() const { return (kN + kTileL - 1) / kTileL; }

  // A fresh storm per op, as in bench_chaos_soak: a whole-node kill at
  // a mid-slice barrier of slice >= 1 together with rot of the newest
  // checkpoint generation (so restores must walk back), checkpoint-I/O
  // faults just before it, a disk degrade and a transient op failure.
  runtime::FaultInjector storm(std::size_t index, std::size_t n_domains) const {
    const std::uint64_t s = derive(seed_, 0x5702 + index);
    runtime::FaultInjector inj(s);
    SplitMix64 g(s);
    const std::size_t slice = 1 + g.next_below(n_slices() - 1);
    const std::size_t kill_phase = kPhasesPerSlice * slice + 2 + g.next_below(3);

    runtime::FaultEvent kill;
    kill.kind = runtime::FaultKind::KillNode;
    kill.phase = kill_phase;
    kill.rank = g.next_below(n_domains);
    inj.schedule(kill);

    runtime::FaultEvent rot;
    rot.kind = runtime::FaultKind::CkptCorrupt;
    rot.phase = kill_phase;
    rot.count = SIZE_MAX;
    rot.depth = 1;
    inj.schedule(rot);

    runtime::FaultEvent io;
    io.kind = runtime::FaultKind::CkptIo;
    io.phase = kill_phase - 1;
    io.count = 1 + g.next_below(2);
    inj.schedule(io);

    runtime::FaultEvent slow;
    slow.kind = runtime::FaultKind::DiskDegrade;
    slow.phase = 1 + g.next_below(2);
    slow.factor = 0.6;
    inj.schedule(slow);

    runtime::FaultEvent flaky;
    flaky.kind = runtime::FaultKind::TransientOp;
    flaky.phase = 1 + g.next_below(2);
    flaky.rank = g.next_below(m_.n_ranks());
    flaky.count = 1;
    inj.schedule(flaky);
    return inj;
  }

  OpResult run_storm(std::size_t index, std::optional<tensor::PackedC>& out,
                     double& fallback) {
    OpResult r;
    Scoped op_span("ckpt.op");
    std::unique_ptr<runtime::Cluster> cl;
    {
      Scoped s("runtime.Cluster");
      cl = std::make_unique<runtime::Cluster>(m_, runtime::ExecutionMode::Real);
      cl->enable_recovery(ckpt_);
      cl->install_faults(storm(index, cl->n_domains()));
    }
    cl->set_comm_tracing(false);
    host_threads_ = cl->host_threads();
    keep_ = cl->checkpoints()->keep_epochs();
    delta_ = cl->checkpoints()->delta();
    core::ParResult res;
    {
      Scoped s("core.fused_par_transform");
      res = core::fused_par_transform(*p_, *cl, o_);
    }
    r.latency_s = op_span.close();
    r.cpu_s = op_span.cpu_s();
    r.own_flops = res.stats.flops;
    r.counts = cluster_counts(*cl);
    if (traced_) last_registry_ = cl->metrics().to_json(false);
    fallback = res.stats.recovery_fallback_epochs;
    out = std::move(res.c);
    return r;
  }

  bool traced_;
  json::Value last_registry_;
  std::uint64_t seed_;
  std::uint64_t mol_seed_;
  runtime::MachineConfig m_;
  core::ParOptions o_;
  runtime::CheckpointConfig ckpt_;
  std::optional<core::Problem> p_;
  std::optional<tensor::PackedC> clean_;
  double credit_ = 0;
  std::size_t host_threads_ = 0, keep_ = 0;
  bool delta_ = false;
};

// ---- serve-mix --------------------------------------------------------

// Request classes, in class-index order.
enum ServeClass { kSim = 0, kReal, kBatch, kPlanOnly, kRelease };

// Every distinct request shape of the mix (tenant appended per item).
// Simulate-mode transforms of paper molecules on Systems A/B/C, small
// Real transforms single and batched, and plan_only reservations.
struct Shape {
  ServeClass cls;
  const char* body;  // JSON members without braces or tenant
  bool tenanted;
};
const Shape kShapes[] = {
    {kSim, R"("molecule":"Hyperpolar","system":"A","nodes":4)", false},
    {kSim, R"("molecule":"C60H20","system":"B","nodes":2)", false},
    {kSim, R"("molecule":"Uracil","system":"C","nodes":8)", false},
    {kReal, R"("molecule":"custom","n":24,"irrep_order":4,"nodes":2,"tile":8,"real":true)", true},
    {kBatch, R"("molecule":"custom","n":20,"irrep_order":2,"nodes":2,"real":true,"batch":2)", true},
    {kPlanOnly, R"("molecule":"Hyperpolar","system":"A","nodes":4,"plan_only":true)", true},
};
// Units per cycle of each shape above (a plan_only unit is a
// plan_only + release pair). Weights put the class boundaries of the
// sorted latencies at ~30% (fast plan_only/release below ~1 ms) and
// ~70% (Simulate on B/C above ~100 ms), away from p50 and p90.
const int kUnits[] = {2, 3, 3, 4, 2, 3};
const char* const kTenants[] = {"alpha", "beta"};

// A request known to fail in execution after it passes aggregate-memory
// admission (a batch of two on System A). It is sent once outside the
// timed window and reported; the timed mix holds only requests that
// succeed.
const char* const kKnownDefect =
    R"({"molecule":"custom","n":32,"s":4,"nodes":2,"tile":8,"real":true,"batch":2})";

struct Item {
  ServeClass cls;
  std::string line;  // empty for a release (ticket known at run time)
};

class ServeMix : public Workload {
 public:
  explicit ServeMix(const Options& opt)
      : traced_(opt.traced),
        seed_(opt.seed),
        costs_(opt.costs),
        scratch_(opt.scratch),
        socket_(opt.scratch + "/serve.sock") {
    svc_opt_.queue_depth = 4;
    svc_opt_.tenant_quota_bytes = 0;
  }

  ~ServeMix() override {
    try {
      teardown();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
    }
  }

  std::vector<std::string> classes() const override {
    return {"sim", "real", "batch", "plan_only", "release"};
  }
  int class_of(std::size_t i) const override { return item(i).cls; }
  double tail_q() const override { return 0.95; }
  std::size_t count_ops() const override { return cycle_len(); }
  std::size_t cycle_ops() const override { return cycle_len(); }

  // Host work is credited to the Real requests only: the sequential
  // unfused flop count of each member transform.
  void oracle() override {
    for (const Shape& s : kShapes) {
      if (s.cls != kReal && s.cls != kBatch) continue;
      const serve::Request r =
          serve::parse_request(json::parse(line_for(s, "")));
      core::SeqStats st;
      core::unfused_transform(
          core::make_problem(
              chem::custom_molecule("serve", r.custom_n, r.custom_s)),
          &st);
      credit_[s.cls] = st.flops * static_cast<double>(r.batch);
    }
  }

  void setup() override {
    {
      Scoped s("serve.construct");
      table_ = serve::CostTable::load(costs_);
      server_ = std::make_unique<serve::Server>(
          serve::TransformService(serve::CostOracle(table_), svc_opt_),
          socket_);
    }
    server_thread_ = std::thread([this] {
      try {
        server_->serve_forever();
      } catch (const std::exception& e) {
        server_error_ = e.what();
      }
      server_done_ = true;
    });
    // One cold request per distinct line; its response is the first
    // response every later identical request is checked against.
    for (const Shape& s : kShapes) {
      for (const char* tenant : kTenants) {
        const std::string line = line_for(s, tenant);
        if (first_.count(line)) continue;
        const double t0 = now_s();
        const ServeReply rsp = parse_reply(request(line));
        const double ms = (now_s() - t0) * 1e3;
        if (rsp.outcome == "error" || rsp.outcome == "rejected" ||
            rsp.outcome == "queued")
          throw Error("serve-mix cold request failed: " + line);
        if (!rsp.cache_hit) cold_ms_.push_back(ms);
        first_[line] = rsp;
        if (s.cls == kPlanOnly) {
          const std::string rel = release_line(rsp.ticket);
          first_release_ = parse_reply(request(rel));
        }
      }
    }
  }

  void before_timed(json::Value& extra) override {
    const ServeReply r = parse_reply(request(kKnownDefect));
    extra["serve.known_defect_failures"] = r.outcome == "error" ? 1.0 : 0.0;
    known_defect_outcome_ = r.outcome;
    if (!traced_) return;
    // The replay twin: a second in-process Server with the same cost
    // table and options, warmed with every distinct line. The client
    // thread replays on it, so no service state is shared with the
    // server thread.
    twin_ = std::make_unique<serve::Server>(
        serve::TransformService(serve::CostOracle(table_), svc_opt_),
        scratch_ + "/twin.sock");
    for (const auto& [line, first] : first_) {
      const ServeReply w = parse_reply(twin_->handle_line(line));
      if (w.ticket > 0 && first.outcome != "queued")
        twin_->handle_line(release_line(w.ticket));
    }
  }

  OpResult op(std::size_t i) override {
    const Item& it = item(i);
    OpResult r;
    const bool counted = i < cycle_len();
    const Counts before = counted ? serve_counts() : Counts{};
    const std::string line =
        it.cls == kRelease ? release_line(held_ticket_) : it.line;
    std::string rsp_line;
    {
      Scoped span("serve.request");
      try {
        rsp_line = serve::Server::request(socket_, line);
      } catch (const std::exception& e) {
        r.latency_s = span.close();
        r.failure = std::string("transport: ") + e.what();
        return r;
      }
      r.latency_s = span.close();
      r.cpu_s = span.cpu_s();
    }
    if (counted) add_diff(r.counts, before, serve_counts());
    ServeReply rsp;
    try {
      rsp = parse_reply(rsp_line);
    } catch (const std::exception& e) {
      r.failure = e.what();
      return r;
    }
    r.counts["runtime.sim_s"] = rsp.sim_seconds;
    r.credit_flops = credit_[it.cls];
    if (counted && rsp.sim_seconds > 0)
      est_over_sim_.push_back(rsp.est_seconds / rsp.sim_seconds);
    if (it.cls == kRelease) {
      r.failure = check_serve_reply(rsp, first_release_);
    } else {
      r.failure = check_serve_reply(rsp, first_.at(it.line));
      if (it.cls == kPlanOnly) held_ticket_ = rsp.ticket;
    }
    if (traced_) replay(it, line, r.latency_s);
    return r;
  }

  void per_layer(json::Value& m, const std::vector<OpResult>&,
                 const Counts& total) override {
    const auto d = [&](const char* name) { return count(total, name); };
    const double requests = d("serve.requests");
    m["serve.cache_hit_ratio"] = ratio(
        d("serve.cache_hits"), d("serve.cache_hits") + d("serve.cache_misses"));
    m["serve.des_skips_per_request"] = ratio(d("serve.des_skips"), requests);
    for (const char* v : {"admitted", "degraded", "queued", "rejected"})
      m[std::string("serve.") + v + "_share"] =
          ratio(count(total, std::string("serve.") + v), requests);
    m["serve.error_share"] = ratio(d("serve.errors"), requests);
    m["serve.oracle_fallbacks"] = d("serve.oracle_fallbacks");
    m["serve.parse_us"] = median(parse_us_);
    m["serve.wire_ms"] = median(wire_ms_);
    m["serve.cold.p50_ms"] = median(cold_ms_);
    m["planner.est_over_sim"] = median(est_over_sim_);
    m["planner.plan_ms"] = plan_ms();
  }

  void registries(json::Value& r) override {
    r["service"] = server_->service().metrics().to_json(false);
  }

  void settings(json::Value& s) override {
    s["socket"] = socket_;
    s["cost_table"] = costs_ + " (" + std::to_string(table_.size()) + " samples)";
    s["queue_depth"] = 4;
    s["tenant_quota_bytes"] = 0;
    s["cycle_requests"] = cycle_len();
    s["known_defect"] = std::string(kKnownDefect) + " -> " + known_defect_outcome_;
  }

  void teardown() override {
    if (!server_thread_.joinable()) return;
    try {
      if (!server_done_) serve::Server::request(socket_, R"({"verb":"shutdown"})");
    } catch (const std::exception& e) {
      std::cerr << "perfbench: shutdown request failed: " << e.what() << "\n";
    }
    server_thread_.join();
    server_.reset();
    if (!server_error_.empty())
      throw Error("serve-mix server thread: " + server_error_);
  }

 private:
  static std::string line_for(const Shape& s, const char* tenant) {
    std::string line = std::string("{") + s.body;
    if (s.tenanted) line += std::string(R"(,"tenant":")") + tenant + "\"";
    return line + "}";
  }
  static std::string release_line(double ticket) {
    return R"({"verb":"release","ticket":)" +
           std::to_string(static_cast<std::uint64_t>(ticket)) + "}";
  }

  std::size_t cycle_len() const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < std::size(kShapes); ++k)
      n += static_cast<std::size_t>(kUnits[k]) *
           (kShapes[k].cls == kPlanOnly ? 2 : 1);
    return n;
  }

  // Cycle k of the request sequence: every unit once, in a seeded
  // order, each tenanted unit tagged with a seeded tenant.
  const Item& item(std::size_t i) const {
    const std::size_t cycle = i / cycle_len();
    while (items_.size() < (cycle + 1) * cycle_len()) {
      SplitMix64 g(derive(seed_, 0x5E7E + items_.size() / cycle_len()));
      std::vector<std::size_t> units;
      for (std::size_t k = 0; k < std::size(kShapes); ++k)
        for (int u = 0; u < kUnits[k]; ++u) units.push_back(k);
      for (std::size_t j = units.size(); j > 1; --j)
        std::swap(units[j - 1], units[g.next_below(j)]);
      for (const std::size_t k : units) {
        const Shape& s = kShapes[k];
        items_.push_back({s.cls, line_for(s, kTenants[g.next_below(2)])});
        if (s.cls == kPlanOnly) items_.push_back({kRelease, ""});
      }
    }
    return items_[i];
  }

  std::string request(const std::string& line) const {
    return serve::Server::request(socket_, line);
  }

  // The service's and the GEMM registry's counts; the server thread is
  // idle between a reply and the next request.
  Counts serve_counts() const {
    Counts c = snapshot(server_->service().metrics());
    add(c, snapshot(blas::gemm_metrics()));
    return c;
  }

  // Traced only: the same line again through Server::handle_line on
  // the in-process twin (the socket round trip minus this is the wire
  // cost) and the request parse on its own. A replayed plan_only
  // reservation is released by replaying the release with the twin's
  // ticket.
  void replay(const Item& it, const std::string& line, double rtt_s) {
    const double t0 = now_s(), t0_cpu = cpu_now_s();
    std::string replay_line =
        it.cls == kRelease ? release_line(replay_ticket_) : line;
    double handle_s;
    {
      Scoped s("serve.handle_line");
      const std::string out = twin_->handle_line(replay_line);
      handle_s = s.close();
      if (it.cls == kPlanOnly) replay_ticket_ = parse_reply(out).ticket;
    }
    // plan_only answers with a full transform response, so its round
    // trip carries the wire cost every transform reply pays.
    if (it.cls == kPlanOnly) wire_ms_.push_back((rtt_s - handle_s) * 1e3);
    if (it.cls != kRelease) {
      Scoped s("serve.parse");
      serve::parse_request(json::parse(line));
      parse_us_.push_back(s.close() * 1e6);
    }
    harness_only_s += now_s() - t0;
    harness_only_cpu_s += cpu_now_s() - t0_cpu;
  }

  double plan_ms() {
    const serve::CostOracle oracle(table_);
    std::vector<double> ms;
    for (const Shape& s : kShapes) {
      if (s.cls == kPlanOnly) continue;
      const serve::Request r =
          serve::parse_request(json::parse(line_for(s, "")));
      const core::Problem p = core::make_problem(
          r.molecule == "custom"
              ? chem::custom_molecule("serve", r.custom_n, r.custom_s)
              : chem::paper_molecule(r.molecule));
      const runtime::MachineConfig m =
          r.system == "A"   ? runtime::system_a(r.n_nodes)
          : r.system == "B" ? runtime::system_b(r.n_nodes)
                            : runtime::system_c(r.n_nodes);
      const core::PlanRates rates =
          oracle.rates(m, static_cast<double>(p.n()), r.tile);
      Scoped span("core.plan_for_cluster");
      core::plan_for_cluster(p, m, r.tile_l, rates);
      ms.push_back(span.close() * 1e3);
    }
    return median(ms);
  }

  bool traced_;
  std::uint64_t seed_;
  std::string costs_;
  std::string scratch_;
  std::string socket_;
  serve::CostTable table_;
  serve::TransformService::Options svc_opt_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Server> twin_;
  std::string server_error_;
  std::atomic<bool> server_done_{false};
  std::thread server_thread_;
  std::map<std::string, ServeReply> first_;
  ServeReply first_release_;
  std::array<double, 5> credit_{};
  mutable std::vector<Item> items_;
  double held_ticket_ = 0;
  double replay_ticket_ = 0;
  std::vector<double> cold_ms_, parse_us_, wire_ms_, est_over_sim_;
  std::string known_defect_outcome_ = "not sent";
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "dist-real") return std::make_unique<DistReal>(opt);
  if (opt.workload == "ckpt-real") return std::make_unique<CkptReal>(opt);
  if (opt.workload == "serve-mix") return std::make_unique<ServeMix>(opt);
  throw Error("unknown workload '" + opt.workload + "'");
}

// A first blocked GEMM call pins the kernel trace's time origin to the
// harness clock: the trace starts its clock inside this call.
void anchor_kernel_trace() {
  const std::size_t n = 64;
  std::vector<double> a(n * n, 1.0), b(n * n, 1.0), c(n * n, 0.0);
  g_origin = Clock::now();
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
             b.data(), n, 0.0, c.data(), n);
}

json::Value common_settings() {
  json::Value s = json::Value::object();
  const char* threads = std::getenv("FOURINDEX_THREADS");
  s["FOURINDEX_THREADS"] = threads ? threads : "(unset)";
  const char* trace_dir = std::getenv("FOURINDEX_TRACE_DIR");
  s["FOURINDEX_TRACE_DIR"] = trace_dir ? trace_dir : "(unset)";
  const blas::GemmConfig g = blas::gemm_config();
  s["gemm"] = "threads=" + std::to_string(g.threads) +
              " mc=" + std::to_string(g.mc) + " kc=" + std::to_string(g.kc) +
              " nc=" + std::to_string(g.nc) +
              " ksplit=" + std::to_string(g.ksplit) +
              " isa=" + blas::isa_name(g.isa) +
              (g.deterministic ? " deterministic" : "");
  s["thread_pool"] = util::ThreadPool::shared().size();
  return s;
}

void write_trace(const std::string& dir, const json::Value& registries) {
  json::Value spans = json::Value::array();
  for (const Span& s : g_trace.spans) {
    json::Value e = json::Value::object();
    e["name"] = s.name;
    e["start"] = s.start;
    e["end"] = s.end;
    e["parent"] = static_cast<double>(s.parent);
    e["op"] = static_cast<double>(s.op);
    spans.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc["spans"] = std::move(spans);
  doc["registries"] = registries;
  std::ofstream out(dir + "/spans.json");
  out << doc.dump() << "\n";
  if (!out.good()) throw Error("cannot write " + dir + "/spans.json");
}

}  // namespace

int run_workload(const Options& opt) {
  g_trace.enabled = opt.traced;
  g_origin = Clock::now();
  if (opt.traced && std::getenv("FOURINDEX_TRACE_DIR")) anchor_kernel_trace();
  std::unique_ptr<Workload> wl = make_workload(opt);

  json::Value doc = json::Value::object();
  doc["workload"] = opt.workload;
  doc["seed"] = static_cast<double>(opt.seed);
  doc["mode"] = opt.setup_only ? "setup" : "run";
  doc["traced"] = opt.traced;
  json::Value metrics = json::Value::object();

  if (!opt.setup_only) wl->oracle();
  const double s0 = now_s(), s0_cpu = cpu_now_s();
  wl->setup();
  doc["setup_s"] = now_s() - s0;
  doc["setup_cpu_s"] = cpu_now_s() - s0_cpu;
  if (opt.setup_only) {
    wl->teardown();
    std::cout << doc.dump() << std::endl;
    return 0;
  }
  wl->before_timed(metrics);

  Ledger ledger;
  std::vector<OpResult> ops;
  const std::size_t min_ops = opt.traced ? wl->count_ops() : 1;
  const double w0 = now_s(), w0_cpu = cpu_now_s();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_ops && i % wl->cycle_ops() == 0 &&
        now_s() - w0 >= opt.seconds)
      break;
    g_trace.op = static_cast<long>(i);
    OpResult r;
    const double t0 = now_s();
    try {
      r = wl->op(i);
    } catch (const std::exception& e) {
      r.latency_s = now_s() - t0;
      r.failure = e.what();
    }
    ledger.record(r.failure);
    ops.push_back(std::move(r));
  }
  const double window = now_s() - w0 - wl->harness_only_s;
  const double window_cpu = cpu_now_s() - w0_cpu - wl->harness_only_cpu_s;
  g_trace.op = -1;

  // The successful ops' latencies by class and the work credited to
  // them; run.py pools them over a run's timed processes into the
  // end-to-end metrics.
  const auto names = wl->classes();
  std::vector<json::Value> wall_ms(names.size(), json::Value::array());
  std::vector<json::Value> cpu_ms(names.size(), json::Value::array());
  double credit = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].failure.empty()) continue;
    wall_ms[wl->class_of(i)].push_back(ops[i].latency_s * 1e3);
    cpu_ms[wl->class_of(i)].push_back(ops[i].cpu_s * 1e3);
    credit += ops[i].credit_flops;
  }
  json::Value wall = json::Value::object(), cpu = json::Value::object();
  for (std::size_t c = 0; c < names.size(); ++c) {
    wall[names[c]] = std::move(wall_ms[c]);
    cpu[names[c]] = std::move(cpu_ms[c]);
  }
  doc["latencies_ms"] = std::move(wall);
  doc["cpu_ms"] = std::move(cpu);
  doc["window_cpu_s"] = window_cpu;
  doc["credit_flops"] = credit;
  doc["peak_rss_mb"] = peak_rss_mb();

  if (opt.traced) {
    Counts total;
    const std::size_t n_count = std::min(wl->count_ops(), ops.size());
    for (std::size_t i = 0; i < n_count; ++i) add(total, ops[i].counts);
    put_counts(metrics, total, static_cast<double>(n_count));
    wl->per_layer(metrics, ops, total);
    // GEMM calls inside the timed ops, for the kernel-trace metrics
    // run.py derives from gemm_kernels.trace.json.
    double calls = 0;
    for (const OpResult& r : ops) calls += count(r.counts, "gemm.calls");
    metrics["blas.calls_timed"] = calls;
  }
  doc["tail_q"] = wl->tail_q();
  doc["ops"] = static_cast<double>(ops.size());
  doc["window_s"] = window;
  doc["attempted"] = ledger.attempted;
  doc["failed"] = ledger.failed;
  doc["first_failure"] = ledger.first_failure;

  json::Value settings = common_settings();
  wl->settings(settings);
  doc["settings"] = std::move(settings);
  json::Value reg = json::Value::object();
  if (opt.traced) {
    wl->registries(reg);
    reg["gemm"] = blas::gemm_metrics().to_json(false);
  }
  wl->teardown();
  if (opt.traced) write_trace(opt.scratch, reg);
  doc["metrics"] = std::move(metrics);
  std::cout << doc.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
