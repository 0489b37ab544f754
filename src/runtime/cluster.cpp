#include "runtime/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/format.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace fit::runtime {

namespace {

// Host-thread policy: FOURINDEX_THREADS (when set, >= 1) overrides the
// constructor argument; the result is clamped to the hardware thread
// count so oversubscription cannot distort timing-sensitive benches
// (fault-recovery makespans in particular).
std::size_t effective_host_threads(std::size_t requested) {
  const std::size_t want =
      util::env_size("FOURINDEX_THREADS",
                     std::max<std::size_t>(1, requested));
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(want, hw > 0 ? hw : 1);
}

}  // namespace

void MemTracker::throw_oom(double bytes, const char* what) const {
  throw OutOfMemoryError(
      "rank " + std::to_string(rank_) + ": allocating " + human_bytes(bytes) +
      " for " + what + " exceeds local capacity " + human_bytes(capacity_) +
      " (in use: " + human_bytes(used_) + ")");
}

void MemTracker::release(double bytes) {
  FIT_REQUIRE(bytes >= 0, "negative release");
  FIT_CHECK(bytes <= used_ + 1e-6,
            "rank " << rank_ << ": double release — freeing "
                    << human_bytes(bytes) << " with only "
                    << human_bytes(used_) << " in use");
  const double before = used_;
  used_ = std::max(0.0, used_ - bytes);
  if (total_) *total_ -= before - used_;
}

RankCtx::RankCtx(Cluster& cluster, std::size_t rank, std::size_t attempt)
    : cluster_(cluster), rank_(rank), attempt_(attempt),
      real_(cluster.mode() == ExecutionMode::Real),
      armed_(cluster.faults_.armed()) {}

std::size_t RankCtx::n_ranks() const { return cluster_.n_ranks(); }
const MachineConfig& RankCtx::machine() const { return cluster_.machine(); }
MemTracker& RankCtx::memory() { return cluster_.memory(rank_); }
MemTracker& RankCtx::scratch() { return cluster_.scratch(rank_); }

void RankCtx::charge_flops(double flops) {
  comm_.flops += flops;
  time_ += flops / cluster_.machine().flops_per_rank;
}

void RankCtx::charge_integrals(double count) {
  comm_.integral_evals += count;
  time_ += count / cluster_.machine().integrals_per_sec;
}

void RankCtx::charge_transfer(std::size_t owner, double bytes) {
  const auto& m = cluster_.machine();
  double duration;
  if (cluster_.node_of(owner) == cluster_.node_of(rank_)) {
    comm_.local_bytes += bytes;
    duration = bytes / m.local_bandwidth_bps;
  } else {
    comm_.remote_bytes += bytes;
    comm_.remote_messages += 1;
    duration = m.net_latency_s + bytes / m.net_bandwidth_bps;
  }
  // A blocking transfer queues behind any in-flight nonblocking ones
  // on this rank's injection link and is fully exposed. With no
  // nonblocking traffic link_free_ <= time_, so this reduces exactly
  // to the historical time_ += duration.
  const double start = std::max(time_, link_free_);
  comm_.exposed_seconds += (start + duration) - time_;
  time_ = start + duration;
  link_free_ = time_;
}

void RankCtx::stall(double seconds) {
  FIT_REQUIRE(seconds >= 0, "negative stall");
  time_ += seconds;
}

void RankCtx::note_instant(const std::string& name) {
  cluster_.note_instant(name, rank_);
}

void RankCtx::note_span(const std::string& name, double t_start,
                        double duration) {
  if (!cluster_.trace_comm_) return;
  // intern() takes the timeline's own lock, so this is safe from the
  // pool's lanes.
  task_spans_.push_back(
      {cluster_.timeline_.intern(name), t_start, duration});
}

void RankCtx::fire_fault_point(const char* what) {
  const std::size_t seq = op_seq_++;
  if (cluster_.faults_.should_fail_op(cluster_.phase_index(), attempt_,
                                      rank_, seq)) {
    cluster_.registry_.add(cluster_.id_fault_transient_, rank_, 1);
    note_instant(std::string("fault: transient ") + what);
    throw FaultError("rank " + std::to_string(rank_) + ": transient " +
                     what + " failure (injected)");
  }
}

void RankCtx::charge_disk(double bytes) {
  const auto& m = cluster_.machine();
  FIT_CHECK(m.disk_bandwidth_bps > 0, "disk access with no disk configured");
  comm_.disk_bytes += bytes;
  // The file system bandwidth is collective: each rank sees its share.
  const double duration =
      m.disk_latency_s + bytes / (m.disk_bandwidth_bps /
                                  static_cast<double>(cluster_.n_ranks()));
  const double start = std::max(time_, link_free_);
  comm_.exposed_seconds += (start + duration) - time_;
  time_ = start + duration;
  link_free_ = time_;
}

NbTransfer RankCtx::enqueue_nb(double duration, NbKind kind) {
  NbOp op;
  op.start = std::max(time_, link_free_);
  op.done = op.start + duration;
  op.kind = kind;
  link_free_ = op.done;
  nb_ops_.push_back(op);
  ++nb_outstanding_;
  return NbTransfer{nb_ops_.size() - 1};
}

NbTransfer RankCtx::begin_transfer(std::size_t owner, double bytes,
                                   NbKind kind) {
  const auto& m = cluster_.machine();
  double duration;
  if (cluster_.node_of(owner) == cluster_.node_of(rank_)) {
    comm_.local_bytes += bytes;
    duration = bytes / m.local_bandwidth_bps;
  } else {
    comm_.remote_bytes += bytes;
    comm_.remote_messages += 1;
    duration = m.net_latency_s + bytes / m.net_bandwidth_bps;
  }
  return enqueue_nb(duration, kind);
}

NbTransfer RankCtx::begin_disk_transfer(double bytes, NbKind kind) {
  const auto& m = cluster_.machine();
  FIT_CHECK(m.disk_bandwidth_bps > 0, "disk access with no disk configured");
  comm_.disk_bytes += bytes;
  const double duration =
      m.disk_latency_s + bytes / (m.disk_bandwidth_bps /
                                  static_cast<double>(cluster_.n_ranks()));
  return enqueue_nb(duration, kind);
}

void RankCtx::wait_transfer(NbTransfer handle) {
  FIT_REQUIRE(handle.valid() && handle.id < nb_ops_.size(),
              "wait on an invalid nonblocking-transfer handle");
  NbOp& op = nb_ops_[handle.id];
  if (op.waited) return;
  op.waited = true;
  --nb_outstanding_;
  const double duration = op.done - op.start;
  // Time past the current clock is a stall (this includes link queueing
  // delay when the op had not even started); the rest was hidden
  // behind whatever the rank computed since the issue.
  const double exposed = std::max(0.0, op.done - time_);
  comm_.exposed_seconds += exposed;
  comm_.overlapped_seconds += std::max(0.0, duration - exposed);
  time_ = std::max(time_, op.done);
}

bool RankCtx::test_transfer(NbTransfer handle) const {
  FIT_REQUIRE(handle.valid() && handle.id < nb_ops_.size(),
              "test on an invalid nonblocking-transfer handle");
  const NbOp& op = nb_ops_[handle.id];
  return op.waited || op.done <= time_;
}

void RankCtx::quiesce() {
  for (std::size_t i = 0; i < nb_ops_.size() && nb_outstanding_ > 0; ++i)
    wait_transfer(NbTransfer{i});
}

void Cluster::note_spill(double bytes) {
  disk_used_ += bytes;
  disk_peak_ = std::max(disk_peak_, disk_used_);
  registry_.set(id_disk_used_, 0, disk_used_);
  registry_.set(id_disk_peak_, 0, disk_peak_);
}

void Cluster::note_unspill(double bytes) {
  disk_used_ -= bytes;
  FIT_CHECK(disk_used_ >= -1e-6, "disk accounting went negative");
  if (disk_used_ < 0) disk_used_ = 0;
  registry_.set(id_disk_used_, 0, disk_used_);
}

void Cluster::note_instant(const std::string& name, std::size_t rank) {
  timeline_.add_instant(timeline_.intern(name),
                        std::min(rank, n_ranks() - 1), sim_time_);
}

Cluster::Cluster(MachineConfig config, ExecutionMode mode,
                 std::size_t host_threads)
    : config_(std::move(config)), mode_(mode),
      host_threads_(effective_host_threads(host_threads)),
      registry_(config_.n_ranks()) {
  FIT_REQUIRE(config_.n_ranks() >= 1, "cluster needs at least one rank");
  mem_.reserve(config_.n_ranks());
  scratch_.reserve(config_.n_ranks());
  for (std::size_t r = 0; r < config_.n_ranks(); ++r) {
    mem_.emplace_back(r, config_.mem_per_rank_bytes(), &global_used_);
    scratch_.emplace_back(r, config_.local_scratch_bytes);
  }
  charge_ids_ = {registry_.counter("comm.remote_bytes"),
                 registry_.counter("comm.local_bytes"),
                 registry_.counter("comm.remote_messages"),
                 registry_.counter("comm.disk_bytes"),
                 registry_.counter("compute.flops"),
                 registry_.counter("compute.integral_evals"),
                 registry_.counter("ga.gets"),
                 registry_.counter("ga.puts"),
                 registry_.counter("ga.accs"),
                 registry_.counter("comm.overlapped_seconds"),
                 registry_.counter("comm.exposed_seconds"),
                 registry_.counter("rank.busy_time_s")};
  id_mem_used_ = registry_.gauge("mem.used_bytes");
  id_mem_peak_ = registry_.gauge("mem.peak_bytes");
  id_scratch_peak_ = registry_.gauge("scratch.peak_bytes");
  id_global_peak_ = registry_.gauge("mem.global_peak_bytes");
  id_disk_used_ = registry_.gauge("disk.used_bytes");
  id_disk_peak_ = registry_.gauge("disk.peak_bytes");
  id_phase_makespan_ = registry_.histogram("phase.makespan_s");
  id_phase_imbalance_ = registry_.histogram("phase.imbalance");
  id_fault_kills_ = registry_.counter("fault.kills");
  id_fault_domain_kills_ = registry_.counter("fault.domain_kills");
  id_fault_transient_ = registry_.counter("fault.transient_ops");
  id_fault_shrinks_ = registry_.counter("fault.capacity_shrinks");
  id_fault_degrades_ = registry_.counter("fault.bandwidth_degrades");
  id_ckpt_writes_ = registry_.counter("checkpoint.writes");
  id_ckpt_bytes_ = registry_.counter("checkpoint.bytes");
  id_ckpt_restores_ = registry_.counter("checkpoint.restores");
  id_ckpt_restored_bytes_ = registry_.counter("checkpoint.restored_bytes");
  id_retry_attempts_ = registry_.counter("retry.attempts");
  id_retry_exhausted_ = registry_.counter("retry.exhausted");
  // Per-op in-flight spans are only worth their memory when a trace
  // will actually be written; set_comm_tracing overrides.
  trace_comm_ = std::getenv("FOURINDEX_TRACE_DIR") != nullptr;
  nb_span_names_[static_cast<int>(NbKind::Get)] =
      timeline_.intern("nb get (in flight)");
  nb_span_names_[static_cast<int>(NbKind::Put)] =
      timeline_.intern("nb put (in flight)");
  nb_span_names_[static_cast<int>(NbKind::Acc)] =
      timeline_.intern("nb acc (in flight)");
  dead_.assign(config_.n_ranks(), 0);
  // Failure-domain width: the machine's node by default, overridable
  // (strict parse, loud fallback) to model a different blast radius.
  // The same DomainMap also places ga::plan_tasks' per-node counters.
  domains_ = DomainMap::from_env(config_.n_ranks(), config_.ranks_per_node);
}

Cluster::~Cluster() = default;

void Cluster::install_faults(FaultInjector injector) { faults_ = injector; }

void Cluster::enable_recovery(CheckpointConfig cfg) {
  FIT_REQUIRE(config_.disk_bandwidth_bps > 0,
              "recovery requires a parallel file system "
              "(disk_bandwidth_bps > 0) to hold the checkpoints");
  ckpt_ = std::make_unique<CheckpointManager>(*this, cfg);
}

std::size_t Cluster::n_live() const {
  std::size_t live = 0;
  for (char d : dead_) live += (d == 0);
  return live;
}

std::size_t Cluster::next_live(std::size_t rank) const {
  for (std::size_t i = 1; i < n_ranks(); ++i) {
    const std::size_t r = (rank + i) % n_ranks();
    if (!dead_[r]) return r;
  }
  throw FaultError("no live ranks left");
}

void Cluster::kill_rank(std::size_t rank) {
  FIT_REQUIRE(rank < n_ranks(), "rank out of range");
  if (dead_[rank]) return;
  dead_[rank] = 1;
  registry_.add(id_fault_kills_, rank, 1);
  note_instant("fault: kill rank " + std::to_string(rank), rank);
}

void Cluster::kill_domain(std::size_t domain) {
  FIT_REQUIRE(domain < n_domains(), "failure domain out of range");
  for (std::size_t r = domains_.lo(domain); r < domains_.hi(domain); ++r)
    kill_rank(r);
  const std::size_t lo = domains_.lo(domain);
  registry_.add(id_fault_domain_kills_, 0, 1);
  note_instant("fault: kill node " + std::to_string(domain), lo);
}

double Cluster::aggregate_capacity_bytes() const {
  double total = 0;
  for (std::size_t r = 0; r < n_ranks(); ++r) {
    if (!dead_[r]) total += mem_[r].capacity();
  }
  return total;
}

void Cluster::register_array(ga::GlobalArray* array) {
  arrays_.push_back(array);
}

void Cluster::unregister_array(ga::GlobalArray* array) {
  arrays_.erase(std::remove(arrays_.begin(), arrays_.end(), array),
                arrays_.end());
  if (ckpt_) ckpt_->forget(array);
}

void Cluster::charge_disk_phase(const std::string& label,
                                const std::vector<double>& bytes_per_rank) {
  FIT_CHECK(config_.disk_bandwidth_bps > 0,
            "disk phase with no disk configured");
  const double share =
      config_.disk_bandwidth_bps / static_cast<double>(n_ranks());
  double makespan = 0;
  for (std::size_t r = 0; r < bytes_per_rank.size(); ++r) {
    const double bytes = bytes_per_rank[r];
    if (bytes <= 0) continue;
    const double t = config_.disk_latency_s + bytes / share;
    registry_.add(charge_ids_.disk_bytes, r, bytes);
    registry_.add(charge_ids_.busy_time, r, t);
    makespan = std::max(makespan, t);
  }
  sim_time_ += makespan;
  if (makespan > 0) note_instant(label, 0);
}

void Cluster::charge_recovery_backoff(const std::string& label,
                                      double seconds) {
  FIT_REQUIRE(seconds >= 0, "negative backoff");
  sim_time_ += seconds;
  note_instant(label, 0);
}

void Cluster::apply_kill_events(const std::vector<FaultEvent>& events,
                                std::vector<std::size_t>& killed) {
  const std::size_t before = killed.size();
  for (const auto& ev : events) {
    switch (ev.kind) {
      case FaultKind::KillRank:
        if (ev.rank < n_ranks() && !dead_[ev.rank]) {
          kill_rank(ev.rank);
          killed.push_back(ev.rank);
        }
        break;
      case FaultKind::KillNode: {
        if (ev.rank >= n_domains()) break;
        const std::size_t lo = domains_.lo(ev.rank);
        const std::size_t hi = domains_.hi(ev.rank);
        for (std::size_t r = lo; r < hi; ++r)
          if (!dead_[r]) killed.push_back(r);
        kill_domain(ev.rank);
        break;
      }
      default:
        break;
    }
  }
  (void)before;
}

void Cluster::recover_killed(const std::vector<std::size_t>& killed,
                             std::size_t phase) {
  if (killed.empty()) return;
  if (n_live() == 0)
    throw FaultError("all ranks dead at phase " + std::to_string(phase));
  if (arrays_.empty()) return;
  if (!ckpt_)
    throw CheckpointError(
        "rank death with live global arrays and no recovery enabled "
        "(call Cluster::enable_recovery before the faulty run)");
  // One pass over the whole kill set: re-owning sees every dead rank
  // at once, so no tile can land on a rank that died in the same
  // correlated failure.
  ckpt_->restore_domain(killed);
}

void Cluster::process_boundary_faults() {
  if (!faults_.armed()) return;
  // Recovery itself replays GA traffic through run_phase-adjacent
  // machinery; don't let it re-trigger boundary faults recursively.
  in_recovery_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{in_recovery_};

  const std::size_t phase = phase_index();
  auto events = faults_.take_boundary_faults(phase);
  if (faults_.kill_prob() > 0) {
    for (std::size_t r = 0; r < n_ranks(); ++r) {
      if (!dead_[r] && faults_.kill_roll(phase, r)) {
        FaultEvent ev;
        ev.kind = FaultKind::KillRank;
        ev.phase = phase;
        ev.rank = r;
        events.push_back(ev);
      }
    }
  }

  std::vector<std::size_t> killed;
  apply_kill_events(events, killed);
  for (const auto& ev : events) {
    switch (ev.kind) {
      case FaultKind::KillRank:
      case FaultKind::KillNode:
        break;  // handled by apply_kill_events above
      case FaultKind::CapacityShrink:
        for (std::size_t r = 0; r < n_ranks(); ++r) {
          if (!dead_[r])
            mem_[r].set_capacity(mem_[r].capacity() * ev.factor);
        }
        registry_.add(id_fault_shrinks_, 0, 1);
        note_instant("fault: capacity x" + fmt_fixed(ev.factor, 2), 0);
        break;
      case FaultKind::NetDegrade:
        config_.net_bandwidth_bps *= ev.factor;
        registry_.add(id_fault_degrades_, 0, 1);
        note_instant("fault: net bandwidth x" + fmt_fixed(ev.factor, 2), 0);
        break;
      case FaultKind::DiskDegrade:
        config_.disk_bandwidth_bps *= ev.factor;
        registry_.add(id_fault_degrades_, 0, 1);
        note_instant("fault: disk bandwidth x" + fmt_fixed(ev.factor, 2), 0);
        break;
      case FaultKind::CkptCorrupt:
        // Rot strikes the store itself; detection is deferred to the
        // next restore's checksum verification, exactly like latent
        // media corruption on a real PFS.
        if (ckpt_) ckpt_->inject_corruption(phase, ev.count, ev.depth);
        break;
      case FaultKind::TransientOp:
        break;  // fired inside the phase via RankCtx::fault_point
      case FaultKind::CkptIo:
        break;  // consumed by CheckpointManager's I/O fault probe
    }
  }

  recover_killed(killed, phase);
}

void Cluster::merge_rank(const RankCtx& ctx) {
  const std::size_t r = ctx.rank_;
  const CommStats& c = ctx.comm_;
  registry_.add(charge_ids_.remote_bytes, r, c.remote_bytes);
  registry_.add(charge_ids_.local_bytes, r, c.local_bytes);
  registry_.add(charge_ids_.remote_messages, r, c.remote_messages);
  registry_.add(charge_ids_.disk_bytes, r, c.disk_bytes);
  registry_.add(charge_ids_.flops, r, c.flops);
  registry_.add(charge_ids_.integral_evals, r, c.integral_evals);
  registry_.add(charge_ids_.ga_gets, r, c.ga_gets);
  registry_.add(charge_ids_.ga_puts, r, c.ga_puts);
  registry_.add(charge_ids_.ga_accs, r, c.ga_accs);
  registry_.add(charge_ids_.overlapped_seconds, r, c.overlapped_seconds);
  registry_.add(charge_ids_.exposed_seconds, r, c.exposed_seconds);
  registry_.add(charge_ids_.busy_time, r, ctx.time_);
}

void Cluster::flush_nb_spans(const RankCtx& ctx, double t0) {
  if (!trace_comm_) return;
  for (const auto& op : ctx.nb_ops_) {
    timeline_.add_span(nb_span_names_[static_cast<int>(op.kind)], ctx.rank_,
                       t0 + op.start, op.done - op.start);
  }
}

void Cluster::flush_task_spans(const RankCtx& ctx, double t0) {
  if (!trace_comm_) return;
  for (const auto& s : ctx.task_spans_)
    timeline_.add_span(s.name, ctx.rank_, t0 + s.start, s.duration);
}

void Cluster::execute_attempt(const std::function<void(RankCtx&)>& body,
                              PhaseRecord& rec, const std::string& label,
                              std::size_t attempt) {
  const std::size_t span_name = timeline_.intern(
      attempt == 0 ? label
                   : label + " (retry " + std::to_string(attempt) + ")");
  // Retries execute after the failed attempt's work and the backoff,
  // so this attempt's spans start at the phase's accumulated offset.
  const double t0 = rec.t_start + rec.makespan;
  // The clock of each rank that finished its body. The record sums
  // these in rank order once the lanes are done, so it comes out the
  // same for any lane count.
  struct Finished {
    bool ran = false;
    double time = 0;
  };
  std::vector<Finished> finished(n_ranks());
  auto run_rank = [&](std::size_t r) {
    RankCtx ctx(*this, r, attempt);
    body(ctx);
    // The barrier is also the nonblocking quiescence point: no handle
    // outlives the phase, and the makespan below already includes
    // every in-flight transfer's completion.
    ctx.quiesce();
    merge_rank(ctx);
    timeline_.add_span(span_name, r, t0, ctx.time_);
    flush_nb_spans(ctx, t0);
    flush_task_spans(ctx, t0);
    finished[r] = {true, ctx.time_};
  };
  // An attempt in which a one-sided op may fail runs its ranks on one
  // lane, in rank order: the first failing rank ends it there, as the
  // serial executor does, so neither the charges of the aborted
  // attempt nor the fault budgets it drains depend on the lane count.
  const std::size_t lanes = faults_.can_fail_ops(phase_index())
                                ? 1
                                : std::min(host_threads_, n_ranks());
  std::exception_ptr first_error;
  if (lanes <= 1) {
    try {
      for (std::size_t r = 0; r < n_ranks(); ++r)
        if (!dead_[r]) run_rank(r);
    } catch (...) {
      first_error = std::current_exception();
    }
  } else {
    // Each rank is run by exactly one lane, so per-rank state needs no
    // locking (registry and timeline have their own). Lanes take
    // contiguous blocks of ranks: tiles are owned round-robin, so
    // neighbouring GA table entries and memory trackers belong to
    // neighbouring ranks, and strided lanes would write them from two
    // cores. A lane stops at its first exception (scratch OOM, say),
    // which is rethrown on the calling thread. Lanes run on the
    // process-wide util::ThreadPool: workers are created once per
    // process, not once per phase.
    std::mutex error_mutex;
    util::ThreadPool::shared().run_tasks(lanes, [&](std::size_t t) {
      try {
        const std::size_t hi = (t + 1) * n_ranks() / lanes;
        for (std::size_t r = t * n_ranks() / lanes; r < hi; ++r)
          if (!dead_[r]) run_rank(r);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  double attempt_makespan = 0;
  for (const Finished& f : finished) {
    if (!f.ran) continue;
    attempt_makespan = std::max(attempt_makespan, f.time);
    rec.total_rank_time += f.time;
  }
  rec.makespan += attempt_makespan;
  if (first_error) std::rethrow_exception(first_error);
}

void Cluster::run_phase(const std::string& label,
                        const std::function<void(RankCtx&)>& body) {
  if (!in_recovery_) process_boundary_faults();
  const std::size_t phase = phase_index();
  PhaseRecord rec;
  rec.label = label;
  rec.t_start = sim_time_;
  const std::size_t max_retries = ckpt_ ? ckpt_->config().max_retries : 0;
  std::size_t attempt = 0;
  for (;;) {
    try {
      execute_attempt(body, rec, label, attempt);
      break;
    } catch (const FaultError& e) {
      registry_.add(id_retry_attempts_, 0, 1);
      if (attempt >= max_retries) {
        registry_.add(id_retry_exhausted_, 0, 1);
        note_instant("retry budget exhausted: " + label, 0);
        throw FaultError("phase '" + label + "' failed after " +
                         std::to_string(attempt + 1) +
                         " attempt(s): " + e.what());
      }
      // Roll back this attempt's partial writes to the pre-phase
      // checkpoint, charge an exponential backoff, and go again on
      // the (still consistent) pre-phase state.
      ckpt_->restore_dirty();
      // Double faults: a rank or node scheduled to die inside this
      // retry's backoff window dies now, after the rollback, and its
      // tiles are re-owned before the retry runs on the survivors.
      if (!in_recovery_) {
        auto late = faults_.take_retry_kills(phase, attempt + 1);
        if (!late.empty()) {
          in_recovery_ = true;
          struct Reset {
            bool& flag;
            ~Reset() { flag = false; }
          } reset{in_recovery_};
          std::vector<std::size_t> killed;
          apply_kill_events(late, killed);
          recover_killed(killed, phase);
        }
      }
      const double backoff =
          ckpt_->config().backoff_s * static_cast<double>(1ull << attempt);
      rec.makespan += backoff;
      const double watchdog = ckpt_->config().phase_sim_timeout_s;
      if (watchdog > 0 && rec.makespan > watchdog) {
        throw TimeoutError("phase '" + label +
                           "' exceeded its simulated-time watchdog (" +
                           fmt_sci(rec.makespan, 2) + " s > " +
                           fmt_sci(watchdog, 2) + " s) while retrying: " +
                           e.what());
      }
      note_instant("retry " + std::to_string(attempt + 1) + ": " + label, 0);
      ++attempt;
    }
  }
  if (rec.total_rank_time > 0)
    rec.imbalance = rec.makespan * static_cast<double>(n_live()) /
                    rec.total_rank_time;
  sim_time_ += rec.makespan;
  registry_.observe(id_phase_makespan_, rec.makespan);
  registry_.observe(id_phase_imbalance_, rec.imbalance);
  FIT_LOG_DEBUG("phase '" << rec.label << "': makespan "
                << fmt_sci(rec.makespan, 2) << " s, imbalance "
                << fmt_fixed(rec.imbalance, 2));
  phases_.push_back(std::move(rec));
  note_global_usage();
  publish_memory_gauges();
  ++epoch_;  // the barrier
  // The barrier is the consistent cut: snapshot what this phase wrote.
  if (ckpt_ && !in_recovery_) ckpt_->write();
}

CommStats Cluster::totals() const {
  CommStats t;
  t.remote_bytes = registry_.sum("comm.remote_bytes");
  t.local_bytes = registry_.sum("comm.local_bytes");
  t.remote_messages = registry_.sum("comm.remote_messages");
  t.disk_bytes = registry_.sum("comm.disk_bytes");
  t.flops = registry_.sum("compute.flops");
  t.integral_evals = registry_.sum("compute.integral_evals");
  t.ga_gets = registry_.sum("ga.gets");
  t.ga_puts = registry_.sum("ga.puts");
  t.ga_accs = registry_.sum("ga.accs");
  t.overlapped_seconds = registry_.sum("comm.overlapped_seconds");
  t.exposed_seconds = registry_.sum("comm.exposed_seconds");
  return t;
}

void Cluster::note_global_usage() {
  global_peak_ = std::max(global_peak_, global_used_);
  registry_.set(id_global_peak_, 0, global_peak_);
}

void Cluster::publish_memory_gauges() {
  for (std::size_t r = 0; r < n_ranks(); ++r) {
    registry_.set(id_mem_used_, r, mem_[r].used());
    registry_.set(id_mem_peak_, r, mem_[r].peak());
    registry_.set(id_scratch_peak_, r, scratch_[r].peak());
  }
}

bool Cluster::write_chrome_trace(const std::string& path) const {
  return timeline_.write_chrome_trace(
      path, config_.name.empty() ? "fourindex cluster" : config_.name);
}

RankBuffer::RankBuffer(RankCtx& ctx, std::size_t words, const char* what)
    : ctx_(ctx), words_(words) {
  try {
    ctx_.scratch().alloc(8.0 * static_cast<double>(words), what);
  } catch (const OutOfMemoryError&) {
    ctx_.note_instant(std::string("oom: ") + what);
    throw;
  }
  if (ctx_.real()) storage_.assign(words, 0.0);
}

RankBuffer::~RankBuffer() {
  ctx_.scratch().release(8.0 * static_cast<double>(words_));
}

void RankBuffer::zero() {
  std::fill(storage_.begin(), storage_.end(), 0.0);
}

}  // namespace fit::runtime
