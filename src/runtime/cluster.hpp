// The simulated distributed-memory cluster.
//
// Execution model: bulk-synchronous SPMD, exactly the structure of the
// paper's Listings 4/8/10 — each phase runs a rank body for every rank
// followed by a barrier (GA_Sync). Because all remote operations are
// one-sided gets/puts/accumulates of data written in *earlier* phases
// (an invariant the GA layer enforces), executing the rank bodies
// sequentially between barriers is semantically identical to true
// parallel execution, while remaining deterministic and scaling to
// thousands of simulated ranks on one host.
//
// Costs are tracked per rank: flops, integral evaluations, and
// latency/bandwidth-modeled communication. A phase advances simulated
// time by the *maximum* rank time in that phase (the BSP makespan), so
// load imbalance — e.g. the triangular alpha >= beta distribution of
// Sec. 7.3 — shows up faithfully.
//
// Two execution modes:
//   Real      tile buffers are allocated and the arithmetic is
//             actually performed (used by tests and small examples;
//             results are bit-comparable to the sequential schedules);
//   Simulate  only counters and simulated time advance (used by the
//             paper-scale benchmarks, where the arithmetic volume
//             would be prohibitive on the host but the paper's claims
//             are about bytes, capacity and modeled time).
// Memory accounting (and hence OOM "Failed" outcomes) is identical in
// both modes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/faults.hpp"
#include "runtime/machine.hpp"
#include "runtime/topology.hpp"
#include "util/error.hpp"

namespace fit::ga {
class GlobalArray;
}

namespace fit::runtime {

/// How a Cluster executes rank bodies (see the header comment).
enum class ExecutionMode {
  Real,      ///< buffers allocated, arithmetic performed, bit-checkable
  Simulate,  ///< counters and modeled time only (paper-scale runs)
};

/// Per-rank memory accounting. Throws OutOfMemoryError when the
/// rank's share of node memory is exceeded.
class MemTracker {
 public:
  /// Zero-capacity placeholder (rank 0); reassigned by the cluster.
  MemTracker() = default;
  /// Tracker for `rank` with a ceiling of `capacity_bytes`. When
  /// `total` is set, every charge and release also moves `*total`, a
  /// running sum over several trackers (Cluster::global_used).
  MemTracker(std::size_t rank, double capacity_bytes,
             double* total = nullptr)
      : rank_(rank), capacity_(capacity_bytes), total_(total) {}

  /// Charge an allocation of `bytes` (`what` labels the OOM message);
  /// throws OutOfMemoryError past capacity. Inline, like try_alloc:
  /// GlobalArray charges once per tile.
  void alloc(double bytes, const char* what) {
    if (!try_alloc(bytes)) throw_oom(bytes, what);
  }
  /// Non-throwing variant: returns false (and charges nothing) when
  /// the allocation would exceed capacity. Used by the spill path.
  bool try_alloc(double bytes) {
    FIT_REQUIRE(bytes >= 0, "negative allocation");
    if (used_ + bytes > capacity_) return false;
    used_ += bytes;
    peak_ = std::max(peak_, used_);
    if (total_) *total_ += bytes;
    return true;
  }
  /// Releasing more than is in use (a double release) is an internal
  /// accounting bug and raises InternalError without touching used_.
  void release(double bytes);

  /// Bytes currently charged.
  double used() const { return used_; }
  /// High-water mark of used().
  double peak() const { return peak_; }
  /// Current allocation ceiling in bytes.
  double capacity() const { return capacity_; }
  /// Capacity-shrink faults lower the ceiling mid-run; used_ may then
  /// exceed capacity until the owner frees (new allocations fail).
  void set_capacity(double capacity_bytes) { capacity_ = capacity_bytes; }

 private:
  [[noreturn]] void throw_oom(double bytes, const char* what) const;

  std::size_t rank_ = 0;
  double capacity_ = 0;
  double used_ = 0;
  double peak_ = 0;
  double* total_ = nullptr;
};

/// Communication/computation counters. This is a *view* type: ranks
/// accumulate one locally during a phase, and the cluster merges it
/// into its obs::MetricsRegistry, the authoritative store that
/// Cluster::totals() is assembled from.
struct CommStats {
  double remote_bytes = 0;     ///< bytes moved between nodes
  double local_bytes = 0;      ///< bytes moved within a node
  double remote_messages = 0;  ///< inter-node transfer count
  double disk_bytes = 0;       ///< bytes to/from the parallel FS
  double flops = 0;            ///< floating-point operations charged
  double integral_evals = 0;   ///< on-the-fly integral evaluations
  double ga_gets = 0;  ///< one-sided get operations (GA layer)
  double ga_puts = 0;  ///< one-sided put operations (GA layer)
  double ga_accs = 0;  ///< one-sided accumulate operations (GA layer)
  // Decomposition of the alpha-beta transfer time: seconds a rank's
  // clock actually stalled on transfers (exposed) vs. seconds the
  // link worked while the rank computed (overlapped). Blocking
  // operations are fully exposed; nonblocking ones split by how much
  // compute was charged between issue and wait.
  double overlapped_seconds = 0;  ///< wire time hidden behind compute
  double exposed_seconds = 0;     ///< wire time the clock stalled on
};

/// One executed BSP phase: its label and timing. Its traffic is in the
/// metrics registry, which every rank's charges are merged into.
struct PhaseRecord {
  std::string label;     ///< the run_phase label
  double t_start = 0;    ///< cumulative sim time when the phase began
  double makespan = 0;   ///< max rank time (what sim time advanced by)
  double total_rank_time = 0;  ///< sum of the ranks' busy time
  double imbalance = 1.0;      ///< makespan * ranks / total_rank_time
};

class Cluster;

/// Handle for a nonblocking transfer issued through
/// RankCtx::begin_transfer / begin_disk_transfer. Value type; hand it
/// back to wait_transfer / test_transfer on the same RankCtx (handles
/// do not outlive the phase — the barrier quiesces every outstanding
/// one).
struct NbTransfer {
  /// Sentinel id of a default-constructed (invalid) handle.
  static constexpr std::size_t kInvalid = ~static_cast<std::size_t>(0);
  /// Index into the issuing rank's in-flight operation list.
  std::size_t id = kInvalid;
  /// True for a handle actually returned by begin_transfer.
  bool valid() const { return id != kInvalid; }
};

/// What a nonblocking transfer does at the GA level; used only to
/// label the in-flight span on the Chrome-trace timeline.
enum class NbKind {
  Get,  ///< one-sided read of a remote tile
  Put,  ///< one-sided write of a remote tile
  Acc,  ///< one-sided accumulate into a remote tile
};

/// Handle given to a rank body during a phase; all cost charging goes
/// through it.
class RankCtx {
 public:
  /// This rank's id in [0, n_ranks()).
  std::size_t rank() const { return rank_; }
  /// Rank count of the owning cluster.
  std::size_t n_ranks() const;
  /// True under ExecutionMode::Real (buffers hold real data).
  bool real() const { return real_; }
  /// The owning cluster's machine description.
  const MachineConfig& machine() const;

  /// Charge `flops` floating-point operations to this rank's clock.
  void charge_flops(double flops);
  /// Charge `count` on-the-fly integral evaluations to the clock.
  void charge_integrals(double count);
  /// Charge a data transfer of `bytes` between this rank and `owner`.
  void charge_transfer(std::size_t owner, double bytes);

  /// Charge a transfer of `bytes` to/from the shared parallel file
  /// system (spilled tiles). Requires disk_bandwidth_bps > 0.
  void charge_disk(double bytes);

  /// Advance this rank's clock by a modeled scheduler stall (e.g. the
  /// queueing delay at a contended task counter). Unlike a transfer
  /// this occupies no link time: the rank is simply waiting.
  void stall(double seconds);

  // --- nonblocking transfers (the GA nb* operations build on these) --
  //
  // Each rank owns one injection link. A nonblocking transfer occupies
  // the link for its alpha-beta (or disk) time starting at
  // max(now, link free) but does NOT advance the rank's clock: compute
  // charged before the matching wait_transfer runs concurrently with
  // the wire time. wait_transfer advances the clock to the completion
  // time and splits the transfer duration into comm.overlapped_seconds
  // (hidden behind compute) and comm.exposed_seconds (stalled).
  // Blocking charge_transfer/charge_disk also respect the link
  // timeline, so a blocking op issued behind an in-flight nonblocking
  // one queues after it; with no nonblocking traffic their cost is
  // byte-for-byte what it always was.

  /// Begin a nonblocking transfer of `bytes` between this rank and
  /// `owner`. Counters (bytes, messages) are charged at issue.
  NbTransfer begin_transfer(std::size_t owner, double bytes,
                            NbKind kind = NbKind::Get);
  /// Begin a nonblocking transfer to/from the shared parallel file
  /// system. Requires disk_bandwidth_bps > 0.
  NbTransfer begin_disk_transfer(double bytes, NbKind kind = NbKind::Get);
  /// Complete a transfer: advances the clock to its completion time.
  /// Idempotent — waiting twice (or waiting after quiesce) is a no-op.
  void wait_transfer(NbTransfer handle);
  /// True when the transfer has already completed at the current
  /// clock (a wait now would not stall).
  bool test_transfer(NbTransfer handle) const;
  /// Wait for every outstanding nonblocking transfer. The phase
  /// barrier calls this, so no transfer ever leaks across an epoch.
  void quiesce();
  /// Outstanding (begun, not yet waited) nonblocking transfers.
  std::size_t nb_outstanding() const { return nb_outstanding_; }

  /// Count a one-sided get (charged by the GA layer).
  void count_ga_get() { comm_.ga_gets += 1; }
  /// Count a one-sided put (charged by the GA layer).
  void count_ga_put() { comm_.ga_puts += 1; }
  /// Count a one-sided accumulate (charged by the GA layer).
  void count_ga_acc() { comm_.ga_accs += 1; }

  /// Record a point event on this rank's timeline track.
  void note_instant(const std::string& name);

  /// Record a span on this rank's timeline track, in seconds relative
  /// to the start of the current phase attempt (use elapsed() for the
  /// endpoints). Recorded only while comm tracing is enabled — the
  /// claim-execute loops emit one span per dynamically claimed task.
  void note_span(const std::string& name, double t_start, double duration);

  /// Fault-injection probe, called by the GA layer before every
  /// one-sided op. Throws FaultError when the installed injector
  /// decrees a transient failure; run_phase's retry path absorbs it.
  /// Whether the injector is armed is read once, when the context is
  /// built for a phase attempt: the plan changes only between phases
  /// and attempts (boundary faults, retry kills, install_faults), so an
  /// unarmed run pays one predictable branch per op and takes no lock.
  void fault_point(const char* what) {
    if (armed_) fire_fault_point(what);
  }

  /// This rank's Global-Array memory tracker.
  MemTracker& memory();
  /// This rank's local scratch-buffer tracker.
  MemTracker& scratch();
  /// This rank's clock, in seconds since the phase attempt began.
  double elapsed() const { return time_; }

 private:
  friend class Cluster;
  RankCtx(Cluster& cluster, std::size_t rank, std::size_t attempt);

  struct NbOp {
    double start = 0;     // when the link begins moving the bytes
    double done = 0;      // completion time on this rank's clock
    NbKind kind = NbKind::Get;
    bool waited = false;
  };
  struct TaskSpan {
    std::size_t name = 0;  // interned timeline name
    double start = 0;      // attempt-relative seconds
    double duration = 0;
  };
  NbTransfer enqueue_nb(double duration, NbKind kind);
  /// fault_point's armed path: sequences the op and asks the injector.
  void fire_fault_point(const char* what);

  Cluster& cluster_;
  std::size_t rank_;
  std::size_t attempt_;
  bool real_;   // the cluster runs in ExecutionMode::Real
  bool armed_;  // the injector's armed() when this attempt began
  std::size_t op_seq_ = 0;  // one-sided ops issued so far this attempt
  double time_ = 0;
  double link_free_ = 0;  // when this rank's injection link frees up
  std::vector<NbOp> nb_ops_;
  std::size_t nb_outstanding_ = 0;
  std::vector<TaskSpan> task_spans_;
  CommStats comm_;
};

/// The simulated distributed-memory machine: a BSP phase executor with
/// per-rank cost/memory accounting, failure domains, fault injection,
/// and phase-boundary checkpointing (see the header comment for the
/// execution model).
class Cluster {
 public:
  /// `host_threads` > 1 executes the ranks of each phase on a pool of
  /// host threads (the GA layer's one-sided operations are thread
  /// safe); a phase attempt in which an injected op fault may fire
  /// runs on one lane, in rank order. Results are numerically
  /// identical up to floating-point accumulation order; all counters,
  /// phase records and simulated times are the same for any lane count.
  Cluster(MachineConfig config, ExecutionMode mode,
          std::size_t host_threads = 1);
  /// Tears down the host-thread pool; registered arrays must already
  /// be gone (they unregister themselves on destruction).
  ~Cluster();

  /// The machine description the cluster was built from.
  const MachineConfig& machine() const { return config_; }
  /// Real (bit-checkable) or Simulate (counters only).
  ExecutionMode mode() const { return mode_; }
  /// Effective host-thread count: the constructor argument (or
  /// FOURINDEX_THREADS, which overrides it) clamped to
  /// std::thread::hardware_concurrency() so simulated-timing benches
  /// never run oversubscribed.
  std::size_t host_threads() const { return host_threads_; }
  /// Total rank count (nodes x ranks per node).
  std::size_t n_ranks() const { return config_.n_ranks(); }
  /// Physical node a rank lives on (comm-topology grouping).
  std::size_t node_of(std::size_t rank) const {
    return rank / config_.ranks_per_node;
  }

  // --- correlated failure domains ------------------------------------
  //
  // Ranks group into failure domains of `domain_ranks()` consecutive
  // ranks — by default the machine's physical node (ranks_per_node),
  // overridable with FOURINDEX_RANKS_PER_NODE to model blast radii
  // that differ from the comm topology (a shared PSU, a rack switch).
  // FaultKind::KillNode takes a *domain* index and kills every rank in
  // it at the barrier; recovery restores all of them in one pass. The
  // same grouping (runtime::DomainMap) places ga::plan_tasks' per-node
  // counters, so a node death always takes its counter with it.
  /// The failure-domain grouping (see the section comment above).
  const DomainMap& domains() const { return domains_; }
  /// Ranks per failure domain.
  std::size_t domain_ranks() const { return domains_.width(); }
  /// Failure domain a rank belongs to.
  std::size_t domain_of(std::size_t rank) const {
    return domains_.domain_of(rank);
  }
  /// Number of failure domains.
  std::size_t n_domains() const { return domains_.n_domains(); }
  /// Kill every (live) rank of a failure domain; counts
  /// fault.domain_kills. Recovery is the caller's business, as with
  /// kill_rank.
  void kill_domain(std::size_t domain);

  /// Run one SPMD phase: body(ctx) for every rank, then a barrier.
  /// Simulated time advances by the slowest rank.
  void run_phase(const std::string& label,
                 const std::function<void(RankCtx&)>& body);

  /// Barrier epoch counter (incremented by every run_phase); the GA
  /// layer uses it to enforce the sync-before-read discipline.
  std::uint64_t epoch() const { return epoch_; }

  /// Index the *next* run_phase call will get (0-based). FaultEvent
  /// phases refer to this numbering.
  std::size_t phase_index() const { return phases_.size(); }

  /// Install a fault injector; replaces any previous one.
  void install_faults(FaultInjector injector);
  /// The installed injector (inert unless install_faults armed it).
  FaultInjector& faults() { return faults_; }

  /// Turn on phase-boundary checkpointing and bounded phase retry.
  /// Requires a parallel file system (disk_bandwidth_bps > 0): the
  /// checkpoints are charged through the disk alpha-beta model.
  void enable_recovery(CheckpointConfig cfg = {});
  /// True once enable_recovery has been called.
  bool recovery_enabled() const { return ckpt_ != nullptr; }
  /// The checkpoint manager (nullptr until enable_recovery).
  CheckpointManager* checkpoints() { return ckpt_.get(); }

  /// Rank liveness. Dead ranks are skipped by run_phase; their tiles
  /// are re-owned by the survivors (see CheckpointManager).
  bool is_dead(std::size_t rank) const { return dead_[rank] != 0; }
  /// Number of ranks still alive.
  std::size_t n_live() const;
  /// Remap a nominal owner rank to a live one (identity for live
  /// ranks; next live rank cyclically for dead ones). Inline for the
  /// live case: GlobalArray's constructor asks once per tile.
  std::size_t live_owner(std::size_t rank) const {
    FIT_REQUIRE(rank < n_ranks(), "rank out of range");
    return dead_[rank] ? next_live(rank) : rank;
  }
  /// Mark a rank permanently dead; counts fault.kills. Recovery (tile
  /// re-owning, checkpoint restore) is the caller's business.
  void kill_rank(std::size_t rank);

  /// Sum of the live ranks' *current* memory capacities — the live
  /// view of aggregate S, which capacity-shrink faults and rank deaths
  /// reduce (MachineConfig::aggregate_memory_bytes() is the nominal
  /// one). The planner's degradation path replans against this.
  double aggregate_capacity_bytes() const;

  /// Add an array to the live GlobalArray registry (called by the GA
  /// layer on construction); the checkpoint manager snapshots/restores
  /// exactly the registered set.
  void register_array(ga::GlobalArray* array);
  /// Remove a destroyed array from the registry (and from every
  /// retained checkpoint generation, via CheckpointManager::forget).
  void unregister_array(ga::GlobalArray* array);
  /// The currently live registered arrays.
  const std::vector<ga::GlobalArray*>& registered_arrays() const {
    return arrays_;
  }

  /// Charge a bulk parallel-file-system transfer (checkpoint write or
  /// restore) outside any compute phase: advances simulated time by
  /// the slowest rank's share but does NOT append a PhaseRecord or
  /// bump the epoch, so phase indices and the sync discipline are
  /// unaffected.
  void charge_disk_phase(const std::string& label,
                         const std::vector<double>& bytes_per_rank);

  /// Advance simulated time by a recovery stall (the checkpoint
  /// layer's I/O retry backoff). Occupies no link or disk time — the
  /// cluster is simply waiting out the fault.
  void charge_recovery_backoff(const std::string& label, double seconds);

  /// `rank`'s Global-Array memory tracker.
  MemTracker& memory(std::size_t rank) { return mem_[rank]; }
  /// `rank`'s Global-Array memory tracker (read-only view).
  const MemTracker& memory(std::size_t rank) const { return mem_[rank]; }
  /// `rank`'s local scratch-buffer tracker.
  MemTracker& scratch(std::size_t rank) { return scratch_[rank]; }

  /// Total bytes currently allocated across all ranks: a running sum
  /// the ranks' trackers keep current.
  double global_used() const { return global_used_; }
  /// High-water mark of global_used().
  double global_peak() const { return global_peak_; }
  /// Re-sample global_used() into the peak and its gauge (called by
  /// the GA layer after every allocation). O(1): the per-rank mem.*
  /// and scratch gauges are published at each phase barrier, so an
  /// array costs its tiles, not the cluster's rank count.
  void note_global_usage();

  /// Bytes of Global Array data currently spilled to disk.
  double disk_used() const { return disk_used_; }
  /// High-water mark of disk_used().
  double disk_peak() const { return disk_peak_; }
  /// Account `bytes` of tile data moving out to the parallel FS.
  void note_spill(double bytes);
  /// Account `bytes` of spilled tile data coming back into memory.
  void note_unspill(double bytes);

  /// Record a point event (OOM, spill, ...) on `rank`'s track at the
  /// current simulated time; shows up as an instant in the exported
  /// Chrome trace.
  void note_instant(const std::string& name, std::size_t rank);

  /// Cumulative simulated time: the sum of every phase's BSP makespan
  /// plus checkpoint I/O and recovery backoff.
  double sim_time() const { return sim_time_; }
  /// Aggregate counters, assembled from the metrics registry (the
  /// registry is the source of truth; this is the legacy view).
  CommStats totals() const;
  /// Every executed phase, in order, with its timing.
  const std::vector<PhaseRecord>& phases() const { return phases_; }

  /// All counters/gauges/histograms this cluster maintains: per-rank
  /// communication and compute charges ("comm.*", "compute.*",
  /// "ga.*", "rank.busy_time_s"), memory gauges ("mem.*", "disk.*"),
  /// and per-phase histograms ("phase.*").
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// Phase timeline: one track per rank, one span per (phase, rank),
  /// instants for OOM/spill events.
  const obs::Timeline& timeline() const { return timeline_; }

  /// Export the timeline as Chrome trace-event JSON (open in
  /// chrome://tracing or ui.perfetto.dev). Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  /// Record one timeline span per in-flight nonblocking transfer
  /// (named "nb get/put/acc (in flight)"). Defaults to on when
  /// FOURINDEX_TRACE_DIR is set — per-op spans are too many to keep
  /// around when no trace will ever be written.
  void set_comm_tracing(bool on) { trace_comm_ = on; }
  /// Whether per-op nonblocking-transfer spans are being recorded.
  bool comm_tracing() const { return trace_comm_; }

 private:
  friend class RankCtx;

  /// Metric ids for the per-rank charge counters, resolved once.
  struct ChargeIds {
    obs::MetricsRegistry::Id remote_bytes, local_bytes, remote_messages,
        disk_bytes, flops, integral_evals, ga_gets, ga_puts, ga_accs,
        overlapped_seconds, exposed_seconds, busy_time;
  };

  /// The first live rank after dead `rank`, cyclically (live_owner's
  /// slow path).
  std::size_t next_live(std::size_t rank) const;
  void merge_rank(const RankCtx& ctx);
  /// Publish every rank's mem.used/peak and scratch.peak gauges (the
  /// barrier's sample).
  void publish_memory_gauges();
  /// Record one in-flight span per nonblocking op (when comm tracing
  /// is on); `t0` is the attempt's absolute start time.
  void flush_nb_spans(const RankCtx& ctx, double t0);
  /// Record the spans noted via RankCtx::note_span (per-task
  /// scheduler spans), offset to the attempt's absolute start `t0`.
  void flush_task_spans(const RankCtx& ctx, double t0);
  /// Apply scheduled + probabilistic boundary faults for the phase
  /// about to run; performs rank-death recovery when enabled.
  void process_boundary_faults();
  /// Mark the kill set of `events` dead (expanding KillNode to its
  /// whole domain), appending the newly dead ranks to `killed`.
  void apply_kill_events(const std::vector<FaultEvent>& events,
                         std::vector<std::size_t>& killed);
  /// Checkpoint-restore the tiles of `killed` onto the survivors (one
  /// pass over all dead ranks); throws when recovery is impossible.
  void recover_killed(const std::vector<std::size_t>& killed,
                      std::size_t phase);
  /// One attempt at a phase body over all live ranks.
  void execute_attempt(const std::function<void(RankCtx&)>& body,
                       PhaseRecord& rec, const std::string& span_name,
                       std::size_t attempt);

  MachineConfig config_;
  ExecutionMode mode_;
  std::size_t host_threads_;
  DomainMap domains_;  // failure-domain / per-node-counter grouping
  std::vector<MemTracker> mem_;
  std::vector<MemTracker> scratch_;
  std::uint64_t epoch_ = 1;
  double sim_time_ = 0;
  double global_used_ = 0;
  double global_peak_ = 0;
  double disk_used_ = 0;
  double disk_peak_ = 0;
  std::vector<PhaseRecord> phases_;
  obs::MetricsRegistry registry_;
  obs::Timeline timeline_;
  ChargeIds charge_ids_{};
  obs::MetricsRegistry::Id id_mem_used_ = 0, id_mem_peak_ = 0,
                           id_scratch_peak_ = 0, id_global_peak_ = 0,
                           id_disk_used_ = 0, id_disk_peak_ = 0,
                           id_phase_makespan_ = 0, id_phase_imbalance_ = 0;
  obs::MetricsRegistry::Id id_fault_domain_kills_ = 0;
  obs::MetricsRegistry::Id id_fault_kills_ = 0, id_fault_transient_ = 0,
                           id_fault_shrinks_ = 0, id_fault_degrades_ = 0,
                           id_ckpt_writes_ = 0, id_ckpt_bytes_ = 0,
                           id_ckpt_restores_ = 0, id_ckpt_restored_bytes_ = 0,
                           id_retry_attempts_ = 0, id_retry_exhausted_ = 0;
  FaultInjector faults_;
  std::unique_ptr<CheckpointManager> ckpt_;
  std::vector<char> dead_;
  std::vector<ga::GlobalArray*> arrays_;
  bool in_recovery_ = false;  // guards re-entrant fault processing
  bool trace_comm_ = false;
  std::size_t nb_span_names_[3] = {0, 0, 0};  // interned per NbKind
};

/// RAII local (per-rank) scratch buffer: charges the rank's memory
/// tracker; holds real storage only in Real mode.
class RankBuffer {
 public:
  /// Charge `words` doubles of scratch to `ctx`'s tracker (`what`
  /// labels an OOM); allocates real storage only in Real mode.
  RankBuffer(RankCtx& ctx, std::size_t words, const char* what);
  /// Releases the scratch charge (and the storage, in Real mode).
  ~RankBuffer();
  RankBuffer(const RankBuffer&) = delete;             ///< non-copyable
  RankBuffer& operator=(const RankBuffer&) = delete;  ///< non-copyable

  /// Pointer to storage (nullptr in Simulate mode).
  double* data() { return storage_.empty() ? nullptr : storage_.data(); }
  /// Capacity in doubles (meaningful in both modes).
  std::size_t words() const { return words_; }
  /// Zero the storage; a no-op in Simulate mode.
  void zero();

 private:
  RankCtx& ctx_;
  std::size_t words_;
  std::vector<double> storage_;
};

}  // namespace fit::runtime
