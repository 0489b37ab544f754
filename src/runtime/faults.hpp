// Deterministic fault injection for the simulated cluster.
//
// The paper's planner picks a fusion configuration from capacity
// conditions (Thm 5.1, Sec. 6) — so the right response to losing a
// node or a slab of memory mid-run is not a crash but the degradation
// ladder those bounds prescribe: restore lost tiles from the last
// phase-boundary checkpoint, retry the phase on the survivors, and
// replan against the shrunken aggregate S. The FaultInjector is the
// test harness for that machinery: it decides, reproducibly, when a
// rank dies, when a one-sided operation fails transiently, and when
// capacity or bandwidth degrade.
//
// Two configuration styles, freely mixed:
//   plan-based      schedule(FaultEvent{...}) pins a fault to an exact
//                   phase index — the deterministic unit-test mode;
//   probability     set_kill_prob / set_op_failure_prob draw from a
//                   pure hash of (seed, phase, attempt, rank, op) — no
//                   mutable RNG state, so outcomes are identical across
//                   runs, host-thread counts, and rank interleavings.
//
// Boundary faults (rank/node kill, checkpoint corruption, capacity
// shrink, bandwidth degradation) fire between phases, at the BSP
// barrier — the only point where the global state is consistent enough
// to recover from. Transient op faults fire inside a phase and are
// absorbed by Cluster::run_phase's bounded retry-with-backoff path;
// checkpoint-I/O faults (CkptIo) fire inside the checkpoint
// write/restore operations themselves and are absorbed by
// CheckpointManager's own bounded retry. Kill events may additionally
// be pinned to a retry attempt (FaultEvent::attempt > 0) to model the
// double fault of a node dying during another failure's recovery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fit::runtime {

/// The failure modes the injector can decree (see the header comment
/// for when each fires relative to the BSP phase structure).
enum class FaultKind {
  KillRank,        ///< permanent rank death at a phase boundary
  KillNode,        ///< correlated death of a whole failure domain
  TransientOp,     ///< one-sided get/put/acc failure inside a phase
  CapacityShrink,  ///< multiply every live rank's memory capacity
  NetDegrade,      ///< multiply the network bandwidth
  DiskDegrade,     ///< multiply the parallel-file-system bandwidth
  CkptCorrupt,     ///< latent bit rot in checkpointed tile copies
  CkptIo,          ///< fail checkpoint write/restore disk operations
};

/// Human-readable fault-kind name (metrics labels, log lines).
std::string to_string(FaultKind k);

/// One scheduled fault: what happens, when, and to whom.
struct FaultEvent {
  /// The failure mode.
  FaultKind kind = FaultKind::TransientOp;
  /// 0-based phase index the event fires at (Cluster::phase_index()).
  std::size_t phase = 0;
  /// Target rank (KillRank/TransientOp) or failure-domain index
  /// (KillNode).
  std::size_t rank = 0;
  /// Capacity/bandwidth multiplier (CapacityShrink and the degrade
  /// kinds).
  double factor = 1.0;
  /// Operations to fail (TransientOp/CkptIo) or tile copies to rot
  /// (CkptCorrupt).
  std::size_t count = 1;
  /// Kill events only: 0 fires at the phase boundary; N > 0 fires just
  /// before retry attempt N of that phase — the double-fault case of a
  /// rank/node dying inside another failure's backoff window.
  std::size_t attempt = 0;
  /// CkptCorrupt only: how many of the newest checkpoint generations
  /// the rot reaches (>= the retention depth models catastrophic media
  /// loss — every generation bad, restore must zero-fill).
  std::size_t depth = 1;
};

/// Deterministic decider of when ranks die, ops fail, and capacity or
/// bandwidth degrade — the reproducible storm generator behind the
/// fault-matrix tests and the chaos soak (see the header comment).
class FaultInjector {
 public:
  /// Default-constructed injector is inert: armed() is false and the
  /// cluster skips every fault check.
  FaultInjector() = default;
  /// Injector whose probability rolls hash from `seed` — equal seeds
  /// replay identical storms.
  explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}
  /// Copyable despite the mutex (the copy gets a fresh one), so an
  /// injector can be configured externally and handed to a Cluster.
  FaultInjector(const FaultInjector& other);
  /// See the copy constructor: state copies, the mutex does not.
  FaultInjector& operator=(const FaultInjector& other);

  /// Pin a fault to an exact phase. TransientOp events carry a failure
  /// budget (`count`): the target rank's first `count` one-sided ops in
  /// that phase fail, across retry attempts, until the budget drains.
  void schedule(const FaultEvent& ev);

  /// Per-(phase, rank) probability that the rank dies at the boundary.
  void set_kill_prob(double p);
  /// Per-one-sided-op transient failure probability.
  void set_op_failure_prob(double p);
  /// Per-checkpoint-I/O-operation failure probability (writes and
  /// restores alike); absorbed by CheckpointManager's bounded retry.
  void set_ckpt_io_prob(double p);

  /// True when any fault is scheduled or any probability is set —
  /// unarmed injectors cost the cluster nothing.
  bool armed() const;
  /// True when a one-sided op of `phase` may still fail: the op
  /// probability is set, or a TransientOp budget of that phase is left.
  bool can_fail_ops(std::size_t phase) const;
  /// The seed every probability roll hashes from.
  std::uint64_t seed() const { return seed_; }
  /// The per-(phase, rank) boundary kill probability.
  double kill_prob() const { return kill_prob_; }

  /// Scheduled boundary faults (every kind except TransientOp/CkptIo,
  /// and except kills pinned to a retry attempt) for `phase`, in
  /// schedule order. Each event is returned exactly once.
  std::vector<FaultEvent> take_boundary_faults(std::size_t phase);

  /// Kill events pinned to retry attempt `attempt` of `phase` (the
  /// double-fault path: a rank or node dying while run_phase is
  /// already inside a failed attempt's backoff window).
  std::vector<FaultEvent> take_retry_kills(std::size_t phase,
                                           std::size_t attempt);

  /// Probability-driven kill decision — a pure function of the seed.
  bool kill_roll(std::size_t phase, std::size_t rank) const;

  /// Should the `op_seq`-th one-sided op by `rank` in (phase, attempt)
  /// fail? Consumes scheduled TransientOp budgets first, then rolls
  /// the op probability. The roll mixes in `attempt` so a retried
  /// phase redraws — transient means transient. Thread safe.
  bool should_fail_op(std::size_t phase, std::size_t attempt,
                      std::size_t rank, std::size_t op_seq);

  /// Should the `op_seq`-th checkpoint disk operation (globally
  /// sequenced across writes and restores) fail? Consumes scheduled
  /// CkptIo budgets whose phase has been reached, then rolls the
  /// checkpoint-I/O probability. `attempt` is the checkpoint layer's
  /// own retry counter, mixed in so a retried op redraws.
  bool should_fail_ckpt_io(std::size_t phase, std::size_t attempt,
                           std::size_t op_seq);

  /// Deterministic selection weight in [0, 1) for a checkpointed tile
  /// copy — CkptCorrupt events rot the `count` copies with the
  /// smallest weights. Pure function of (seed, phase, generation,
  /// array, tile), so a storm replays bit-identically.
  double corrupt_weight(std::size_t phase, std::size_t generation,
                        std::uint64_t array_tag, std::size_t tile) const;

 private:
  double roll(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
              std::uint64_t c) const;

  std::uint64_t seed_ = 0;
  double kill_prob_ = 0;
  double op_prob_ = 0;
  double ckpt_io_prob_ = 0;
  std::vector<FaultEvent> plan_;
  mutable std::mutex mutex_;
};

}  // namespace fit::runtime
