// Phase-boundary checkpoint/restart for the simulated cluster.
//
// Why phase boundaries: the execution model is BSP — all remote state
// is produced by earlier phases and published at the barrier, so a
// barrier is the only point where the distributed tensors form a
// consistent cut. A checkpoint taken there is trivially coordinated
// (no message logging, no in-flight one-sided ops), which is exactly
// why NWChem-era GA codes restart from GA_Sync points.
//
// The checkpoint target is the simulated parallel file system of the
// paper's disk-based variant (Sec. 3/7): every write/restore is
// charged through the existing alpha-beta disk model via
// Cluster::charge_disk_phase, so fault-recovery overhead shows up in
// simulated time, `comm.disk_bytes`, and the `checkpoint.*` counters.
//
// Store layout — a multi-generation verified epoch store:
//
//   generation K   (newest)   per-array, per-tile copies + manifest
//   generation K-1            independent physical copies
//   ...                       (up to FOURINDEX_CKPT_KEEP generations)
//
// Each published generation is a self-contained snapshot: every
// ever-written tile has its own copy, stamped with the write epoch it
// captures and a checksum sealed at write time. Only tiles dirtied
// since the previous checkpoint transit the client's disk link
// (incremental I/O); unchanged tiles are carried into the new
// generation by a checksum-verified server-side copy, at no client
// cost. A carried copy whose source fails its checksum is instead
// rewritten fresh from the live array (a scrub repair, charged as
// real I/O).
//
// Model vs. host representation. The model treats generations as
// physically independent replicas: every copy is charged, counted and
// GC'd per generation, and bit rot (FaultKind::CkptCorrupt) strikes
// one generation's copy at a time — it flips that copy's stored
// checksum, so one generation's rot never poisons another's. On the
// host, a payload is immutable once written, so a carried copy shares
// its source's bytes (a reference, not a vector copy). The payload's
// word-wise digest (util::digest_words) is taken once, when the tile
// is written fresh; the stored checksum seals that digest with the
// write epoch and tile index. Verification — of a carried source and
// of each copy a restore walks back through — re-seals the digest and
// compares it with the stored checksum, in O(1) and without re-hashing
// the payload. That catches exactly what the injected rot changes, so
// rot detection is unchanged. Host hashing follows the dirty set: in
// Real mode `checkpoint.hashed_bytes` equals `checkpoint.bytes` (in
// Simulate mode there are no payloads to hash). A fault that flips
// payload bytes instead would not be seen by the seal: if one is ever
// added, it must give the rotted copy its own payload and force a
// re-hash on verification.
//
// Publication is atomic: a generation is staged completely — payload
// copies first, then the checksums of the fresh copies — and only then
// published by appending its manifest. A checkpoint-I/O fault mid-write
// (FaultKind::CkptIo, or the probability knob) aborts after the copies
// and before the checksums and the manifest, so a torn write leaves the
// previous generation fully intact, never a half-visible epoch, and
// hashes nothing. Checkpoint writes and restores are wrapped in the
// same bounded retry+backoff discipline run_phase uses for compute.
//
// Restore verifies every tile copy against its checksum and walks
// back generation by generation to the newest intact copy of the
// *same* write epoch (`recovery.fallback_epochs`); a copy from an
// older write epoch is stale and is never silently substituted. Only
// when every retained generation is bad does restore zero-fill
// (`checkpoint.verify_failures` + `checkpoint.zero_fills`). Retired
// generations are GC'd against the simulated PFS with
// `checkpoint.gc_bytes` accounting.
//
// Restore paths:
//   write()          after every barrier — stage + publish a generation;
//   restore_dirty()  undo the partial writes of a failed phase attempt
//                    before Cluster::run_phase retries it;
//   restore_domain() rank/node death — re-own every dead rank's tiles
//                    across the survivors (capacity-aware) and reload
//                    them from the newest intact generation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace fit::ga {
class GlobalArray;
}

namespace fit::runtime {

class Cluster;

/// Knobs of the checkpoint/retry machinery (Cluster::enable_recovery).
struct CheckpointConfig {
  /// How many times run_phase re-executes a phase whose attempt was
  /// aborted by a transient fault before giving up with FaultError.
  /// Also bounds the checkpoint layer's own I/O retries.
  std::size_t max_retries = 3;
  /// Simulated backoff charged before the first retry; doubles on
  /// every subsequent one.
  double backoff_s = 1e-3;
  /// Watchdog on a single phase's accumulated simulated makespan
  /// (work + retries + backoff). 0 disables; when positive, exceeding
  /// it raises TimeoutError instead of retrying further.
  double phase_sim_timeout_s = 0;
  /// Checkpoint generations retained (>= 1). 0 reads the
  /// FOURINDEX_CKPT_KEEP environment variable (default 2).
  std::size_t keep_epochs = 0;
  /// Delta checkpointing: 1 = only tiles dirtied since the previous
  /// generation transit the client's disk link (clean tiles are
  /// carried by verified server-side copy at zero client cost);
  /// 0 = full copy — every live tile is rewritten each generation,
  /// kept as the ablation comparator the delta mode is gated against;
  /// -1 = read the FOURINDEX_CKPT_DELTA environment variable
  /// (default 1, delta on). Restore semantics are identical either
  /// way — only the write volume and checkpoint.dirty_fraction move.
  int delta = -1;
};

/// Owned by Cluster (see Cluster::enable_recovery); maintains the
/// multi-generation verified epoch store described above.
class CheckpointManager {
 public:
  /// Manager over `cluster`'s registered arrays; `cfg` fields left at
  /// their sentinel values are resolved from the environment.
  CheckpointManager(Cluster& cluster, CheckpointConfig cfg);

  /// The configuration the manager was constructed with.
  const CheckpointConfig& config() const { return cfg_; }
  /// Effective retention depth (config or FOURINDEX_CKPT_KEEP).
  std::size_t keep_epochs() const { return keep_; }
  /// Effective delta-checkpointing switch (config or
  /// FOURINDEX_CKPT_DELTA).
  bool delta() const { return delta_; }
  /// Published generations currently retained.
  std::size_t n_generations() const { return gens_.size(); }
  /// Epoch recorded by the newest checkpoint (0 = none written yet).
  std::uint64_t last_checkpoint_epoch() const { return ckpt_epoch_; }

  /// Drop every generation's snapshot of a destroyed array (counted
  /// into checkpoint.gc_bytes — the PFS space is reclaimed).
  void forget(ga::GlobalArray* array);

  /// Stage and atomically publish a new generation; charges the disk
  /// writes for dirty tiles and scrub repairs, then GCs generations
  /// beyond the retention depth. Returns client bytes written.
  double write();

  /// Undo the current (failed) phase attempt: every tile written in
  /// the current epoch is restored to its checkpointed content (or to
  /// zeros for tiles/arrays younger than the checkpoint); charges the
  /// disk reads. Returns bytes read.
  double restore_dirty();

  /// Correlated-failure recovery: move every tile owned by the ranks
  /// in `dead` to the survivors (capacity-aware placement — see
  /// GlobalArray::reassign_owners) and restore their content from the
  /// newest intact generation; charges the disk reads. Returns bytes
  /// read.
  double restore_domain(std::span<const std::size_t> dead);

  /// Apply a CkptCorrupt event: rot `count` at-rest tile copies
  /// (selected by the injector's deterministic weights) in each of
  /// the newest `depth` generations. Copies written by the client in
  /// a generation's own publication are verified at write time and
  /// exempt in that generation; everything older is at rest.
  void inject_corruption(std::size_t phase, std::size_t count,
                         std::size_t depth);

 private:
  struct TileSnap {
    // Immutable payload, shared by every generation that carries this
    // copy (null = zeros / Simulate mode).
    std::shared_ptr<const std::vector<double>> data;
    std::uint64_t write_epoch = 0;  // 0 = never written (elided)
    std::uint64_t digest = 0;    // digest_words of the payload, taken once
    std::uint64_t checksum = 0;  // stored seal of (digest, epoch, index)
    bool fresh = false;   // client-written in this generation
    bool corrupt = false; // latent rot injected (checksum flipped)
  };
  struct ArraySnap {
    std::vector<TileSnap> tiles;
    double bytes = 0;  // physical payload bytes of this snapshot
  };
  struct Generation {
    std::uint64_t ckpt_epoch = 0;
    double bytes = 0;  // physical payload bytes resident on the PFS
    std::unordered_map<ga::GlobalArray*, ArraySnap> arrays;
  };

  static std::uint64_t seal(std::uint64_t digest, std::uint64_t write_epoch,
                            std::size_t idx);
  static bool verify(const TileSnap& snap, std::size_t idx);

  double write_once(std::size_t io_attempt);
  /// Probe the injector for a checkpoint-I/O fault; throws FaultError.
  void ckpt_io_fault_point(const char* what, std::size_t io_attempt);
  /// Bounded retry+backoff around one checkpoint I/O operation.
  template <typename Fn>
  double with_io_retry(const char* label, Fn&& op);

  /// Restore one tile to its newest-generation content, walking back
  /// through older generations on checksum failure. Returns disk
  /// bytes read (0 for zero-fill).
  double restore_tile(ga::GlobalArray* array, std::size_t idx,
                      std::vector<double>& bytes_per_rank);
  void update_store_gauge();

  Cluster& cl_;
  CheckpointConfig cfg_;
  std::size_t keep_ = 2;
  bool delta_ = true;
  std::uint64_t ckpt_epoch_ = 0;
  std::size_t io_seq_ = 0;  // checkpoint ops issued (fault sequencing)
  std::deque<Generation> gens_;  // newest at the back
};

}  // namespace fit::runtime
