// Global-Arrays-style distributed tiled tensors over the simulated
// cluster — the data substrate NWChem builds the four-index transform
// on (paper Sec. 2.1).
//
// A GlobalArray is an N-dimensional tensor blocked along every
// dimension (one tensor::Tiling per dim). Only tiles passing a
// TileFilter exist — this is how permutation symmetry ("only unique
// blocks are stored": tile_i >= tile_j) and spatial symmetry (tiles
// with no allowed quadruple are dropped) reduce distributed storage.
// Existing tiles are distributed across ranks either round-robin or by
// a caller-supplied owner function (Listing 10 distributes C by its
// (alpha,beta) block row).
//
// Access is one-sided: get / put / acc of whole tiles, charged to the
// calling rank with the alpha-beta network model. A sync-before-read
// discipline is enforced: a tile written in the current epoch cannot
// be get() until after the next barrier (GA_Sync), which catches real
// data races in schedule code.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"
#include "tensor/tiling.hpp"
#include "util/error.hpp"

/// \file
/// \brief Global-Arrays-style distributed tiled tensors with one-sided
/// blocking and nonblocking access (Sec. 2.1).

namespace fit::ga {

/// A tile coordinate: one tile index per dimension.
using TileCoord = std::vector<std::size_t>;

/// Decides which tiles of the grid exist. Receives the tile coordinate
/// (one tile index per dimension).
using TileFilter = std::function<bool(std::span<const std::size_t>)>;

/// Maps an existing tile to its owning rank. Receives the tile
/// coordinate and the rank count.
using OwnerFn =
    std::function<std::size_t(std::span<const std::size_t>, std::size_t)>;

/// Metadata of one existing tile of a GlobalArray: a view into the
/// array's tables, valid while the array lives.
struct TileInfo {
  std::span<const std::size_t> coord;  ///< Tile indices per dimension.
  std::span<const std::size_t> lo;  ///< Inclusive element offsets per dim.
  std::span<const std::size_t> len;  ///< Extents per dim.
  std::size_t elements = 1;          ///< Product of the extents.
  std::size_t owner = 0;             ///< Owning rank.
};

/// An N-dimensional distributed tiled tensor with one-sided get / put /
/// acc access, tile filtering for permutation and spatial symmetry,
/// nonblocking transfer variants, and the checkpoint/recovery hooks the
/// fault layer uses. See the file comment for the access discipline.
class GlobalArray {
 public:
  /// Collective creation: charges each tile to its owner's memory
  /// tracker (or spills it, on a machine with a file system). Throws
  /// OutOfMemoryError if any rank's share does not fit. Default filter
  /// keeps all tiles; default owner is round-robin over existing
  /// tiles. Visits every cell of the tile grid and keeps a dense index
  /// of it (8 bytes per cell), so the grid's cell count bounds what
  /// construction costs, in Simulate mode too; the cluster's rank
  /// count does not enter it. core::check_capacity pays this for every
  /// array of the chain it checks.
  GlobalArray(runtime::Cluster& cluster, std::string name,
              std::vector<tensor::Tiling> dims, TileFilter filter = {},
              OwnerFn owner = {});
  ~GlobalArray();

  GlobalArray(const GlobalArray&) = delete;
  GlobalArray& operator=(const GlobalArray&) = delete;

  /// Collective destruction: releases the memory accounting. Also done
  /// by the destructor; explicit destroy() mirrors the listings'
  /// `delete O1`.
  void destroy();

  /// Array name (used in traces and error messages).
  const std::string& name() const { return name_; }
  /// Number of dimensions.
  std::size_t n_dims() const { return dims_.size(); }
  /// Tiling of dimension `d`.
  const tensor::Tiling& tiling(std::size_t d) const { return dims_[d]; }

  /// Number of existing (filter-passing) tiles.
  std::size_t n_tiles() const { return hot_.size(); }
  /// Total elements across existing tiles.
  std::size_t total_elements() const { return total_elements_; }
  /// Total bytes across existing tiles (8 bytes per element).
  double total_bytes() const { return 8.0 * double(total_elements_); }

  /// Number of tiles spilled to the simulated file system (nonzero
  /// only when the machine configures disk_bandwidth_bps > 0 and the
  /// array did not fit in aggregate memory).
  std::size_t n_spilled_tiles() const { return n_spilled_; }
  /// True when the tile at `coord` resides on the simulated disk.
  bool is_spilled(std::span<const std::size_t> coord) const;

  /// True when the tile at `coord` passes the filter (i.e. is stored).
  bool exists(std::span<const std::size_t> coord) const;
  /// Metadata of the existing tile at `coord`.
  TileInfo info(std::span<const std::size_t> coord) const {
    return tile_by_index(index_of(coord));
  }

  /// Tiles owned by `rank`, in deterministic order.
  const std::vector<std::size_t>& tiles_of(std::size_t rank) const;
  /// Metadata of the tile with internal index `idx` (as returned by
  /// tiles_of / reassign_owners).
  TileInfo tile_by_index(std::size_t idx) const {
    const std::size_t nd = dims_.size();
    return {{&coord_[idx * nd], nd}, {&lo_[idx * nd], nd},
            {&len_[idx * nd], nd}, hot_[idx].elements, hot_[idx].owner};
  }

  /// One-sided read of a whole tile into `buf` (row-major over the
  /// tile extents). `buf` may be null in Simulate mode. Enforces the
  /// sync-before-read discipline.
  void get(runtime::RankCtx& ctx, std::span<const std::size_t> coord,
           double* buf) const;

  /// One-sided replace of a whole tile.
  void put(runtime::RankCtx& ctx, std::span<const std::size_t> coord,
           const double* buf);

  /// One-sided accumulate (+=) into a whole tile.
  void acc(runtime::RankCtx& ctx, std::span<const std::size_t> coord,
           const double* buf);

  // --- nonblocking variants (GA_NbGet / GA_NbPut / GA_NbAcc) ---
  //
  // Identical semantics and counters to get/put/acc, but the wire time
  // is charged to the rank's injection-link timeline instead of the
  // clock: compute charged before the matching wait() overlaps the
  // transfer. In Real mode the data movement happens *eagerly at
  // issue* — legal because the sync-before-read discipline freezes a
  // tile's remote value within an epoch (nbget reads data no put of
  // this epoch may touch; nbput/nbacc land exactly where the blocking
  // op would, and readers cannot observe the tile until the next
  // barrier anyway). Results are therefore bit-identical to the
  // blocking ops regardless of when wait() runs.

  /// Handle for an in-flight nb operation; pass back to wait()/test()
  /// on the same RankCtx. The phase barrier waits any leftovers.
  using NbHandle = runtime::NbTransfer;

  /// Nonblocking get: `buf` is filled at issue (Real mode); the sim
  /// clock only advances at wait().
  NbHandle nbget(runtime::RankCtx& ctx, std::span<const std::size_t> coord,
                 double* buf) const;
  /// Nonblocking put: the tile is written (and its epoch stamped) at
  /// issue; `buf` may be reused as soon as the call returns.
  NbHandle nbput(runtime::RankCtx& ctx, std::span<const std::size_t> coord,
                 const double* buf);
  /// Nonblocking accumulate; same issue-time semantics as nbput.
  NbHandle nbacc(runtime::RankCtx& ctx, std::span<const std::size_t> coord,
                 const double* buf);

  /// Complete an nb operation: advances the clock past its wire time
  /// (idempotent). Equivalent to ctx.wait_transfer(h).
  static void wait(runtime::RankCtx& ctx, NbHandle h) {
    ctx.wait_transfer(h);
  }
  /// Complete every outstanding nb operation on this rank (all
  /// arrays — the link timeline is per rank, not per array).
  static void wait_all(runtime::RankCtx& ctx) { ctx.quiesce(); }

  /// Direct read of one element (root-only convenience for gathering
  /// results in Real mode; not charged).
  double peek(std::span<const std::size_t> element) const;

  // --- checkpoint/recovery interface (used by CheckpointManager) ---

  /// Write epoch of tile `idx` (0 = never written).
  std::uint64_t tile_write_epoch(std::size_t idx) const {
    return hot_[idx].epoch().load(std::memory_order_acquire);
  }
  /// Tile payload (empty in Simulate mode and for never-written tiles
  /// snapshotted as zeros).
  const std::vector<double>& tile_data(std::size_t idx) const;
  /// Overwrite tile `idx` with checkpointed content (`data` empty =
  /// zeros in Real mode) and rewind its write epoch to `epoch`.
  void restore_tile(std::size_t idx, std::span<const double> data,
                    std::uint64_t epoch);
  /// Move every tile owned by the `dead` ranks to the `targets` ranks,
  /// transferring the memory accounting. Placement is capacity-aware:
  /// each tile goes to the target with the most free tracked memory at
  /// that moment (ties to the lowest rank), so recovery spreads the
  /// orphaned working set instead of piling it round-robin onto one
  /// survivor and tripping a spurious capacity fault. Spilled tiles
  /// only change nominal owner (their bytes live on the shared file
  /// system, which survives rank death). Returns the indices of the
  /// re-owned in-memory tiles — the ones whose content was lost and
  /// must be restored from a checkpoint.
  std::vector<std::size_t> reassign_owners(
      std::span<const std::size_t> dead,
      std::span<const std::size_t> targets);

 private:
  // What every one-sided op reads or writes, one dense entry per
  // existing tile (24 bytes: the table's footprint is what an op pays
  // for, so it is not padded to a cache line).
  struct Tile {
    mutable std::uint64_t write_epoch = 0;  // only through epoch()
    std::size_t elements = 0;               // product of the extents
    std::uint32_t owner = 0;                // owning rank
    bool spilled = false;  // resides on the simulated disk

    /// The write epoch, which lanes store concurrently (accumulates
    /// may share an output tile).
    std::atomic_ref<std::uint64_t> epoch() const {
      return std::atomic_ref<std::uint64_t>(write_epoch);
    }
  };

  std::size_t index_of(std::span<const std::size_t> coord) const;
  // The steps of a one-sided op (`op` names it in error messages).
  void check_readable(const Tile& t, const char* op) const;
  void charge_blocking(runtime::RankCtx& ctx, const Tile& t) const;
  NbHandle charge_begin(runtime::RankCtx& ctx, const Tile& t,
                        runtime::NbKind kind) const;
  void mark_written(Tile& t);
  // Real mode: copy tile `idx` out to `buf`, or `buf` into (or, with
  // `accumulate`, onto) the tile.
  void read_data(std::size_t idx, double* buf) const;
  void write_data(std::size_t idx, const double* buf, bool accumulate);

  runtime::Cluster& cluster_;
  std::string name_;
  std::vector<tensor::Tiling> dims_;
  std::vector<std::size_t> extent_;  // tile count per dimension
  std::vector<Tile> hot_;
  // Cold metadata, n_dims() entries per tile, flat in tile order.
  std::vector<std::size_t> coord_, lo_, len_;
  std::vector<std::vector<double>> data_;  // payloads, Real mode only
  std::vector<std::size_t> grid_index_;  // dense linear id -> tile idx+1
  // The tiles of each rank that owns any, in ascending rank order:
  // only owning ranks have an entry, so an array's bookkeeping grows
  // with its tiles, never with the cluster's rank count.
  struct Owned {
    std::size_t rank;
    std::vector<std::size_t> tiles;
  };
  std::vector<Owned> by_owner_;
  // The entry of `rank`, inserted (empty) in rank order if absent.
  std::vector<std::size_t>& owned_by(std::size_t rank);
  std::size_t total_elements_ = 0;
  std::size_t n_spilled_ = 0;
  bool destroyed_ = false;
  // Serializes concurrent one-sided accumulates under a threaded
  // executor (puts target disjoint tiles by construction; accumulates
  // may collide on shared output tiles).
  mutable std::mutex acc_mutex_;
};

// Standard distributions.

/// Round-robin over existing tiles (the default distribution).
OwnerFn owner_cyclic();
/// Contiguous blocks of existing tiles, one block per rank.
OwnerFn owner_block(std::size_t n_tiles_total);
/// Distribute by one tile coordinate (e.g. Listing 10's C layout by
/// the (alpha,beta) block row uses a custom function; this helper
/// covers single-dimension layouts).
OwnerFn owner_by_dim(std::size_t dim);

// Standard filters.

/// tile[d0] >= tile[d1] — the unique-block filter for a symmetric
/// index pair.
TileFilter filter_triangular(std::size_t d0, std::size_t d1);
/// Conjunction of two filters.
TileFilter filter_and(TileFilter a, TileFilter b);

}  // namespace fit::ga
