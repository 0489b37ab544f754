#include "ga/global_array.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "util/format.hpp"
#include "util/logging.hpp"

namespace fit::ga {

using runtime::RankCtx;

GlobalArray::GlobalArray(runtime::Cluster& cluster, std::string name,
                         std::vector<tensor::Tiling> dims, TileFilter filter,
                         OwnerFn owner)
    : cluster_(cluster), name_(std::move(name)), dims_(std::move(dims)) {
  FIT_REQUIRE(!dims_.empty(), "global array needs at least one dimension");

  // Enumerate the row-major tile grid, last dimension fastest, keeping
  // the tiles that pass the filter in the hot table and the flat cold
  // tables with their nominal owner: `owner`'s pick, or round-robin
  // over the existing tiles. Then place them: arrays created after a
  // rank death land on the survivors.
  const std::size_t nd = dims_.size();
  std::size_t grid = 1;
  for (const auto& t : dims_) {
    extent_.push_back(t.ntiles());
    grid *= t.ntiles();
  }
  grid_index_.assign(grid, 0);
  const std::size_t nranks = cluster_.n_ranks();
  FIT_REQUIRE(nranks <= std::numeric_limits<std::uint32_t>::max(),
              "rank count exceeds the tile table's owner field");
  TileCoord coord(nd, 0);
  for (std::size_t lin = 0; lin < grid; ++lin) {
    if (lin > 0)  // step the coordinate
      for (std::size_t d = nd; d-- > 0;) {
        if (++coord[d] < extent_[d]) break;
        coord[d] = 0;
      }
    if (filter && !filter(coord)) continue;
    std::size_t elements = 1;
    for (std::size_t d = 0; d < nd; ++d) elements *= dims_[d].len(coord[d]);
    const std::size_t nominal =
        owner ? owner(coord, nranks) : hot_.size() % nranks;
    FIT_REQUIRE(nominal < nranks, "owner function out of range");
    grid_index_[lin] = hot_.size() + 1;
    hot_.push_back({0, elements, static_cast<std::uint32_t>(nominal)});
    for (std::size_t d = 0; d < nd; ++d) {
      coord_.push_back(coord[d]);
      lo_.push_back(dims_[d].lo(coord[d]));
      len_.push_back(dims_[d].len(coord[d]));
    }
  }
  for (Tile& t : hot_) {
    t.owner = static_cast<std::uint32_t>(cluster_.live_owner(t.owner));
    total_elements_ += t.elements;
  }
  // Group the tiles by owner, each group in tile order: one list per
  // rank when there are at least as many tiles as ranks, else a sort
  // of the tiles by owner. Either way O(tiles) (times a log), never
  // O(ranks) for an array of a few tiles on a large cluster.
  if (hot_.size() >= nranks) {
    std::vector<std::vector<std::size_t>> lists(nranks);
    for (std::size_t i = 0; i < hot_.size(); ++i)
      lists[hot_[i].owner].push_back(i);
    for (std::size_t r = 0; r < nranks; ++r)
      if (!lists[r].empty()) by_owner_.push_back({r, std::move(lists[r])});
  } else {
    std::vector<std::size_t> order(hot_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t x, std::size_t y) {
                       return hot_[x].owner < hot_[y].owner;
                     });
    for (std::size_t i : order) {
      if (by_owner_.empty() || by_owner_.back().rank != hot_[i].owner)
        by_owner_.push_back({hot_[i].owner, {}});
      by_owner_.back().tiles.push_back(i);
    }
  }
  // Collective allocation: may throw OutOfMemoryError. Roll back the
  // charges made so far if a later rank share does not fit, so the
  // caller can recover (resilient_transform's fallback after a mid-run
  // capacity fault relies on this). When the machine configures a file
  // system, tiles that do not fit spill to disk instead (every access
  // then pays the disk bandwidth).
  const bool can_spill = cluster_.machine().disk_bandwidth_bps > 0;
  std::size_t charged = 0;
  try {
    for (; charged < hot_.size(); ++charged) {
      Tile& t = hot_[charged];
      const double bytes = 8.0 * double(t.elements);
      if (can_spill) {
        if (!cluster_.memory(t.owner).try_alloc(bytes)) {
          t.spilled = true;
          ++n_spilled_;
          cluster_.note_spill(bytes);
        }
      } else {
        cluster_.memory(t.owner).alloc(bytes, name_.c_str());
      }
    }
  } catch (...) {
    if (charged < hot_.size())
      cluster_.note_instant("oom: GA '" + name_ + "'", hot_[charged].owner);
    for (std::size_t i = 0; i < charged; ++i)
      cluster_.memory(hot_[i].owner).release(8.0 * double(hot_[i].elements));
    throw;
  }
  if (n_spilled_ > 0)
    cluster_.note_instant("spill: GA '" + name_ + "' (" +
                              std::to_string(n_spilled_) + " tiles)",
                          0);
  if (cluster_.mode() == runtime::ExecutionMode::Real) {
    data_.resize(hot_.size());
    for (std::size_t i = 0; i < hot_.size(); ++i)
      data_[i].assign(hot_[i].elements, 0.0);
  }
  cluster_.register_array(this);
  cluster_.note_global_usage();
  FIT_LOG_DEBUG("GA_Create '" << name_ << "': " << hot_.size()
                << " tiles, " << human_bytes(total_bytes())
                << (n_spilled_ ? (", " + std::to_string(n_spilled_) +
                                  " spilled to disk")
                               : std::string()));
}

GlobalArray::~GlobalArray() {
  try {
    destroy();
  } catch (...) {
    // Destructors must not throw; accounting errors here would be
    // internal bugs already reported elsewhere.
  }
}

void GlobalArray::destroy() {
  if (destroyed_) return;
  destroyed_ = true;
  cluster_.unregister_array(this);
  for (const Tile& t : hot_) {
    const double bytes = 8.0 * double(t.elements);
    if (t.spilled)
      cluster_.note_unspill(bytes);
    else
      cluster_.memory(t.owner).release(bytes);
  }
  data_.clear();
  data_.shrink_to_fit();
}

const std::vector<std::size_t>& GlobalArray::tiles_of(std::size_t rank) const {
  static const std::vector<std::size_t> kNone;
  const auto it = std::lower_bound(
      by_owner_.begin(), by_owner_.end(), rank,
      [](const Owned& o, std::size_t r) { return o.rank < r; });
  return it != by_owner_.end() && it->rank == rank ? it->tiles : kNone;
}

std::vector<std::size_t>& GlobalArray::owned_by(std::size_t rank) {
  auto it = std::lower_bound(
      by_owner_.begin(), by_owner_.end(), rank,
      [](const Owned& o, std::size_t r) { return o.rank < r; });
  if (it == by_owner_.end() || it->rank != rank)
    it = by_owner_.insert(it, {rank, {}});
  return it->tiles;
}

const std::vector<double>& GlobalArray::tile_data(std::size_t idx) const {
  static const std::vector<double> kNone;  // Simulate mode holds none
  return data_.empty() ? kNone : data_[idx];
}

std::size_t GlobalArray::index_of(std::span<const std::size_t> coord) const {
  FIT_REQUIRE(coord.size() == extent_.size(), "tile coord rank mismatch");
  std::size_t lin = 0;
  for (std::size_t d = 0; d < extent_.size(); ++d) {
    FIT_REQUIRE(coord[d] < extent_[d],
                name_ << ": tile coord out of grid in dim " << d);
    lin = lin * extent_[d] + coord[d];
  }
  const std::size_t idx = grid_index_[lin];
  FIT_REQUIRE(idx != 0, name_ << ": tile does not exist (filtered out)");
  return idx - 1;
}

bool GlobalArray::is_spilled(std::span<const std::size_t> coord) const {
  return hot_[index_of(coord)].spilled;
}

bool GlobalArray::exists(std::span<const std::size_t> coord) const {
  FIT_REQUIRE(coord.size() == extent_.size(), "tile coord rank mismatch");
  std::size_t lin = 0;
  for (std::size_t d = 0; d < extent_.size(); ++d) {
    if (coord[d] >= extent_[d]) return false;
    lin = lin * extent_[d] + coord[d];
  }
  return grid_index_[lin] != 0;
}

void GlobalArray::check_readable(const Tile& t, const char* op) const {
  FIT_CHECK(t.epoch().load(std::memory_order_acquire) < cluster_.epoch(),
            name_ << ": " << op
                  << " of a tile written in the current epoch — "
                     "missing GA_Sync before the read");
}

void GlobalArray::charge_blocking(RankCtx& ctx, const Tile& t) const {
  const double bytes = 8.0 * double(t.elements);
  if (t.spilled)
    ctx.charge_disk(bytes);
  else
    ctx.charge_transfer(t.owner, bytes);
}

GlobalArray::NbHandle GlobalArray::charge_begin(RankCtx& ctx, const Tile& t,
                                                runtime::NbKind kind) const {
  const double bytes = 8.0 * double(t.elements);
  return t.spilled ? ctx.begin_disk_transfer(bytes, kind)
                   : ctx.begin_transfer(t.owner, bytes, kind);
}

void GlobalArray::mark_written(Tile& t) {
  t.epoch().store(cluster_.epoch(), std::memory_order_release);
}

void GlobalArray::read_data(std::size_t idx, double* buf) const {
  FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
  std::copy(data_[idx].begin(), data_[idx].end(), buf);
}

void GlobalArray::write_data(std::size_t idx, const double* buf,
                             bool accumulate) {
  FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
  std::vector<double>& d = data_[idx];
  if (!accumulate) {
    std::copy(buf, buf + d.size(), d.begin());
    return;
  }
  std::lock_guard<std::mutex> lock(acc_mutex_);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] += buf[i];
}

void GlobalArray::get(RankCtx& ctx, std::span<const std::size_t> coord,
                      double* buf) const {
  FIT_REQUIRE(!destroyed_, name_ << ": get after destroy");
  ctx.fault_point("get");
  ctx.count_ga_get();
  const std::size_t idx = index_of(coord);
  check_readable(hot_[idx], "get");
  charge_blocking(ctx, hot_[idx]);
  if (ctx.real()) read_data(idx, buf);
}

void GlobalArray::put(RankCtx& ctx, std::span<const std::size_t> coord,
                      const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": put after destroy");
  ctx.fault_point("put");
  ctx.count_ga_put();
  const std::size_t idx = index_of(coord);
  charge_blocking(ctx, hot_[idx]);
  mark_written(hot_[idx]);
  if (ctx.real()) write_data(idx, buf, false);
}

void GlobalArray::acc(RankCtx& ctx, std::span<const std::size_t> coord,
                      const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": acc after destroy");
  ctx.fault_point("acc");
  ctx.count_ga_acc();
  const std::size_t idx = index_of(coord);
  charge_blocking(ctx, hot_[idx]);
  mark_written(hot_[idx]);
  if (ctx.real()) write_data(idx, buf, true);
}

GlobalArray::NbHandle GlobalArray::nbget(RankCtx& ctx,
                                         std::span<const std::size_t> coord,
                                         double* buf) const {
  FIT_REQUIRE(!destroyed_, name_ << ": nbget after destroy");
  ctx.fault_point("nbget");
  ctx.count_ga_get();
  const std::size_t idx = index_of(coord);
  check_readable(hot_[idx], "nbget");
  const NbHandle h = charge_begin(ctx, hot_[idx], runtime::NbKind::Get);
  if (ctx.real()) read_data(idx, buf);
  return h;
}

GlobalArray::NbHandle GlobalArray::nbput(RankCtx& ctx,
                                         std::span<const std::size_t> coord,
                                         const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": nbput after destroy");
  ctx.fault_point("nbput");
  ctx.count_ga_put();
  const std::size_t idx = index_of(coord);
  const NbHandle h = charge_begin(ctx, hot_[idx], runtime::NbKind::Put);
  mark_written(hot_[idx]);
  if (ctx.real()) write_data(idx, buf, false);
  return h;
}

GlobalArray::NbHandle GlobalArray::nbacc(RankCtx& ctx,
                                         std::span<const std::size_t> coord,
                                         const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": nbacc after destroy");
  ctx.fault_point("nbacc");
  ctx.count_ga_acc();
  const std::size_t idx = index_of(coord);
  const NbHandle h = charge_begin(ctx, hot_[idx], runtime::NbKind::Acc);
  mark_written(hot_[idx]);
  if (ctx.real()) write_data(idx, buf, true);
  return h;
}

double GlobalArray::peek(std::span<const std::size_t> element) const {
  FIT_REQUIRE(cluster_.mode() == runtime::ExecutionMode::Real,
              "peek only in Real mode");
  FIT_REQUIRE(element.size() == dims_.size(), "element coord rank mismatch");
  TileCoord coord(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    coord[d] = dims_[d].tile_of(element[d]);
  const std::size_t idx = index_of(coord);
  const TileInfo t = tile_by_index(idx);
  std::size_t off = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d)
    off = off * t.len[d] + (element[d] - t.lo[d]);
  return data_[idx][off];
}

void GlobalArray::restore_tile(std::size_t idx,
                               std::span<const double> data,
                               std::uint64_t epoch) {
  FIT_REQUIRE(idx < hot_.size(), name_ << ": restore of bad tile index");
  if (cluster_.mode() == runtime::ExecutionMode::Real) {
    std::vector<double>& d = data_[idx];
    if (data.empty()) {
      std::fill(d.begin(), d.end(), 0.0);
    } else {
      FIT_CHECK(data.size() == hot_[idx].elements,
                name_ << ": checkpoint tile size mismatch");
      std::copy(data.begin(), data.end(), d.begin());
    }
  }
  hot_[idx].epoch().store(epoch, std::memory_order_release);
}

std::vector<std::size_t> GlobalArray::reassign_owners(
    std::span<const std::size_t> dead, std::span<const std::size_t> targets) {
  FIT_REQUIRE(!targets.empty(), "no surviving ranks to re-own tiles");
  const bool can_spill = cluster_.machine().disk_bandwidth_bps > 0;
  // Capacity-aware placement: the target with the most free tracked
  // memory *right now* takes the next tile (ties to the lowest rank).
  // Free space is re-read after every placement, so a large orphaned
  // working set spreads across the survivors instead of round-robining
  // onto whichever happens to come first and OOMing it.
  auto best_target = [&]() {
    std::size_t best = targets[0];
    double best_free = cluster_.memory(best).capacity() -
                       cluster_.memory(best).used();
    for (std::size_t i = 1; i < targets.size(); ++i) {
      const std::size_t r = targets[i];
      const double free =
          cluster_.memory(r).capacity() - cluster_.memory(r).used();
      if (free > best_free) {
        best = r;
        best_free = free;
      }
    }
    return best;
  };
  std::vector<std::size_t> moved;
  for (std::size_t d : dead) {
    FIT_REQUIRE(d < cluster_.n_ranks(), "rank out of range");
    // A copy: a target's list may be inserted ahead of d's.
    const std::vector<std::size_t> orphans = tiles_of(d);
    for (std::size_t idx : orphans) {
      Tile& t = hot_[idx];
      const std::size_t target = best_target();
      if (t.spilled) {
        // Bytes live on the shared file system; only the nominal owner
        // (used for locality decisions) changes.
        t.owner = static_cast<std::uint32_t>(target);
        owned_by(target).push_back(idx);
        continue;
      }
      const double bytes = 8.0 * double(t.elements);
      cluster_.memory(d).release(bytes);
      if (cluster_.memory(target).try_alloc(bytes)) {
        t.owner = static_cast<std::uint32_t>(target);
      } else if (can_spill) {
        t.owner = static_cast<std::uint32_t>(target);
        t.spilled = true;
        ++n_spilled_;
        cluster_.note_spill(bytes);
      } else {
        // No headroom anywhere: surface as the usual OOM so the
        // caller's degradation path (replan against the shrunken S)
        // can engage.
        cluster_.memory(target).alloc(bytes, name_.c_str());
      }
      owned_by(target).push_back(idx);
      moved.push_back(idx);
    }
    std::erase_if(by_owner_, [d](const Owned& o) { return o.rank == d; });
  }
  cluster_.note_global_usage();
  return moved;
}

OwnerFn owner_cyclic() {
  // The default distribution is already cyclic over existing tiles;
  // this helper makes the choice explicit at call sites. It hashes the
  // dense linear index of the tile coordinate, matching the default.
  return {};  // empty OwnerFn selects the built-in round-robin
}

OwnerFn owner_block(std::size_t n_tiles_total) {
  // Contiguous ranges of the tile enumeration: tile i goes to rank
  // floor(i * nranks / total). Callers pass the existing-tile count.
  auto counter = std::make_shared<std::size_t>(0);
  return [counter, n_tiles_total](std::span<const std::size_t>,
                                  std::size_t nranks) {
    const std::size_t i = (*counter)++;
    return std::min(nranks - 1, i * nranks / std::max<std::size_t>(
                                                 1, n_tiles_total));
  };
}

OwnerFn owner_by_dim(std::size_t dim) {
  return [dim](std::span<const std::size_t> c, std::size_t nranks) {
    return c[dim] % nranks;
  };
}

TileFilter filter_triangular(std::size_t d0, std::size_t d1) {
  return [d0, d1](std::span<const std::size_t> c) { return c[d0] >= c[d1]; };
}

TileFilter filter_and(TileFilter a, TileFilter b) {
  return [a = std::move(a), b = std::move(b)](
             std::span<const std::size_t> c) { return a(c) && b(c); };
}

}  // namespace fit::ga
