#include "ga/global_array.hpp"

#include <algorithm>
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

  // Enumerate the tiles passing the filter, then place them: arrays
  // created after a rank death land on the survivors. (Placing in a
  // second pass keeps the tiles' small allocations apart from
  // by_owner_'s growth; interleaved, construction ran ~15% slower.)
  std::size_t grid = 1;
  for (const auto& t : dims_) grid *= t.ntiles();
  grid_index_.assign(grid, 0);
  const std::size_t nranks = cluster_.n_ranks();
  for_each_tile(dims_, filter, owner, nranks,
                [&](std::span<const std::size_t> coord, std::size_t lin,
                    std::size_t elements, std::size_t nominal) {
                  grid_index_[lin] = tiles_.size() + 1;
                  Tile& t = tiles_.emplace_back();
                  t.info.coord.assign(coord.begin(), coord.end());
                  t.info.linear = lin;
                  t.info.elements = elements;
                  for (std::size_t d = 0; d < coord.size(); ++d) {
                    t.info.lo.push_back(dims_[d].lo(coord[d]));
                    t.info.len.push_back(dims_[d].len(coord[d]));
                  }
                  t.info.owner = nominal;
                });
  by_owner_.assign(nranks, {});
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    auto& t = tiles_[i];
    t.info.owner = cluster_.live_owner(t.info.owner);
    by_owner_[t.info.owner].push_back(i);
    total_elements_ += t.info.elements;
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
    for (; charged < tiles_.size(); ++charged) {
      auto& t = tiles_[charged];
      const double bytes = 8.0 * double(t.info.elements);
      if (can_spill) {
        if (!cluster_.memory(t.info.owner).try_alloc(bytes)) {
          t.spilled = true;
          ++n_spilled_;
          cluster_.note_spill(bytes);
        }
      } else {
        cluster_.memory(t.info.owner).alloc(bytes, name_.c_str());
      }
    }
  } catch (...) {
    if (charged < tiles_.size())
      cluster_.note_instant("oom: GA '" + name_ + "'",
                            tiles_[charged].info.owner);
    for (std::size_t i = 0; i < charged; ++i)
      cluster_.memory(tiles_[i].info.owner)
          .release(8.0 * double(tiles_[i].info.elements));
    throw;
  }
  if (n_spilled_ > 0)
    cluster_.note_instant("spill: GA '" + name_ + "' (" +
                              std::to_string(n_spilled_) + " tiles)",
                          0);
  if (cluster_.mode() == runtime::ExecutionMode::Real)
    for (auto& t : tiles_) t.data.assign(t.info.elements, 0.0);
  cluster_.register_array(this);
  cluster_.note_global_usage();
  FIT_LOG_DEBUG("GA_Create '" << name_ << "': " << tiles_.size()
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
  for (auto& t : tiles_) {
    const double bytes = 8.0 * double(t.info.elements);
    if (t.spilled)
      cluster_.note_unspill(bytes);
    else
      cluster_.memory(t.info.owner).release(bytes);
    t.data.clear();
    t.data.shrink_to_fit();
  }
}

std::size_t GlobalArray::index_of(std::span<const std::size_t> coord) const {
  FIT_REQUIRE(coord.size() == dims_.size(), "tile coord rank mismatch");
  std::size_t lin = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    FIT_REQUIRE(coord[d] < dims_[d].ntiles(),
                name_ << ": tile coord out of grid in dim " << d);
    lin = lin * dims_[d].ntiles() + coord[d];
  }
  const std::size_t idx = grid_index_[lin];
  FIT_REQUIRE(idx != 0, name_ << ": tile does not exist (filtered out)");
  return idx - 1;
}

bool GlobalArray::is_spilled(std::span<const std::size_t> coord) const {
  return tile_at(coord).spilled;
}

bool GlobalArray::exists(std::span<const std::size_t> coord) const {
  FIT_REQUIRE(coord.size() == dims_.size(), "tile coord rank mismatch");
  std::size_t lin = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (coord[d] >= dims_[d].ntiles()) return false;
    lin = lin * dims_[d].ntiles() + coord[d];
  }
  return grid_index_[lin] != 0;
}

const TileInfo& GlobalArray::info(std::span<const std::size_t> coord) const {
  return tiles_[index_of(coord)].info;
}

GlobalArray::Tile& GlobalArray::tile_at(std::span<const std::size_t> coord) {
  return tiles_[index_of(coord)];
}
const GlobalArray::Tile& GlobalArray::tile_at(
    std::span<const std::size_t> coord) const {
  return tiles_[index_of(coord)];
}

void GlobalArray::get(RankCtx& ctx, std::span<const std::size_t> coord,
                      double* buf) const {
  FIT_REQUIRE(!destroyed_, name_ << ": get after destroy");
  ctx.fault_point("get");
  ctx.count_ga_get();
  const Tile& t = tile_at(coord);
  FIT_CHECK(t.write_epoch.load(std::memory_order_acquire) <
                cluster_.epoch(),
            name_ << ": get of a tile written in the current epoch — "
                     "missing GA_Sync before the read");
  if (t.spilled)
    ctx.charge_disk(8.0 * double(t.info.elements));
  else
    ctx.charge_transfer(t.info.owner, 8.0 * double(t.info.elements));
  if (ctx.real()) {
    FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
    std::copy(t.data.begin(), t.data.end(), buf);
  }
}

void GlobalArray::put(RankCtx& ctx, std::span<const std::size_t> coord,
                      const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": put after destroy");
  ctx.fault_point("put");
  ctx.count_ga_put();
  Tile& t = tile_at(coord);
  if (t.spilled)
    ctx.charge_disk(8.0 * double(t.info.elements));
  else
    ctx.charge_transfer(t.info.owner, 8.0 * double(t.info.elements));
  t.write_epoch.store(cluster_.epoch(), std::memory_order_release);
  if (ctx.real()) {
    FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
    std::copy(buf, buf + t.info.elements, t.data.begin());
  }
}

void GlobalArray::acc(RankCtx& ctx, std::span<const std::size_t> coord,
                      const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": acc after destroy");
  ctx.fault_point("acc");
  ctx.count_ga_acc();
  Tile& t = tile_at(coord);
  if (t.spilled)
    ctx.charge_disk(8.0 * double(t.info.elements));
  else
    ctx.charge_transfer(t.info.owner, 8.0 * double(t.info.elements));
  t.write_epoch.store(cluster_.epoch(), std::memory_order_release);
  if (ctx.real()) {
    FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
    std::lock_guard<std::mutex> lock(acc_mutex_);
    for (std::size_t i = 0; i < t.info.elements; ++i) t.data[i] += buf[i];
  }
}

GlobalArray::NbHandle GlobalArray::nbget(RankCtx& ctx,
                                         std::span<const std::size_t> coord,
                                         double* buf) const {
  FIT_REQUIRE(!destroyed_, name_ << ": nbget after destroy");
  ctx.fault_point("nbget");
  ctx.count_ga_get();
  const Tile& t = tile_at(coord);
  FIT_CHECK(t.write_epoch.load(std::memory_order_acquire) <
                cluster_.epoch(),
            name_ << ": nbget of a tile written in the current epoch — "
                     "missing GA_Sync before the read");
  const double bytes = 8.0 * double(t.info.elements);
  const NbHandle h =
      t.spilled ? ctx.begin_disk_transfer(bytes, runtime::NbKind::Get)
                : ctx.begin_transfer(t.info.owner, bytes,
                                     runtime::NbKind::Get);
  if (ctx.real()) {
    FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
    std::copy(t.data.begin(), t.data.end(), buf);
  }
  return h;
}

GlobalArray::NbHandle GlobalArray::nbput(RankCtx& ctx,
                                         std::span<const std::size_t> coord,
                                         const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": nbput after destroy");
  ctx.fault_point("nbput");
  ctx.count_ga_put();
  Tile& t = tile_at(coord);
  const double bytes = 8.0 * double(t.info.elements);
  const NbHandle h =
      t.spilled ? ctx.begin_disk_transfer(bytes, runtime::NbKind::Put)
                : ctx.begin_transfer(t.info.owner, bytes,
                                     runtime::NbKind::Put);
  t.write_epoch.store(cluster_.epoch(), std::memory_order_release);
  if (ctx.real()) {
    FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
    std::copy(buf, buf + t.info.elements, t.data.begin());
  }
  return h;
}

GlobalArray::NbHandle GlobalArray::nbacc(RankCtx& ctx,
                                         std::span<const std::size_t> coord,
                                         const double* buf) {
  FIT_REQUIRE(!destroyed_, name_ << ": nbacc after destroy");
  ctx.fault_point("nbacc");
  ctx.count_ga_acc();
  Tile& t = tile_at(coord);
  const double bytes = 8.0 * double(t.info.elements);
  const NbHandle h =
      t.spilled ? ctx.begin_disk_transfer(bytes, runtime::NbKind::Acc)
                : ctx.begin_transfer(t.info.owner, bytes,
                                     runtime::NbKind::Acc);
  t.write_epoch.store(cluster_.epoch(), std::memory_order_release);
  if (ctx.real()) {
    FIT_REQUIRE(buf != nullptr, "null buffer in Real mode");
    std::lock_guard<std::mutex> lock(acc_mutex_);
    for (std::size_t i = 0; i < t.info.elements; ++i) t.data[i] += buf[i];
  }
  return h;
}

double GlobalArray::peek(std::span<const std::size_t> element) const {
  FIT_REQUIRE(cluster_.mode() == runtime::ExecutionMode::Real,
              "peek only in Real mode");
  FIT_REQUIRE(element.size() == dims_.size(), "element coord rank mismatch");
  TileCoord coord(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    coord[d] = dims_[d].tile_of(element[d]);
  const Tile& t = tile_at(coord);
  std::size_t off = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d)
    off = off * t.info.len[d] + (element[d] - t.info.lo[d]);
  return t.data[off];
}

void GlobalArray::restore_tile(std::size_t idx,
                               std::span<const double> data,
                               std::uint64_t epoch) {
  FIT_REQUIRE(idx < tiles_.size(), name_ << ": restore of bad tile index");
  Tile& t = tiles_[idx];
  if (cluster_.mode() == runtime::ExecutionMode::Real) {
    if (data.empty()) {
      std::fill(t.data.begin(), t.data.end(), 0.0);
    } else {
      FIT_CHECK(data.size() == t.info.elements,
                name_ << ": checkpoint tile size mismatch");
      std::copy(data.begin(), data.end(), t.data.begin());
    }
  }
  t.write_epoch.store(epoch, std::memory_order_release);
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
    FIT_REQUIRE(d < by_owner_.size(), "rank out of range");
    for (std::size_t idx : by_owner_[d]) {
      Tile& t = tiles_[idx];
      const std::size_t target = best_target();
      if (t.spilled) {
        // Bytes live on the shared file system; only the nominal owner
        // (used for locality decisions) changes.
        t.info.owner = target;
        by_owner_[target].push_back(idx);
        continue;
      }
      const double bytes = 8.0 * double(t.info.elements);
      cluster_.memory(d).release(bytes);
      if (cluster_.memory(target).try_alloc(bytes)) {
        t.info.owner = target;
      } else if (can_spill) {
        t.info.owner = target;
        t.spilled = true;
        ++n_spilled_;
        cluster_.note_spill(bytes);
      } else {
        // No headroom anywhere: surface as the usual OOM so the
        // caller's degradation path (replan against the shrunken S)
        // can engage.
        cluster_.memory(target).alloc(bytes, name_.c_str());
      }
      by_owner_[target].push_back(idx);
      moved.push_back(idx);
    }
    by_owner_[d].clear();
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
