#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ga/global_array.hpp"
#include "runtime/cluster.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace fit::runtime {

namespace {

// XOR mask applied to a rotted copy's stored checksum: re-sealing the
// copy's digest at read time then disagrees, which is how the verifier
// sees rot.
constexpr std::uint64_t kRotMask = 0xBADC0FFEE0DDF00Dull;

// A copy's payload; empty for zeros / Simulate mode.
std::span<const double> payload_of(
    const std::shared_ptr<const std::vector<double>>& data) {
  if (!data) return {};
  return *data;
}

}  // namespace

CheckpointManager::CheckpointManager(Cluster& cluster, CheckpointConfig cfg)
    : cl_(cluster), cfg_(cfg) {
  keep_ = cfg_.keep_epochs > 0
              ? cfg_.keep_epochs
              : util::env_size_strict("FOURINDEX_CKPT_KEEP", 2);
  delta_ = cfg_.delta < 0
               ? util::env_size("FOURINDEX_CKPT_DELTA", 1, /*min=*/0) != 0
               : cfg_.delta != 0;
  // Pre-register every metric this layer can emit, so benches and
  // gates may sum() them unconditionally — a clean run reads zeros
  // instead of tripping the unknown-metric precondition.
  auto& reg = cl_.metrics();
  for (const char* name :
       {"checkpoint.writes", "checkpoint.bytes", "checkpoint.restores",
        "checkpoint.restored_bytes", "checkpoint.gc_bytes",
        "checkpoint.verify_failures", "checkpoint.zero_fills",
        "checkpoint.scrub_repairs", "checkpoint.io_faults",
        "checkpoint.io_retries", "checkpoint.hashed_bytes",
        "recovery.fallback_epochs", "fault.ckpt_corrupts"})
    reg.counter(name);
  reg.gauge("checkpoint.store_bytes");
  reg.gauge("checkpoint.generations");
  reg.gauge("checkpoint.dirty_fraction");
}

std::uint64_t CheckpointManager::seal(std::uint64_t digest,
                                      std::uint64_t write_epoch,
                                      std::size_t idx) {
  // Cover the payload digest and the manifest metadata; in Simulate
  // mode (no payload) the metadata alone still detects rot, since the
  // injector flips the stored checksum rather than the bytes.
  return util::fnv1a_u64(idx, util::fnv1a_u64(write_epoch, digest));
}

bool CheckpointManager::verify(const TileSnap& snap, std::size_t idx) {
  // O(1): the payload is immutable and its digest was taken when it was
  // written, so only the seal over (digest, epoch, index) is redone.
  return seal(snap.digest, snap.write_epoch, idx) == snap.checksum;
}

void CheckpointManager::update_store_gauge() {
  double resident = 0;
  for (const auto& g : gens_) resident += g.bytes;
  auto& reg = cl_.metrics();
  reg.set(reg.gauge("checkpoint.store_bytes"), 0, resident);
  reg.set(reg.gauge("checkpoint.generations"), 0,
          static_cast<double>(gens_.size()));
}

void CheckpointManager::forget(ga::GlobalArray* array) {
  double freed = 0;
  for (auto& g : gens_) {
    auto it = g.arrays.find(array);
    if (it == g.arrays.end()) continue;
    freed += it->second.bytes;
    g.bytes -= it->second.bytes;
    g.arrays.erase(it);
  }
  if (freed > 0) {
    auto& reg = cl_.metrics();
    reg.add(reg.counter("checkpoint.gc_bytes"), 0, freed);
    update_store_gauge();
  }
}

void CheckpointManager::ckpt_io_fault_point(const char* what,
                                            std::size_t io_attempt) {
  if (!cl_.faults().armed()) return;
  const std::size_t seq = io_seq_++;
  if (!cl_.faults().should_fail_ckpt_io(cl_.phase_index(), io_attempt, seq))
    return;
  auto& reg = cl_.metrics();
  reg.add(reg.counter("checkpoint.io_faults"), 0, 1);
  cl_.note_instant(std::string("fault: ckpt io (") + what + ")", 0);
  throw FaultError(std::string("checkpoint I/O fault during ") + what);
}

template <typename Fn>
double CheckpointManager::with_io_retry(const char* label, Fn&& op) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return op(attempt);
    } catch (const FaultError& e) {
      if (attempt >= cfg_.max_retries) {
        throw CheckpointError(std::string(label) + " failed after " +
                              std::to_string(attempt + 1) +
                              " attempt(s): " + e.what());
      }
      const double backoff =
          cfg_.backoff_s * static_cast<double>(1ull << attempt);
      cl_.charge_recovery_backoff(
          std::string(label) + " retry " + std::to_string(attempt + 1),
          backoff);
      auto& reg = cl_.metrics();
      reg.add(reg.counter("checkpoint.io_retries"), 0, 1);
    }
  }
}

double CheckpointManager::write() {
  return with_io_retry("checkpoint write", [this](std::size_t attempt) {
    return write_once(attempt);
  });
}

double CheckpointManager::write_once(std::size_t io_attempt) {
  Generation g;
  g.ckpt_epoch = cl_.epoch();
  const Generation* prev = gens_.empty() ? nullptr : &gens_.back();
  std::vector<double> bytes_per_rank(cl_.n_ranks(), 0.0);
  double client_bytes = 0;
  double scrub_repairs = 0;
  double live_tiles = 0, dirty_tiles = 0;
  // Fresh copies of this generation, sealed once the write can no
  // longer tear.
  std::vector<std::pair<TileSnap*, std::size_t>> fresh;
  for (ga::GlobalArray* arr : cl_.registered_arrays()) {
    ArraySnap& as = g.arrays[arr];
    as.tiles.resize(arr->n_tiles());
    const ArraySnap* pas = nullptr;
    if (prev) {
      auto it = prev->arrays.find(arr);
      if (it != prev->arrays.end()) pas = &it->second;
    }
    for (std::size_t idx = 0; idx < arr->n_tiles(); ++idx) {
      const std::uint64_t ep = arr->tile_write_epoch(idx);
      if (ep == 0) continue;  // never written — elided (zeros)
      const TileSnap* src = pas && idx < pas->tiles.size() &&
                                    pas->tiles[idx].write_epoch > 0
                                ? &pas->tiles[idx]
                                : nullptr;
      TileSnap& ts = as.tiles[idx];
      const double bytes = 8.0 * double(arr->tile_by_index(idx).elements);
      // Delta mode rewrites only tiles whose write epoch moved since
      // the previous generation; full-copy mode treats every live
      // tile as dirty — the pre-delta comparator the soak bench and
      // CI gate measure the saving against.
      const bool dirty = !delta_ || !src || src->write_epoch != ep;
      live_tiles += 1;
      // A carried copy is made by checksum-verified server-side copy;
      // a source that fails verification is rewritten fresh from the
      // live array instead (scrub repair) — so a published generation
      // is always internally intact at publication time.
      const bool repair = !dirty && !verify(*src, idx);
      if (dirty || repair) {
        const std::vector<double>& live = arr->tile_data(idx);
        if (!live.empty())  // empty in Simulate mode
          ts.data = std::make_shared<const std::vector<double>>(live);
        ts.write_epoch = ep;
        ts.fresh = true;
        fresh.emplace_back(&ts, idx);
        bytes_per_rank[arr->tile_by_index(idx).owner] += bytes;
        client_bytes += bytes;
        dirty_tiles += 1;
        if (repair) scrub_repairs += 1;
      } else {
        ts = *src;  // shares the source's immutable payload
        ts.fresh = false;
      }
      as.bytes += bytes;
    }
    g.bytes += as.bytes;
  }

  // The staged payload is complete; a fault here (or in the writes
  // themselves) tears the epoch *before* its manifest is published —
  // the previous generation stays fully visible.
  ckpt_io_fault_point("write", io_attempt);

  // Digest each fresh payload once; carried copies keep their source's
  // digest, so host hashing follows the dirty set.
  double hashed_bytes = 0;
  for (auto [ts, idx] : fresh) {
    const std::span<const double> bytes = payload_of(ts->data);
    ts->digest = util::digest_words(bytes.data(), bytes.size_bytes());
    ts->checksum = seal(ts->digest, ts->write_epoch, idx);
    hashed_bytes += static_cast<double>(bytes.size_bytes());
  }

  auto& reg = cl_.metrics();
  reg.add(reg.counter("checkpoint.writes"), 0, 1);
  reg.add(reg.counter("checkpoint.bytes"), 0, client_bytes);
  reg.add(reg.counter("checkpoint.hashed_bytes"), 0, hashed_bytes);
  // Fraction of live tiles that transited the client link in this
  // generation: ~1.0 under full-copy, the real dirty share under
  // delta — the saving the soak gate measures. A zero-tile epoch (a
  // phase restored then immediately re-checkpointed before anything
  // was written) has no dirty share; set the gauge to 0 explicitly —
  // dividing would emit NaN into the bench JSON, and skipping the set
  // would leave the previous epoch's value standing.
  reg.set(reg.gauge("checkpoint.dirty_fraction"), 0,
          live_tiles > 0
              ? std::clamp(dirty_tiles / live_tiles, 0.0, 1.0)
              : 0.0);
  if (scrub_repairs > 0)
    reg.add(reg.counter("checkpoint.scrub_repairs"), 0, scrub_repairs);
  if (client_bytes > 0) cl_.charge_disk_phase("checkpoint", bytes_per_rank);

  // Publish: appending the manifest is the atomic rename.
  gens_.push_back(std::move(g));
  ckpt_epoch_ = cl_.epoch();

  // GC generations beyond the retention depth; deleting on the
  // simulated PFS is metadata-only (no alpha-beta charge).
  double gc_bytes = 0;
  while (gens_.size() > keep_) {
    gc_bytes += gens_.front().bytes;
    gens_.pop_front();
  }
  if (gc_bytes > 0) reg.add(reg.counter("checkpoint.gc_bytes"), 0, gc_bytes);
  update_store_gauge();
  return client_bytes;
}

double CheckpointManager::restore_tile(ga::GlobalArray* array,
                                       std::size_t idx,
                                       std::vector<double>& bytes_per_rank) {
  auto& reg = cl_.metrics();
  const TileSnap* want = nullptr;
  if (!gens_.empty()) {
    auto it = gens_.back().arrays.find(array);
    if (it != gens_.back().arrays.end() && idx < it->second.tiles.size())
      want = &it->second.tiles[idx];
  }
  if (!want || want->write_epoch == 0) {
    // Not covered by the newest manifest: the tile did not exist at
    // the consistent cut — zeros is its true content, no disk read.
    array->restore_tile(idx, {}, 0);
    return 0;
  }

  std::size_t fallback = 0;
  for (auto git = gens_.rbegin(); git != gens_.rend(); ++git, ++fallback) {
    auto it = git->arrays.find(array);
    const TileSnap* snap =
        it != git->arrays.end() && idx < it->second.tiles.size()
            ? &it->second.tiles[idx]
            : nullptr;
    // Older generations predate this write epoch: their copies are
    // stale content and must never be silently substituted.
    if (!snap || snap->write_epoch != want->write_epoch) break;
    if (verify(*snap, idx)) {
      array->restore_tile(idx, payload_of(snap->data), snap->write_epoch);
      const double bytes = 8.0 * double(array->tile_by_index(idx).elements);
      bytes_per_rank[array->tile_by_index(idx).owner] += bytes;
      if (fallback > 0) {
        reg.add(reg.counter("recovery.fallback_epochs"), 0,
                static_cast<double>(fallback));
        cl_.note_instant("recovery: fallback " + std::to_string(fallback) +
                             " epoch(s) for " + array->name() + " tile " +
                             std::to_string(idx),
                         array->tile_by_index(idx).owner);
      }
      return bytes;
    }
    reg.add(reg.counter("checkpoint.verify_failures"), 0, 1);
    cl_.note_instant("checkpoint: verify failed for " + array->name() +
                         " tile " + std::to_string(idx) + " (gen -" +
                         std::to_string(fallback) + ")",
                     array->tile_by_index(idx).owner);
  }

  // Every retained generation is bad: data loss, surfaced loudly but
  // non-fatally — the degraded-science outcome, never silent.
  array->restore_tile(idx, {}, 0);
  reg.add(reg.counter("checkpoint.zero_fills"), 0, 1);
  cl_.note_instant("checkpoint: zero-fill " + array->name() + " tile " +
                       std::to_string(idx) + " (all generations bad)",
                   array->tile_by_index(idx).owner);
  return 0;
}

double CheckpointManager::restore_dirty() {
  return with_io_retry("checkpoint restore", [this](std::size_t attempt) {
    ckpt_io_fault_point("restore (retry)", attempt);
    std::vector<double> bytes_per_rank(cl_.n_ranks(), 0.0);
    double total = 0;
    for (ga::GlobalArray* arr : cl_.registered_arrays()) {
      for (std::size_t idx = 0; idx < arr->n_tiles(); ++idx) {
        // Only tiles the failed attempt touched (stamped with the
        // still-open epoch) are rolled back.
        if (arr->tile_write_epoch(idx) != cl_.epoch()) continue;
        total += restore_tile(arr, idx, bytes_per_rank);
      }
    }
    auto& reg = cl_.metrics();
    reg.add(reg.counter("checkpoint.restores"), 0, 1);
    reg.add(reg.counter("checkpoint.restored_bytes"), 0, total);
    if (total > 0) cl_.charge_disk_phase("restore (retry)", bytes_per_rank);
    return total;
  });
}

double CheckpointManager::restore_domain(
    std::span<const std::size_t> dead) {
  if (dead.empty()) return 0;
  std::vector<std::size_t> targets;
  for (std::size_t r = 0; r < cl_.n_ranks(); ++r)
    if (!cl_.is_dead(r)) targets.push_back(r);
  if (targets.empty()) throw FaultError("no live ranks left to restore to");

  return with_io_retry("checkpoint restore", [&](std::size_t attempt) {
    ckpt_io_fault_point("restore (re-own)", attempt);
    std::vector<double> bytes_per_rank(cl_.n_ranks(), 0.0);
    double total = 0;
    for (ga::GlobalArray* arr : cl_.registered_arrays()) {
      for (std::size_t idx : arr->reassign_owners(dead, targets))
        total += restore_tile(arr, idx, bytes_per_rank);
    }
    auto& reg = cl_.metrics();
    reg.add(reg.counter("checkpoint.restores"), 0, 1);
    reg.add(reg.counter("checkpoint.restored_bytes"), 0, total);
    if (total > 0) {
      std::string label = "restore ranks";
      for (std::size_t d : dead) label += " " + std::to_string(d);
      cl_.charge_disk_phase(label, bytes_per_rank);
    }
    return total;
  });
}

double CheckpointManager::restore_rank(std::size_t dead) {
  const std::size_t ranks[1] = {dead};
  return restore_domain(ranks);
}

void CheckpointManager::inject_corruption(std::size_t phase,
                                          std::size_t count,
                                          std::size_t depth) {
  if (count == 0 || depth == 0 || gens_.empty()) return;
  struct Victim {
    double weight;
    TileSnap* snap;
  };
  std::vector<Victim> candidates;
  const std::size_t reach = std::min(depth, gens_.size());
  for (std::size_t gi = 0; gi < reach; ++gi) {
    Generation& g = gens_[gens_.size() - 1 - gi];
    for (ga::GlobalArray* arr : cl_.registered_arrays()) {
      auto it = g.arrays.find(arr);
      if (it == g.arrays.end()) continue;
      const std::uint64_t tag = util::fnv1a(arr->name());
      for (std::size_t idx = 0; idx < it->second.tiles.size(); ++idx) {
        TileSnap& ts = it->second.tiles[idx];
        if (ts.write_epoch == 0 || ts.corrupt) continue;
        // Bit rot strikes data at rest. A copy the client wrote into
        // the newest generation was read back and verified at
        // publication; carried copies (and every copy in an older
        // generation) have been sitting on the media since at least
        // one full checkpoint interval.
        const bool at_rest = gi > 0 || !ts.fresh;
        if (!at_rest) continue;
        candidates.push_back(
            {cl_.faults().corrupt_weight(phase, gi, tag, idx), &ts});
      }
    }
  }
  const std::size_t n = std::min(count, candidates.size());
  if (n == 0) return;
  std::partial_sort(candidates.begin(), candidates.begin() + n,
                    candidates.end(), [](const Victim& a, const Victim& b) {
                      return a.weight < b.weight;
                    });
  for (std::size_t i = 0; i < n; ++i) {
    candidates[i].snap->checksum ^= kRotMask;
    candidates[i].snap->corrupt = true;
  }
  auto& reg = cl_.metrics();
  reg.add(reg.counter("fault.ckpt_corrupts"), 0, static_cast<double>(n));
  cl_.note_instant("fault: ckpt corrupt x" + std::to_string(n), 0);
}

}  // namespace fit::runtime
