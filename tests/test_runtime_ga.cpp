#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ga/global_array.hpp"
#include "runtime/cluster.hpp"
#include "runtime/machine.hpp"
#include "tensor/tiling.hpp"
#include "util/error.hpp"

namespace {

using namespace fit;
using runtime::Cluster;
using runtime::ExecutionMode;
using runtime::MachineConfig;

MachineConfig tiny_machine(std::size_t nodes, std::size_t rpn,
                           double mem_per_node) {
  MachineConfig m;
  m.name = "tiny";
  m.n_nodes = nodes;
  m.ranks_per_node = rpn;
  m.mem_per_node_bytes = mem_per_node;
  m.flops_per_rank = 1e9;
  m.integrals_per_sec = 1e8;
  m.net_bandwidth_bps = 1e9;
  m.net_latency_s = 1e-6;
  m.local_bandwidth_bps = 1e10;
  return m;
}

TEST(Machine, PaperSystemsScaled) {
  auto a = runtime::system_a(4);
  EXPECT_EQ(a.n_ranks(), 32u);
  EXPECT_NEAR(a.mem_per_node_bytes, 24e9 / 4096, 1);
  auto b = runtime::system_b(18);
  EXPECT_EQ(b.n_ranks(), 504u);
  auto c = runtime::system_c(128);
  EXPECT_EQ(c.n_ranks(), 512u);
  EXPECT_GT(b.aggregate_memory_bytes(), c.mem_per_node_bytes);
}

TEST(Cluster, PhaseAdvancesMakespan) {
  Cluster cl(tiny_machine(2, 2, 1e9), ExecutionMode::Simulate);
  EXPECT_EQ(cl.n_ranks(), 4u);
  cl.run_phase("work", [](runtime::RankCtx& ctx) {
    // Rank r does (r+1) Gflop: makespan should be the slowest rank.
    ctx.charge_flops(1e9 * static_cast<double>(ctx.rank() + 1));
  });
  EXPECT_NEAR(cl.sim_time(), 4.0, 1e-9);  // 4 Gflop at 1 Gflop/s
  ASSERT_EQ(cl.phases().size(), 1u);
  EXPECT_NEAR(cl.phases()[0].imbalance, 4.0 * 4.0 / 10.0, 1e-9);
  EXPECT_NEAR(cl.totals().flops, 1e10, 1);
}

TEST(Cluster, TransferCostModel) {
  auto m = tiny_machine(2, 2, 1e9);
  Cluster cl(m, ExecutionMode::Simulate);
  cl.run_phase("comm", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    ctx.charge_transfer(1, 1e6);  // same node (ranks 0,1 on node 0)
    ctx.charge_transfer(2, 1e6);  // remote (node 1)
  });
  EXPECT_NEAR(cl.totals().local_bytes, 1e6, 1);
  EXPECT_NEAR(cl.totals().remote_bytes, 1e6, 1);
  EXPECT_NEAR(cl.totals().remote_messages, 1.0, 1e-12);
  // time = 1e6/1e10 (local) + 1e-6 + 1e6/1e9 (remote)
  EXPECT_NEAR(cl.sim_time(), 1e-4 + 1e-6 + 1e-3, 1e-9);
}

TEST(Cluster, MemTrackerOom) {
  Cluster cl(tiny_machine(1, 2, 1000), ExecutionMode::Simulate);
  auto& mem = cl.memory(0);
  EXPECT_NO_THROW(mem.alloc(400, "x"));
  EXPECT_THROW(mem.alloc(200, "y"), fit::OutOfMemoryError);  // 400+200>500
  mem.release(400);
  EXPECT_NO_THROW(mem.alloc(500, "z"));
  EXPECT_NEAR(mem.peak(), 500, 1e-9);
}

TEST(Cluster, MemTrackerDoubleReleaseIsAnInternalError) {
  // Releasing more than is in use is an accounting bug in the caller
  // (double free of a tile). The tracker must refuse instead of
  // silently going negative and inflating later capacity checks.
  Cluster cl(tiny_machine(1, 1, 1000), ExecutionMode::Simulate);
  auto& mem = cl.memory(0);
  mem.alloc(400, "x");
  mem.release(400);
  EXPECT_THROW(mem.release(400), fit::InternalError);
  EXPECT_THROW(mem.release(-1.0), fit::PreconditionError);
  // The tracker stays usable after the refused release.
  EXPECT_NO_THROW(mem.alloc(1000, "y"));
  EXPECT_NEAR(mem.used(), 1000, 1e-9);
}

TEST(Cluster, RankBufferChargesScratchAndReleases) {
  auto m = tiny_machine(1, 1, 1e9);
  m.local_scratch_bytes = 8 * 100 + 64;
  Cluster cl(m, ExecutionMode::Real);
  cl.run_phase("buf", [](runtime::RankCtx& ctx) {
    {
      runtime::RankBuffer b(ctx, 100, "scratch");
      ASSERT_NE(b.data(), nullptr);
      b.data()[99] = 1.0;
      EXPECT_NEAR(ctx.scratch().used(), 800, 1e-9);
      EXPECT_NEAR(ctx.memory().used(), 0, 1e-9);  // GA share untouched
      EXPECT_THROW(runtime::RankBuffer(ctx, 100, "too much"),
                   fit::OutOfMemoryError);
    }
    EXPECT_NEAR(ctx.scratch().used(), 0, 1e-9);
  });
}

TEST(Cluster, SimulateModeBufferIsNull) {
  Cluster cl(tiny_machine(1, 1, 1e9), ExecutionMode::Simulate);
  cl.run_phase("buf", [](runtime::RankCtx& ctx) {
    runtime::RankBuffer b(ctx, 100, "scratch");
    EXPECT_EQ(b.data(), nullptr);
    EXPECT_FALSE(ctx.real());
  });
}

TEST(GlobalArray, TilingCoverageAndFilters) {
  Cluster cl(tiny_machine(2, 2, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(10, 3),
                                      tensor::Tiling(10, 3)};
  ga::GlobalArray full(cl, "full", dims);
  EXPECT_EQ(full.n_tiles(), 16u);
  EXPECT_EQ(full.total_elements(), 100u);

  ga::GlobalArray tri(cl, "tri", dims, ga::filter_triangular(0, 1));
  EXPECT_EQ(tri.n_tiles(), 10u);  // 4*5/2
  EXPECT_TRUE(tri.exists(std::vector<std::size_t>{2, 1}));
  EXPECT_FALSE(tri.exists(std::vector<std::size_t>{1, 2}));
  EXPECT_THROW(tri.info(std::vector<std::size_t>{1, 2}),
               fit::PreconditionError);
}

TEST(GlobalArray, OwnershipPartition) {
  Cluster cl(tiny_machine(2, 2, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2),
                                      tensor::Tiling(8, 2)};
  ga::GlobalArray a(cl, "a", dims);
  std::size_t covered = 0;
  for (std::size_t r = 0; r < cl.n_ranks(); ++r)
    covered += a.tiles_of(r).size();
  EXPECT_EQ(covered, a.n_tiles());
  // Round-robin is balanced to within one tile.
  for (std::size_t r = 0; r < cl.n_ranks(); ++r)
    EXPECT_NEAR(static_cast<double>(a.tiles_of(r).size()),
                static_cast<double>(a.n_tiles()) / 4.0, 1.0);
}

TEST(GlobalArray, CustomOwnerFunction) {
  Cluster cl(tiny_machine(2, 2, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2),
                                      tensor::Tiling(8, 2)};
  auto owner = [](std::span<const std::size_t> c, std::size_t nranks) {
    return c[0] % nranks;  // distribute by block row
  };
  ga::GlobalArray a(cl, "a", dims, {}, owner);
  for (std::size_t idx = 0; idx < a.n_tiles(); ++idx) {
    const auto& t = a.tile_by_index(idx);
    EXPECT_EQ(t.owner, t.coord[0] % 4);
  }
}

TEST(GlobalArray, PutGetAccRoundTrip) {
  Cluster cl(tiny_machine(1, 2, 1e9), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(4, 2),
                                      tensor::Tiling(4, 2)};
  ga::GlobalArray a(cl, "a", dims);
  const std::vector<std::size_t> coord = {1, 0};

  cl.run_phase("put", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    std::vector<double> buf = {1, 2, 3, 4};
    a.put(ctx, coord, buf.data());
  });
  cl.run_phase("acc", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    std::vector<double> buf = {10, 10, 10, 10};
    a.acc(ctx, coord, buf.data());
  });
  cl.run_phase("get", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    std::vector<double> buf(4, 0.0);
    a.get(ctx, coord, buf.data());
    EXPECT_DOUBLE_EQ(buf[0], 11.0);
    EXPECT_DOUBLE_EQ(buf[3], 14.0);
  });
  // peek reads element (2, 1) = row 2 of tile (1,0), local offset (0,1).
  EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{2, 1}), 12.0);
}

TEST(GlobalArray, SyncDisciplineEnforced) {
  Cluster cl(tiny_machine(1, 2, 1e9), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(4, 4)};
  ga::GlobalArray a(cl, "a", dims);
  const std::vector<std::size_t> coord = {0};
  EXPECT_THROW(cl.run_phase("race",
                            [&](runtime::RankCtx& ctx) {
                              std::vector<double> buf(4, 1.0);
                              a.put(ctx, coord, buf.data());
                              a.get(ctx, coord, buf.data());  // same epoch!
                            }),
               fit::InternalError);
}

TEST(GlobalArray, CommAccounting) {
  // Ranks 0,1 on node 0; ranks 2,3 on node 1. Round-robin owners of a
  // 4-tile array: tile i owned by rank i.
  Cluster cl(tiny_machine(2, 2, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 2)};
  ga::GlobalArray a(cl, "a", dims);
  cl.run_phase("reads", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    for (std::size_t t = 0; t < 4; ++t)
      a.get(ctx, std::vector<std::size_t>{t}, nullptr);
  });
  // Tiles 0,1 local-node (2 elements each = 16 B), tiles 2,3 remote.
  EXPECT_NEAR(cl.totals().local_bytes, 32, 1e-9);
  EXPECT_NEAR(cl.totals().remote_bytes, 32, 1e-9);
  EXPECT_NEAR(cl.totals().remote_messages, 2, 1e-12);
}

TEST(GlobalArray, CreationOomRollsBack) {
  // Node memory too small for the array: creation must throw and the
  // partial charges must be rolled back so a retry can proceed.
  Cluster cl(tiny_machine(1, 1, 100.0), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(64, 8)};  // 512 B
  EXPECT_THROW(ga::GlobalArray(cl, "big", dims), fit::OutOfMemoryError);
  EXPECT_NEAR(cl.memory(0).used(), 0.0, 1e-9);
  // A smaller array still fits afterwards.
  std::vector<tensor::Tiling> small = {tensor::Tiling(8, 8)};  // 64 B
  EXPECT_NO_THROW(ga::GlobalArray(cl, "small", small));
}

TEST(GlobalArray, DestroyReleasesMemory) {
  Cluster cl(tiny_machine(1, 1, 1e6), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(100, 10)};
  auto a = std::make_unique<ga::GlobalArray>(cl, "a", dims);
  EXPECT_NEAR(cl.memory(0).used(), 800.0, 1e-9);
  a->destroy();
  EXPECT_NEAR(cl.memory(0).used(), 0.0, 1e-9);
  a->destroy();  // idempotent
  EXPECT_NEAR(cl.memory(0).used(), 0.0, 1e-9);
  EXPECT_NEAR(cl.global_peak(), 800.0, 1e-9);
}

TEST(GlobalArray, OpsAfterDestroyArePreconditionErrors) {
  // A destroyed array must reject one-sided traffic instead of
  // touching freed tile storage.
  Cluster cl(tiny_machine(1, 1, 1e6), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 4)};
  ga::GlobalArray a(cl, "gone", dims);
  a.destroy();
  cl.run_phase("use-after-destroy", [&](runtime::RankCtx& ctx) {
    std::vector<double> buf(4, 0.0);
    const std::vector<std::size_t> coord = {0};
    EXPECT_THROW(a.get(ctx, coord, buf.data()), fit::PreconditionError);
    EXPECT_THROW(a.put(ctx, coord, buf.data()), fit::PreconditionError);
    EXPECT_THROW(a.acc(ctx, coord, buf.data()), fit::PreconditionError);
  });
}

TEST(GlobalArray, RestoreTileRoundTripsDataAndEpoch) {
  // The checkpoint interface: a tile snapshot (data + write epoch)
  // restores bit-identically, and an empty snapshot means zeros.
  Cluster cl(tiny_machine(1, 1, 1e6), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(8, 4)};  // 2 tiles
  ga::GlobalArray a(cl, "ck", dims);
  const std::vector<std::size_t> coord = {1};
  cl.run_phase("fill", [&](runtime::RankCtx& ctx) {
    std::vector<double> buf = {5, 6, 7, 8};
    a.put(ctx, coord, buf.data());
  });
  std::size_t idx = a.n_tiles();
  for (std::size_t i = 0; i < a.n_tiles(); ++i)
    if (std::ranges::equal(a.tile_by_index(i).coord, coord)) idx = i;
  ASSERT_LT(idx, a.n_tiles());
  const auto snap = a.tile_data(idx);           // copy = the snapshot
  const auto epoch = a.tile_write_epoch(idx);
  EXPECT_GT(epoch, 0u);

  cl.run_phase("clobber", [&](runtime::RankCtx& ctx) {
    std::vector<double> buf = {0, 0, 0, 0};
    a.put(ctx, coord, buf.data());
  });
  a.restore_tile(idx, snap, epoch);
  EXPECT_EQ(a.tile_write_epoch(idx), epoch);
  EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{7}), 8.0);

  a.restore_tile(idx, {}, 0);  // empty snapshot = never written
  EXPECT_EQ(a.tile_write_epoch(idx), 0u);
  EXPECT_DOUBLE_EQ(a.peek(std::vector<std::size_t>{7}), 0.0);
}

TEST(GlobalArray, ReassignOwnerMovesTilesToSurvivors) {
  // When a rank dies its tiles get new owners among the survivors and
  // the dead rank's memory accounting is emptied.
  Cluster cl(tiny_machine(1, 4, 1e6), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(16, 4)};  // 4 tiles
  ga::GlobalArray a(cl, "mv", dims);
  ASSERT_EQ(a.tiles_of(2).size(), 1u);
  const std::size_t dead_tile = a.tiles_of(2)[0];
  const double dead_used = cl.memory(2).used();
  EXPECT_GT(dead_used, 0.0);

  const std::vector<std::size_t> targets = {0, 1, 3};
  const std::size_t dead[] = {2};
  auto moved = a.reassign_owners(dead, targets);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], dead_tile);
  EXPECT_TRUE(a.tiles_of(2).empty());
  const auto new_owner = a.tile_by_index(dead_tile).owner;
  EXPECT_NE(new_owner, 2u);
  EXPECT_NEAR(cl.memory(2).used(), 0.0, 1e-9);
  EXPECT_NEAR(cl.memory(new_owner).used(),
              dead_used + 8.0 * 4, 1e-9);  // its own tile + the moved one
}

TEST(GlobalArray, ReassignOwnersIsCapacityAware) {
  // Survivors carry very different loads: a ballast array pins most of
  // rank 1's memory, so a dead rank's tiles must land on the emptier
  // survivors instead of being dealt round-robin onto the full one.
  Cluster cl(tiny_machine(1, 4, 1e6), ExecutionMode::Real);
  auto to_rank1 = [](std::span<const std::size_t>, std::size_t) {
    return std::size_t{1};
  };
  std::vector<tensor::Tiling> big = {tensor::Tiling(4096, 4096)};
  ga::GlobalArray ballast(cl, "ballast", big, {}, to_rank1);
  ASSERT_GT(cl.memory(1).used(), cl.memory(0).used());

  std::vector<tensor::Tiling> dims = {tensor::Tiling(32, 4)};  // 8 tiles
  ga::GlobalArray a(cl, "mv", dims);  // round-robin: 2 tiles per rank
  ASSERT_EQ(a.tiles_of(2).size(), 2u);
  const double used0 = cl.memory(0).used();
  const double used3 = cl.memory(3).used();

  const std::vector<std::size_t> targets = {0, 1, 3};
  const auto moved = a.reassign_owners(std::vector<std::size_t>{2}, targets);
  ASSERT_EQ(moved.size(), 2u);
  for (const std::size_t idx : moved) {
    const std::size_t owner = a.tile_by_index(idx).owner;
    EXPECT_NE(owner, 1u);  // never the loaded survivor
    EXPECT_NE(owner, 2u);
  }
  // The two orphans spread across the two empty survivors (placement
  // re-reads free space after every move) instead of stacking.
  EXPECT_NEAR(cl.memory(0).used(), used0 + 8.0 * 4, 1e-9);
  EXPECT_NEAR(cl.memory(3).used(), used3 + 8.0 * 4, 1e-9);
}

}  // namespace

// ---- Disk spilling (Sec. 3 motivation) -------------------------------

namespace {

TEST(DiskSpill, NoDiskMeansHardOom) {
  Cluster cl(tiny_machine(1, 1, 100.0), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(64, 8)};  // 512 B
  EXPECT_THROW(ga::GlobalArray(cl, "big", dims), fit::OutOfMemoryError);
}

TEST(DiskSpill, SpillsExactlyTheOverflow) {
  auto m = tiny_machine(1, 1, 8.0 * 8 * 4 + 1);  // room for 4 tiles
  m.disk_bandwidth_bps = 1e8;
  Cluster cl(m, ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(64, 8)};  // 8 tiles
  ga::GlobalArray a(cl, "big", dims);
  EXPECT_EQ(a.n_spilled_tiles(), 4u);
  EXPECT_NEAR(cl.disk_used(), 4 * 8 * 8.0, 1e-9);
  a.destroy();
  EXPECT_NEAR(cl.disk_used(), 0.0, 1e-9);
  EXPECT_NEAR(cl.disk_peak(), 256.0, 1e-9);
}

TEST(DiskSpill, SpilledAccessChargesDiskTime) {
  auto m = tiny_machine(1, 2, 130.0);  // one 64-byte tile per rank fits
  m.disk_bandwidth_bps = 1e6;  // very slow collective file system
  m.disk_latency_s = 1e-3;
  Cluster cl(m, ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(32, 8)};  // 4 tiles
  ga::GlobalArray a(cl, "sp", dims);
  ASSERT_EQ(a.n_spilled_tiles(), 2u);

  // Find one spilled and one resident tile and read both from rank 0.
  std::size_t spilled = 99, resident = 99;
  for (std::size_t t = 0; t < 4; ++t) {
    if (a.is_spilled(std::vector<std::size_t>{t}))
      spilled = t;
    else
      resident = t;
  }
  ASSERT_NE(spilled, 99u);
  ASSERT_NE(resident, 99u);
  cl.run_phase("reads", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    a.get(ctx, std::vector<std::size_t>{spilled}, nullptr);
    a.get(ctx, std::vector<std::size_t>{resident}, nullptr);
  });
  EXPECT_NEAR(cl.totals().disk_bytes, 64.0, 1e-9);
  // Disk time = latency + bytes/(bw/nranks) = 1e-3 + 64/(5e5).
  EXPECT_GT(cl.sim_time(), 1e-3);
}

TEST(DiskSpill, RealModeResultsUnaffected) {
  // Spilling is a cost-model concept: Real-mode data round-trips
  // identically through spilled tiles.
  auto m = tiny_machine(1, 1, 8.0 * 4 + 1);
  m.disk_bandwidth_bps = 1e8;
  Cluster cl(m, ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(16, 4)};  // 4 tiles
  ga::GlobalArray a(cl, "sp", dims);
  ASSERT_GT(a.n_spilled_tiles(), 0u);
  const std::vector<std::size_t> coord = {3};
  ASSERT_TRUE(a.is_spilled(coord));
  cl.run_phase("put", [&](runtime::RankCtx& ctx) {
    std::vector<double> buf = {1, 2, 3, 4};
    a.put(ctx, coord, buf.data());
  });
  cl.run_phase("get", [&](runtime::RankCtx& ctx) {
    std::vector<double> buf(4, 0.0);
    a.get(ctx, coord, buf.data());
    EXPECT_DOUBLE_EQ(buf[3], 4.0);
  });
}

}  // namespace

// ---- Nonblocking one-sided operations --------------------------------

namespace {

// tiny_machine wire time for one remote 128-double tile.
constexpr double kTileBytes = 8.0 * 128;
constexpr double kWire = 1e-6 + kTileBytes / 1e9;

TEST(Nonblocking, WireTimeHidesBehindCompute) {
  // One remote tile; the rank computes for longer than the wire time
  // between issue and wait, so the wait costs nothing and the whole
  // transfer is accounted as overlapped.
  Cluster cl(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(128, 128)};
  ga::GlobalArray a(cl, "a", dims);  // tile 0 -> rank 0
  cl.run_phase("overlap", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    auto h = a.nbget(ctx, std::vector<std::size_t>{0}, nullptr);
    EXPECT_EQ(ctx.nb_outstanding(), 1u);
    EXPECT_FALSE(ctx.test_transfer(h));
    ctx.charge_flops(1e4);  // 1e-5 s >> kWire
    EXPECT_TRUE(ctx.test_transfer(h));
    ga::GlobalArray::wait(ctx, h);
    EXPECT_EQ(ctx.nb_outstanding(), 0u);
    EXPECT_NEAR(ctx.elapsed(), 1e-5, 1e-15);  // fully hidden
  });
  EXPECT_NEAR(cl.sim_time(), 1e-5, 1e-15);
  EXPECT_NEAR(cl.totals().overlapped_seconds, kWire, 1e-15);
  EXPECT_NEAR(cl.totals().exposed_seconds, 0.0, 1e-15);
  EXPECT_NEAR(cl.totals().remote_bytes, kTileBytes, 1e-9);
}

TEST(Nonblocking, ImmediateWaitCostsExactlyTheBlockingOp) {
  // An nb issue followed directly by its wait is fully exposed and
  // must reproduce the blocking op's counters and sim time exactly —
  // this is what makes overlap=false a faithful ablation baseline.
  std::vector<tensor::Tiling> dims = {tensor::Tiling(128, 128)};
  Cluster blocking(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  Cluster nb(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  ga::GlobalArray ab(blocking, "a", dims);
  ga::GlobalArray an(nb, "a", dims);
  blocking.run_phase("get", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() == 1) ab.get(ctx, std::vector<std::size_t>{0}, nullptr);
  });
  nb.run_phase("get", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    ga::GlobalArray::wait(ctx,
                          an.nbget(ctx, std::vector<std::size_t>{0},
                                   nullptr));
  });
  EXPECT_EQ(blocking.sim_time(), nb.sim_time());
  EXPECT_EQ(blocking.totals().remote_bytes, nb.totals().remote_bytes);
  EXPECT_EQ(blocking.totals().remote_messages,
            nb.totals().remote_messages);
  EXPECT_EQ(blocking.totals().ga_gets, nb.totals().ga_gets);
  EXPECT_EQ(blocking.totals().exposed_seconds,
            nb.totals().exposed_seconds);
  EXPECT_EQ(nb.totals().overlapped_seconds, 0.0);
}

TEST(Nonblocking, WaitIsIdempotent) {
  Cluster cl(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(128, 128)};
  ga::GlobalArray a(cl, "a", dims);
  cl.run_phase("waitwait", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    auto h = a.nbget(ctx, std::vector<std::size_t>{0}, nullptr);
    ga::GlobalArray::wait(ctx, h);
    const double t = ctx.elapsed();
    ga::GlobalArray::wait(ctx, h);  // no-op
    EXPECT_EQ(ctx.elapsed(), t);
    EXPECT_TRUE(ctx.test_transfer(h));
  });
  EXPECT_NEAR(cl.totals().exposed_seconds, kWire, 1e-15);
}

TEST(Nonblocking, InjectionLinkSerializesConcurrentTransfers) {
  // Two in-flight gets from the same rank share its injection link:
  // waiting on both costs the *sum* of their wire times (the second
  // queues), not the max — prefetch pipelines can't conjure bandwidth.
  Cluster cl(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(256, 128)};
  auto owner0 = [](std::span<const std::size_t>, std::size_t) {
    return std::size_t{0};
  };
  ga::GlobalArray a(cl, "a", dims, {}, owner0);
  cl.run_phase("two", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    auto h0 = a.nbget(ctx, std::vector<std::size_t>{0}, nullptr);
    auto h1 = a.nbget(ctx, std::vector<std::size_t>{1}, nullptr);
    ga::GlobalArray::wait(ctx, h0);
    EXPECT_NEAR(ctx.elapsed(), kWire, 1e-15);
    ga::GlobalArray::wait(ctx, h1);
    EXPECT_NEAR(ctx.elapsed(), 2 * kWire, 1e-15);
  });
  EXPECT_NEAR(cl.sim_time(), 2 * kWire, 1e-15);
}

TEST(Nonblocking, BlockingOpQueuesBehindInFlightTransfer) {
  // A blocking get issued while an nb transfer occupies the link must
  // wait for the link before its own wire time starts.
  Cluster cl(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(256, 128)};
  auto owner0 = [](std::span<const std::size_t>, std::size_t) {
    return std::size_t{0};
  };
  ga::GlobalArray a(cl, "a", dims, {}, owner0);
  cl.run_phase("queue", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    a.nbget(ctx, std::vector<std::size_t>{0}, nullptr);  // in flight
    a.get(ctx, std::vector<std::size_t>{1}, nullptr);    // queues
    EXPECT_NEAR(ctx.elapsed(), 2 * kWire, 1e-15);
  });
  // The blocking get is fully exposed (the rank stalls through both
  // wire times), and the nb transfer's own wire time is hidden behind
  // that stall — comm/comm overlap, credited to the overlap account.
  EXPECT_NEAR(cl.totals().exposed_seconds, 2 * kWire, 1e-15);
  EXPECT_NEAR(cl.totals().overlapped_seconds, kWire, 1e-15);
}

TEST(Nonblocking, BarrierQuiescesUnwaitedHandles) {
  // A handle never waited on is completed by the phase barrier; its
  // wire time still lands in the makespan and the exposed account.
  Cluster cl(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(128, 128)};
  ga::GlobalArray a(cl, "a", dims);
  cl.run_phase("leak", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() == 1)
      a.nbget(ctx, std::vector<std::size_t>{0}, nullptr);
  });
  EXPECT_NEAR(cl.sim_time(), kWire, 1e-15);
  EXPECT_NEAR(cl.totals().exposed_seconds, kWire, 1e-15);
}

TEST(Nonblocking, PutAccGetRoundTripsLikeBlocking) {
  // nbput/nbacc move data eagerly at issue; after the barrier a reader
  // sees exactly what the blocking ops would have produced.
  Cluster cl(tiny_machine(1, 2, 1e9), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(4, 2),
                                      tensor::Tiling(4, 2)};
  ga::GlobalArray a(cl, "a", dims);
  const std::vector<std::size_t> coord = {1, 0};
  cl.run_phase("nbput", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    std::vector<double> buf = {1, 2, 3, 4};
    a.nbput(ctx, coord, buf.data());
    buf.assign(4, -99.0);  // buffer reusable immediately after issue
  });
  cl.run_phase("nbacc", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    std::vector<double> buf = {10, 10, 10, 10};
    ga::GlobalArray::wait(ctx, a.nbacc(ctx, coord, buf.data()));
  });
  cl.run_phase("check", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    std::vector<double> buf(4, 0.0);
    a.get(ctx, coord, buf.data());
    EXPECT_DOUBLE_EQ(buf[0], 11.0);
    EXPECT_DOUBLE_EQ(buf[3], 14.0);
  });
  EXPECT_NEAR(cl.totals().ga_puts, 1.0, 1e-12);
  EXPECT_NEAR(cl.totals().ga_accs, 1.0, 1e-12);
}

TEST(Nonblocking, SyncDisciplineStillEnforced) {
  // nbget of a tile written this epoch is the same race the blocking
  // get catches — prefetching must not smuggle it past the check.
  Cluster cl(tiny_machine(1, 2, 1e9), ExecutionMode::Real);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(4, 4)};
  ga::GlobalArray a(cl, "a", dims);
  const std::vector<std::size_t> coord = {0};
  EXPECT_THROW(
      cl.run_phase("race",
                   [&](runtime::RankCtx& ctx) {
                     std::vector<double> buf(4, 1.0);
                     a.put(ctx, coord, buf.data());
                     a.nbget(ctx, coord, buf.data());  // same epoch!
                   }),
      fit::InternalError);
}

TEST(Nonblocking, SpilledTileGoesThroughTheDiskModel) {
  auto m = tiny_machine(1, 1, 8.0 * 4 + 1);  // one 4-double tile fits
  m.disk_bandwidth_bps = 1e6;
  m.disk_latency_s = 1e-3;
  Cluster cl(m, ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(16, 4)};  // 4 tiles
  ga::GlobalArray a(cl, "sp", dims);
  ASSERT_GT(a.n_spilled_tiles(), 0u);
  std::size_t spilled = 99;
  for (std::size_t t = 0; t < 4; ++t)
    if (a.is_spilled(std::vector<std::size_t>{t})) spilled = t;
  ASSERT_NE(spilled, 99u);
  cl.run_phase("read", [&](runtime::RankCtx& ctx) {
    auto h = a.nbget(ctx, std::vector<std::size_t>{spilled}, nullptr);
    ga::GlobalArray::wait(ctx, h);
    EXPECT_GT(ctx.elapsed(), 1e-3);  // paid the disk latency
  });
  EXPECT_NEAR(cl.totals().disk_bytes, 32.0, 1e-9);
}

TEST(Nonblocking, WaitAllDrainsEveryHandle) {
  Cluster cl(tiny_machine(2, 1, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(256, 128)};
  auto owner0 = [](std::span<const std::size_t>, std::size_t) {
    return std::size_t{0};
  };
  ga::GlobalArray a(cl, "a", dims, {}, owner0);
  cl.run_phase("drain", [&](runtime::RankCtx& ctx) {
    if (ctx.rank() != 1) return;
    a.nbget(ctx, std::vector<std::size_t>{0}, nullptr);
    a.nbget(ctx, std::vector<std::size_t>{1}, nullptr);
    EXPECT_EQ(ctx.nb_outstanding(), 2u);
    ga::GlobalArray::wait_all(ctx);
    EXPECT_EQ(ctx.nb_outstanding(), 0u);
    EXPECT_NEAR(ctx.elapsed(), 2 * kWire, 1e-15);
  });
}

}  // namespace

// ---- Named distributions ---------------------------------------------

namespace {

TEST(Distributions, OwnerByDim) {
  Cluster cl(tiny_machine(1, 3, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(12, 2),
                                      tensor::Tiling(12, 2)};
  ga::GlobalArray a(cl, "bydim", dims, {}, ga::owner_by_dim(0));
  for (std::size_t idx = 0; idx < a.n_tiles(); ++idx) {
    const auto& t = a.tile_by_index(idx);
    EXPECT_EQ(t.owner, t.coord[0] % 3);
  }
}

TEST(Distributions, OwnerBlockIsContiguousAndBalanced) {
  Cluster cl(tiny_machine(1, 4, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(16, 2)};  // 8 tiles
  ga::GlobalArray a(cl, "blk", dims, {}, ga::owner_block(8));
  // Owners are nondecreasing over the enumeration and cover all ranks.
  std::size_t prev = 0;
  std::set<std::size_t> owners;
  for (std::size_t idx = 0; idx < a.n_tiles(); ++idx) {
    const auto& t = a.tile_by_index(idx);
    EXPECT_GE(t.owner, prev);
    prev = t.owner;
    owners.insert(t.owner);
  }
  EXPECT_EQ(owners.size(), 4u);
}

TEST(Distributions, OwnerCyclicMatchesDefault) {
  Cluster cl(tiny_machine(1, 3, 1e9), ExecutionMode::Simulate);
  std::vector<tensor::Tiling> dims = {tensor::Tiling(9, 3),
                                      tensor::Tiling(9, 3)};
  ga::GlobalArray dflt(cl, "d", dims);
  ga::GlobalArray cyc(cl, "c", dims, {}, ga::owner_cyclic());
  for (std::size_t idx = 0; idx < dflt.n_tiles(); ++idx)
    EXPECT_EQ(dflt.tile_by_index(idx).owner, cyc.tile_by_index(idx).owner);
}

}  // namespace
