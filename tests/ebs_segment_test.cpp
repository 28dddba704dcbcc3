// Tests for the chunk map, the cluster segment pool, and the per-chunk
// append log with its live/garbage accounting, cached victim and cleaning.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ebs/chunk_map.h"
#include "ebs/cleaner.h"
#include "ebs/segment_store.h"
#include "sim/simulator.h"

namespace uc::ebs {
namespace {

TEST(ChunkMap, SplitsVolumeAndPlacesDistinctReplicas) {
  ChunkMapConfig cfg;
  cfg.chunk_bytes = 1 << 20;
  cfg.replication = 3;
  cfg.nodes = 8;
  cfg.seed = 5;
  ChunkMap map(16ull << 20, cfg);
  EXPECT_EQ(map.chunk_count(), 16u);
  EXPECT_EQ(map.pages_per_chunk(), 256u);
  for (ChunkId c = 0; c < map.chunk_count(); ++c) {
    const auto& reps = map.replicas(c);
    ASSERT_EQ(reps.size(), 3u);
    std::set<int> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), 3u) << "replicas must be distinct nodes";
    for (const int n : reps) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 8);
    }
  }
  EXPECT_EQ(map.chunk_of(0), 0u);
  EXPECT_EQ(map.chunk_of((1 << 20) - 1), 0u);
  EXPECT_EQ(map.chunk_of(1 << 20), 1u);
  EXPECT_EQ(map.offset_in_chunk((1 << 20) + 4096), 4096u);
}

TEST(ChunkMap, PlacementUsesAllNodes) {
  ChunkMapConfig cfg;
  cfg.chunk_bytes = 1 << 20;
  cfg.nodes = 8;
  ChunkMap map(256ull << 20, cfg);  // 256 chunks
  std::set<int> used;
  for (ChunkId c = 0; c < map.chunk_count(); ++c) {
    for (const int n : map.replicas(c)) used.insert(n);
  }
  EXPECT_EQ(used.size(), 8u);
}

TEST(SegmentPool, AllocateReleaseWithReserve) {
  SegmentPool pool(10, 2);
  EXPECT_EQ(pool.free_groups(), 10u);
  // Normal allocations stop at the reserve.
  int taken = 0;
  while (pool.try_allocate(false)) ++taken;
  EXPECT_EQ(taken, 8);
  EXPECT_EQ(pool.free_groups(), 2u);
  // Privileged (cleaner) allocations may dig in.
  EXPECT_TRUE(pool.try_allocate(true));
  EXPECT_TRUE(pool.try_allocate(true));
  EXPECT_FALSE(pool.try_allocate(true));
  pool.release(3);
  EXPECT_EQ(pool.free_groups(), 3u);
  EXPECT_NEAR(pool.free_ratio(), 0.3, 1e-12);
}

TEST(SegmentPool, ReleaseCallbackFires) {
  SegmentPool pool(4, 1);
  int calls = 0;
  pool.set_release_callback([&] { ++calls; });
  ASSERT_TRUE(pool.try_allocate(false));
  pool.release(1);
  EXPECT_EQ(calls, 1);
}

TEST(ChunkLog, AppendTracksLiveAndStamps) {
  SegmentPool pool(16, 1);
  ChunkLog log(/*pages=*/64, /*pages_per_segment=*/8);
  EXPECT_FALSE(log.is_written(3));
  ASSERT_TRUE(log.append_page(3, 100, pool));
  EXPECT_TRUE(log.is_written(3));
  EXPECT_EQ(log.page_stamp(3), 100u);
  EXPECT_EQ(log.live_pages(), 1u);
  EXPECT_EQ(log.garbage_pages(), 0u);
  EXPECT_EQ(pool.free_groups(), 15u);  // one segment opened
}

TEST(ChunkLog, OverwriteCreatesGarbage) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 8);
  ASSERT_TRUE(log.append_page(3, 1, pool));
  ASSERT_TRUE(log.append_page(3, 2, pool));
  EXPECT_EQ(log.live_pages(), 1u);
  EXPECT_EQ(log.garbage_pages(), 1u);
  EXPECT_EQ(log.page_stamp(3), 2u);
}

TEST(ChunkLog, TrimDropsPage) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 8);
  ASSERT_TRUE(log.append_page(5, 1, pool));
  log.trim_page(5);
  EXPECT_FALSE(log.is_written(5));
  EXPECT_EQ(log.live_pages(), 0u);
  EXPECT_EQ(log.garbage_pages(), 1u);
}

TEST(ChunkLog, AppendStallsWhenPoolEmpty) {
  SegmentPool pool(2, 1);  // one usable group
  ChunkLog log(64, 8);
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(log.append_page(p, p + 1, pool));
  }
  // Next append needs a new segment; only the reserve remains.
  EXPECT_FALSE(log.append_page(8, 9, pool));
  pool.release(1);
  EXPECT_TRUE(log.append_page(8, 9, pool));
}

TEST(ChunkLog, VictimSelectionPrefersGarbage) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 4);
  // Fill segment 0 with pages 0-3, segment 1 with pages 4-7.
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(log.append_page(p, p + 1, pool));
  }
  // Overwrite pages 0-2 (lands in segment 2): segment 0 is 75% garbage.
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(log.append_page(p, 10 + p, pool));
  }
  const auto victim = log.pick_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->seq, 0u);
  EXPECT_EQ(victim->live_pages, 1u);
  EXPECT_NEAR(victim->garbage_ratio(), 0.75, 1e-12);
}

TEST(ChunkLog, CleanRelocatesLiveAndFrees) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 4);
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(log.append_page(p, p + 1, pool));
  }
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(log.append_page(p, 10 + p, pool));
  }
  const auto free_before = pool.free_groups();
  std::uint32_t moved = 0;
  ASSERT_TRUE(log.clean_segment(0, pool, &moved));
  EXPECT_EQ(moved, 1u);  // page 3 was the only live page in segment 0
  EXPECT_GE(pool.free_groups(), free_before);
  // Page 3 survives with its stamp.
  EXPECT_TRUE(log.is_written(3));
  EXPECT_EQ(log.page_stamp(3), 4u);
  EXPECT_EQ(log.live_pages(), 8u);
  // Cleaning the 75%-garbage victim shrank garbage.
  EXPECT_LE(log.garbage_pages(), 1u);
}

TEST(ChunkLog, CleanEverythingReclaimsAllGarbage) {
  SegmentPool pool(64, 2);
  ChunkLog log(32, 4);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(log.append_page(static_cast<std::uint32_t>(rng.uniform_u64(32)),
                                static_cast<WriteStamp>(i + 1), pool));
  }
  while (true) {
    const auto victim = log.pick_victim();
    if (!victim.has_value() || victim->garbage_ratio() <= 0.0) break;
    ASSERT_TRUE(log.clean_segment(victim->seq, pool, nullptr));
  }
  // All that remains is live data plus at most one open segment's slack.
  EXPECT_EQ(log.live_pages(), 32u);
  EXPECT_LE(log.garbage_pages(), 4u);
}

// Shadow of one ChunkLog's segment table, driven by the same operations:
// the brute-force reference for the cached victim.  Freed segments are
// erased, so a scan visits only the non-freed ones.
struct ShadowLog {
  struct Seg {
    std::uint32_t appended = 0;
    std::uint32_t live = 0;
  };
  std::uint32_t pps;
  std::vector<std::uint32_t> page_seg;
  std::map<std::uint32_t, Seg> segs;  // non-freed, by seq
  std::uint32_t next_seq = 0;
  std::int64_t open = -1;

  ShadowLog(std::uint32_t pages, std::uint32_t pages_per_segment)
      : pps(pages_per_segment), page_seg(pages, ChunkLog::kUnwritten) {}

  void ensure_open() {
    if (open >= 0 && segs[static_cast<std::uint32_t>(open)].appended < pps) {
      return;
    }
    open = next_seq;
    segs[next_seq++] = Seg{};
  }
  void drop(std::uint32_t page) {
    if (page_seg[page] != ChunkLog::kUnwritten) --segs[page_seg[page]].live;
  }
  void place(std::uint32_t page) {
    Seg& seg = segs[static_cast<std::uint32_t>(open)];
    ++seg.appended;
    ++seg.live;
    page_seg[page] = static_cast<std::uint32_t>(open);
  }
  void append(std::uint32_t page) {
    ensure_open();
    drop(page);
    place(page);
  }
  void trim(std::uint32_t page) {
    drop(page);
    page_seg[page] = ChunkLog::kUnwritten;
  }
  void clean(std::uint32_t seq) {
    for (std::uint32_t page = 0; page < page_seg.size(); ++page) {
      if (page_seg[page] != seq) continue;
      ensure_open();
      place(page);
    }
    segs.erase(seq);
  }
};

struct RefVictim {
  std::uint32_t live = ChunkLog::kNoVictim;
  std::uint32_t chunk = 0;
  std::uint32_t seq = 0;
};

// Minimum (live, seq) over one shadow log's sealed segments.
RefVictim reference_victim(const ShadowLog& log, std::uint32_t chunk) {
  RefVictim best;
  for (const auto& [seq, seg] : log.segs) {
    if (static_cast<std::int64_t>(seq) == log.open) continue;
    if (seg.live < best.live) best = {seg.live, chunk, seq};
  }
  return best;
}

// Property: over a long seeded stream of appends, overwrites, trims and
// cleans on logs sharing one pool, every log's cached victim and the
// cleaner's global choice equal the brute-force minimum (live, chunk,
// seq).  Four pages per segment makes live-count ties the common case.
// Cleans take the cleaner's choice, sometimes after further operations
// have moved the minimum elsewhere, like a real cycle whose victim goes
// stale while its bandwidth reservation is in flight.
TEST(ChunkLog, CachedVictimMatchesBruteForceScan) {
  constexpr std::uint32_t kLogs = 6;
  constexpr std::uint32_t kPages = 24;
  constexpr std::uint32_t kPps = 4;
  constexpr std::uint64_t kOps = 100000;
  SegmentPool pool(60, 4);
  std::vector<std::unique_ptr<ChunkLog>> logs;
  std::vector<ChunkLog*> registry;
  std::vector<ShadowLog> shadows;
  for (std::uint32_t c = 0; c < kLogs; ++c) {
    logs.push_back(std::make_unique<ChunkLog>(kPages, kPps));
    registry.push_back(logs.back().get());
    shadows.emplace_back(kPages, kPps);
  }
  const std::vector<std::uint32_t> owners(kLogs, 0);
  sim::Simulator sim;
  const Cleaner cleaner(sim, CleanerConfig{}, kPps * kLogicalPageBytes,
                        registry, owners, pool);

  Rng rng(19);
  WriteStamp stamp = 0;
  Cleaner::GlobalVictim pending;  // picked, not yet cleaned
  std::uint64_t cleans = 0;
  std::uint64_t stale_cleans = 0;
  const auto clean = [&](const Cleaner::GlobalVictim& target) {
    const RefVictim now = [&] {
      RefVictim best;
      for (std::uint32_t c = 0; c < kLogs; ++c) {
        const RefVictim v = reference_victim(shadows[c], c);
        if (v.live < best.live) best = v;
      }
      return best;
    }();
    if (now.chunk != target.chunk || now.seq != target.victim.seq) {
      ++stale_cleans;
    }
    ASSERT_TRUE(
        logs[target.chunk]->clean_segment(target.victim.seq, pool, nullptr));
    shadows[target.chunk].clean(target.victim.seq);
    ++cleans;
  };

  for (std::uint64_t op = 0; op < kOps; ++op) {
    const std::uint64_t kind = rng.uniform_u64(100);
    const auto c = static_cast<std::uint32_t>(rng.uniform_u64(kLogs));
    const auto page = static_cast<std::uint32_t>(rng.uniform_u64(kPages));
    if (kind < 55) {
      if (logs[c]->append_page(page, ++stamp, pool)) {
        shadows[c].append(page);
      } else {
        // Pool dry: clean, as a stalled append waits for the cleaner.
        const auto target =
            pending.found ? pending : cleaner.pick_global_victim();
        ASSERT_TRUE(target.found);
        clean(target);
        pending = {};
      }
    } else if (kind < 70) {
      logs[c]->trim_page(page);
      shadows[c].trim(page);
    } else if (kind < 85) {
      if (!pending.found) pending = cleaner.pick_global_victim();
    } else {
      const auto target =
          pending.found ? pending : cleaner.pick_global_victim();
      if (target.found) clean(target);
      pending = {};
    }
    if (HasFatalFailure()) return;

    RefVictim global;
    for (std::uint32_t l = 0; l < kLogs; ++l) {
      const RefVictim want = reference_victim(shadows[l], l);
      const auto got = logs[l]->pick_victim();
      ASSERT_EQ(got.has_value(), want.live != ChunkLog::kNoVictim)
          << "op " << op << " log " << l;
      if (got.has_value()) {
        ASSERT_EQ(got->seq, want.seq) << "op " << op << " log " << l;
        ASSERT_EQ(got->live_pages, want.live) << "op " << op << " log " << l;
        ASSERT_EQ(got->appended_pages, kPps);
      }
      if (want.live < global.live) global = want;
    }
    const Cleaner::GlobalVictim picked = cleaner.pick_global_victim();
    ASSERT_EQ(picked.found, global.live != ChunkLog::kNoVictim) << "op " << op;
    if (picked.found) {
      ASSERT_EQ(picked.chunk, global.chunk) << "op " << op;
      ASSERT_EQ(picked.victim.seq, global.seq) << "op " << op;
      ASSERT_EQ(picked.victim.live_pages, global.live) << "op " << op;
    }
    if (op % 1000 == 0) {
      for (const auto& log : logs) ASSERT_TRUE(log->check_invariants());
    }
  }
  // The stream must actually exercise cleaning, including stale targets.
  EXPECT_GT(cleans, kOps / 10);
  EXPECT_GT(stale_cleans, 0u);
}

}  // namespace
}  // namespace uc::ebs
