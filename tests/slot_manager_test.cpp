// Slot manager: ownership bitmap, acquire/release, cache, grant/surrender.
#include "isomalloc/slot_manager.hpp"

#include <gtest/gtest.h>

namespace pm2::iso {
namespace {

AreaConfig test_area_config() {
  AreaConfig cfg;
  cfg.base = iso::offset_area_base(7);
  cfg.size = 64ull << 20;  // 1024 slots
  cfg.slot_size = 64 * 1024;
  return cfg;
}

class SlotManagerTest : public ::testing::Test {
 protected:
  SlotManagerTest() : area_(test_area_config()) {}

  SlotManager make(uint32_t node, uint32_t nodes,
                   Distribution d = Distribution::kPartitioned,
                   size_t cache = 8) {
    SlotManagerConfig cfg;
    cfg.node = node;
    cfg.n_nodes = nodes;
    cfg.distribution = d;
    cfg.cache_capacity = cache;
    return SlotManager(area_, cfg);
  }

  Area area_;
};

TEST_F(SlotManagerTest, SingleNodeOwnsEverything) {
  auto mgr = make(0, 1);
  EXPECT_EQ(mgr.owned_free_slots(), 1024u);
}

TEST_F(SlotManagerTest, AcquireCommitsAndClearsBit) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(1);
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(mgr.bitmap().test(*s));
  EXPECT_TRUE(area_.committed(*s));
  EXPECT_EQ(mgr.stats().slots_acquired, 1u);
}

TEST_F(SlotManagerTest, AcquireMultiContiguous) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(5);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(mgr.bitmap().none_set(*s, 5));
  for (size_t i = 0; i < 5; ++i) EXPECT_TRUE(area_.committed(*s + i));
}

TEST_F(SlotManagerTest, AcquireFailsWithoutContiguousRun) {
  // Round-robin on 2 nodes: node 0 owns only even slots — no run of 2.
  auto mgr = make(0, 2, Distribution::kRoundRobin);
  EXPECT_TRUE(mgr.acquire(1).has_value());
  EXPECT_FALSE(mgr.acquire(2).has_value());
  EXPECT_EQ(mgr.stats().multi_slot_requests, 1u);
}

TEST_F(SlotManagerTest, ReleaseSetsBitsBack) {
  auto mgr = make(0, 1, Distribution::kPartitioned, 0);  // no cache
  auto s = mgr.acquire(3);
  ASSERT_TRUE(s.has_value());
  mgr.release(*s, 3);
  EXPECT_TRUE(mgr.bitmap().all_set(*s, 3));
  EXPECT_FALSE(area_.committed(*s));  // decommitted (cache off / multi-run)
}

TEST_F(SlotManagerTest, CacheKeepsSingleSlotsCommitted) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(1);
  mgr.release(*s, 1);
  EXPECT_EQ(mgr.cached_slots(), 1u);
  EXPECT_TRUE(area_.committed(*s));  // the paper's §6 optimization
  // Next acquire is a cache hit, no commit.
  uint64_t commits_before = mgr.stats().commits;
  auto s2 = mgr.acquire(1);
  EXPECT_EQ(*s2, *s);
  EXPECT_EQ(mgr.stats().commits, commits_before);
  EXPECT_EQ(mgr.stats().cache_hits, 1u);
}

TEST_F(SlotManagerTest, CacheCapacityBounded) {
  auto mgr = make(0, 1, Distribution::kPartitioned, 2);
  size_t s0 = *mgr.acquire(1);
  size_t s1 = *mgr.acquire(1);
  size_t s2 = *mgr.acquire(1);
  mgr.release(s0, 1);
  mgr.release(s1, 1);
  mgr.release(s2, 1);  // over capacity: decommitted
  EXPECT_EQ(mgr.cached_slots(), 2u);
  EXPECT_FALSE(area_.committed(s2));
}

TEST_F(SlotManagerTest, CacheAbsorbsMultiSlotRuns) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(3);
  ASSERT_TRUE(s.has_value());
  uint64_t decommits_before = mgr.stats().decommits;
  mgr.release(*s, 3);  // whole run absorbed, stays committed
  EXPECT_EQ(mgr.cached_slots(), 3u);
  EXPECT_EQ(mgr.stats().decommits, decommits_before);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(area_.committed(*s + i));
  // Re-acquiring the same width is a cache hit: no commit (mmap) at all.
  uint64_t commits_before = mgr.stats().commits;
  uint64_t hits_before = mgr.stats().cache_hits;
  auto s2 = mgr.acquire(3);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, *s);
  EXPECT_EQ(mgr.stats().commits, commits_before);
  EXPECT_EQ(mgr.stats().cache_hits, hits_before + 1);
  EXPECT_EQ(mgr.cached_slots(), 0u);
}

TEST_F(SlotManagerTest, CachedRunServesNarrowerAndWiderRequests) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(4);
  mgr.release(*s, 4);  // 4 cached committed slots
  // Narrower request carves out of the cached stretch (single path uses
  // the cache directly; the bitmap stays consistent).
  auto one = mgr.acquire(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(mgr.cached_slots(), 3u);
  // A wider request than any cached stretch falls back to first-fit and
  // commits only the uncached part (commit_run skips cached slots).
  mgr.release(*one, 1);
  auto six = mgr.acquire(6);
  ASSERT_TRUE(six.has_value());
  EXPECT_EQ(mgr.cached_slots(), 0u);
  for (size_t i = 0; i < 6; ++i) EXPECT_TRUE(area_.committed(*six + i));
}

TEST_F(SlotManagerTest, MultiRunOverCapacityStillDecommits) {
  auto mgr = make(0, 1, Distribution::kPartitioned, 4);
  auto a = mgr.acquire(3);
  auto b = mgr.acquire(3);
  mgr.release(*a, 3);  // 3 of 4 capacity used
  uint64_t decommits_before = mgr.stats().decommits;
  mgr.release(*b, 3);  // would overflow the cache: decommitted whole
  EXPECT_EQ(mgr.cached_slots(), 3u);
  EXPECT_EQ(mgr.stats().decommits, decommits_before + 1);
  EXPECT_FALSE(area_.committed(*b));
}

TEST_F(SlotManagerTest, FlushCacheDecommits) {
  auto mgr = make(0, 1);
  size_t s = *mgr.acquire(1);
  mgr.release(s, 1);
  mgr.flush_cache();
  EXPECT_EQ(mgr.cached_slots(), 0u);
  EXPECT_FALSE(area_.committed(s));
}

TEST_F(SlotManagerTest, MultiAcquireOverlappingCachedSlot) {
  auto mgr = make(0, 1);
  size_t s = *mgr.acquire(1);  // slot 0 of the partition
  mgr.release(s, 1);           // now cached + committed
  auto run = mgr.acquire(3);   // first-fit starts at the same slot
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(*run, s);
  EXPECT_EQ(mgr.cached_slots(), 0u);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(area_.committed(*run + i));
}

TEST_F(SlotManagerTest, SetBitmapReconcilesCache) {
  auto mgr = make(0, 1);
  size_t s = *mgr.acquire(1);
  mgr.release(s, 1);  // cached
  pm2::Bitmap newmap(area_.n_slots());
  // New bitmap without slot s: a negotiation sold it.
  newmap.set_range(0, area_.n_slots());
  newmap.clear(s);
  mgr.set_bitmap(std::move(newmap));
  EXPECT_EQ(mgr.cached_slots(), 0u);
  EXPECT_FALSE(area_.committed(s));
}

// An arriving run that overlaps an away-run of another shape must drop
// that entry too, without decommitting: left cached, its later eviction
// would decommit pages of the thread now living in the overlap.
TEST_F(SlotManagerTest, TakeDropsOverlappingEntriesOfAnotherShape) {
  auto mgr = make(0, 1);
  const size_t a = area_.n_slots() - 8;
  EXPECT_FALSE(mgr.cache_away(a, 2).has_value());
  EXPECT_FALSE(mgr.take_away(a, 4));
  EXPECT_EQ(mgr.away_runs(), 0u);
  EXPECT_FALSE(mgr.cache_away(a, 2).has_value());
  EXPECT_TRUE(mgr.take_away(a, 2));  // exact hit: the caller skips commit
}

// Eviction hands back the oldest run for the caller to decommit once it
// dropped its lock (what Negotiator::cache_away does).
TEST_F(SlotManagerTest, AwayCacheEvictsTheOldestRunPastCapacity) {
  auto mgr = make(0, 1);
  const size_t n = SlotManager::kAwayRunCapacity + 1;
  const size_t first = *mgr.acquire(n);  // thread-owned, committed
  for (size_t i = 0; i < n; ++i) {
    if (auto old = mgr.cache_away(first + i, 1)) {
      EXPECT_EQ(i, n - 1);
      EXPECT_EQ(*old, SlotManager::Run(first, 1));
      area_.decommit(old->first, old->second);
      mgr.evicted(*old);
    }
  }
  EXPECT_EQ(mgr.away_runs(), SlotManager::kAwayRunCapacity);
  EXPECT_FALSE(area_.committed(first));
  EXPECT_TRUE(area_.committed(first + 1));
  EXPECT_FALSE(mgr.take_away(first, 1));  // evicted: no rollback from it
  EXPECT_TRUE(mgr.take_away(first + 1, 1));
}

// The evictor decommits after it dropped its lock.  The evicted run's
// thread may migrate back inside that window: it misses the cache and
// commits, and the late decommit would wipe what it installs.  The run
// stays listed as evicting until the decommit is reported, which is what
// every claim of slots (Negotiator::settle) waits for before committing.
TEST_F(SlotManagerTest, EvictionInFlightHoldsOffAClaimOfItsRun) {
  auto mgr = make(0, 1);
  const size_t n = SlotManager::kAwayRunCapacity + 1;
  const size_t first = *mgr.acquire(n);
  std::optional<SlotManager::Run> old;
  for (size_t i = 0; i < n; ++i)
    if (auto o = mgr.cache_away(first + i, 1)) old = o;
  ASSERT_TRUE(old.has_value());
  EXPECT_FALSE(mgr.evicting(first + 1, 1));
  // The thread comes back before the decommit lands.
  EXPECT_FALSE(mgr.take_away(first, 1));  // a miss: the claimer commits...
  EXPECT_TRUE(mgr.evicting(first, 1));    // ...but only after this clears
  EXPECT_TRUE(mgr.evicting(first, 2));    // any overlap counts
  area_.decommit(old->first, old->second);
  mgr.evicted(*old);
  EXPECT_FALSE(mgr.evicting(first, 1));
  area_.commit(first, 1);  // the claimer's commit now sticks
  EXPECT_TRUE(area_.committed(first));
}

// Slots that come back to this node (a negotiation bought them after the
// thread that owned them died elsewhere) and are acquired again belong to
// the new owner: the stale away-run must go in the same call, or its
// eviction would decommit the new owner's pages.
TEST_F(SlotManagerTest, AcquireDropsOverlappingAwayRun) {
  auto mgr = make(0, 1);
  const size_t s = *mgr.acquire(2);
  EXPECT_FALSE(mgr.cache_away(s, 2).has_value());  // its thread left
  pm2::Bitmap back = mgr.bitmap();
  back.set_range(s, 2);
  mgr.set_bitmap(std::move(back));
  EXPECT_EQ(mgr.away_runs(), 1u);  // set_bitmap leaves away-runs alone
  EXPECT_EQ(*mgr.acquire(3), s);   // first-fit over the returned run
  EXPECT_EQ(mgr.away_runs(), 0u);
  // Same for a claim by position (checkpoint restore).
  const size_t t = *mgr.acquire(1);
  EXPECT_FALSE(mgr.cache_away(t, 1).has_value());
  back = mgr.bitmap();
  back.set_range(t, 1);
  mgr.set_bitmap(std::move(back));
  EXPECT_TRUE(mgr.acquire_at(t, 1));
  EXPECT_EQ(mgr.away_runs(), 0u);
}

TEST_F(SlotManagerTest, StatsSummarize) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(1);
  mgr.release(*s, 1);
  EXPECT_NE(mgr.stats().summary().find("acquired=1"), std::string::npos);
}

TEST_F(SlotManagerTest, DisjointnessAcrossManagers) {
  auto a = make(0, 3, Distribution::kRoundRobin);
  auto b = make(1, 3, Distribution::kRoundRobin);
  auto c = make(2, 3, Distribution::kRoundRobin);
  EXPECT_FALSE(a.bitmap().intersects(b.bitmap()));
  EXPECT_FALSE(a.bitmap().intersects(c.bitmap()));
  EXPECT_FALSE(b.bitmap().intersects(c.bitmap()));
}

TEST_F(SlotManagerTest, DoubleReleaseDies) {
  auto mgr = make(0, 1);
  auto s = mgr.acquire(1);
  mgr.release(*s, 1);
  EXPECT_DEATH(mgr.release(*s, 1), "double release");
}

}  // namespace
}  // namespace pm2::iso
