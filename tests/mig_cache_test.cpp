// Migration slot cache (the §6 optimization applied to the migration path):
// bookkeeping correctness — entries consumed on return, invalidated when
// slots re-enter local ownership, bounded by eviction.
#include <gtest/gtest.h>

#include <atomic>

#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_phase{0};

void bouncer(void*) {
  for (int i = 0; i < 5; ++i) {
    pm2_migrate(marcel_self(), 1);
    pm2_migrate(marcel_self(), 0);
  }
  pm2_signal(0);
}

TEST(MigCache, PingPongPopulatesAndConsumes) {
  std::atomic<size_t> cache0{999}, cache0_mid{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&bouncer, nullptr, "bounce");
      pm2_wait_signals(1);
      // Thread finished on node 0: its run is not cached here (it lives
      // here); earlier hops left at most transient entries.
      cache0_mid = rt.mig_cache_size();
    }
    rt.barrier();
    if (rt.self() == 0) cache0 = rt.mig_cache_size();
  });
  // While the thread lived on node 0 at the end, node 0 must not hold its
  // slots in the cache (they were taken at the last return hop).
  EXPECT_EQ(cache0_mid.load(), 0u);
  EXPECT_EQ(cache0.load(), 0u);
}

void one_way(void*) {
  pm2_migrate(marcel_self(), 1);
  pm2_signal(0);
}

TEST(MigCache, SenderKeepsEntryAfterOneWayMigration) {
  std::atomic<size_t> cache0{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&one_way, nullptr, "oneway");
      pm2_wait_signals(1);
      cache0 = rt.mig_cache_size();
    }
    rt.barrier();
  });
  // The thread left and never returned: its stack-slot run stays cached.
  EXPECT_EQ(cache0.load(), 1u);
}

TEST(MigCache, DisabledConfigKeepsCacheEmpty) {
  std::atomic<size_t> cache0{999};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.migration_slot_cache = 0;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&bouncer, nullptr, "bounce");
      pm2_wait_signals(1);
      cache0 = rt.mig_cache_size();
    }
    rt.barrier();
  });
  EXPECT_EQ(cache0.load(), 0u);
}

void short_hop(void* arg) {
  auto n = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  (void)n;
  pm2_migrate(marcel_self(), 1);
  pm2_signal(0);
}

TEST(MigCache, EvictionBoundsTheCache) {
  std::atomic<size_t> cache0{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.migration_slot_cache = 4;  // tiny: 10 one-way threads overflow it
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      for (intptr_t i = 0; i < 10; ++i)
        pm2_thread_create(&short_hop, reinterpret_cast<void*>(i), "hop");
      pm2_wait_signals(10);
      cache0 = rt.mig_cache_size();
    }
    rt.barrier();
  });
  EXPECT_LE(cache0.load(), 4u);
  EXPECT_GE(cache0.load(), 1u);
}

void returner(void*) {
  // Leave, come back, exit here: the slots re-enter local ownership via
  // the reaper; a stale cache entry would be fatal later.
  g_phase = 1;
  pm2_migrate(marcel_self(), 1);
  pm2_migrate(marcel_self(), 0);
  pm2_signal(0);
}

TEST(MigCache, SlotsReusableAfterReturnAndDeath) {
  g_phase = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&returner, nullptr, "ret");
      pm2_wait_signals(1);
      // The dead thread's slots are back in the node bitmap; spawning many
      // new threads must reuse them without tripping cache bookkeeping.
      for (int i = 0; i < 20; ++i) {
        pm2_thread_create(&one_way, nullptr, "reuse");
      }
      pm2_wait_signals(20);
    }
    rt.barrier();
  });
}

// An arriving run that overlaps a cached entry of another shape must evict
// that entry too, without decommitting: left cached, its later eviction
// would decommit pages of the thread now living in the overlap.
TEST(MigCache, TakeDropsOverlappingEntriesOfAnotherShape) {
  std::atomic<bool> hit{true};
  std::atomic<size_t> left{999};
  AppConfig cfg;
  cfg.nodes = 1;
  run_app(cfg, [&](Runtime& rt) {
    const size_t a = rt.area().n_slots() - 8;
    rt.mig_cache_put(a, 2);
    hit = rt.mig_cache_take(a, 4);
    left = rt.mig_cache_size();
  });
  EXPECT_FALSE(hit.load());
  EXPECT_EQ(left.load(), 0u);
}

}  // namespace
}  // namespace pm2
