// The away cache (the §6 slot cache applied to the migration path) in a
// live session: entries consumed on return, kept after a one-way hop, and
// invalidated when slots re-enter local ownership.  The cache's own
// bookkeeping (overlap, eviction) is pinned in slot_manager_test.
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
      cache0_mid = rt.negotiator().away_runs();
    }
    rt.barrier();
    if (rt.self() == 0) cache0 = rt.negotiator().away_runs();
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
      cache0 = rt.negotiator().away_runs();
    }
    rt.barrier();
  });
  // The thread left and never returned: its stack-slot run stays cached.
  EXPECT_EQ(cache0.load(), 1u);
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

}  // namespace
}  // namespace pm2
