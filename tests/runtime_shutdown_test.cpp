// Session lifecycle edge cases: halt ordering, draining in-flight work,
// signals outliving their senders, sessions of every size.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/time.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_completed{0};

void slow_finisher(void* arg) {
  auto yields = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  for (int i = 0; i < yields; ++i) pm2_yield();
  ++g_completed;
  pm2_signal(0);
}

// A node's run() must not return while application threads still live,
// even when halt arrived long before they finish.
TEST(Shutdown, HaltWaitsForLiveThreads) {
  g_completed = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime&) {
    if (pm2_self() == 0) {
      // Long-running thread; main returns immediately afterwards, the
      // session barrier passes, node 0 halts — and the worker must still
      // complete.
      pm2_thread_create(&slow_finisher, reinterpret_cast<void*>(intptr_t{500}),
                        "slow");
      pm2_wait_signals(1);
    }
  });
  EXPECT_EQ(g_completed.load(), 1);
}

void remote_finisher(void*) {
  pm2_migrate(marcel_self(), 1);
  for (int i = 0; i < 200; ++i) pm2_yield();
  ++g_completed;
  pm2_signal(0);
}

// Same, but the straggler finishes on a *different* node than it started.
TEST(Shutdown, RemoteStragglerDrainsBeforeExit) {
  g_completed = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime&) {
    if (pm2_self() == 0) {
      pm2_thread_create(&remote_finisher, nullptr, "straggler");
      pm2_wait_signals(1);
    }
  });
  EXPECT_EQ(g_completed.load(), 1);
}

TEST(Shutdown, SessionSizesOneThroughSix) {
  for (uint32_t n = 1; n <= 6; ++n) {
    std::atomic<uint32_t> ran{0};
    AppConfig cfg;
    cfg.nodes = n;
    int rc = run_app(cfg, [&](Runtime& rt) {
      ++ran;
      rt.barrier();
    });
    EXPECT_EQ(rc, 0) << n;
    EXPECT_EQ(ran.load(), n) << n;
  }
}

TEST(Shutdown, BackToBackSessionsReuseTheAreaBase) {
  // The iso-area reservation must come and go cleanly across sessions in
  // one process (each run_app reserves the same fixed base).
  for (int round = 0; round < 5; ++round) {
    AppConfig cfg;
    cfg.nodes = 2;
    int rc = run_app(cfg, [&](Runtime& rt) {
      void* p = rt.isomalloc(1000);
      rt.isofree(p);
    });
    ASSERT_EQ(rc, 0) << "round " << round;
  }
}

TEST(Shutdown, SignalsQueuedBeforeWaiterArrives) {
  // Signals are counting, not rendezvous: senders may all fire before the
  // receiver ever waits.
  AppConfig cfg;
  cfg.nodes = 3;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() != 0) {
      for (int i = 0; i < 5; ++i) pm2_signal(0);
      rt.barrier();
    } else {
      rt.barrier();  // both senders done before we start waiting
      pm2_wait_signals(10);
    }
  });
}

void local_grandchild(void*) {
  for (int i = 0; i < 10; ++i) pm2_yield();
  ++g_completed;
  pm2_signal(pm2_self());  // wake the parent waiting on this node
}

void migrate_then_spawn(void*) {
  pm2_migrate(marcel_self(), 1);
  // Threads spawned on the destination node inherit full citizenship.
  g_completed = 0;
  for (int i = 0; i < 4; ++i)
    pm2_thread_create(&local_grandchild, nullptr, "grandchild");
  pm2_wait_signals(4);
  PM2_CHECK(g_completed.load() == 4);
  pm2_signal(0);
}

// The last live thread exits on worker 1 after the halt arrived, while the
// comm daemon blocks on worker 0: the exit must wake it, or run() outlives
// the thread by the daemon's 500 ms idle cap.
std::atomic<uint64_t> g_last_exit_ns{0};

void exit_after_halt_on_worker1(void*) {
  // Unpinned: an idle worker 1 steals it.  What it spawns from there is
  // pinned to worker 1, so the daemon's worker never runs it.
  while (marcel::Scheduler::current_worker() != 1) pm2_yield();
  Runtime& rt = *Runtime::current();
  rt.spawn_local([&rt] {
    // Kernel sleeps: no marcel timer may bound the daemon's block.
    while (!rt.halting())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    g_last_exit_ns = now_ns();
  }, "last");
}

TEST(Shutdown, LastThreadExitingAfterHaltWakesTheDaemon) {
  g_last_exit_ns = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.workers = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 1)
      pm2_thread_create(&exit_after_halt_on_worker1, nullptr, "hop");
  });
  const uint64_t returned = now_ns();
  ASSERT_NE(g_last_exit_ns.load(), 0u);
  EXPECT_LT(returned - g_last_exit_ns.load(), 100'000'000u)
      << "run_app returned " << (returned - g_last_exit_ns.load()) / 1'000'000
      << " ms after the last thread exited";
}

TEST(Shutdown, MigrantSpawnsOnDestination) {
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime&) {
    if (pm2_self() == 0) {
      pm2_thread_create(&migrate_then_spawn, nullptr, "parent");
      pm2_wait_signals(1);
    }
  });
}

}  // namespace
}  // namespace pm2
