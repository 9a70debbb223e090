// Invocation-pool semantics: service threads (descriptor + initialized
// stack + owned slot run) are recycled across RPC dispatches instead of
// being torn down per call.  These tests pin the contract:
//   * sequential and pipelined calls reuse parked threads (hits/misses);
//   * a burst beyond the pool bound falls back to the cold build path and
//     the pool stays bounded;
//   * parked threads release their slot runs at halt (no leak) and on
//     idle decay;
//   * a pool-spawned thread that migrates is lazily evicted — the install
//     side never parks a foreign run, and nothing double-releases.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fabric/inproc.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/audit.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_evictions{0};
std::atomic<uint64_t> g_pool_size{0};
std::atomic<bool> g_ok{true};

void register_pool_stats(Runtime& rt) {
  rt.service("pool-stats", [](RpcContext&) -> std::vector<uint64_t> {
    Runtime& self = *Runtime::current();
    return {self.pool().hits(), self.pool().misses(), self.pool().evictions(),
            self.pool().size()};
  });
}

// {idle_wakeups, futile_wakeups} summed over the node's workers.
std::vector<uint64_t> sched_wake_stats(Runtime& rt) {
  std::vector<uint64_t> out{0, 0};
  for (const marcel::WorkerStats& w : rt.sched().worker_stats()) {
    out[0] += w.idle_wakeups;
    out[1] += w.futile_wakeups;
  }
  return out;
}

// Sequential blocking calls to a local service: the first dispatch builds
// the thread (miss), every later one re-arms the same parked thread.
TEST(InvocationPool, SequentialCallsReuseOneThread) {
  g_hits = 0;
  g_misses = 0;
  AppConfig cfg;
  cfg.nodes = 1;
  run_app(
      cfg,
      [&](Runtime& rt) {
        for (int i = 0; i < 10; ++i)
          ASSERT_EQ(rt.call<int>(0, "inc", i), i + 1);
        g_hits = rt.pool().hits();
        g_misses = rt.pool().misses();
        g_pool_size = rt.pool().size();
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
      });
  EXPECT_EQ(g_misses.load(), 1u);
  EXPECT_EQ(g_hits.load(), 9u);
  EXPECT_EQ(g_pool_size.load(), 1u);
}

// Pipelined burst wider than the pool bound: every concurrent invocation
// beyond the parked supply takes the cold build path, all complete, and
// at most `invocation_pool` threads park afterwards — the rest release
// their slot runs immediately.  `workers` 0 takes the suite's worker count.
void burst_beyond_pool_size(uint32_t workers) {
  g_hits = 0;
  g_misses = 0;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.workers = workers;
  cfg.rt.invocation_pool = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        std::vector<RpcFuture<int>> futs;
        futs.reserve(8);
        for (int i = 0; i < 8; ++i)
          futs.push_back(rt.call_async<int>(0, "inc", i));
        for (int i = 0; i < 8; ++i) EXPECT_EQ(futs[i].take(), i + 1);
        // On the single-loop scheduler the whole burst dispatches before
        // any invocation runs, so all eight are cold builds.  With SMP
        // workers (or sanitizer slowdowns) an early invocation may finish
        // and park before a later dispatch arrives, turning that one into
        // a legitimate pool hit — the scheduling-independent invariants
        // are the accounting and that the first dispatch found an empty
        // pool.
        EXPECT_EQ(rt.pool().misses() + rt.pool().hits(), 8u);
        EXPECT_GE(rt.pool().misses(), 1u);
        EXPECT_LE(rt.pool().size(), 2u);
        // Sequential follow-ups are pool-served.
        uint64_t hits_before = rt.pool().hits();
        EXPECT_EQ(rt.call<int>(0, "inc", 41), 42);
        EXPECT_EQ(rt.call<int>(0, "inc", 42), 43);
        g_hits = rt.pool().hits() - hits_before;
        g_pool_size = rt.pool().size();
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
      });
  EXPECT_EQ(g_hits.load(), 2u);
  EXPECT_LE(g_pool_size.load(), 2u);
}

TEST(InvocationPool, BurstBeyondPoolSizeFallsBackAndStaysBounded) {
  burst_beyond_pool_size(0);
}

// The same burst with four workers reaping and parking at once: the one
// list's cap holds however the invocations spread over the workers.
TEST(InvocationPool, BurstBeyondPoolSizeStaysBoundedAtFourWorkers) {
  burst_beyond_pool_size(4);
}

// Disabling the pool turns every dispatch into a cold build.
TEST(InvocationPool, DisabledPoolNeverParks) {
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.invocation_pool = 0;
  run_app(
      cfg,
      [&](Runtime& rt) {
        for (int i = 0; i < 5; ++i) ASSERT_EQ(rt.call<int>(0, "inc", i), i + 1);
        g_hits = rt.pool().hits();
        g_misses = rt.pool().misses();
        g_pool_size = rt.pool().size();
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
      });
  EXPECT_EQ(g_hits.load(), 0u);
  EXPECT_EQ(g_misses.load(), 5u);
  EXPECT_EQ(g_pool_size.load(), 0u);
}

// halt() with parked threads: the comm daemon drains the pool on exit, so
// every slot run returns to the node — observable after run() because the
// session is built by hand instead of through run_app.
TEST(InvocationPool, HaltReleasesParkedThreadSlots) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(5);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  auto hub = std::make_shared<fabric::InProcHub>(1);
  RuntimeConfig rc;
  rc.node = 0;
  rc.n_nodes = 1;
  Runtime rt(rc, area, hub->endpoint(0));
  rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
  std::atomic<size_t> parked{0};
  rt.run([&] {
    Runtime& self = *Runtime::current();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(self.call<int>(0, "inc", i), i + 1);
    parked = self.pool().size();
    self.halt();
  });
  EXPECT_GT(parked.load(), 0u);
  EXPECT_EQ(rt.pool().size(), 0u);
  EXPECT_GE(rt.pool().evictions(), parked.load());
  // Main, daemon and every service stack released: the node owns the
  // whole area again.
  EXPECT_EQ(rt.slots().owned_free_slots(), area.n_slots());
}

// Idle decay: parked threads past the horizon are evicted by the comm
// daemon's idle laps and their slots rejoin the node's distribution.
TEST(InvocationPool, IdleDecayEvictsParkedThreads) {
  g_evictions = 0;
  g_pool_size = 0;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.invocation_pool_decay_us = 1000;  // 1 ms horizon
  run_app(
      cfg,
      [&](Runtime& rt) {
        ASSERT_EQ(rt.call<int>(0, "inc", 1), 2);
        EXPECT_EQ(rt.pool().size(), 1u);
        // Two sleeps: the daemon re-enters its idle path between them and
        // finds the parked thread aged past the horizon.
        pm2_sleep_us(20'000);
        pm2_sleep_us(20'000);
        g_evictions = rt.pool().evictions();
        g_pool_size = rt.pool().size();
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
      });
  EXPECT_EQ(g_evictions.load(), 1u);
  EXPECT_EQ(g_pool_size.load(), 0u);
}

// A pool-spawned service thread that migrates: the source parks nothing
// (the thread left), the destination strips pool eligibility at install
// and releases the slots through the ordinary exit path — the audit
// proves nothing leaked or double-released.
TEST(InvocationPool, MigratedServiceThreadIsEvictedNotPooled) {
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        // Fire-and-forget: the handler hops to node 0 and signals from
        // there, so no reply routing is involved.
        for (int i = 0; i < 3; ++i) {
          rt.rpc(1, "roam", uint32_t{7});
          pm2_wait_signals(1);
        }
        // Node 1 dispatched 3 roam invocations; none of those threads
        // came back to its pool (they exited on node 0).
        auto stats = rt.call<std::vector<uint64_t>>(1, "pool-stats");
        ASSERT_EQ(stats.size(), 4u);
        EXPECT_EQ(stats[0], 0u);  // hits: nothing ever parked before this
        EXPECT_EQ(stats[1], 4u);  // misses: 3 roam + this pool-stats call
        // Node 0 received the migrants but must not have parked them.
        EXPECT_EQ(rt.pool().size(), 0u);
        EXPECT_EQ(rt.pool().hits() + rt.pool().misses(), 0u);
        // Global exactly-one-owner invariant: nothing leaked, nothing
        // double-released (covers the parked pool-stats thread too).
        AuditReport report = audit_session(rt);
        if (!report.ok) {
          pm2_printf("%s\n", report.summary().c_str());
          g_ok = false;
        }
      },
      [](Runtime& rt) {
        rt.service("roam", [](RpcContext&, uint32_t) {
          Runtime::current()->migrate_self(0);
          pm2_signal(0);
        });
        register_pool_stats(rt);
      });
  EXPECT_TRUE(g_ok.load());
}

// Cross-node pipelined reuse: the remote pool serves a steady stream.
TEST(InvocationPool, RemotePipelinedCallsHitPool) {
  g_hits = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        for (int round = 0; round < 4; ++round) {
          std::vector<RpcFuture<int>> futs;
          for (int i = 0; i < 8; ++i)
            futs.push_back(rt.call_async<int>(1, "inc", i));
          for (int i = 0; i < 8; ++i) EXPECT_EQ(futs[i].take(), i + 1);
        }
        auto stats = rt.call<std::vector<uint64_t>>(1, "pool-stats");
        ASSERT_EQ(stats.size(), 4u);
        g_hits = stats[0];
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
        register_pool_stats(rt);
      });
  // 32 invocations; only the first burst can miss.  Later rounds re-arm
  // parked threads (the exact split depends on arrival overlap).
  EXPECT_GE(g_hits.load(), 16u);
}

// Sequential calls at two workers per node: each request leaves one
// service thread on the server's deque — the owner's next pick, nothing for
// a thief — so no call may wake a parked worker, and no wake may be futile.
TEST(InvocationPool, SequentialCallsAtTwoWorkersWakeNoParkedWorker) {
  constexpr int kCalls = 1000;
  std::atomic<uint64_t> wakeups{0};
  std::atomic<uint64_t> futile{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.workers = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        auto before = rt.call<std::vector<uint64_t>>(1, "wake-stats");
        auto mine = sched_wake_stats(rt);
        for (int i = 0; i < kCalls; ++i)
          ASSERT_EQ(rt.call<int>(1, "inc", i), i + 1);
        auto after = rt.call<std::vector<uint64_t>>(1, "wake-stats");
        auto mine_after = sched_wake_stats(rt);
        ASSERT_EQ(after.size(), 2u);
        wakeups = after[0] - before[0] + mine_after[0] - mine[0];
        futile = after[1] - before[1] + mine_after[1] - mine[1];
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
        rt.service("wake-stats", [](RpcContext&) -> std::vector<uint64_t> {
          return sched_wake_stats(*Runtime::current());
        });
      });
  EXPECT_LE(wakeups.load(), kCalls / 10u)
      << "parked workers were woken " << wakeups.load() << " times";
  EXPECT_LE(futile.load(), kCalls / 100u)
      << futile.load() << " wakes found nothing to run or steal";
}

}  // namespace
}  // namespace pm2
