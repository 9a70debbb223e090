// Distributed invariant audit tests: the global exactly-one-owner property
// verified on live sessions, including after heavy churn.
#include "pm2/audit.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "common/random.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<bool> g_audit_ok{true};
std::atomic<uint64_t> g_thread_owned{0};

TEST(Audit, FreshSessionIsClean) {
  g_audit_ok = true;
  AppConfig cfg;
  cfg.nodes = 3;
  run_app(cfg, [&](Runtime& rt) {
    rt.barrier();  // everyone booted
    if (rt.self() == 1) {
      AuditReport report = audit_session(rt);
      if (!report.ok) {
        pm2_printf("%s\n", report.summary().c_str());
        g_audit_ok = false;
      }
      // 3 nodes x (daemon + main) hold one stack slot each.
      g_thread_owned = report.thread_owned;
      EXPECT_EQ(report.threads_seen, 6u);
      EXPECT_EQ(report.total_slots, rt.area().n_slots());
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_audit_ok.load());
  EXPECT_EQ(g_thread_owned.load(), 6u);
}

void audit_churn_worker(void* arg) {
  auto seed = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(arg));
  Rng rng(seed);
  void* blocks[8] = {};
  for (int step = 0; step < 120; ++step) {
    int i = static_cast<int>(rng.next_below(8));
    if (blocks[i] != nullptr) {
      pm2_isofree(blocks[i]);
      blocks[i] = nullptr;
    } else {
      blocks[i] = pm2_isomalloc(rng.next_range(100, 120 * 1024));
    }
    if (rng.next_bool(0.1))
      pm2_migrate(marcel_self(), static_cast<uint32_t>(
                                     rng.next_below(pm2_nodes())));
  }
  for (void*& b : blocks)
    if (b != nullptr) pm2_isofree(b);
  pm2_signal(0);
}

TEST(Audit, CleanAfterMigrationAndNegotiationChurn) {
  g_audit_ok = true;
  AppConfig cfg;
  cfg.nodes = 3;
  cfg.rt.slots.distribution = iso::Distribution::kRoundRobin;  // negotiations
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      for (uintptr_t w = 0; w < 6; ++w)
        pm2_thread_create(&audit_churn_worker, reinterpret_cast<void*>(w * 31),
                          "churn");
      pm2_wait_signals(6);
    }
    rt.barrier();  // quiescent: workers drained everywhere
    if (rt.self() == 2) {
      AuditReport report = audit_session(rt);
      if (!report.ok) {
        pm2_printf("%s\n", report.summary().c_str());
        g_audit_ok = false;
      }
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_audit_ok.load());
}

TEST(Audit, CleanWithLiveAllocationsAcrossNodes) {
  g_audit_ok = true;
  static std::atomic<int> phase{0};
  phase = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      // A worker holding live blocks, parked mid-flight on node 1.
      auto holder = [](void*) {
        void* a = pm2_isomalloc(10000);
        void* b = pm2_isomalloc(200 * 1024);
        pm2_migrate(marcel_self(), 1);
        phase = 1;
        while (phase.load() < 2) pm2_yield();
        pm2_isofree(a);
        pm2_isofree(b);
        pm2_signal(0);
      };
      pm2_thread_create(holder, nullptr, "holder");
      while (phase.load() < 1) pm2_yield();
      AuditReport report = audit_session(rt);
      if (!report.ok) {
        pm2_printf("%s\n", report.summary().c_str());
        g_audit_ok = false;
      }
      EXPECT_GE(report.thread_owned, 4u);  // stacks + holder's heap slots
      phase = 2;
      pm2_wait_signals(1);
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_audit_ok.load());
}

// A thread that exits inside the audit's critical section releases its
// stack run into the node's deferred list (the bitmap is frozen): neither
// the gathered bitmap nor any thread holds that run, yet it is owned.
TEST(Audit, CountsARunReleasedDuringTheAudit) {
  g_audit_ok = true;
  static std::atomic<bool> go{false};
  go = false;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 1) {
      // Exits once the audit is under way: at one worker, when the
      // auditor parks for the system lock.
      auto leaver = [](void*) {
        while (!go.load()) pm2_yield();
      };
      marcel::ThreadId t = pm2_thread_create(leaver, nullptr, "leaver");
      go = true;
      AuditReport report = audit_session(rt);
      if (!report.ok) {
        pm2_printf("%s\n", report.summary().c_str());
        g_audit_ok = false;
      }
      rt.join(t);
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_audit_ok.load());
}

TEST(Audit, CheckCountsDeferredRunsAsTheirNodes) {
  // 16 slots: node 0 owns 0..5, node 1 owns 8..15, a thread on node 1
  // holds 6, and node 0 released 7 while its bitmap was frozen.
  std::vector<Bitmap> bitmaps(2, Bitmap(16));
  bitmaps[0].set_range(0, 6);
  bitmaps[1].set_range(8, 8);
  std::vector<NodeInventory> inv(2);
  inv[1].held.push_back({/*thread=*/42, /*first=*/6, /*count=*/1, false});
  inv[0].deferred.emplace_back(7, 1);
  AuditReport report = check_ownership(bitmaps, inv);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.node_owned, 15u);
  EXPECT_EQ(report.thread_owned, 1u);

  // Without the deferred run, slot 7 has no owner.
  inv[0].deferred.clear();
  report = check_ownership(bitmaps, inv);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("coverage leak"), std::string::npos);

  // A deferred run a bitmap already holds was released twice.
  inv[0].deferred.emplace_back(7, 1);
  inv[1].deferred.emplace_back(8, 1);
  report = check_ownership(bitmaps, inv);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("slot 8 released on node 1"),
            std::string::npos)
      << report.summary();
}

TEST(Audit, SummaryFormats) {
  AuditReport r;
  r.ok = false;
  r.total_slots = 10;
  r.violations.push_back("slot 3 held by two threads");
  auto s = r.summary();
  EXPECT_NE(s.find("VIOLATIONS"), std::string::npos);
  EXPECT_NE(s.find("slot 3"), std::string::npos);
}

}  // namespace
}  // namespace pm2
