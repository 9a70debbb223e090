// Load balancer: preemptive redistribution of oblivious worker threads.
#include "pm2/load_balancer.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_done{0};
std::atomic<uint32_t> g_finish_mask{0};
std::atomic<bool> g_go{false};

// CPU-ish worker that yields often and never asks to migrate.  It starts
// its iterations once g_go is set (READY until then, so migratable).
void lb_worker(void* arg) {
  auto iters = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  while (!g_go.load()) pm2_yield();
  volatile long sink = 0;
  for (int i = 0; i < iters; ++i) {
    for (int k = 0; k < 2000; ++k) sink = sink + k;
    pm2_yield();
  }
  g_finish_mask |= 1u << pm2_self();
  ++g_done;
  pm2_signal(0);
}

TEST(LoadBalancer, SpreadsWorkAcrossNodes) {
  g_done = 0;
  g_finish_mask = 0;
  g_go = false;
  constexpr int kWorkers = 12;
  std::atomic<uint64_t> moved{0};

  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    LoadBalancerConfig lb;
    lb.period_us = 200;
    lb.imbalance_threshold = 2;
    lb.max_migrations_per_round = 2;
    auto status = LoadBalancer::start(rt, lb);
    if (rt.self() == 0) {
      // All work lands on node 0; the balancer must push some of it away.
      for (int i = 0; i < kWorkers; ++i) {
        pm2_thread_create(&lb_worker, reinterpret_cast<void*>(intptr_t{400}),
                          "worker");
      }
      // The iterations start only after one balancer round saw the
      // workers: otherwise they can all finish before the first round.
      while (status->rounds.load() < 1) pm2_yield();
      g_go = true;
      pm2_wait_signals(kWorkers);
      moved = rt.migrations_out();
    }
    rt.barrier();
  });
  EXPECT_EQ(g_done.load(), kWorkers);
  EXPECT_GE(moved.load(), 1u) << "balancer never migrated anything";
  EXPECT_EQ(g_finish_mask.load(), 0b11u)
      << "workers should have finished on both nodes";
}

TEST(LoadBalancer, IdleClusterStaysQuiet) {
  std::atomic<uint64_t> moved{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    LoadBalancerConfig lb;
    lb.period_us = 100;
    LoadBalancer::start(rt, lb);
    // No application threads at all: nothing to migrate.
    for (int i = 0; i < 50; ++i) pm2_yield();
    rt.barrier();
    moved += rt.migrations_out();
  });
  EXPECT_EQ(moved.load(), 0u);
}

TEST(LoadBalancer, RespectsThreshold) {
  std::atomic<uint64_t> moved{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    LoadBalancerConfig lb;
    lb.period_us = 100;
    lb.imbalance_threshold = 100;  // effectively never
    LoadBalancer::start(rt, lb);
    g_go = true;
    if (rt.self() == 0) {
      for (int i = 0; i < 4; ++i)
        pm2_thread_create(&lb_worker, reinterpret_cast<void*>(intptr_t{50}),
                          "w");
      pm2_wait_signals(4);
      moved = rt.migrations_out();
    }
    rt.barrier();
  });
  EXPECT_EQ(moved.load(), 0u);
}

}  // namespace
}  // namespace pm2
