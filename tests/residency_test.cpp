// pm2::Residency.  Demoted threads stay readable: SlotStore::demote keeps
// each slot run's first page (slot header; descriptor and canary for the
// stack run) resident, so code that walks registered threads — the load
// balancer's round, join, the audit inventory, checkpoint pass 1 — reads a
// demoted thread like any other frozen one.  Only frozen threads are
// demoted: a parked invocation-pool shell stays resident and poisoned.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "fabric/inproc.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/heap.hpp"
#include "isomalloc/slot_store.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/audit.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/load_balancer.hpp"
#include "pm2/runtime.hpp"
#include "sys/sanitizer.hpp"
#include "sys/vm.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_ready{0};
std::atomic<int> g_release{0};
std::atomic<int> g_done{0};
std::atomic<bool> g_ok{true};

std::string make_store_dir() {
  char tmpl[] = "/tmp/pm2-residency-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  PM2_CHECK(dir != nullptr) << "mkdtemp failed";
  return dir;
}

bool page_resident(uintptr_t addr) {
  const uintptr_t ps = sys::page_size();
  unsigned char vec = 0;
  PM2_CHECK(::mincore(reinterpret_cast<void*>(addr & ~(ps - 1)), 1, &vec) ==
            0);
  return (vec & 1) != 0;
}

// A one-slot stack run plus a two-slot heap run (the block is larger than a
// slot), filled with a pattern that must survive the trip through the store.
constexpr size_t kLongs = 96 * 1024 / sizeof(long);

void cold_worker(void*) {
  auto* data = static_cast<long*>(pm2_isomalloc(kLongs * sizeof(long)));
  for (size_t i = 0; i < kLongs; ++i) data[i] = static_cast<long>(i * 7 + 3);
  ++g_ready;
  while (g_release.load() == 0) pm2_yield();
  for (size_t i = 0; i < kLongs; ++i) {
    if (data[i] != static_cast<long>(i * 7 + 3)) g_ok = false;
  }
  pm2_isofree(data);
  ++g_done;
  pm2_signal(0);
}

void reset() {
  g_ready = 0;
  g_release = 0;
  g_done = 0;
  g_ok = true;
}

/// Spawn `n` cold workers on this node, freeze and demote them all.
std::vector<marcel::ThreadId> spawn_demoted(Runtime& rt, int n) {
  std::vector<marcel::ThreadId> ids;
  for (int i = 0; i < n; ++i)
    ids.push_back(pm2_thread_create(cold_worker, nullptr, "cold"));
  while (g_ready.load() < n) pm2_yield();
  for (marcel::ThreadId id : ids) {
    PM2_CHECK(rt.freeze_thread(id));
    PM2_CHECK(rt.residency().demote(id));
  }
  return ids;
}

void release_all(Runtime& rt, const std::vector<marcel::ThreadId>& ids) {
  g_release = 1;
  for (marcel::ThreadId id : ids) PM2_CHECK(rt.unfreeze_thread(id));
  pm2_wait_signals(ids.size());
}

// The balancer's round reads the state of every registered thread.
TEST(Residency, BalancerRoundOverDemotedThreads) {
  reset();
  constexpr int kThreads = 4;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() != 0) return;
    std::vector<marcel::ThreadId> ids = spawn_demoted(rt, kThreads);
    // Node 0 holds every thread and node 1 none: each round finds the
    // imbalance and scans the registry for READY candidates.  A zero cap
    // keeps the released threads here afterwards (no byte-copied stack is
    // resumed, so the case also runs under TSan).
    LoadBalancerConfig lb;
    lb.period_us = 200;
    lb.max_migrations_per_round = 0;
    auto status = LoadBalancer::start(rt, lb);
    while (status->rounds.load() < 5) pm2_yield();
    EXPECT_EQ(rt.migrations_out(), 0u);
    EXPECT_EQ(rt.residency().demoted_count(), static_cast<size_t>(kThreads));
    release_all(rt, ids);
  });
  EXPECT_EQ(g_done.load(), kThreads);
  EXPECT_TRUE(g_ok.load());
}

// join() registers the joiner in the demoted descriptor; the fault-back must
// keep that link, or the joiner never wakes.
struct JoinCtx {
  marcel::Thread* joiner = nullptr;
  marcel::ThreadId target = 0;
  std::atomic<bool> joined{false};
};

void unfreeze_helper(void* arg) {
  auto* ctx = static_cast<JoinCtx*>(arg);
  Runtime& rt = *Runtime::current();
  while (ctx->joiner->state.load() != marcel::ThreadState::kBlocked)
    pm2_sleep_us(1000);
  g_release = 1;
  PM2_CHECK(rt.unfreeze_thread(ctx->target));
  // Fail fast instead of hanging the session when the wake-up is lost.
  const uint64_t deadline = now_ns() + 10'000'000'000ull;
  while (!ctx->joined.load() && now_ns() < deadline) pm2_sleep_us(1000);
  PM2_CHECK(ctx->joined.load())
      << "joiner of a demoted thread never woke after it exited";
}

TEST(Residency, JoinDemotedThreadWakesOnExit) {
  reset();
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    static JoinCtx ctx;
    ctx.joined = false;
    ctx.joiner = marcel_self();
    ctx.target = spawn_demoted(rt, 1).front();
    pm2_thread_create(unfreeze_helper, &ctx, "unfreezer");
    EXPECT_TRUE(rt.join(ctx.target));
    ctx.joined = true;
    EXPECT_EQ(g_done.load(), 1);
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

/// Slot runs of `id`, walked from its slot chain.
std::vector<iso::SlotRun> runs_of(Runtime& rt, marcel::ThreadId id) {
  std::vector<iso::SlotRun> runs;
  marcel::Thread* t = rt.sched().find(id);
  PM2_CHECK(t != nullptr);
  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
    runs.emplace_back(rt.area().slot_of(s), s->nslots);
  });
  return runs;
}

TEST(Residency, AuditAndCheckpointCoverDemotedThreads) {
  reset();
  constexpr int kThreads = 3;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() != 0) return;
    std::vector<marcel::ThreadId> ids;
    for (int i = 0; i < kThreads; ++i)
      ids.push_back(pm2_thread_create(cold_worker, nullptr, "cold"));
    while (g_ready.load() < kThreads) pm2_yield();
    uint64_t slots = 0;
    for (marcel::ThreadId id : ids) {
      std::vector<iso::SlotRun> runs = runs_of(rt, id);
      EXPECT_EQ(runs.size(), 2u);  // stack run + heap run
      for (auto [first, count] : runs) slots += count;
      ASSERT_TRUE(rt.freeze_thread(id));
      ASSERT_TRUE(rt.residency().demote(id));
      // The same runs, read back from the demoted thread's chain.
      EXPECT_EQ(runs_of(rt, id), runs);
    }

    AuditReport report = audit_session(rt);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.threads_demoted, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(report.demoted_slots, slots);

    StoreCheckpointStats ckpt = checkpoint_node_to_store(rt);
    EXPECT_EQ(ckpt.threads, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(ckpt.bytes_written, 0u);
    EXPECT_EQ(ckpt.bytes_skipped, slots * rt.area().slot_size());
    EXPECT_EQ(rt.residency().demoted_count(), static_cast<size_t>(kThreads));
    release_all(rt, ids);
  });
  EXPECT_EQ(g_done.load(), kThreads);
  EXPECT_TRUE(g_ok.load());
}

TEST(Residency, DemotionKeepsOnlyEachRunsFirstPage) {
  reset();
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(cold_worker, nullptr, "cold");
    while (g_ready.load() < 1) pm2_yield();
    std::vector<iso::SlotRun> runs = runs_of(rt, id);
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.residency().demote(id));
    const uintptr_t ps = sys::page_size();
    size_t kept = 0, dropped = 0;
    for (auto [first, count] : runs) {
      auto base = reinterpret_cast<uintptr_t>(rt.area().slot_addr(first));
      const uintptr_t end = base + count * rt.area().slot_size();
      EXPECT_TRUE(page_resident(base)) << "first page of run " << first;
      kept += page_resident(base) ? 1 : 0;
      for (uintptr_t p = base + ps; p < end; p += ps) {
        EXPECT_FALSE(page_resident(p)) << "run " << first << " page "
                                       << (p - base) / ps;
        dropped += page_resident(p) ? 0 : 1;
      }
    }
    EXPECT_EQ(kept, runs.size());
    EXPECT_GT(dropped, 0u);
    release_all(rt, {id});
  });
  EXPECT_EQ(g_done.load(), 1);
  EXPECT_TRUE(g_ok.load());
}

// The decay pass at budget 0 and horizon 0 would page out every frozen
// byte, yet it leaves a parked service shell alone: the shell stays
// resident and parked, and its stack keeps the park poison, so a stray
// write into the recycled stack still dies under ASan.
void decay_over_parked_shell() {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(13);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  auto hub = std::make_shared<fabric::InProcHub>(1);
  RuntimeConfig rc;
  rc.node = 0;
  rc.n_nodes = 1;
  rc.slot_store_dir = make_store_dir();
  rc.slot_store_budget = 0;
  rc.slot_store_decay_us = 0;
  Runtime rt(rc, area, hub->endpoint(0));
  rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
  rt.run([] {
    Runtime& self = *Runtime::current();
    PM2_CHECK(self.call<int>(0, "inc", 1) == 2);
    const size_t parked_shells = self.pool().size();
    PM2_CHECK(parked_shells > 0);
    marcel::Thread* parked = nullptr;
    self.pool().for_each([&](marcel::Thread* t) { parked = t; });
    self.residency().decay(now_ns());
    PM2_CHECK(self.residency().demoted_count() == 0);
    PM2_CHECK(self.pool().size() == parked_shells);
    // The invocation ran on the top of the stack: that page is still in.
    auto top = reinterpret_cast<uintptr_t>(parked->stack_base) +
               parked->stack_size() - 1;
    PM2_CHECK(page_resident(top)) << "parked stack was paged out";
    auto* into = static_cast<volatile char*>(parked->stack_base) + 2048;
    *into = 42;  // use-after-return onto a parked service stack
    self.halt();
  });
}

TEST(Residency, DecayLeavesParkedShellResidentAndPoisoned) {
  if constexpr (sys::kAsan) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(decay_over_parked_shell(), "use-after-poison");
  } else {
    decay_over_parked_shell();
  }
}

}  // namespace
}  // namespace pm2
