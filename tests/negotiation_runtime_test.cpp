// Distributed negotiation integration tests: the full lock/gather/update
// protocol over the fabric, triggered transparently by pm2_isomalloc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "isomalloc/distribution.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/audit.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<bool> g_ok{true};

#define NEGO_EXPECT(cond)                                          \
  do {                                                             \
    if (!(cond)) {                                                 \
      g_ok = false;                                                \
      pm2_printf("NEGO_EXPECT failed: %s (line %d)\n", #cond,      \
                 __LINE__);                                        \
    }                                                              \
  } while (0)

AppConfig rr_config(uint32_t nodes) {
  AppConfig cfg;
  cfg.nodes = nodes;
  cfg.rt.slots.distribution = iso::Distribution::kRoundRobin;
  return cfg;
}

// Round-robin over 2 nodes: any multi-slot allocation *must* negotiate
// (the paper's own experimental setup for Fig. 11).
void multi_slot_worker(void*) {
  auto* p = static_cast<unsigned char*>(pm2_isomalloc(200 * 1024));
  NEGO_EXPECT(p != nullptr);
  std::memset(p, 0x77, 200 * 1024);
  NEGO_EXPECT(p[0] == 0x77 && p[200 * 1024 - 1] == 0x77);
  pm2_isofree(p);
  pm2_signal(0);
}

TEST(NegotiationRuntime, MultiSlotAllocationTriggersNegotiation) {
  g_ok = true;
  std::atomic<uint64_t> negotiations{0};
  run_app(rr_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&multi_slot_worker, nullptr, "big");
      pm2_wait_signals(1);
      negotiations = rt.negotiations_initiated();
    }
  });
  EXPECT_TRUE(g_ok.load());
  EXPECT_GE(negotiations.load(), 1u);
}

TEST(NegotiationRuntime, SingleSlotAllocationsStayLocal) {
  std::atomic<uint64_t> negotiations{0};
  run_app(rr_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      for (int i = 0; i < 50; ++i) {
        void* p = rt.isomalloc(1024);
        rt.isofree(p);
      }
      negotiations = rt.negotiations_initiated();
    }
  });
  EXPECT_EQ(negotiations.load(), 0u);
}

// Both nodes negotiate concurrently: the lock must serialize them and the
// final ownership must stay disjoint.
void contender_worker(void* arg) {
  auto signal_to = static_cast<uint32_t>(reinterpret_cast<uintptr_t>(arg));
  for (int i = 0; i < 5; ++i) {
    auto* p = static_cast<unsigned char*>(pm2_isomalloc(150 * 1024));
    NEGO_EXPECT(p != nullptr);
    p[0] = 1;
    p[150 * 1024 - 1] = 2;
    pm2_isofree(p);
  }
  pm2_signal(signal_to);
}

TEST(NegotiationRuntime, ConcurrentNegotiationsSerialize) {
  g_ok = true;
  run_app(rr_config(2), [&](Runtime& rt) {
    // Both nodes run a contender locally.
    pm2_thread_create(&contender_worker,
                      reinterpret_cast<void*>(uintptr_t{rt.self()}),
                      "contender");
    rt.wait_signals(1);
    rt.barrier();
    // Invariant: bitmaps disjoint after the dust settles (each node checks
    // against its own view implicitly; cross-check via slot counts).
    NEGO_EXPECT(rt.slots().bitmap().count() <= rt.area().n_slots());
  });
  EXPECT_TRUE(g_ok.load());
}

TEST(NegotiationRuntime, FourNodeNegotiation) {
  g_ok = true;
  run_app(rr_config(4), [&](Runtime& rt) {
    if (rt.self() == 2) {  // a non-coordinator initiator
      auto* p = static_cast<unsigned char*>(pm2_isomalloc(400 * 1024));
      NEGO_EXPECT(p != nullptr);
      std::memset(p, 0xEE, 400 * 1024);
      pm2_isofree(p);
      EXPECT_GE(rt.negotiations_initiated(), 1u);
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_ok.load());
}

// A node with zero free slots can buy single slots through negotiation
// (paper: "the same algorithm may be used if a node has run out of slots").
TEST(NegotiationRuntime, ExhaustedNodeBuysSlots) {
  AppConfig cfg;
  cfg.nodes = 2;
  // Tiny area: 128 slots of 64K = 8 MiB, partitioned: node 0 owns 64.
  // Keep the default base: it is sanitizer-dependent (see AreaConfig).
  cfg.area.size = 8ull << 20;
  cfg.rt.slots.distribution = iso::Distribution::kPartitioned;
  cfg.rt.slots.cache_capacity = 0;
  std::atomic<uint64_t> negotiated{0};
  std::atomic<bool> oom{false};
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      // Eat all local slots (each 60K alloc owns one slot), then keep
      // allocating: the extra slots must come from node 1.
      std::vector<void*> hold;
      try {
        for (int i = 0; i < 80; ++i) hold.push_back(rt.isomalloc(60 * 1024));
      } catch (const std::bad_alloc&) {
        oom = true;
      }
      negotiated = rt.slots().stats().negotiated_slots;
      for (void* p : hold) rt.isofree(p);
    }
    rt.barrier();
  });
  EXPECT_FALSE(oom.load());
  EXPECT_GE(negotiated.load(), 10u);
}

// Exhausting the *entire* system must surface as bad_alloc, with bitmaps
// still consistent afterwards.
TEST(NegotiationRuntime, GlobalExhaustionThrows) {
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.area.size = 4ull << 20;  // 64 slots total
  cfg.rt.slots.distribution = iso::Distribution::kPartitioned;
  std::atomic<bool> threw{false};
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      std::vector<void*> hold;
      try {
        for (int i = 0; i < 100; ++i) hold.push_back(rt.isomalloc(60 * 1024));
      } catch (const std::bad_alloc&) {
        threw = true;
      }
      for (void* p : hold) rt.isofree(p);
    }
    rt.barrier();
  });
  EXPECT_TRUE(threw.load());
}

// Thread death during someone else's negotiation: releases are deferred
// but must not be lost.
void die_quickly_worker(void*) {
  void* p = pm2_isomalloc(1024);
  pm2_isofree(p);
  pm2_signal(0);
}

TEST(NegotiationRuntime, ChurnDuringNegotiations) {
  g_ok = true;
  run_app(rr_config(2), [&](Runtime& rt) {
    if (rt.self() == 1) {
      // Node 1 churns short-lived threads while node 0 negotiates.
      for (int i = 0; i < 20; ++i) pm2_thread_create(&die_quickly_worker,
                                                     nullptr, "churn");
    }
    if (rt.self() == 0) {
      for (int i = 0; i < 10; ++i) {
        void* p = rt.isomalloc(150 * 1024);  // negotiation every time
        rt.isofree(p);
      }
      rt.wait_signals(20);
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_ok.load());
}

// A request that arrives while its target node negotiates must not stall
// that negotiation.  With the invocation pool off, every kRpc builds its
// service thread on node 1's comm daemon, and node 1's own negotiations
// freeze its bitmap over and over.  A daemon that parked on the freeze
// never read the grant or gather reply that would lift it: the session
// panicked "deadlock: all threads blocked/frozen" at workers 1 and hung at
// workers 4.
TEST(NegotiationRuntime, RpcDuringNegotiationNeverParksTheCommDaemon) {
  constexpr int kRounds = 40;
  constexpr int kCalls = 400;
  AppConfig cfg = rr_config(2);
  cfg.rt.invocation_pool = 0;
  std::atomic<int> served{0};
  std::atomic<uint64_t> negotiations{0};
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 1) {
          for (int i = 0; i < kRounds; ++i) {
            void* p = rt.isomalloc(100 * 1024);
            rt.isofree(p);
          }
          negotiations = rt.negotiations_initiated();
        } else {
          for (int i = 0; i < kCalls; ++i) rt.call<void>(1, "noop");
        }
        rt.barrier();
      },
      [&](Runtime& rt) {
        rt.service("noop", [&](RpcContext&) { served.fetch_add(1); });
      });
  EXPECT_EQ(served.load(), kCalls);
  EXPECT_GE(negotiations.load(), 1u);
}

// A request the comm daemon holds for want of a stack run starts as soon
// as a worker frees one: the release wakes the daemon out of its blocking
// receive instead of leaving the request there until the idle cap
// (500 ms).  Node 1 runs 2 workers and no invocation pool; its thread
// pinned to worker 1 holds every local slot while node 0 calls it, then
// frees one while the daemon, on worker 0, blocks.
std::atomic<uint64_t> g_freed_at{0};

void hop_to_worker1(void*) {
  // Unpinned: an idle worker 1 steals it.  What it spawns from there is
  // pinned to worker 1, so the daemon's worker never runs it.
  while (marcel::Scheduler::current_worker() != 1) pm2_yield();
  Runtime& rt = *Runtime::current();
  rt.spawn_local([&rt] {
    std::vector<size_t> held;
    while (auto s = rt.negotiator().try_acquire(1)) held.push_back(*s);
    pm2_signal(0);         // every local run is taken
    pm2_wait_signals(1);   // node 0's call arrived before this signal
    // A kernel sleep: no marcel timer may bound the daemon's block.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    g_freed_at = now_ns();
    rt.release_slots(held.back(), 1);
    held.pop_back();
    pm2_wait_signals(1);  // the call completed
    for (size_t s : held) rt.release_slots(s, 1);
    pm2_signal(0);
  }, "holder");
}

TEST(NegotiationRuntime, HeldRequestStartsWhenAWorkerFreesARun) {
  g_freed_at = 0;
  AppConfig cfg = rr_config(2);
  cfg.area.size = 64ull << 20;  // 512 slots per node to hold
  cfg.rt.workers = 2;
  cfg.rt.invocation_pool = 0;
  std::atomic<uint64_t> replied_at{0};
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 1) {
          pm2_thread_create(&hop_to_worker1, nullptr, "hop");
          return;
        }
        pm2_wait_signals(1);
        RpcFuture<void> fut = rt.call_async<void>(1, "noop");
        pm2_signal(1);
        fut.take();
        replied_at = now_ns();
        pm2_signal(1);
        pm2_wait_signals(1);  // node 1 gave its runs back
      },
      [&](Runtime& rt) { rt.service("noop", [](RpcContext&) {}); });
  ASSERT_NE(g_freed_at.load(), 0u);
  const uint64_t wait_ns = replied_at.load() - g_freed_at.load();
  EXPECT_LT(wait_ns, 50'000'000u) << "held request started "
                                  << wait_ns / 1'000'000 << " ms after the "
                                  << "run was freed";
}

// Two initiators (nodes 1 and 2; node 0 serves the system lock) on the
// socket fabric, with every frame held back up to 500 us, so frames from
// different senders arrive out of send order.  An initiator's bitmap
// updates must be applied before the system lock moves on: otherwise the
// next initiator, or the node the update is for, plans on a stale bitmap
// and a slot ends up with two owners or none.  Each thread tags both ends
// of its blocks and checks them before freeing, and the audit at the end
// checks that every slot has exactly one owner.  No thread migrates.
constexpr int kRacers = 3;
constexpr int kRaceRounds = 30;
constexpr size_t kEdge = 4096;

void racing_allocator(void* arg) {
  const auto tag = static_cast<unsigned char>(reinterpret_cast<uintptr_t>(arg));
  // Blocks stay allocated until the end, so no request fits a run freed
  // earlier: every one negotiates.
  std::vector<std::pair<unsigned char*, size_t>> held;
  for (int i = 0; i < kRaceRounds; ++i) {
    const size_t len = (100 + 50 * (i % 4)) * 1024;  // 2 to 4 slots
    auto* p = static_cast<unsigned char*>(pm2_isomalloc(len));
    NEGO_EXPECT(p != nullptr);
    std::memset(p, tag, kEdge);  // both ends of the run, not the middle
    std::memset(p + len - kEdge, tag, kEdge);
    held.emplace_back(p, len);
    pm2_yield();
  }
  auto tagged = [tag](const unsigned char* b) {
    return std::all_of(b, b + kEdge, [tag](unsigned char c) { return c == tag; });
  };
  for (auto [p, len] : held) {
    NEGO_EXPECT(tagged(p) && tagged(p + len - kEdge));
    pm2_isofree(p);
  }
  pm2_signal(0);
}

TEST(NegotiationRuntime, RacingInitiatorsOnSocketsKeepOwnershipDisjoint) {
  g_ok = true;
  AppConfig cfg = rr_config(3);
  cfg.socket_fabric = true;
  cfg.rt.fault_plan = "delay=500us,seed=7";
  std::atomic<uint64_t> negotiations{0};
  std::atomic<bool> audit_ok{false};
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() != 0) {
      for (uintptr_t r = 0; r < kRacers; ++r)
        pm2_thread_create(&racing_allocator,
                          reinterpret_cast<void*>(rt.self() * 16 + r),
                          "racer");
    } else {
      pm2_wait_signals(2 * kRacers);
    }
    rt.barrier();
    negotiations += rt.negotiations_initiated();
    if (rt.self() == 0) {
      AuditReport report = audit_session(rt);
      if (!report.ok) pm2_printf("%s\n", report.summary().c_str());
      audit_ok = report.ok;
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_ok.load());
  EXPECT_TRUE(audit_ok.load());
  EXPECT_GE(negotiations.load(), 2u * kRacers * kRaceRounds / 2);
}

// Pre-buy (paper §4.4): a negotiation that wins a longer run than asked
// keeps the next multi-slot allocations local.
TEST(Prebuy, ReducesSubsequentNegotiations) {
  std::atomic<uint64_t> with{0}, without{0};
  for (bool prebuy : {false, true}) {
    AppConfig cfg;
    cfg.nodes = 2;
    cfg.rt.slots.distribution = iso::Distribution::kRoundRobin;
    cfg.rt.nego_prebuy_slots = prebuy ? 32 : 0;
    run_app(cfg, [&](Runtime& rt) {
      if (rt.self() == 0) {
        // 10 multi-slot allocations, kept alive (so each needs new slots).
        std::vector<void*> hold;
        for (int i = 0; i < 10; ++i) hold.push_back(rt.isomalloc(100 * 1024));
        for (void* p : hold) rt.isofree(p);
        (prebuy ? with : without) = rt.negotiations_initiated();
      }
      rt.barrier();
    });
  }
  EXPECT_EQ(without.load(), 10u);  // one negotiation per allocation
  EXPECT_LE(with.load(), 2u);      // the pre-bought stretch covers the rest
}

}  // namespace
}  // namespace pm2
