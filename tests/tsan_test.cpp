// Happens-before regression tests for the fiber-aware TSan instrumentation.
//
// Each test drives one synchronization edge the runtime promises: a plain
// (non-atomic) write on the producer side must be visible to the consumer
// purely through the primitive under test.  On a normal build these are
// ordinary functional tests; under -fsanitize=thread (the CI TSan leg runs
// this file at 1 and 4 workers) they are the regression net for the
// __tsan_switch_to_fiber annotations in the scheduler — if a context-switch
// edge is dropped, TSan reports the plain write as a data race.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "marcel/scheduler.hpp"
#include "marcel/sync.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

AppConfig config_with_workers(uint32_t nodes, uint32_t workers) {
  AppConfig cfg;
  cfg.nodes = nodes;
  cfg.rt.workers = workers;
  return cfg;
}

// Promise::set_value publishes the producer's plain writes to the consumer
// parked in Future::wait() (Event::set release / wake handoff).
TEST(TsanHappensBefore, PromiseSetValueToFutureWake) {
  std::atomic<int> bad{0};
  run_app(config_with_workers(1, 4), [&](Runtime& rt) {
    for (int round = 0; round < 64; ++round) {
      marcel::Promise<int> p;
      marcel::Future<int> f = p.future();
      int payload = 0;  // plain: published only by set_value
      rt.spawn_local([&] {
        payload = 123;
        p.set_value(round);
      });
      if (f.take() != round || payload != 123) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

// WaitQueue unpark(front): the unparker's plain writes must be visible to
// the woken thread — the direct-handoff path jumps the thread to the front
// of a ready deque, crossing workers.
TEST(TsanHappensBefore, WaitQueueUnparkFrontHandoff) {
  std::atomic<int> bad{0};
  run_app(config_with_workers(1, 4), [&](Runtime& rt) {
    for (int round = 0; round < 64; ++round) {
      marcel::WaitQueue q;
      int data = 0;  // plain: handed off through the unpark
      auto id = rt.spawn_local([&] {
        q.park_current();
        if (data != 7) ++bad;
      });
      // Park first, then publish, then wake to the front.
      while (q.empty()) marcel::Scheduler::current_scheduler()->yield();
      data = 7;
      q.unpark_one(/*front=*/true);
      rt.join(id);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

// Socket replies from any worker: a service thread on workers 1-3 writes
// its reply straight to the socket, under the link's send lock, while the
// comm daemon on worker 0 receives and sends on the same links.  The reply
// payload rides that edge end to end.
TEST(TsanHappensBefore, WorkerRepliesGoStraightToTheSocket) {
  AppConfig cfg = config_with_workers(2, 4);
  cfg.socket_fabric = true;
  std::atomic<int> bad{0};
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          for (int i = 0; i < 32; ++i) {
            if (rt.call<int>(1, "triple", i) != 3 * i) ++bad;
          }
        }
        rt.barrier();
      },
      [](Runtime& rt) {
        rt.service("triple", [](RpcContext&, int v) -> int { return 3 * v; });
      });
  EXPECT_EQ(bad.load(), 0);
}

// Per-link order from any worker.  Several threads on node 0 send numbered
// frames to node 1, alternating a madeleine channel message (with a region
// borrowed from the sender's memory) and a call_async request, and yield
// between sends so they are stolen across workers.  Node 1's comm daemon
// delivers each sender's channel frames on arrival, so they must come
// complete and in order; each request's service must find the channel
// frame its sender sent just before it already delivered.
constexpr int kOrderSenders = 6;
constexpr int kOrderRounds = 40;
constexpr size_t kOrderBlob = 3000;
std::atomic<int> g_order_bad{0};
// Channel frames delivered per sender (node 1's daemon writes them).
std::atomic<int> g_order_delivered[kOrderSenders];

uint8_t order_blob_byte(int s, int k, size_t i) {
  return static_cast<uint8_t>(s * 31 + k + static_cast<int>(i));
}

// A migratable sender (spawn_local threads are pinned to their worker).
void order_sender(void* arg) {
  const int s = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  Runtime& rt = *Runtime::current();
  mad::Channel& ch = *rt.channels().find("order");
  std::vector<uint8_t> blob(kOrderBlob);
  std::vector<RpcFuture<int>> replies;
  for (int k = 0; k < kOrderRounds; ++k) {
    for (size_t i = 0; i < kOrderBlob; ++i) blob[i] = order_blob_byte(s, k, i);
    mad::PackBuffer pb;
    pb.pack<int>(s);
    pb.pack<int>(k);
    pb.pack_bytes(blob.data(), blob.size(), mad::PackMode::kBorrow);
    ch.send(1, std::move(pb));
    marcel::Scheduler::current_scheduler()->yield();
    replies.push_back(rt.call_async<int>(1, "after", s, k));
    marcel::Scheduler::current_scheduler()->yield();
  }
  for (int k = 0; k < kOrderRounds; ++k) {
    if (replies[k].take() != k) ++g_order_bad;
  }
}

TEST(TsanHappensBefore, SendersOnAnyWorkerKeepPerLinkOrder) {
  AppConfig cfg = config_with_workers(2, 4);
  cfg.socket_fabric = true;
  g_order_bad = 0;
  for (auto& d : g_order_delivered) d = 0;
  run_app(
      cfg,
      [](Runtime& rt) {
        if (rt.self() == 0) {
          std::vector<marcel::ThreadId> senders;
          for (intptr_t s = 0; s < kOrderSenders; ++s)
            senders.push_back(
                rt.spawn(&order_sender, reinterpret_cast<void*>(s), "sender"));
          for (auto id : senders) rt.join(id);
        }
        rt.barrier();
      },
      [](Runtime& rt) {
        mad::Channel& ch = rt.channels().open("order");
        if (rt.self() != 1) return;
        ch.set_handler([](fabric::NodeId, mad::UnpackBuffer& ub) {
          const int s = ub.unpack<int>();
          const int k = ub.unpack<int>();
          if (s < 0 || s >= kOrderSenders || k != g_order_delivered[s].load()) {
            ++g_order_bad;
            return;
          }
          std::vector<uint8_t> blob(kOrderBlob);
          ub.unpack_bytes(blob.data(), blob.size());
          for (size_t i = 0; i < kOrderBlob; ++i) {
            if (blob[i] != order_blob_byte(s, k, i)) {
              ++g_order_bad;
              break;
            }
          }
          g_order_delivered[s].store(k + 1, std::memory_order_release);
        });
        rt.service("after", [](RpcContext&, int s, int k) -> int {
          if (g_order_delivered[s].load(std::memory_order_acquire) < k + 1)
            ++g_order_bad;
          return k;
        });
      });
  EXPECT_EQ(g_order_bad.load(), 0);
  for (auto& d : g_order_delivered) EXPECT_EQ(d.load(), kOrderRounds);
}

// Invocation pool: an exiting service thread parks its context on one
// worker; the next dispatch re-arms it and any worker may steal and run
// it.  The rearm (ctx_make + state reset) must happen-before the stolen
// first dispatch — pipelined calls from several client threads keep the
// pool churning across all workers.
TEST(TsanHappensBefore, InvocationPoolRearmVsSteal) {
  std::atomic<int> bad{0};
  run_app(
      config_with_workers(1, 4),
      [&](Runtime& rt) {
        std::vector<marcel::ThreadId> clients;
        for (int c = 0; c < 4; ++c) {
          clients.push_back(rt.spawn_local([&rt, &bad, c] {
            for (int i = 0; i < 16; ++i) {
              int v = 100 * c + i;
              if (Runtime::current()->call<int>(0, "inc", v) != v + 1) ++bad;
            }
          }));
        }
        for (auto id : clients) rt.join(id);
      },
      [](Runtime& rt) {
        rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
      });
  EXPECT_EQ(bad.load(), 0);
}

// Spawn publication: Runtime::spawn_local creates the thread frozen, fills
// user_fn/user_arg (the copied closure), then unfreeze()s it — push_ready's
// release-store of kReady plus the Chase-Lev publication is the only edge
// carrying the creator's plain writes to the (frequently stealing) worker
// that dispatches the newborn.  At 4 workers with churn, newborns are
// routinely stolen before the creator yields.
TEST(TsanHappensBefore, SpawnUnfreezePublishesClosure) {
  std::atomic<int> bad{0};
  run_app(config_with_workers(1, 4), [&](Runtime& rt) {
    for (int round = 0; round < 64; ++round) {
      int payload = 0;  // plain: published only by the unfreeze edge
      payload = round + 1;
      auto id = rt.spawn_local([&bad, &payload, round] {
        if (payload != round + 1) ++bad;
      });
      rt.join(id);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

// The non-front unpark: the wakeup goes through unblock(front=false) — a
// remote push into the target worker's inbox, drained into its Chase-Lev
// deque, and possibly stolen from there by a third worker.  The unparker's
// plain write must survive that whole chain (inbox release-CAS, deque
// publication, steal acquire).
TEST(TsanHappensBefore, WaitQueueUnparkBackCrossesDeque) {
  std::atomic<int> bad{0};
  run_app(config_with_workers(1, 4), [&](Runtime& rt) {
    for (int round = 0; round < 64; ++round) {
      marcel::WaitQueue q;
      int data = 0;  // plain: rides the inbox -> deque -> steal chain
      auto id = rt.spawn_local([&] {
        q.park_current();
        if (data != round + 41) ++bad;
      });
      while (q.empty()) marcel::Scheduler::current_scheduler()->yield();
      data = round + 41;
      q.unpark_one(/*front=*/false);
      rt.join(id);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace pm2
