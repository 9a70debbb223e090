// Fault-tolerant sessions: deterministic fault injection (FaultFabric),
// RPC/migration deadlines with tombstoned correlations, and heartbeat-based
// peer failure detection.
//
// Coverage:
//   * FaultPlan grammar and FaultFabric mutation counters over a raw
//     in-process hub (no runtime);
//   * a deadlined call against a partitioned peer fails kTimeout within
//     2x the deadline;
//   * a reply arriving after the deadline is dropped as late (counter
//     increments, no double-resolve) — also when more than a thousand
//     other calls resolved while it was held back;
//   * a timed-out migration rolls back: the thread is runnable at the
//     source again and the destination never saw it (exactly one owner);
//   * seeded chaos (random drops) with at-least-once retries still
//     completes every call;
//   * kill -9 of a peer mid-session: heartbeat detection fails the pending
//     call and the in-flight migration with kPeerDown, the migration rolls
//     back, and halt drains without hanging on the dead link.
//
// Every in-proc test pins its own fault plan and per-call deadlines, so the
// suite stays deterministic even under a CI chaos leg that exports
// PM2_FAULT_PLAN / PM2_RPC_TIMEOUT_MS ("seed=1" parses to an inactive plan,
// which also documents "explicitly no faults" and masks the environment).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "fabric/fault_fabric.hpp"
#include "fabric/inproc.hpp"
#include "fabric/socket_fabric.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"
#include "sys/process.hpp"

namespace pm2 {
namespace {

using fabric::FaultFabric;
using fabric::FaultPlan;

#define CHILD_REQUIRE(cond) \
  PM2_CHECK(cond) << "fault-injection child assertion failed"

std::string make_dir() {
  char tmpl[] = "/tmp/pm2-fault-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  PM2_CHECK(dir != nullptr) << "mkdtemp failed";
  return dir;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void touch(const std::string& path) {
  std::ofstream f(path);
  f << "1\n";
}

bool wait_for_file(const std::string& path, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    if (file_exists(path)) return true;
    ::usleep(20'000);
  }
  return file_exists(path);
}

// --- plan grammar ------------------------------------------------------------

TEST(FaultPlanTest, ParsesTheFullGrammar) {
  FaultPlan p = FaultPlan::parse(
      "seed=42,drop=0.25,dup=0.1,trunc=0.05,delay=2ms,delay_p=0.5,"
      "part=0->1,flap_p=0.001,flap=5ms,shortw=16,eintr=8,drop@2=1");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.drop, 0.25);
  EXPECT_DOUBLE_EQ(p.dup, 0.1);
  EXPECT_DOUBLE_EQ(p.trunc, 0.05);
  EXPECT_EQ(p.delay_ns, 2'000'000u);
  EXPECT_DOUBLE_EQ(p.delay_p, 0.5);
  ASSERT_EQ(p.partitions.size(), 1u);
  EXPECT_EQ(p.partitions[0].first, 0u);
  EXPECT_EQ(p.partitions[0].second, 1u);
  EXPECT_DOUBLE_EQ(p.flap_p, 0.001);
  EXPECT_EQ(p.flap_ns, 5'000'000u);
  EXPECT_EQ(p.short_writes, 16u);
  EXPECT_EQ(p.eintr, 8u);
  ASSERT_EQ(p.drop_per_peer.count(2), 1u);
  EXPECT_DOUBLE_EQ(p.drop_per_peer.at(2), 1.0);
  EXPECT_TRUE(p.active());

  EXPECT_FALSE(FaultPlan::parse("").active());
  // A bare seed is an *inactive* plan: "explicitly no faults".
  EXPECT_FALSE(FaultPlan::parse("seed=7").active());
  // A delay without delay_p delays every frame.
  EXPECT_DOUBLE_EQ(FaultPlan::parse("delay=1ms").delay_p, 1.0);
  // A delay scoped to one destination is a live plan too.
  EXPECT_TRUE(FaultPlan::parse("delay=2ms,delay_p@1=1").active());
}

// --- raw decorator over the in-process hub -----------------------------------

fabric::Message user_frame(uint32_t dst, size_t len) {
  fabric::Message m;
  m.type = kUserBase;
  m.dst = dst;
  m.payload.assign(len, 0xAB);
  return m;
}

TEST(FaultFabricTest, InactivePlanIsPassThrough) {
  auto hub = std::make_shared<fabric::InProcHub>(2);
  auto f = fabric::wrap_with_faults(hub->endpoint(0), FaultPlan::parse("seed=9"));
  EXPECT_EQ(dynamic_cast<FaultFabric*>(f.get()), nullptr);
}

TEST(FaultFabricTest, DropCounterMatchesLostFrames) {
  auto hub = std::make_shared<fabric::InProcHub>(2);
  auto ep0 = fabric::wrap_with_faults(hub->endpoint(0),
                                      FaultPlan::parse("drop=1,seed=2"));
  auto ep1 = hub->endpoint(1);
  for (int i = 0; i < 10; ++i) ep0->send(user_frame(1, 16));
  EXPECT_FALSE(ep1->try_recv().has_value());
  auto* ff = dynamic_cast<FaultFabric*>(ep0.get());
  ASSERT_NE(ff, nullptr);
  EXPECT_EQ(ff->stats().dropped, 10u);
  EXPECT_EQ(ff->stats().total(), 10u);
}

TEST(FaultFabricTest, DuplicateDeliversTheFrameTwice) {
  auto hub = std::make_shared<fabric::InProcHub>(2);
  auto ep0 = fabric::wrap_with_faults(hub->endpoint(0),
                                      FaultPlan::parse("dup=1,seed=2"));
  auto ep1 = hub->endpoint(1);
  ep0->send(user_frame(1, 32));
  auto a = ep1->try_recv();
  auto b = ep1->try_recv();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->payload.size(), 32u);
  EXPECT_EQ(b->payload.size(), 32u);
  EXPECT_EQ(dynamic_cast<FaultFabric*>(ep0.get())->stats().duplicated, 1u);
}

TEST(FaultFabricTest, TruncateShortensThePayload) {
  auto hub = std::make_shared<fabric::InProcHub>(2);
  auto ep0 = fabric::wrap_with_faults(hub->endpoint(0),
                                      FaultPlan::parse("trunc=1,seed=5"));
  auto ep1 = hub->endpoint(1);
  ep0->send(user_frame(1, 100));
  auto m = ep1->try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_LT(m->payload.size(), 100u);
  EXPECT_EQ(dynamic_cast<FaultFabric*>(ep0.get())->stats().truncated, 1u);
}

TEST(FaultFabricTest, DelayHoldsFramesUntilRelease) {
  auto hub = std::make_shared<fabric::InProcHub>(2);
  auto ep0 = fabric::wrap_with_faults(hub->endpoint(0),
                                      FaultPlan::parse("delay=20ms,seed=2"));
  auto ep1 = hub->endpoint(1);
  ep0->send(user_frame(1, 8));
  // Held on the sender side: nothing in the destination mailbox yet.
  EXPECT_FALSE(ep1->try_recv().has_value());
  // After the max delay, any sender-side fabric activity releases it.
  ::usleep(30'000);
  ep0->try_recv();
  auto m = ep1->try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.size(), 8u);
  EXPECT_EQ(dynamic_cast<FaultFabric*>(ep0.get())->stats().delayed, 1u);
}

// --- deadlines against a partitioned peer ------------------------------------

int echo_service(RpcContext&, int v) { return v; }

int slow_service(RpcContext&, int v) {
  pm2_sleep_us(120'000);
  return v;
}

TEST(FaultInjection, DeadlinedCallToPartitionedPeerTimesOutWithinTwice) {
  constexpr uint64_t kDeadlineNs = 200'000'000;
  std::atomic<uint64_t> elapsed{0}, timeouts{0}, dropped{0};
  std::atomic<int> code{-1};
  AppConfig cfg;
  cfg.nodes = 2;
  // RPC-level one-way partition: every loss-tolerant frame to node 1 is
  // dropped (control traffic still flows, so the session closes cleanly).
  cfg.rt.fault_plan = "drop@1=1,seed=3";
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        uint64_t t0 = now_ns();
        try {
          rt.call_within<int>(kDeadlineNs, 1, "echo", 7);
        } catch (const RpcError& e) {
          code = static_cast<int>(e.code());
        }
        elapsed = now_ns() - t0;
        timeouts = rt.rpc_timeouts();
        ASSERT_NE(rt.fault_fabric(), nullptr);
        dropped = rt.fault_fabric()->stats().dropped;
      },
      [&](Runtime& rt) { rt.service("echo", &echo_service); });
  EXPECT_EQ(code.load(), static_cast<int>(RpcErrorCode::kTimeout));
  EXPECT_GE(elapsed.load(), kDeadlineNs - 5'000'000);
  EXPECT_LT(elapsed.load(), 2 * kDeadlineNs);
  EXPECT_EQ(timeouts.load(), 1u);
  EXPECT_GE(dropped.load(), 1u);
}

TEST(FaultInjection, LateReplyAfterTimeoutIsTombstoned) {
  std::atomic<int> code{-1}, second{-1};
  std::atomic<uint64_t> late{0}, timeouts{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.fault_plan = "seed=1";  // explicitly no faults
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        try {
          rt.call_within<int>(30'000'000, 1, "slow", 5);
        } catch (const RpcError& e) {
          code = static_cast<int>(e.code());
        }
        // The service replies at ~120 ms; the correlation is already
        // tombstoned, so the reply must be dropped — not resolve anything.
        pm2_sleep_us(300'000);
        late = rt.late_replies_dropped();
        timeouts = rt.rpc_timeouts();
        // The pending machinery is intact: a fresh unbounded call works.
        second = rt.call_within<int>(0, 1, "slow", 9);
      },
      [&](Runtime& rt) { rt.service("slow", &slow_service); });
  EXPECT_EQ(code.load(), static_cast<int>(RpcErrorCode::kTimeout));
  EXPECT_EQ(late.load(), 1u);
  EXPECT_EQ(timeouts.load(), 1u);
  EXPECT_EQ(second.load(), 9);
}

std::atomic<bool> g_gate_open{false};

int gate_service(RpcContext&, int v) {
  while (!g_gate_open.load()) pm2_yield();
  return v;
}

TEST(FaultInjection, LateReplyAfterManyResolvedCallsIsCountedNotFatal) {
  // The held reply's correlation is far older than the last thousand
  // resolved ones when it finally arrives: it must still be recognised as
  // late, not as a reply nobody asked for.
  constexpr int kOtherCalls = 1100;
  g_gate_open = false;
  std::atomic<int> code{-1}, answered{0};
  std::atomic<uint64_t> late{0}, timeouts{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.fault_plan = "seed=1";  // explicitly no faults
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        try {
          rt.call_within<int>(20'000'000, 1, "gate", 1);
        } catch (const RpcError& e) {
          code = static_cast<int>(e.code());
        }
        for (int i = 0; i < kOtherCalls; ++i) {
          if (rt.call_within<int>(0, 1, "echo", i) == i) ++answered;
        }
        g_gate_open = true;  // the held reply goes out now
        for (int i = 0; i < 2000 && rt.late_replies_dropped() == 0; ++i)
          pm2_sleep_us(1000);
        late = rt.late_replies_dropped();
        timeouts = rt.rpc_timeouts();
      },
      [&](Runtime& rt) {
        rt.service("gate", &gate_service);
        rt.service("echo", &echo_service);
      });
  EXPECT_EQ(code.load(), static_cast<int>(RpcErrorCode::kTimeout));
  EXPECT_EQ(answered.load(), kOtherCalls);
  EXPECT_EQ(late.load(), 1u);
  EXPECT_EQ(timeouts.load(), 1u);
}

TEST(FaultInjection, ExplicitZeroTimeoutWaitsForever) {
  std::atomic<int> got{-1};
  std::atomic<uint64_t> timeouts{0};
  std::atomic<bool> no_fault_fabric{false};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.fault_plan = "seed=1";
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        no_fault_fabric = rt.fault_fabric() == nullptr;
        got = rt.call_within<int>(0, 1, "slow", 3);
        timeouts = rt.rpc_timeouts();
      },
      [&](Runtime& rt) { rt.service("slow", &slow_service); });
  EXPECT_EQ(got.load(), 3);
  EXPECT_EQ(timeouts.load(), 0u);
  EXPECT_TRUE(no_fault_fabric.load());
}

// --- seeded chaos with at-least-once retries ---------------------------------

TEST(FaultInjection, SeededChaosCallsSucceedWithRetries) {
  std::atomic<int> correct{0};
  std::atomic<uint64_t> timeouts{0}, dropped{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.fault_plan = "drop=0.25,seed=42";
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        for (int i = 0; i < 12; ++i) {
          for (int attempt = 0;; ++attempt) {
            ASSERT_LT(attempt, 100) << "call " << i << " never got through";
            try {
              // Echo is idempotent, and the tombstones swallow duplicate
              // replies from retries whose first answer was merely dropped:
              // at-least-once retry on kTimeout is safe.
              if (rt.call_within<int>(40'000'000, 1, "echo", i) == i)
                ++correct;
              break;
            } catch (const RpcError& e) {
              ASSERT_EQ(e.code(), RpcErrorCode::kTimeout) << e.what();
            }
          }
        }
        timeouts = rt.rpc_timeouts();
        ASSERT_NE(rt.fault_fabric(), nullptr);
        dropped = rt.fault_fabric()->stats().dropped;
      },
      [&](Runtime& rt) { rt.service("echo", &echo_service); });
  EXPECT_EQ(correct.load(), 12);
  // P(zero drops across ~24+ eligible frames at p=0.25) is negligible.
  EXPECT_GE(dropped.load(), 1u);
  EXPECT_GE(timeouts.load(), 1u);
}

// --- heartbeat happy path ----------------------------------------------------

TEST(FaultInjection, HeartbeatsKeepHealthyPeersUp) {
  std::atomic<uint64_t> beats{0};
  std::atomic<int> false_downs{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.fault_plan = "seed=1";
  cfg.rt.heartbeat_period_ns = 20'000'000;
  cfg.rt.heartbeat_miss_limit = 5;
  run_app(cfg, [&](Runtime& rt) {
    uint32_t other = 1 - rt.self();
    for (int i = 0; i < 15; ++i) {
      pm2_sleep_us(10'000);
      if (rt.peer_down(other)) ++false_downs;
    }
    if (rt.self() == 0) beats = rt.heartbeats_sent();
  });
  EXPECT_GE(beats.load(), 3u);
  EXPECT_EQ(false_downs.load(), 0);
}

// --- timed-out migration rolls back ------------------------------------------

std::atomic<bool> g_rb_release{false};

void rb_worker(void*) {
  while (!g_rb_release.load()) pm2_yield();
}

TEST(FaultInjection, TimedOutMigrationRollsBackToSource) {
  constexpr uint64_t kDeadlineNs = 250'000'000;
  g_rb_release = false;
  // Hand-rolled session (no run_app epilogue): the true one-way partition
  // 0->1 would also eat the final barrier release.
  iso::AreaConfig ac;
  ac.skip_decommit = true;
  iso::Area area(ac);
  auto hub = std::make_shared<fabric::InProcHub>(2);
  std::atomic<bool> done{false};
  std::atomic<int> code{-1};
  std::atomic<uint64_t> elapsed{0}, rollbacks{0}, arrived_at_dest{0};
  std::atomic<bool> joined{false};
  std::thread t1([&] {
    RuntimeConfig rc;
    rc.node = 1;
    rc.n_nodes = 2;
    rc.workers = 1;
    rc.fault_plan = "seed=1";
    Runtime rt(rc, area, hub->endpoint(1));
    rt.run([&] {
      while (!done.load()) pm2_yield();
      arrived_at_dest = rt.migrations_in();
      rt.halt();  // 1 -> 0 is not partitioned: the halt reaches node 0
    });
  });
  std::thread t0([&] {
    RuntimeConfig rc;
    rc.node = 0;
    rc.n_nodes = 2;
    rc.workers = 1;  // keeps the spawned worker READY for preemptive migration
    rc.fault_plan = "part=0->1,seed=1";  // the payload never arrives
    Runtime rt(rc, area, hub->endpoint(0));
    rt.run([&] {
      marcel::ThreadId tid = rt.spawn(&rb_worker, nullptr, "rb");
      uint64_t start = now_ns();
      RpcFuture<MigrateResult> fut =
          rt.migrate_async(tid, 1, kDeadlineNs);
      fut.wait();
      elapsed = now_ns() - start;
      if (fut.failed()) code = static_cast<int>(fut.code());
      rollbacks = rt.migration_rollbacks();
      // Rollback adopted the thread back here: it is runnable and joinable.
      g_rb_release = true;
      joined = rt.join(tid);
      done = true;
    });
  });
  t0.join();
  t1.join();
  EXPECT_EQ(code.load(), static_cast<int>(RpcErrorCode::kTimeout));
  EXPECT_GE(elapsed.load(), kDeadlineNs - 5'000'000);
  EXPECT_LT(elapsed.load(), 2 * kDeadlineNs);
  EXPECT_EQ(rollbacks.load(), 1u);
  EXPECT_TRUE(joined.load());
  // Exactly one owner: the destination never installed a copy.
  EXPECT_EQ(arrived_at_dest.load(), 0u);
}

// --- kill -9 mid-session: kPeerDown + crash-mid-migration rollback -----------

std::atomic<bool> g_mp_release{false};

void mp_worker(void*) {
  while (!g_mp_release.load()) pm2_yield();
}

// Child node bodies.  Node 1 wedges itself on request (its single worker
// spins in a service that never yields, starving the comm daemon, so the
// node goes silent) and is then SIGKILLed by the parent.  Node 0 ships a
// call and a migration into the wedged node, waits for heartbeat detection
// to declare it down, and checks every pending-work failure path.
[[noreturn]] void fi_mp_child() {
  const char* dirp = std::getenv("PM2_FI_DIR");
  CHILD_REQUIRE(dirp != nullptr);
  std::string dir = dirp;
  uint32_t node =
      static_cast<uint32_t>(std::atoi(std::getenv("PM2_MP_NODE")));
  iso::Area area{iso::AreaConfig{}};
  fabric::SocketFabricConfig fc;
  fc.node_id = node;
  fc.n_nodes = 2;
  fc.dir = std::getenv("PM2_MP_DIR");
  RuntimeConfig rc;
  rc.node = node;
  rc.n_nodes = 2;
  rc.workers = 1;
  rc.fault_plan = "seed=1";
  rc.heartbeat_period_ns = 100'000'000;
  rc.heartbeat_miss_limit = 5;
  Runtime rt(rc, area, fabric::make_socket_fabric(fc));
  if (node == 1) {
    rt.service_local("wedge", [&](RpcContext&, int) -> int {
      touch(dir + "/wedged");
      while (true) {  // single worker: the comm daemon starves — silence
      }
    });
    rt.run([] {
      while (true) pm2_sleep_us(10'000);  // parked until the parent kills us
    });
    std::exit(1);  // unreachable: the SIGKILL lands first
  }
  rt.run([&] {
    rt.rpc(1, "wedge", 0);
    CHILD_REQUIRE(wait_for_file(dir + "/wedged", 30'000));
    // Ship pending work into the wedged node while its socket still
    // accepts bytes: an unbounded call (nothing dispatches it) and a
    // preemptive migration (payload enters the dead node's socket buffer,
    // the install ack never comes).
    marcel::ThreadId tid = rt.spawn(&mp_worker, nullptr, "mp");
    RpcFuture<int> call_fut = rt.call_async_within<int>(0, 1, "echo", 1);
    RpcFuture<MigrateResult> mig_fut = rt.migrate_async(tid, 1, 0);
    touch(dir + "/sent");
    CHILD_REQUIRE(wait_for_file(dir + "/killed", 30'000));
    // Heartbeat detection (5 x 100 ms of silence) declares node 1 down and
    // fails both: no deadline was armed (explicit 0), so kPeerDown is the
    // only way these can resolve.
    call_fut.wait();
    mig_fut.wait();
    CHILD_REQUIRE(call_fut.failed());
    CHILD_REQUIRE(call_fut.code() == RpcErrorCode::kPeerDown);
    CHILD_REQUIRE(mig_fut.failed());
    CHILD_REQUIRE(mig_fut.code() == RpcErrorCode::kPeerDown);
    CHILD_REQUIRE(rt.peer_down(1));
    CHILD_REQUIRE(rt.peer_down_failures() == 2);
    // The shipped thread rolled back: runnable and joinable at the source.
    CHILD_REQUIRE(rt.migration_rollbacks() == 1);
    g_mp_release = true;
    CHILD_REQUIRE(rt.join(tid));
    // Fail-fast on a known-down peer, no new pending entry.
    bool fast = false;
    try {
      rt.call_within<int>(0, 1, "echo", 2);
    } catch (const RpcError& e) {
      fast = e.code() == RpcErrorCode::kPeerDown;
    }
    CHILD_REQUIRE(fast);
    // Halt must drain without hanging on the dead link (teardown drops the
    // kHalt frame to node 1).
    rt.halt();
  });
  std::exit(0);
}

TEST(FaultInjection, KillNinePeerFailsPendingWorkAsPeerDown) {
  if (is_spawned_child()) {
    fi_mp_child();  // never returns
  }
  std::string dir = make_dir();
  std::vector<std::string> args = {
      "--gtest_filter=FaultInjection.KillNinePeerFailsPendingWorkAsPeerDown"};
  auto env_for = [&](int node) {
    return std::vector<std::string>{
        "PM2_MP_NODE=" + std::to_string(node),
        "PM2_MP_NODES=2",
        "PM2_MP_DIR=" + dir,
        "PM2_FI_DIR=" + dir,
    };
  };
  pid_t n0 = sys::spawn(sys::self_exe(), args, env_for(0));
  pid_t n1 = sys::spawn(sys::self_exe(), args, env_for(1));
  ASSERT_TRUE(wait_for_file(dir + "/sent", 30'000)) << "pending-work marker";
  ::kill(n1, SIGKILL);
  EXPECT_EQ(sys::wait_child(n1), 128 + SIGKILL);
  touch(dir + "/killed");
  EXPECT_EQ(sys::wait_child(n0), 0);
  for (int i = 0; i < 2; ++i) {
    ::unlink((dir + "/node" + std::to_string(i) + ".sock").c_str());
  }
}

}  // namespace
}  // namespace pm2
