// v2 asynchronous RPC & migration API: pipelined call_async futures, typed
// name-keyed services, unknown-service and hash-collision error paths,
// migrate_async ack ordering, and the shutdown drain of pending calls.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/protocol.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

// ---------------------------------------------------------------------------
// Pipelining: many outstanding futures from one thread, on both fabrics
// ---------------------------------------------------------------------------

void register_add1(Runtime& rt) {
  rt.service("add1", [](RpcContext&, uint64_t v) -> uint64_t { return v + 1; });
}

void sixty_four_outstanding(bool socket_fabric) {
  std::atomic<int> correct{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.socket_fabric = socket_fabric;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        constexpr uint64_t kOutstanding = 64;
        std::vector<RpcFuture<uint64_t>> futs;
        futs.reserve(kOutstanding);
        for (uint64_t i = 0; i < kOutstanding; ++i)
          futs.push_back(rt.call_async<uint64_t>(1, "add1", i));
        wait_all(futs);
        // Consume out of issue order: completion is per-correlation, not
        // positional.
        for (size_t i = futs.size(); i-- > 0;)
          if (futs[i].take() == i + 1) ++correct;
      },
      &register_add1);
  EXPECT_EQ(correct.load(), 64);
}

TEST(RpcAsync, SixtyFourOutstandingInproc) { sixty_four_outstanding(false); }
TEST(RpcAsync, SixtyFourOutstandingSocketFabric) {
  sixty_four_outstanding(true);
}

// ---------------------------------------------------------------------------
// Interleaved replies: futures complete in service-finish order
// ---------------------------------------------------------------------------

TEST(RpcAsync, InterleavedRepliesOutOfOrder) {
  std::atomic<bool> fast_first{false};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        std::vector<RpcFuture<uint64_t>> futs;
        // 100ms margin: at workers > 1 on an oversubscribed box the fast
        // reply contends with real kernel threads, and a 20ms margin
        // occasionally loses to scheduler delay alone.
        futs.push_back(rt.call_async<uint64_t>(1, "delayed",
                                               uint64_t{100000}, uint64_t{1}));
        futs.push_back(
            rt.call_async<uint64_t>(1, "delayed", uint64_t{0}, uint64_t{2}));
        size_t first = wait_any(futs);
        fast_first = first == 1 && futs[1].take() == 2;
        EXPECT_EQ(futs[0].take(), 1u);  // the slow one still lands
      },
      [](Runtime& rt) {
        rt.service("delayed",
                   [](RpcContext&, uint64_t us, uint64_t token) -> uint64_t {
                     if (us > 0) pm2_sleep_us(us);
                     return token;
                   });
      });
  EXPECT_TRUE(fast_first.load());
}

// ---------------------------------------------------------------------------
// Typed round trips: mixed scalar / string / vector arguments
// ---------------------------------------------------------------------------

std::atomic<int> g_touched{0};

TEST(RpcAsync, TypedMixedArgsRoundTrip) {
  std::atomic<bool> ok_string{false};
  std::atomic<bool> ok_vector{false};
  g_touched = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        // A void service auto-acks: call<void> returns only after it ran.
        rt.call<void>(1, "touch", int32_t{5});
        EXPECT_EQ(g_touched.load(), 5);
        std::string s = rt.call<std::string>(
            1, "describe", int32_t{-7}, std::string("abc"),
            std::vector<double>{1.5, 2.5}, uint8_t{9});
        ok_string = s == "a=-7 s=abc n=2 sum=4.0 b=9";
        // Empty vector and empty string are legal wire values.
        auto scaled = rt.call<std::vector<int64_t>>(
            1, "scale", std::vector<int64_t>{3, -4, 5}, int64_t{10});
        auto empty = rt.call<std::vector<int64_t>>(
            1, "scale", std::vector<int64_t>{}, int64_t{2});
        std::string echoed =
            rt.call<std::string>(1, "describe", int32_t{0}, std::string(),
                                 std::vector<double>{}, uint8_t{0});
        ok_vector = scaled == std::vector<int64_t>{30, -40, 50} &&
                    empty.empty() && echoed == "a=0 s= n=0 sum=0.0 b=0";
      },
      [](Runtime& rt) {
        rt.service("touch", [](RpcContext&, int32_t v) { g_touched = v; });
        rt.service("describe",
                   [](RpcContext&, int32_t a, std::string s,
                      std::vector<double> v, uint8_t b) -> std::string {
                     double sum = 0;
                     for (double d : v) sum += d;
                     char buf[128];
                     std::snprintf(buf, sizeof(buf),
                                   "a=%d s=%s n=%zu sum=%.1f b=%u", a,
                                   s.c_str(), v.size(), sum, b);
                     return std::string(buf);
                   });
        rt.service("scale",
                   [](RpcContext&, std::vector<int64_t> v,
                      int64_t k) -> std::vector<int64_t> {
                     for (int64_t& x : v) x *= k;
                     return v;
                   });
      });
  EXPECT_TRUE(ok_string.load());
  EXPECT_TRUE(ok_vector.load());
}

// ---------------------------------------------------------------------------
// Allocation-free typed path: payload chunks are recycled by their consumer
// ---------------------------------------------------------------------------

// Each typed request and reply is one chunk, taken from the packer's cache
// and recycled into the consumer's, so after a warm-up the round trips of
// the echo/put/get shapes take every chunk from a cache.  One worker per
// node keeps the flow between exactly two per-kernel-thread caches.
TEST(RpcAsync, WarmTypedRoundTripsMissNoChunk) {
  uint64_t misses = 0;
  std::atomic<bool> replies_ok{true};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.workers = 1;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        const std::vector<uint8_t> small(64, 0x21), medium(4096, 0x43);
        auto round_trips = [&](int n) {
          for (int i = 0; i < n; ++i) {
            const uint32_t rid = static_cast<uint32_t>(i);
            bool ok = false;
            if (i % 3 == 0) {
              ok = rt.call<uint64_t>(1, "echo", rid, small) == small.size();
            } else if (i % 3 == 1) {
              ok = rt.call<uint64_t>(1, "put", rid, medium) == medium.size();
            } else {
              ok = rt.call<std::vector<uint8_t>>(1, "get", rid, rid).size() ==
                   16384;
            }
            if (!ok) replies_ok = false;
          }
        };
        round_trips(60);
        const uint64_t before = mad::chunk_pool_misses();
        round_trips(1000);
        misses = mad::chunk_pool_misses() - before;
      },
      [](Runtime& rt) {
        auto size_of = [](RpcContext&, uint32_t,
                          std::vector<uint8_t> p) -> uint64_t {
          return p.size();
        };
        rt.service("echo", size_of);
        rt.service("put", size_of);
        rt.service("get", [](RpcContext&, uint32_t, uint32_t key) {
          return std::vector<uint8_t>(16384, static_cast<uint8_t>(key));
        });
      });
  EXPECT_TRUE(replies_ok.load());
  EXPECT_EQ(misses, 0u);
}

// ---------------------------------------------------------------------------
// Error paths: unknown service (remote and local), hash collision
// ---------------------------------------------------------------------------

TEST(RpcAsync, UnknownServiceFailsTheFuture) {
  std::atomic<bool> remote_failed{false};
  std::atomic<bool> local_failed{false};
  std::atomic<bool> typed_threw{false};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() != 0) return;
    auto fut = rt.call_async(1, "no-such-service", mad::PackBuffer());
    fut.wait();
    remote_failed =
        fut.failed() && fut.error().find("unknown service") != std::string::npos;
    auto self_fut = rt.call_async(0, "also-missing", mad::PackBuffer());
    self_fut.wait();
    local_failed = self_fut.failed();
    try {
      rt.call<uint64_t>(1, "no-such-service");
    } catch (const RpcError&) {
      typed_threw = true;
    }
  });
  EXPECT_TRUE(remote_failed.load());
  EXPECT_TRUE(local_failed.load());
  EXPECT_TRUE(typed_threw.load());
}

// A service whose handler throws (here: a nested blocking call to an
// unknown downstream service) must fail its caller's future — not hang the
// caller, not terminate the node.
TEST(RpcAsync, ServiceFailurePropagatesToCaller) {
  std::atomic<bool> propagated{false};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        auto fut = rt.call_async<uint64_t>(1, "relay");
        fut.wait();
        propagated = fut.failed() &&
                     fut.error().find("service failed") != std::string::npos;
      },
      [](Runtime& rt) {
        rt.service("relay", [](RpcContext&) -> uint64_t {
          return current_runtime().call<uint64_t>(0, "missing-downstream");
        });
      });
  EXPECT_TRUE(propagated.load());
}

TEST(RpcAsyncDeath, ServiceNameHashCollisionChecks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // "dhgbbe" and "hcagfa" FNV-1a-collide on 0x1cc08a29.
  ASSERT_EQ(service_id("dhgbbe"), service_id("hcagfa"));
  EXPECT_DEATH(
      {
        AppConfig cfg;
        cfg.nodes = 1;
        run_app(
            cfg, [](Runtime&) {},
            [](Runtime& rt) {
              rt.service("dhgbbe", [](RpcContext&) {});
              rt.service("hcagfa", [](RpcContext&) {});
            });
      },
      "collision");
}

TEST(RpcAsyncDeath, DoubleReplyChecks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        AppConfig cfg;
        cfg.nodes = 2;
        run_app(
            cfg,
            [](Runtime& rt) {
              if (rt.self() == 0)
                rt.call(1, "twice", mad::PackBuffer());
            },
            [](Runtime& rt) {
              rt.service_raw("twice", [](RpcContext& ctx) {
                mad::PackBuffer a;
                a.pack<uint32_t>(1);
                ctx.reply(std::move(a));
                mad::PackBuffer b;
                b.pack<uint32_t>(2);
                ctx.reply(std::move(b));
              });
            });
      },
      "double reply");
}

// ---------------------------------------------------------------------------
// migrate_async: ack ordering vs migrations_in(), and failure modes
// ---------------------------------------------------------------------------

std::atomic<bool> g_stop_worker{false};
std::atomic<uint64_t> g_worker_final_node{99};

void yielding_worker(void*) {
  while (!g_stop_worker.load()) pm2_yield();
  g_worker_final_node = pm2_self();
  pm2_signal(pm2_self());
}

TEST(RpcAsync, MigrateAsyncAcksAfterInstall) {
  g_stop_worker = false;
  g_worker_final_node = 99;
  std::atomic<bool> ack_ok{false};
  std::atomic<uint64_t> dest_migrations_at_ack{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      marcel::ThreadId id = rt.spawn(&yielding_worker, nullptr, "roamer");
      // Pause-gated freeze first: at workers > 1 the roamer may be running
      // on another worker, where migrate_async's own freeze fails.
      rt.freeze_thread(id);
      auto fut = rt.migrate_async(id, 1);
      MigrateResult res = fut.take();
      ack_ok = res.thread == id && res.dest == 1;
      EXPECT_EQ(rt.migrations_out(), 1u);
      g_stop_worker = true;  // worker now yields on node 1; let it finish
    } else {
      rt.wait_signals(1);  // worker exited here
      dest_migrations_at_ack = rt.migrations_in();
    }
  });
  EXPECT_TRUE(ack_ok.load());
  // The ack (and thus the future) completed only after the destination
  // counted the arrival: by the time the worker ran there, the count shows.
  EXPECT_EQ(dest_migrations_at_ack.load(), 1u);
  EXPECT_EQ(g_worker_final_node.load(), 1u);
}

TEST(RpcAsync, MigrateAsyncFailureModes) {
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() != 0) return;
    // Unknown thread: fails, never hangs.
    auto missing = rt.migrate_async(0xdeadbeef, 1);
    missing.wait();
    EXPECT_TRUE(missing.failed());
    // Pinned thread (spawn_local refuses to migrate): fails.
    std::atomic<bool> done{false};
    marcel::ThreadId pinned = rt.spawn_local([&] { done = true; }, "pinned");
    auto fut = rt.migrate_async(pinned, 1);
    fut.wait();
    EXPECT_TRUE(fut.failed());
    // Same-node migration completes immediately.
    auto self_dest = rt.migrate_async(pinned, 0);
    EXPECT_TRUE(self_dest.ready());
    EXPECT_EQ(self_dest.take().dest, 0u);
    rt.join(pinned);
    EXPECT_TRUE(done.load());
  });
}

// ---------------------------------------------------------------------------
// on_migration hooks fire on source (pre) and destination (post)
// ---------------------------------------------------------------------------

TEST(RpcAsync, MigrationHooksFire) {
  g_stop_worker = false;
  std::atomic<int> pre_on_node0{0};
  std::atomic<int> post_on_node1{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          marcel::ThreadId id = rt.spawn(&yielding_worker, nullptr, "hooked");
          // Pause-gated freeze first, as in MigrateAsyncAcksAfterInstall.
          rt.freeze_thread(id);
          rt.migrate_async(id, 1).take();
          g_stop_worker = true;
        } else {
          rt.wait_signals(1);
        }
      },
      [&](Runtime& rt) {
        // In setup: the migration may reach the destination before its
        // main thread ever runs.
        if (rt.self() == 0)
          rt.on_migration([&](marcel::Thread*) { ++pre_on_node0; }, nullptr);
        else
          rt.on_migration(nullptr, [&](marcel::Thread*) { ++post_on_node1; });
      });
  EXPECT_EQ(pre_on_node0.load(), 1);
  EXPECT_EQ(post_on_node1.load(), 1);
}

// ---------------------------------------------------------------------------
// halt() drains pending calls: blocked callers wake with an error
// ---------------------------------------------------------------------------

TEST(RpcAsync, ShutdownDrainsPendingCalls) {
  std::atomic<bool> sync_drained{false};
  std::atomic<bool> async_drained{false};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        // Two victims, parked before main returns: one in the blocking
        // call (throws), one on a bare future (fails).  "blackhole"
        // exits without replying, so only the halt drain can wake them.
        rt.spawn_local([&] {
          try {
            rt.call<uint64_t>(1, "blackhole");
          } catch (const RpcError&) {
            sync_drained = true;
          }
        });
        rt.spawn_local([&] {
          auto fut = rt.call_async(1, "blackhole", mad::PackBuffer());
          fut.wait();
          async_drained = fut.failed() &&
                          fut.error().find("shutdown") != std::string::npos;
        });
        for (int i = 0; i < 50; ++i) pm2_yield();  // let both park
      },
      [](Runtime& rt) {
        // Untyped registration: manual reply control — and this service
        // never replies (a typed void service would auto-ack).
        rt.service_raw("blackhole", [](RpcContext&) {});
      });
  EXPECT_TRUE(sync_drained.load());
  EXPECT_TRUE(async_drained.load());
}

}  // namespace
}  // namespace pm2
