// RPC depth and volume: chained calls across nodes, large payloads, many
// concurrent service threads, services that spawn threads and migrate.
//
// The suite also runs in the chaos CI leg (active PM2_FAULT_PLAN), where
// requests and replies can be dropped and the configured PM2_RPC_TIMEOUT_MS
// turns each loss into a clean kTimeout.  Idempotent request/response tests
// retry on timeout; fire-and-forget tests skip (one-way rpc() has no
// retransmit, so a dropped request is silently lost by design).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "fabric/fault_fabric.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_fanout_done{0};

// The chaos leg arms its plan through the environment, which the runtime
// reads only inside run_app; the skips below must decide before that.
bool chaos_mode() {
  const char* plan = std::getenv("PM2_FAULT_PLAN");
  return plan != nullptr && fabric::FaultPlan::parse(plan).active();
}

// Retry a typed call until it succeeds; anything but a timeout is a real
// failure.  Safe only for idempotent services — a retry can re-execute the
// handler when the request arrived but the reply was lost.
template <typename R, typename... Args>
R call_retry(Runtime& rt, uint32_t node, const char* service_name,
             const Args&... args) {
  for (int attempt = 0;; ++attempt) {
    auto fut = rt.call_async<R>(node, service_name, args...);
    fut.wait();
    if (!fut.failed()) return fut.take();
    PM2_CHECK(fut.code() == RpcErrorCode::kTimeout) << fut.error();
    PM2_CHECK(attempt < 100) << "call kept timing out: " << fut.error();
  }
}

// Chain: node k forwards (value+1) to node k+1; the last node replies back
// down the chain.  Exercises call<R>() reentrancy: a service thread itself
// blocks in a nested typed call.
uint64_t chain_service(RpcContext&, uint64_t value, uint32_t ttl) {
  if (ttl == 0) return value;
  Runtime& rt = *Runtime::current();
  return call_retry<uint64_t>(rt, (rt.self() + 1) % rt.n_nodes(), "chain",
                              value + 1, ttl - 1);
}

TEST(RpcStress, TwelveHopChainAcrossFourNodes) {
  std::atomic<uint64_t> result{0};
  AppConfig cfg;
  cfg.rt.workers = 4;  // whole file runs multi-worker: SMP dispatch under load
  cfg.nodes = 4;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          // 12 forwarding hops
          result =
              call_retry<uint64_t>(rt, 1, "chain", uint64_t{100}, uint32_t{12});
        }
      },
      [&](Runtime& rt) { rt.service("chain", &chain_service); });
  EXPECT_EQ(result.load(), 112u);
}

void big_echo_service(RpcContext& ctx) {
  size_t len = 0;
  const uint8_t* data = ctx.args().unpack_region_view(&len);
  // Verify the pattern, then echo it back.
  for (size_t i = 0; i < len; i += 997)
    PM2_CHECK(data[i] == static_cast<uint8_t>(i * 31));
  mad::PackBuffer reply;
  reply.pack_region(data, len);
  ctx.reply(std::move(reply));
}

TEST(RpcStress, MegabytePayloadRoundTrip) {
  std::atomic<bool> ok{false};
  AppConfig cfg;
  cfg.rt.workers = 4;  // whole file runs multi-worker: SMP dispatch under load
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          std::vector<uint8_t> blob(2 * 1024 * 1024);
          for (size_t i = 0; i < blob.size(); ++i)
            blob[i] = static_cast<uint8_t>(i * 31);
          // The raw call moves its args, so each retry rebuilds them.
          for (int attempt = 0; !ok.load(); ++attempt) {
            mad::PackBuffer args;
            args.pack_region(blob.data(), blob.size());
            try {
              auto resp = rt.call(1, "big-echo", std::move(args));
              mad::UnpackBuffer r(resp);
              size_t len = 0;
              const uint8_t* back = r.unpack_region_view(&len);
              ok = len == blob.size() &&
                   std::memcmp(back, blob.data(), len) == 0;
            } catch (const RpcError& e) {
              PM2_CHECK(e.code() == RpcErrorCode::kTimeout) << e.what();
              PM2_CHECK(attempt < 100) << "call kept timing out: " << e.what();
            }
          }
        }
      },
      [&](Runtime& rt) {
        // Raw registration: region views need manual args()/reply()
        // control (the typed layer would copy the payload into a vector).
        rt.service_raw("big-echo", &big_echo_service);
      });
  EXPECT_TRUE(ok.load());
}

void fanout_service(RpcContext& ctx, uint32_t token) {
  (void)token;
  ++g_fanout_done;
  pm2_signal(ctx.source_node());
}

TEST(RpcStress, HundredConcurrentServiceThreads) {
  if (chaos_mode())
    GTEST_SKIP() << "one-way rpc() has no retransmit; a dropped request is "
                    "lost by design";
  g_fanout_done = 0;
  AppConfig cfg;
  cfg.rt.workers = 4;  // whole file runs multi-worker: SMP dispatch under load
  cfg.nodes = 3;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          for (uint32_t i = 0; i < 100; ++i) rt.rpc(1 + i % 2, "fanout", i);
          rt.wait_signals(100);
        }
      },
      [&](Runtime& rt) { rt.service("fanout", &fanout_service); });
  EXPECT_EQ(g_fanout_done.load(), 100);
}

// A service that migrates mid-execution: the paper's LRPC + migration
// composition.  The typed layer unpacks the (node-local) args into
// parameters before the handler runs, so they are safe across the move.
void migrating_service(RpcContext&, uint32_t target) {
  auto* stamp = static_cast<uint32_t*>(pm2_isomalloc(sizeof(uint32_t)));
  *stamp = pm2_self();
  pm2_migrate(marcel_self(), target);
  PM2_CHECK(pm2_self() == target);
  PM2_CHECK(*stamp != target) << "service did not actually move";
  pm2_isofree(stamp);
  pm2_signal(0);
}

TEST(RpcStress, ServiceThreadItselfMigrates) {
  if (chaos_mode())
    GTEST_SKIP() << "one-way rpc() has no retransmit; a dropped request is "
                    "lost by design";
  AppConfig cfg;
  cfg.rt.workers = 4;  // whole file runs multi-worker: SMP dispatch under load
  cfg.nodes = 3;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          // service starts on 1, must end on 2
          rt.rpc(1, "migrating", uint32_t{2});
          rt.wait_signals(1);
        }
      },
      [&](Runtime& rt) { rt.service("migrating", &migrating_service); });
}

TEST(RpcStress, BarrierStormManyRounds) {
  std::atomic<int> rounds_done{0};
  AppConfig cfg;
  cfg.rt.workers = 4;  // whole file runs multi-worker: SMP dispatch under load
  cfg.nodes = 4;
  run_app(cfg, [&](Runtime& rt) {
    for (int round = 0; round < 50; ++round) rt.barrier();
    ++rounds_done;
  });
  EXPECT_EQ(rounds_done.load(), 4);
}

}  // namespace
}  // namespace pm2
