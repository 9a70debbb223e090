// Property/stress tests for migration: randomized traces of allocation,
// mutation, verification and hops across many threads and nodes — the
// system-level analogue of the heap trace property test — plus the socket
// fabric's one-copy receive of migration frames under fragmentation and
// with frames larger than its staging buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "fabric/message.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/migration.hpp"
#include "pm2/runtime.hpp"
#include "stress_worker.hpp"
#include "sys/socket.hpp"

namespace pm2 {
namespace {

class MigrationStress
    : public ::testing::TestWithParam<std::tuple<uint32_t, int, uint64_t>> {};

TEST_P(MigrationStress, RandomTraceKeepsDataIntact) {
  auto [nodes, workers, seed] = GetParam();
  g_ok = true;
  g_hops = 0;
  AppConfig cfg;
  cfg.nodes = nodes;
  // Multi-worker schedulers on every node: migration churn exercises the
  // cross-worker freeze/forget/adopt paths, not just the protocol.
  cfg.rt.workers = 4;
  run_app(cfg, [&, workers = workers, seed = seed](Runtime& rt) {
    if (rt.self() == 0) {
      for (int w = 0; w < workers; ++w) {
        pm2_thread_create(
            &stress_worker,
            reinterpret_cast<void*>(static_cast<uintptr_t>(seed + w * 1299721)),
            "stress");
      }
      pm2_wait_signals(static_cast<uint64_t>(workers));
    }
    rt.barrier();
  });
  EXPECT_TRUE(g_ok.load());
  if (nodes > 1) {
    EXPECT_GT(g_hops.load(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, MigrationStress,
    ::testing::Values(std::make_tuple(1u, 4, 11ull),
                      std::make_tuple(2u, 4, 22ull),
                      std::make_tuple(2u, 8, 33ull),
                      std::make_tuple(3u, 6, 44ull),
                      std::make_tuple(4u, 8, 55ull),
                      std::make_tuple(4u, 8, 56ull)));

// The receive side over the socket fabric with every socket write forced
// down to one byte, so each migration frame arrives in fragments that
// split the header, the table and the body at every offset.  Every
// block's fill pattern must survive every hop, and no payload byte may be
// copied twice on receive.  The write budget outlasts all the hops: the
// in-process nodes share one address space, and ASan checks a send's
// bytes only after sendmsg returns — by then a whole frame could already
// be running on the other node, its stack frames re-poisoned.  One-byte
// sends keep each check to a byte that cannot be part of a running stack
// (the body ends with the heap runs).
constexpr int kFragBlocks = 6;
constexpr int kFragHops = 16;

void fragmented_hop_worker(void*) {
  uint8_t* blocks[kFragBlocks];
  for (int b = 0; b < kFragBlocks; ++b) {
    blocks[b] = static_cast<uint8_t*>(pm2_isomalloc(1000 + 500 * b));
    std::memset(blocks[b], b + 1, 1000 + 500 * b);
  }
  for (int hop = 1; hop <= kFragHops; ++hop) {
    pm2_migrate(marcel_self(), (pm2_self() + 1) % pm2_nodes());
    ++g_hops;
    for (int b = 0; b < kFragBlocks; ++b) {
      const size_t len = 1000 + 500 * b;
      const auto fill = static_cast<uint8_t>(b + 1 + hop);
      for (size_t k = 0; k < len; ++k)
        ST_EXPECT(blocks[b][k] == static_cast<uint8_t>(fill - 1));
      std::memset(blocks[b], fill, len);
    }
  }
  for (uint8_t* p : blocks) pm2_isofree(p);
  pm2_signal(0);
}

TEST(MigrationPlacement, OneByteWritesKeepEveryBlockIntact) {
  constexpr uint64_t kBudgetPerNode = 250'000;  // each node arms its own
  g_ok = true;
  g_hops = 0;
  static std::atomic<uint64_t> recv_copies{0}, payload{0};
  recv_copies = 0;
  payload = 0;
  const uint64_t fired_before = sys::fault_short_writes_fired();
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.socket_fabric = true;
  cfg.rt.fault_plan = "shortw=" + std::to_string(kBudgetPerNode) + ",seed=1";
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&fragmented_hop_worker, nullptr, "frag");
      pm2_wait_signals(1);
    }
    rt.barrier();
    recv_copies += rt.fabric().recv_copy_bytes();
    payload += rt.fabric().bytes_sent() -
               rt.fabric().messages_sent() * sizeof(fabric::WireHeader);
  });
  const uint64_t fired = sys::fault_short_writes_fired() - fired_before;
  EXPECT_TRUE(g_ok.load());
  EXPECT_EQ(g_hops.load(), static_cast<uint64_t>(kFragHops));
  // Every byte of the session went out alone, and the budget never ran dry.
  EXPECT_GT(fired, uint64_t{kFragHops} * 8000);
  EXPECT_LT(fired, 2 * kBudgetPerNode);
  EXPECT_LE(recv_copies.load(), payload.load());
}

// The pack side of the zero-copy contract: a migration chain stages only
// the per-run metadata and *borrows* every extent straight from iso-address
// slot memory.
std::atomic<bool> g_pack_stop{false};

void pack_probe_worker(void* arg) {
  auto* heap_bytes = static_cast<uint8_t*>(pm2_isomalloc(200 * 1024));
  std::memset(heap_bytes, 0x7E, 200 * 1024);
  *static_cast<void**>(arg) = heap_bytes;
  while (!g_pack_stop.load()) pm2_yield();
  pm2_isofree(heap_bytes);
  pm2_signal(0);
}

TEST(MigrationZeroCopy, PackChainBorrowsSlotMemory) {
  g_pack_stop = false;
  static void* probe_data = nullptr;
  probe_data = nullptr;
  AppConfig cfg;
  cfg.nodes = 1;
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId id =
        pm2_thread_create(&pack_probe_worker, &probe_data, "probe");
    while (probe_data == nullptr) pm2_yield();

    marcel::Thread* t = rt.sched().find(id);
    ASSERT_NE(t, nullptr);
    // Pause-gated: at workers > 1 the probe may be running on another
    // worker, where an ungated freeze fails.
    ASSERT_TRUE(rt.freeze_thread(id));

    for (bool blocks_only : {true, false}) {
      mad::BufferChain chain = pack_thread_chain(rt, t, blocks_only);
      EXPECT_EQ(chain.size(), migration_payload_size(rt, t, blocks_only));
      // The 200 KB of thread heap (plus stack/slot images) is carried by
      // borrowed segments pointing into the slots; staged copies are only
      // the run/extent metadata.
      EXPECT_GE(chain.borrowed_bytes(), 200u * 1024);
      EXPECT_LT(chain.copied_bytes(), 4096u);
      // Byte-identical to the legacy flat pack.
      EXPECT_EQ(chain.take_flat(), pack_thread(rt, t, blocks_only));
    }

    rt.sched().unfreeze(t);
    g_pack_stop = true;
    pm2_wait_signals(1);
    rt.join(id);
  });
}

// Slot conservation across a whole stressed session: after everything
// drains, every slot is owned by exactly one node again.
TEST(MigrationStressInvariant, SlotConservationAfterChurn) {
  g_ok = true;
  static std::atomic<uint64_t> owned_total{0};
  owned_total = 0;
  AppConfig cfg;
  cfg.nodes = 3;
  cfg.rt.workers = 4;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      for (int w = 0; w < 6; ++w) {
        pm2_thread_create(
            &stress_worker,
            reinterpret_cast<void*>(static_cast<uintptr_t>(777 + w)),
            "stress");
      }
      pm2_wait_signals(6);
    }
    rt.barrier();
    // All worker threads are gone; only main (1 stack slot per node) and
    // the daemon (1 stack slot) still hold slots.
    owned_total += rt.slots().bitmap().count();
  });
  EXPECT_TRUE(g_ok.load());
  // 3 nodes x (main + daemon) = 6 thread-held slots; everything else owned.
  AppConfig ref;
  iso::Area probe_area_unused(ref.area);  // same geometry as the session
  EXPECT_EQ(owned_total.load(), probe_area_unused.n_slots() - 6);
}

}  // namespace
}  // namespace pm2
