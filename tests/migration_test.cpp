// Iso-address thread migration integration tests.
//
// These are the paper's figures as executable assertions: stack locals and
// pointers survive migration unchanged (Figs. 1–3), pm2_isomalloc'd heap
// data migrates with the thread at identical addresses (Figs. 4, 7–9), and
// migration is preemptive (§2).
#include "pm2/migration.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "isomalloc/heap.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {
namespace {

std::atomic<bool> g_ok{true};
std::atomic<int> g_value{0};

#define MIG_EXPECT(cond)                                      \
  do {                                                        \
    if (!(cond)) {                                            \
      g_ok = false;                                           \
      pm2_printf("MIG_EXPECT failed: %s (line %d)\n", #cond,  \
                 __LINE__);                                   \
    }                                                         \
  } while (0)

AppConfig mig_config(uint32_t nodes) {
  AppConfig cfg;
  cfg.nodes = nodes;
  return cfg;
}

// --- Fig. 1/2: stack variable reached through a pointer ---------------------

void stack_pointer_worker(void*) {
  int x = 1;
  int* ptr = &x;  // pointer into the thread's own stack
  MIG_EXPECT(*ptr == 1);
  MIG_EXPECT(pm2_self() == 0);
  pm2_migrate(marcel_self(), 1);
  // Same virtual address, same contents — no registration, no fix-up.
  MIG_EXPECT(pm2_self() == 1);
  MIG_EXPECT(*ptr == 1);
  MIG_EXPECT(ptr == &x);
  *ptr = 2;
  MIG_EXPECT(x == 2);
  pm2_signal(0);
}

TEST(Migration, StackPointersSurvive) {
  g_ok = true;
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&stack_pointer_worker, nullptr, "fig2");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

// --- Fig. 7/8: linked list in iso-memory, migration mid-traversal -----------

struct Item {
  int value;
  Item* next;
};

void list_worker(void*) {
  constexpr int kElements = 1000;
  // Create the list on node 0 (paper Fig. 7).
  Item* head = nullptr;
  for (int j = 0; j < kElements; ++j) {
    auto* item = static_cast<Item*>(pm2_isomalloc(sizeof(Item)));
    item->value = j * 2 + 1;
    item->next = head;
    head = item;
  }
  // Traverse; migrate at element 100 and keep going (Fig. 8).
  int j = 0;
  long sum = 0;
  Item* ptr = head;
  while (ptr != nullptr) {
    if (j == 100) {
      MIG_EXPECT(pm2_self() == 0);
      pm2_migrate(marcel_self(), 1);
      MIG_EXPECT(pm2_self() == 1);
    }
    sum += ptr->value;
    ptr = ptr->next;
    ++j;
  }
  MIG_EXPECT(j == kElements);
  // sum of first kElements odd numbers = kElements^2
  MIG_EXPECT(sum == static_cast<long>(kElements) * kElements);
  // Free everything on the destination node — the slots are handed to the
  // node the thread is visiting (paper Fig. 6 step 4).
  while (head != nullptr) {
    Item* next = head->next;
    pm2_isofree(head);
    head = next;
  }
  pm2_signal(0);
}

TEST(Migration, LinkedListTraversalAcrossNodes) {
  g_ok = true;
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&list_worker, nullptr, "fig7");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

// --- Ping-pong: repeated migration stability -------------------------------

void pingpong_worker(void* arg) {
  auto rounds = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  int counter = 0;
  int* p = &counter;
  for (int i = 0; i < rounds; ++i) {
    pm2_migrate(marcel_self(), 1 - pm2_self());
    ++*p;  // through the stack pointer, every round
  }
  MIG_EXPECT(counter == rounds);
  MIG_EXPECT(pm2_self() == static_cast<uint32_t>(rounds % 2));
  pm2_signal(0);
}

TEST(Migration, PingPongTwentyRounds) {
  g_ok = true;
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&pingpong_worker,
                        reinterpret_cast<void*>(intptr_t{20}), "pingpong");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

// --- Preemptive migration (§2): the thread is unaware ------------------------

void oblivious_worker(void*) {
  // Compute-and-yield loop; never asks to migrate.
  while (pm2_self() == 0) pm2_yield();
  // Someone moved us.
  MIG_EXPECT(pm2_self() == 1);
  pm2_signal(0);
}

TEST(Migration, PreemptiveMigrationOfReadyThread) {
  g_ok = true;
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      auto id = pm2_thread_create(&oblivious_worker, nullptr, "oblivious");
      // Let it start, then migrate it out from under its feet.  Freeze
      // pause-gated first: at workers > 1 an ungated migrate fails whenever
      // the thread runs on another worker, which under load can be every
      // try.
      pm2_yield();
      bool moved = false;
      for (int tries = 0; tries < 100 && !moved; ++tries) {
        moved = rt.freeze_thread(id) && rt.migrate(id, 1);
        if (!moved) pm2_yield();
      }
      EXPECT_TRUE(moved);
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

TEST(Migration, PinnedThreadRefusesToMigrate) {
  // `stop` must outlive node_main: the pinned worker may observe it after
  // node_main's frame is gone.
  std::atomic<bool> stop{false};
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      auto id = rt.spawn_local([&] {
        while (!stop) pm2_yield();
      });
      pm2_yield();
      EXPECT_FALSE(rt.migrate(id, 1));
      stop = true;
      rt.join(id);
    }
  });
}

// --- Heap-heavy migration (multi-slot runs, freed holes) ---------------------

void heavy_heap_worker(void* arg) {
  bool blocks_only = arg != nullptr;
  (void)blocks_only;
  // A mix: small blocks, a hole, and a 300 KB multi-slot block.
  auto* a = static_cast<unsigned char*>(pm2_isomalloc(1000));
  auto* b = static_cast<unsigned char*>(pm2_isomalloc(2000));
  auto* c = static_cast<unsigned char*>(pm2_isomalloc(3000));
  auto* big = static_cast<unsigned char*>(pm2_isomalloc(300 * 1024));
  std::memset(a, 0xA1, 1000);
  std::memset(c, 0xC3, 3000);
  std::memset(big, 0xB2, 300 * 1024);
  pm2_isofree(b);  // leave a hole: the free list must migrate too

  pm2_migrate(marcel_self(), 1);

  for (int i = 0; i < 1000; ++i) MIG_EXPECT(a[i] == 0xA1);
  for (int i = 0; i < 3000; ++i) MIG_EXPECT(c[i] == 0xC3);
  for (int i = 0; i < 300 * 1024; i += 4096) MIG_EXPECT(big[i] == 0xB2);

  // The heap must still be a valid heap and the freed hole must have
  // migrated with its free-list entry intact: allocating straight from the
  // slot that held b reuses b's bytes.
  marcel::Thread* self = marcel_self();
  size_t slot_size = Runtime::current()->area().slot_size();
  iso::ThreadHeap::check_invariants(self->slot_list, slot_size);
  iso::SlotHeader* ab_slot = iso::BlockHeader::of_payload(a)->slot;
  MIG_EXPECT(iso::slot_largest_free(ab_slot) >= 1900);
  auto* b2 = static_cast<unsigned char*>(iso::block_alloc(
      ab_slot, 1900, slot_size, iso::FitPolicy::kFirstFit));
  MIG_EXPECT(b2 == b);  // first-fit in that slot lands in the migrated hole
  pm2_isofree(a);
  pm2_isofree(b2);
  pm2_isofree(c);
  pm2_isofree(big);
  pm2_signal(0);
}

class MigrationPayloadMode : public ::testing::TestWithParam<bool> {};

TEST_P(MigrationPayloadMode, HeapMigratesIntact) {
  g_ok = true;
  AppConfig cfg = mig_config(2);
  cfg.rt.migrate_blocks_only = GetParam();
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&heavy_heap_worker, nullptr, "heavy");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

INSTANTIATE_TEST_SUITE_P(BothModes, MigrationPayloadMode,
                         ::testing::Values(true, false));

// --- Tour: visit every node in order ----------------------------------------

void tour_worker(void*) {
  auto* log = static_cast<uint32_t*>(pm2_isomalloc(16 * sizeof(uint32_t)));
  uint32_t n = pm2_nodes();
  for (uint32_t hop = 0; hop < n; ++hop) {
    log[hop] = pm2_self();
    pm2_migrate(marcel_self(), (pm2_self() + 1) % n);
  }
  MIG_EXPECT(pm2_self() == 0);  // full circle
  for (uint32_t hop = 0; hop < n; ++hop) MIG_EXPECT(log[hop] == hop);
  pm2_isofree(log);
  pm2_signal(0);
}

TEST(Migration, TourOfFourNodes) {
  g_ok = true;
  run_app(mig_config(4), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&tour_worker, nullptr, "tour");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

// --- Accounting --------------------------------------------------------------

void one_hop_worker(void*) {
  pm2_migrate(marcel_self(), 1);
  pm2_signal(0);
}

TEST(Migration, CountersTrackInAndOut) {
  std::atomic<uint64_t> out0{0}, in1{0};
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&one_hop_worker, nullptr, "hop");
      pm2_wait_signals(1);
    }
    rt.barrier();
    if (rt.self() == 0) out0 = rt.migrations_out();
    if (rt.self() == 1) in1 = rt.migrations_in();
  });
  EXPECT_EQ(out0.load(), 1u);
  EXPECT_EQ(in1.load(), 1u);
}

TEST(Migration, MigrateToSelfIsNoop) {
  g_value = 0;
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      int x = 7;
      rt.migrate_self(0);  // no-op
      EXPECT_EQ(x, 7);
      EXPECT_EQ(rt.migrations_out(), 0u);
      ++g_value;
    }
  });
  EXPECT_EQ(g_value.load(), 1);
}

// --- Pack/install unit-level checks ------------------------------------------

std::atomic<bool> g_sleeper_ready{false};

void sleeper_worker(void*) {
  // Allocate, then yield forever until moved; used to inspect payloads.
  void* p = pm2_isomalloc(10000);
  std::memset(p, 0x55, 10000);
  g_sleeper_ready = true;
  while (pm2_self() == 0) pm2_yield();
  pm2_isofree(p);
  pm2_signal(0);
}

TEST(Migration, BlocksOnlyPayloadIsSmaller) {
  std::atomic<size_t> full{0}, sparse{0};
  run_app(mig_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      g_sleeper_ready = false;
      auto id = pm2_thread_create(&sleeper_worker, nullptr, "sleeper");
      // Let it allocate and park in its yield loop (it may run on another
      // worker, so wait for it rather than counting yields).
      while (!g_sleeper_ready) pm2_yield();
      marcel::Thread* t = rt.sched().find(id);
      ASSERT_NE(t, nullptr);
      // Pause-gated: an ungated freeze fails while the sleeper runs on
      // another worker.
      ASSERT_TRUE(rt.freeze_thread(id));
      full = migration_payload_size(rt, t, /*blocks_only=*/false);
      sparse = migration_payload_size(rt, t, /*blocks_only=*/true);
      // migrate() ships a caller-frozen thread as is.
      ASSERT_TRUE(rt.migrate(id, 1));
      pm2_wait_signals(1);
    }
  });
  // Whole-slot payload: stack slot (64K) + heap slot (64K).  Sparse: live
  // stack + headers + one 10 KB block.
  EXPECT_GT(full.load(), 120u * 1024);
  EXPECT_LT(sparse.load(), 40u * 1024);
  EXPECT_GT(sparse.load(), 10u * 1024);
}

}  // namespace
}  // namespace pm2
