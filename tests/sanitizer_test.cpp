// Sanitizer-clean migration coverage.
//
// Everything here ran *unsanitized* until the fiber-annotation work: the CI
// sanitizers job excluded every migration-heavy test because a byte-copied
// stack left its ASan shadow behind.  These tests concentrate the shapes
// that stress the annotation protocol — deep instrumented call chains alive
// across a migration, pooled service stacks recycled under poison, repeated
// checkpoint/restore of the same image — so a regression in the protocol
// fails loudly here, in both sanitized and plain builds.  The death-style
// test additionally pins the poison half of the contract: with ASan on, a
// write into a parked (poisoned) invocation-pool stack must be reported.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fabric/inproc.hpp"
#include "marcel/keys.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"
#include "sys/sanitizer.hpp"

namespace pm2 {
namespace {

std::atomic<bool> g_ok{true};
std::atomic<int> g_sum{0};
std::atomic<int> g_progress{0};
std::atomic<int> g_dtor_runs{0};
std::atomic<bool> g_tsd_dirty{false};

#define SAN_EXPECT(cond)                                                 \
  do {                                                                   \
    if (!(cond)) {                                                       \
      g_ok = false;                                                      \
      pm2_printf("SAN_EXPECT failed: %s (line %d)\n", #cond, __LINE__);  \
    }                                                                    \
  } while (0)

AppConfig nodes_config(uint32_t nodes) {
  AppConfig cfg;
  cfg.nodes = nodes;
  return cfg;
}

// --- Migration under live instrumented frames --------------------------------

// Recursion with an addressable local per frame: every live frame owns a
// redzoned stack array, so a migration at depth 8 ships a stack whose
// shadow was dense with poison on the source — the pack/install unpoison
// protocol must neutralize it on both ends, and the annotated switches
// must resume the copied frames under the destination scheduler.
int deep_sum(int depth, bool roam) {
  volatile int buf[16];
  for (int i = 0; i < 16; ++i) buf[i] = depth + i;
  int acc = buf[15];
  if (depth > 0) acc += deep_sum(depth - 1, roam);
  if (roam && depth == 8) pm2_migrate(marcel_self(), 1 - pm2_self());
  return acc;
}

void deep_pingpong_worker(void* arg) {
  auto rounds = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  const int expect = deep_sum(16, /*roam=*/false);
  for (int i = 0; i < rounds; ++i) {
    SAN_EXPECT(deep_sum(16, /*roam=*/true) == expect);
    SAN_EXPECT(pm2_self() == static_cast<uint32_t>((i + 1) % 2));
  }
  pm2_signal(0);
}

TEST(SanitizerMigration, DeepFramesPingPong) {
  g_ok = true;
  run_app(nodes_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&deep_pingpong_worker,
                        reinterpret_cast<void*>(intptr_t{6}), "deep");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

// Heap blocks and stack pointers crossing together, several round trips:
// the install-side unpoison must cover heap slot runs too (their extents
// land at addresses a previous local tenant may have poisoned).
void heap_roamer_worker(void*) {
  auto* data = static_cast<int*>(pm2_isomalloc(512 * sizeof(int)));
  for (int i = 0; i < 512; ++i) data[i] = 7 * i;
  int local = 41;
  int* p = &local;
  for (int round = 0; round < 4; ++round) {
    pm2_migrate(marcel_self(), 1 - pm2_self());
    ++*p;
    for (int i = 0; i < 512; ++i) SAN_EXPECT(data[i] == 7 * i);
  }
  SAN_EXPECT(local == 45);
  pm2_isofree(data);
  pm2_signal(0);
}

TEST(SanitizerMigration, HeapAndStackRoundTrips) {
  g_ok = true;
  run_app(nodes_config(2), [&](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&heap_roamer_worker, nullptr, "roamer");
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
}

// --- Invocation pool: recycled stacks under the poison protocol --------------

// Each invocation runs the deep recursion on a stack that was parked
// (fully poisoned) between calls: rearm must have scrubbed the shadow or
// the very first frame write reports.
TEST(SanitizerPool, RecycledStackRunsDeepFrames) {
  g_ok = true;
  std::atomic<uint64_t> hits{0};
  AppConfig cfg = nodes_config(1);
  run_app(
      cfg,
      [&](Runtime& rt) {
        int expect = deep_sum(16, /*roam=*/false);
        for (int i = 0; i < 8; ++i)
          ASSERT_EQ(rt.call<int>(0, "deep", 0), expect);
        hits = rt.pool().hits();
      },
      [](Runtime& rt) {
        rt.service("deep", [](RpcContext&, int) -> int {
          return deep_sum(16, /*roam=*/false);
        });
      });
  EXPECT_TRUE(g_ok.load());
  EXPECT_GE(hits.load(), 7u);  // everything after the cold build re-arms
}

// TSD must not bleed between pooled invocations: a destructor-bearing key
// set by one invocation is destroyed at exit (running the destructor) and
// observed pristine by the next invocation on the same recycled thread.
marcel::Key g_tsd_key = marcel::key_create(+[](void* v) {
  ++g_dtor_runs;
  delete static_cast<int*>(v);
});

TEST(SanitizerPool, KeysResetAndDestructorsRunAcrossRearm) {
  g_dtor_runs = 0;
  g_tsd_dirty = false;
  std::atomic<uint64_t> hits{0};
  run_app(
      nodes_config(1),
      [&](Runtime& rt) {
        for (int i = 0; i < 6; ++i) ASSERT_EQ(rt.call<int>(0, "tsd", i), i);
        hits = rt.pool().hits();
      },
      [](Runtime& rt) {
        rt.service("tsd", [](RpcContext&, int v) -> int {
          // A previous invocation's value surviving the re-arm is exactly
          // the cross-call bleed this test pins down.
          if (marcel::getspecific(g_tsd_key) != nullptr) g_tsd_dirty = true;
          marcel::setspecific(g_tsd_key, new int(v));
          return v;
        });
      });
  EXPECT_FALSE(g_tsd_dirty.load()) << "stale TSD observed across invocations";
  EXPECT_EQ(g_dtor_runs.load(), 6) << "key destructor skipped at thread exit";
  EXPECT_GE(hits.load(), 5u);  // the bleed scenario needs actual reuse
}

// --- Checkpoint/restore loops ------------------------------------------------

void ck_worker(void*) {
  auto* data = static_cast<int*>(pm2_isomalloc(256 * sizeof(int)));
  for (int i = 0; i < 256; ++i) data[i] = i * 3;
  int local = 777;
  g_progress = 1;
  while (g_progress.load() < 2) pm2_yield();
  for (int i = 0; i < 256; ++i) SAN_EXPECT(data[i] == i * 3);
  g_sum += local;
  pm2_isofree(data);
  pm2_signal(0);
}

// The same image restored repeatedly: every generation re-claims the slot
// runs, scatters the image over whatever shadow the previous generation
// left, and must resume clean.
TEST(SanitizerCheckpoint, SameImageRestoresRepeatedly) {
  g_ok = true;
  g_sum = 0;
  g_progress = 0;
  run_app(nodes_config(1), [&](Runtime& rt) {
    auto id = pm2_thread_create(&ck_worker, nullptr, "ck");
    while (g_progress.load() < 1) pm2_yield();
    std::vector<uint8_t> image = checkpoint_thread(rt, id);
    g_progress = 2;
    pm2_wait_signals(1);
    for (int gen = 0; gen < 3; ++gen) {
      restore_thread(rt, image);
      pm2_wait_signals(1);
    }
  });
  EXPECT_TRUE(g_ok.load());
  EXPECT_EQ(g_sum.load(), 4 * 777);  // original + three restored clones
}

// --- Park poison is live -----------------------------------------------------

// Scribble into a parked service thread's stack.  Under ASan the park
// poison turns this into a hard use-after-poison report (the death test
// asserts the report fires); in a plain build the write is silently
// absorbed — the next re-arm rebuilds the initial frame from scratch — so
// the same scenario runs to completion and documents why the poison
// matters.
void scribble_on_parked_stack() {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(6);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  auto hub = std::make_shared<fabric::InProcHub>(1);
  RuntimeConfig rc;
  rc.node = 0;
  rc.n_nodes = 1;
  Runtime rt(rc, area, hub->endpoint(0));
  rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
  rt.run([] {
    Runtime& self = *Runtime::current();
    ASSERT_EQ(self.call<int>(0, "inc", 1), 2);
    ASSERT_GT(self.pool().size(), 0u);
    self.pool().for_each([](marcel::Thread* t) {
      auto* into = static_cast<volatile char*>(t->stack_base) + 2048;
      *into = 42;  // use-after-return onto a recycled service stack
    });
    self.halt();
  });
}

TEST(SanitizerPool, WriteToParkedStackIsCaughtUnderAsan) {
  if constexpr (sys::kAsan) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(scribble_on_parked_stack(), "use-after-poison");
  } else {
    scribble_on_parked_stack();
  }
}

}  // namespace
}  // namespace pm2
