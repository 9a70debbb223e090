#include "common/check.hpp"
// Real multi-process sessions over UNIX-domain sockets: validates the
// fixed-address iso-area reservation across distinct address spaces — the
// configuration the paper actually ran (one heavy process per node).
//
// Mechanism: the test body calls run_app with multiprocess=true; the parent
// re-executes this test binary once per node with PM2_MP_* set and a gtest
// filter pinning execution to the same test, so the child takes the
// node path inside run_app and exits there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>

#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"
#include "stress_worker.hpp"

namespace pm2 {
namespace {

AppConfig mp_config(uint32_t nodes) {
  AppConfig cfg;
  cfg.nodes = nodes;
  cfg.multiprocess = true;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  cfg.child_args = {std::string("--gtest_filter=") + info->test_suite_name() +
                    "." + info->name()};
  return cfg;
}

// Children communicate results to the parent only via exit status: any
// PM2_CHECK/abort in a child surfaces as a non-zero run_app return.
#define CHILD_REQUIRE(cond) PM2_CHECK(cond) << "multiprocess child assertion"

TEST(MultiProcess, SessionBootsAndHalts) {
  int rc = run_app(mp_config(2), [](Runtime& rt) {
    CHILD_REQUIRE(rt.n_nodes() == 2);
    rt.barrier();
  });
  EXPECT_EQ(rc, 0);
}

void mp_list_worker(void*) {
  // The Fig. 7 scenario across real processes.
  struct Item {
    int value;
    Item* next;
  };
  Item* head = nullptr;
  for (int j = 0; j < 500; ++j) {
    auto* it = static_cast<Item*>(pm2_isomalloc(sizeof(Item)));
    it->value = j;
    it->next = head;
    head = it;
  }
  pm2_migrate(marcel_self(), 1);
  CHILD_REQUIRE(pm2_self() == 1);
  long sum = 0;
  for (Item* p = head; p != nullptr; p = p->next) sum += p->value;
  CHILD_REQUIRE(sum == 499L * 500 / 2);
  pm2_signal(0);
}

TEST(MultiProcess, MigrationAcrossAddressSpaces) {
  int rc = run_app(mp_config(2), [](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&mp_list_worker, nullptr, "mplist");
      pm2_wait_signals(1);
    }
  });
  EXPECT_EQ(rc, 0);
}

void mp_pingpong_worker(void*) {
  int counter = 0;
  int* p = &counter;
  for (int i = 0; i < 10; ++i) {
    pm2_migrate(marcel_self(), 1 - pm2_self());
    ++*p;
  }
  CHILD_REQUIRE(counter == 10);
  pm2_signal(0);
}

TEST(MultiProcess, PingPong) {
  int rc = run_app(mp_config(2), [](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&mp_pingpong_worker, nullptr, "mp-pp");
      pm2_wait_signals(1);
    }
  });
  EXPECT_EQ(rc, 0);
}

TEST(MultiProcess, NegotiationOverSockets) {
  AppConfig cfg = mp_config(3);
  cfg.rt.slots.distribution = iso::Distribution::kRoundRobin;
  int rc = run_app(cfg, [](Runtime& rt) {
    if (rt.self() == 1) {
      auto* p = static_cast<unsigned char*>(pm2_isomalloc(300 * 1024));
      CHILD_REQUIRE(p != nullptr);
      std::memset(p, 0x5C, 300 * 1024);
      CHILD_REQUIRE(p[300 * 1024 - 1] == 0x5C);
      pm2_isofree(p);
      CHILD_REQUIRE(rt.negotiations_initiated() >= 1);
    }
    rt.barrier();
  });
  EXPECT_EQ(rc, 0);
}

TEST(MultiProcess, FourNodeTour) {
  struct Worker {
    static void tour(void*) {
      uint32_t n = pm2_nodes();
      auto* log = static_cast<uint32_t*>(pm2_isomalloc(n * sizeof(uint32_t)));
      for (uint32_t hop = 0; hop < n; ++hop) {
        log[hop] = pm2_self();
        pm2_migrate(marcel_self(), (pm2_self() + 1) % n);
      }
      for (uint32_t hop = 0; hop < n; ++hop) CHILD_REQUIRE(log[hop] == hop);
      pm2_isofree(log);
      pm2_signal(0);
    }
  };
  int rc = run_app(mp_config(4), [](Runtime& rt) {
    if (rt.self() == 0) {
      pm2_thread_create(&Worker::tour, nullptr, "mp-tour");
      pm2_wait_signals(1);
    }
  });
  EXPECT_EQ(rc, 0);
}

// Whole-slot images (migrate_blocks_only=false) of threads whose heap
// block spans several slots: each migration frame is far larger than the
// socket fabric's 4 KiB staging window, so most of it is read from the
// socket straight into the slots — at most a window at each end of a
// frame is ever copied.  Separate processes, because in-process nodes
// share one address space: a whole stack slot sent in one sendmsg could be
// running on the destination (re-poisoning its frames) before ASan checks
// the sent bytes on the source.
constexpr size_t kBigBlock = 300 * 1024;
constexpr int kBigHops = 12;

void big_image_worker(void*) {
  auto* p = static_cast<uint8_t*>(pm2_isomalloc(kBigBlock));
  for (int hop = 0; hop <= kBigHops; ++hop) {
    if (hop > 0) {
      for (size_t i = 0; i < kBigBlock; i += 251)
        CHILD_REQUIRE(p[i] == static_cast<uint8_t>(i * 7 + hop - 1));
    }
    for (size_t i = 0; i < kBigBlock; ++i)
      p[i] = static_cast<uint8_t>(i * 7 + hop);
    if (hop < kBigHops) pm2_migrate(marcel_self(), 1 - pm2_self());
  }
  pm2_isofree(p);
  pm2_signal(0);
}

TEST(MultiProcess, MultiSlotFullImagesTakeTheDirectTail) {
  AppConfig cfg = mp_config(2);
  cfg.rt.migrate_blocks_only = false;
  int rc = run_app(cfg, [](Runtime& rt) {
    if (rt.self() == 0) {
      for (int w = 0; w < 2; ++w)
        pm2_thread_create(&big_image_worker, nullptr, "big");
      pm2_wait_signals(2);
    }
    rt.barrier();
    // Each node received 12 frames of >= 364 KB; only the control frames
    // and what came in with each frame's head were copied.
    CHILD_REQUIRE(rt.migrations_in() == kBigHops);
    CHILD_REQUIRE(rt.fabric().recv_copy_bytes() * 4 <=
                  rt.migrations_in() * kBigBlock);
  });
  EXPECT_EQ(rc, 0);
}

// The randomized migration stress over the socket fabric, with the
// zero-copy acceptance assertion: ship_thread's payload segments go slot
// memory -> writev with no intermediate flatten, so every node's send-path
// payload copy counter must stay exactly 0 for the whole churn.  Separate
// processes for the same reason as above: ASan checks a sendmsg's bytes
// only after the in-process destination may have re-poisoned them.
TEST(MultiProcess, SocketShipPerformsNoFlattenCopies) {
  int rc = run_app(mp_config(2), [](Runtime& rt) {
    if (rt.self() == 0) {
      for (int w = 0; w < 4; ++w) {
        pm2_thread_create(
            &stress_worker,
            reinterpret_cast<void*>(static_cast<uintptr_t>(99 + w * 7919)),
            "stress");
      }
      pm2_wait_signals(4);
    }
    rt.barrier();
    CHILD_REQUIRE(g_ok.load());
    if (rt.self() == 0) {
      CHILD_REQUIRE(rt.migrations_out() > 0);
    }
    CHILD_REQUIRE(rt.fabric().bytes_sent() > 0);
    PM2_CHECK(rt.fabric().payload_copy_bytes() == 0)
        << "migration payloads were flattened on the socket send path";
  });
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace pm2
