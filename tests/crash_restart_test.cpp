// Crash-restart sessions: kill -9 a node after a slot-store checkpoint,
// restart it against the same store file, and continue the session with
// the recorded threads adopted back.
//
// Two fabrics are covered:
//   * in-process hub — the whole 2-node session is one child process that
//     checkpoints both node stores (a full round, then a delta round),
//     dies, and restarts recovered;
//   * in-process hub, one node — the image a restart adopts is exact after
//     a delta round in which the heap grew a new slot run, and after a
//     thread reused the slots of a checkpointed thread that exited; and a
//     node killed after a round staged its threads but before its sync
//     restores every thread with the previous round's bytes;
//   * socket fabric (real processes) — node 1 dies mid-session and comes
//     back while node 0 holds a pending RPC to it; the reconnect-capable
//     fabric parks the send until the restarted node re-joins, and the
//     reply is computed from the restored thread's iso data;
//   * socket fabric, node 1 killed while its migration frame is half
//     received: node 0 already placed the thread's slot runs, gets them
//     back into its migration slot cache, and the session audit still
//     finds every slot with exactly one owner once node 1 has restarted.
//
// Children report only through their exit status (the gtest parent owns
// the assertions): CHILD_REQUIRE aborts the child on violation.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/audit.hpp"
#include "isomalloc/heap.hpp"
#include "isomalloc/layout.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"
#include "sys/process.hpp"

namespace pm2 {
namespace {

#define CHILD_REQUIRE(cond) \
  PM2_CHECK(cond) << "crash-restart child assertion failed"

std::string make_dir() {
  char tmpl[] = "/tmp/pm2-crash-XXXXXX";
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

constexpr int kWords = 1000;

long expected_sum(uint32_t node) {
  long sum = 0;
  for (int i = 0; i < kWords; ++i) sum += 1000L * node + i;
  return sum;
}

/// Parent side: run the test's child, kill it after its checkpoint marker,
/// restart it recovered and expect a clean exit.
void crash_and_restart(const std::string& test) {
  std::string dir = make_dir();
  std::vector<std::string> args = {"--gtest_filter=CrashRestart." + test};
  pid_t run = sys::spawn(sys::self_exe(), args, {"PM2_CR_DIR=" + dir});
  ASSERT_TRUE(wait_for_file(dir + "/ckpt", 30'000)) << "checkpoint marker";
  ::kill(run, SIGKILL);
  EXPECT_EQ(sys::wait_child(run), 128 + SIGKILL);
  pid_t re = sys::spawn(sys::self_exe(), args,
                        {"PM2_CR_DIR=" + dir, "PM2_CR_RESTART=1"});
  EXPECT_EQ(sys::wait_child(re), 0);
}

// --- in-process session: whole process dies and restarts --------------------

std::atomic<int> g_built[2];

// One per node.  Builds iso state, then parks in a yield loop until it
// finds itself in a *restarted* process (PM2_CR_RESTART set) — the
// pre-crash incarnation spins here until the kill.  The restored
// incarnation recomputes everything from the restored heap and stack.
void cr_worker(void*) {
  uint32_t node = pm2_self();
  auto* data = static_cast<long*>(pm2_isomalloc(kWords * sizeof(long)));
  for (int i = 0; i < kWords; ++i) data[i] = 1000L * node + i;
  long local = 31337 + static_cast<long>(node);
  g_built[node] = 1;
  while (std::getenv("PM2_CR_RESTART") == nullptr) pm2_yield();
  CHILD_REQUIRE(pm2_self() == node);
  long sum = 0;
  for (int i = 0; i < kWords; ++i) sum += data[i];
  CHILD_REQUIRE(sum == expected_sum(node));
  CHILD_REQUIRE(local == 31337 + static_cast<long>(node));
  pm2_isofree(data);
  pm2_signal(node);
}

void cr_inproc_child() {
  const char* dir = std::getenv("PM2_CR_DIR");
  CHILD_REQUIRE(dir != nullptr);
  const bool restart = std::getenv("PM2_CR_RESTART") != nullptr;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = dir;
  cfg.rt.slot_store_recover = restart;
  std::string marker = std::string(dir) + "/ckpt";
  run_app(cfg, [&](Runtime& rt) {
    if (!restart) {
      pm2_thread_create(cr_worker, nullptr, "cr");
      while (g_built[rt.self()].load() == 0) pm2_yield();
      StoreCheckpointStats stats = checkpoint_node_to_store(rt);
      CHILD_REQUIRE(stats.threads == 1);
      // A second round over the (spinning) worker: only its changed pages
      // are rewritten, and the restart below must still adopt it intact.
      StoreCheckpointStats delta = checkpoint_node_to_store(rt);
      CHILD_REQUIRE(delta.threads == 1);
      CHILD_REQUIRE(delta.bytes_written < stats.bytes_written);
      rt.slot_store()->sync();
      rt.barrier();  // both node stores durable before the marker appears
      if (rt.self() == 0) touch(marker);
      while (true) pm2_sleep_us(5'000);  // park until the parent kills us
    }
    CHILD_REQUIRE(rt.slot_store() != nullptr);
    CHILD_REQUIRE(rt.slot_store()->recovered());
    std::vector<marcel::ThreadId> ids = restore_node_from_store(rt);
    CHILD_REQUIRE(ids.size() == 1);
    pm2_wait_signals(1);
  });
  std::exit(0);
}

TEST(CrashRestart, InprocSessionRestoresFromStoreFiles) {
  if (std::getenv("PM2_CR_DIR") != nullptr && !is_spawned_child()) {
    cr_inproc_child();  // never returns
  }
  crash_and_restart("InprocSessionRestoresFromStoreFiles");
}

// --- delta rounds: the restored image is exact ------------------------------

std::atomic<int> g_step{0};
std::atomic<unsigned char*> g_block{nullptr};

unsigned char pattern(size_t i, unsigned seed) {
  return static_cast<unsigned char>((i * 131 + seed) ^ (i >> 11));
}

/// Run a one-node in-process child session: `before` drives the first
/// incarnation up to its last checkpoint; the restarted incarnation adopts
/// exactly one thread from the store and waits for its signal.
template <typename Before>
void one_node_child(Before before) {
  const char* dir = std::getenv("PM2_CR_DIR");
  CHILD_REQUIRE(dir != nullptr);
  const bool restart = std::getenv("PM2_CR_RESTART") != nullptr;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = dir;
  cfg.rt.slot_store_recover = restart;
  run_app(cfg, [&](Runtime& rt) {
    if (!restart) {
      before(rt);
      rt.slot_store()->sync();
      touch(std::string(dir) + "/ckpt");
      while (true) pm2_sleep_us(5'000);  // park until the parent kills us
    }
    CHILD_REQUIRE(rt.slot_store()->recovered());
    CHILD_REQUIRE(restore_node_from_store(rt).size() == 1);
    pm2_wait_signals(1);
  });
  std::exit(0);
}

constexpr size_t kSmall = 3000;
constexpr size_t kGrown = 200'000;  // larger than a slot: a new slot run

void grow_worker(void*) {
  auto* small = static_cast<unsigned char*>(pm2_isomalloc(kSmall));
  for (size_t i = 0; i < kSmall; ++i) small[i] = pattern(i, 1);
  g_step = 1;
  while (g_step.load() < 2) pm2_yield();
  // Zero bytes but for a short prefix: had the new run been compared with
  // the file instead of written whole, its zero pages would be skipped.
  auto* grown = static_cast<unsigned char*>(pm2_isomalloc(kGrown));
  std::memset(grown, 0, kGrown);
  for (size_t i = 0; i < 100; ++i) grown[i] = pattern(i, 2);
  g_block = grown;
  g_step = 3;
  while (std::getenv("PM2_CR_RESTART") == nullptr) pm2_yield();
  for (size_t i = 0; i < kSmall; ++i) CHILD_REQUIRE(small[i] == pattern(i, 1));
  for (size_t i = 0; i < kGrown; ++i) {
    CHILD_REQUIRE(grown[i] == (i < 100 ? pattern(i, 2) : 0));
  }
  pm2_isofree(grown);
  pm2_isofree(small);
  pm2_signal(0);
}

TEST(CrashRestart, HeapRunAddedBetweenRoundsIsWrittenWhole) {
  if (std::getenv("PM2_CR_DIR") != nullptr && !is_spawned_child()) {
    one_node_child([](Runtime& rt) {
      pm2_thread_create(grow_worker, nullptr, "grow");
      while (g_step.load() < 1) pm2_yield();
      CHILD_REQUIRE(checkpoint_node_to_store(rt).threads == 1);
      g_step = 2;
      while (g_step.load() < 3) pm2_yield();
      const size_t slot = rt.area().slot_of(g_block.load());
      const auto* run = static_cast<const iso::SlotHeader*>(
          rt.area().slot_addr(slot));
      CHILD_REQUIRE(run->nslots > 1);
      StoreCheckpointStats delta = checkpoint_node_to_store(rt);
      CHILD_REQUIRE(delta.threads == 1);
      CHILD_REQUIRE(delta.bytes_written >=
                    uint64_t{run->nslots} * rt.area().slot_size());
    });
  }
  crash_and_restart("HeapRunAddedBetweenRoundsIsWrittenWhole");
}

constexpr size_t kReused = 100'000;

void first_owner(void*) {
  auto* block = static_cast<unsigned char*>(pm2_isomalloc(kReused));
  std::memset(block, 0xA5, kReused);
  g_block = block;
  g_step = 1;
  while (g_step.load() < 2) pm2_yield();
  pm2_isofree(block);
  pm2_signal(0);
}

void second_owner(void*) {
  auto* block = static_cast<unsigned char*>(pm2_isomalloc(kReused));
  CHILD_REQUIRE(block == g_block.load());  // the first owner's slots
  // Zero first half: where the first owner's 0xA5 bytes would survive if
  // a page equal to "nothing written" were skipped.
  std::memset(block, 0, kReused);
  for (size_t i = kReused / 2; i < kReused; ++i) block[i] = pattern(i, 3);
  g_step = 3;
  while (std::getenv("PM2_CR_RESTART") == nullptr) pm2_yield();
  for (size_t i = 0; i < kReused; ++i) {
    CHILD_REQUIRE(block[i] == (i < kReused / 2 ? 0 : pattern(i, 3)));
  }
  pm2_isofree(block);
  pm2_signal(0);
}

TEST(CrashRestart, ReusedSlotsRestoreWithoutStaleBytes) {
  if (std::getenv("PM2_CR_DIR") != nullptr && !is_spawned_child()) {
    one_node_child([](Runtime& rt) {
      marcel::ThreadId first = pm2_thread_create(first_owner, nullptr, "first");
      while (g_step.load() < 1) pm2_yield();
      CHILD_REQUIRE(checkpoint_node_to_store(rt).threads == 1);
      CHILD_REQUIRE(rt.slot_store()->has_record(first));
      g_step = 2;
      pm2_wait_signals(1);  // the first owner freed its block and exits
      while (rt.slot_store()->has_record(first)) pm2_yield();
      pm2_thread_create(second_owner, nullptr, "second");
      while (g_step.load() < 3) pm2_yield();
      CHILD_REQUIRE(checkpoint_node_to_store(rt).threads == 1);
    });
  }
  crash_and_restart("ReusedSlotsRestoreWithoutStaleBytes");
}

// --- a crash mid-round: the previous round restores whole ------------------

constexpr int kMidRoundThreads = 2;
std::atomic<int> g_mid_built{0};
std::atomic<int> g_mid_rewritten{0};

// Pre-crash, the worker is checkpointed while it waits for step 2, then
// rewrites its block and spins.  Restored, it resumes in the wait loop of
// the checkpointed round and must find that round's bytes.
void midround_worker(void* arg) {
  const unsigned seed = static_cast<unsigned>(reinterpret_cast<intptr_t>(arg));
  auto* block = static_cast<unsigned char*>(pm2_isomalloc(kReused));
  for (size_t i = 0; i < kReused; ++i) block[i] = pattern(i, seed);
  g_mid_built.fetch_add(1);
  while (g_step.load() < 2 && std::getenv("PM2_CR_RESTART") == nullptr)
    pm2_yield();
  if (std::getenv("PM2_CR_RESTART") != nullptr) {
    for (size_t i = 0; i < kReused; ++i)
      CHILD_REQUIRE(block[i] == pattern(i, seed));
    pm2_isofree(block);
    pm2_signal(0);
    return;
  }
  for (size_t i = 0; i < kReused; ++i) block[i] = pattern(i, seed + 100);
  g_mid_rewritten.fetch_add(1);
  while (true) pm2_yield();  // frozen, then killed
}

void midround_child() {
  const char* dir = std::getenv("PM2_CR_DIR");
  CHILD_REQUIRE(dir != nullptr);
  const bool restart = std::getenv("PM2_CR_RESTART") != nullptr;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = dir;
  cfg.rt.slot_store_recover = restart;
  run_app(cfg, [&](Runtime& rt) {
    if (restart) {
      CHILD_REQUIRE(rt.slot_store()->recovered());
      CHILD_REQUIRE(restore_node_from_store(rt).size() == kMidRoundThreads);
      pm2_wait_signals(kMidRoundThreads);
      return;
    }
    marcel::ThreadId ids[kMidRoundThreads];
    for (int i = 0; i < kMidRoundThreads; ++i) {
      ids[i] = pm2_thread_create(
          midround_worker, reinterpret_cast<void*>(intptr_t{i + 5}), "mid");
    }
    while (g_mid_built.load() < kMidRoundThreads) pm2_yield();
    CHILD_REQUIRE(checkpoint_node_to_store(rt).synced);
    g_step = 2;
    while (g_mid_rewritten.load() < kMidRoundThreads) pm2_yield();
    // The next round records and stages every thread, then the node dies
    // before its sync.
    iso::SlotStore* store = rt.slot_store();
    uint64_t staged = 0;
    for (marcel::ThreadId id : ids) {
      CHILD_REQUIRE(rt.freeze_thread(id));
      marcel::Thread* t = rt.sched().find(id);
      std::vector<iso::SlotRun> runs;
      iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
        runs.emplace_back(rt.area().slot_of(s), s->nslots);
      });
      CHILD_REQUIRE(store->record_thread(id, reinterpret_cast<uint64_t>(t),
                                         runs));
      for (auto [first, count] : runs)
        staged += store->write_changed(first, count);
    }
    CHILD_REQUIRE(staged >= kMidRoundThreads * kReused);
    touch(std::string(dir) + "/ckpt");
    while (true) pm2_sleep_us(5'000);  // park until the parent kills us
  });
  std::exit(0);
}

TEST(CrashRestart, KilledBeforeTheRoundSyncRestoresThePreviousRound) {
  if (std::getenv("PM2_CR_DIR") != nullptr && !is_spawned_child()) {
    midround_child();  // never returns
  }
  crash_and_restart("KilledBeforeTheRoundSyncRestoresThePreviousRound");
}

// --- socket fabric: one node process dies, peers wait it back ---------------

std::atomic<long> g_value{0};
std::atomic<bool> g_value_ready{false};

// Node 1's stateful thread.  Pre-crash it only builds the data; the
// restored incarnation answers through the process-local mailbox the
// "peek" service reads.
void mp_worker(void*) {
  auto* data = static_cast<long*>(pm2_isomalloc(kWords * sizeof(long)));
  for (int i = 0; i < kWords; ++i) data[i] = 1000L * pm2_self() + i;
  g_built[pm2_self()] = 1;
  while (std::getenv("PM2_CR_RESTART") == nullptr) pm2_yield();
  long sum = 0;
  for (int i = 0; i < kWords; ++i) sum += data[i];
  pm2_isofree(data);
  g_value = sum;
  g_value_ready = true;
  pm2_signal(pm2_self());
}

void cr_mp_child() {
  const char* dir = std::getenv("PM2_CR_DIR");
  CHILD_REQUIRE(dir != nullptr);
  const bool restart = std::getenv("PM2_CR_RESTART") != nullptr;
  std::string ckpt_marker = std::string(dir) + "/ckpt";
  std::string killed_marker = std::string(dir) + "/killed";
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = dir;
  cfg.rt.slot_store_recover = restart;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() == 0) {
          // Only issue the call once node 1 is certainly dead: the send
          // must ride the reconnect path, not the original socket.
          while (!file_exists(killed_marker)) pm2_sleep_us(10'000);
          long v = rt.call<long>(1, "peek", 0);
          CHILD_REQUIRE(v == expected_sum(1));
          return;
        }
        if (!restart) {
          pm2_thread_create(mp_worker, nullptr, "mp");
          while (g_built[1].load() == 0) pm2_yield();
          StoreCheckpointStats stats = checkpoint_node_to_store(rt);
          CHILD_REQUIRE(stats.threads == 1);
          rt.slot_store()->sync();
          touch(ckpt_marker);
          while (true) pm2_sleep_us(5'000);  // park until the parent kills us
        }
        CHILD_REQUIRE(rt.slot_store()->recovered());
        std::vector<marcel::ThreadId> ids = restore_node_from_store(rt);
        CHILD_REQUIRE(ids.size() == 1);
        pm2_wait_signals(1);
      },
      [](Runtime& rt) {
        rt.service("peek", [](RpcContext&, int) -> long {
          while (!g_value_ready.load()) pm2_yield();
          return g_value.load();
        });
      });
  std::exit(0);  // unreachable: run_as_child exits, but keep the shape clear
}

TEST(CrashRestart, MultiprocessPendingRpcCompletesAfterRestart) {
  if (is_spawned_child()) {
    cr_mp_child();  // never returns
  }
  std::string dir = make_dir();
  std::vector<std::string> args = {
      "--gtest_filter=CrashRestart.MultiprocessPendingRpcCompletesAfterRestart"};
  auto env_for = [&](int node, bool restart) {
    std::vector<std::string> env = {
        "PM2_MP_NODE=" + std::to_string(node),
        "PM2_MP_NODES=2",
        "PM2_MP_DIR=" + dir,
        "PM2_MP_RECONNECT=1",
        "PM2_CR_DIR=" + dir,
    };
    if (restart) env.push_back("PM2_CR_RESTART=1");
    return env;
  };
  pid_t n0 = sys::spawn(sys::self_exe(), args, env_for(0, false));
  pid_t n1 = sys::spawn(sys::self_exe(), args, env_for(1, false));
  ASSERT_TRUE(wait_for_file(dir + "/ckpt", 30'000)) << "checkpoint marker";
  ::kill(n1, SIGKILL);
  EXPECT_EQ(sys::wait_child(n1), 128 + SIGKILL);
  touch(dir + "/killed");
  pid_t n1b = sys::spawn(sys::self_exe(), args, env_for(1, true));
  // Node 0 exits last on success (it halts the session); if it failed
  // instead, the restarted node 1 would wait for it forever.
  const int n0_status = sys::wait_child(n0);
  if (n0_status != 0) ::kill(n1b, SIGKILL);
  EXPECT_EQ(n0_status, 0);
  EXPECT_EQ(sys::wait_child(n1b), n0_status == 0 ? 0 : 128 + SIGKILL);
  for (int i = 0; i < 2; ++i) {
    ::unlink((dir + "/node" + std::to_string(i) + ".sock").c_str());
  }
}

// --- socket fabric: the sender dies in the middle of a migration frame ------

// 8 MB of heap in single-slot blocks (no slot negotiation with the node
// that is not listening): bigger than any socket buffer pair, so the frame
// cannot leave node 1 whole while node 0 is not reading.
constexpr size_t kMidFrameBlock = 60'000;
constexpr int kMidFrameBlocks = 140;

void mid_frame_worker(void*) {
  for (int i = 0; i < kMidFrameBlocks; ++i)
    std::memset(pm2_isomalloc(kMidFrameBlock), 0x3C, kMidFrameBlock);
  touch(std::string(std::getenv("PM2_CR_DIR")) + "/sending");
  pm2_migrate(marcel_self(), 0);  // never completes: killed mid-send
}

void cr_mid_frame_child() {
  const std::string dir = std::getenv("PM2_CR_DIR");
  const bool restart = std::getenv("PM2_CR_RESTART") != nullptr;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.workers = 1;  // node 0's main must be able to starve its daemon
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 1) {
      if (restart) return;
      CHILD_REQUIRE(wait_for_file(dir + "/wedged", 30'000));
      pm2_thread_create(mid_frame_worker, nullptr, "mid-frame");
      while (true) pm2_sleep_us(5'000);  // park until the parent kills us
    }
    // Node 0 reads nothing while node 1 ships, so node 1 blocks mid-frame
    // with the frame's head and part of its body queued in the socket.
    touch(dir + "/wedged");
    const uint64_t give_up = now_ns() + 60'000'000'000ull;
    while (!file_exists(dir + "/killed")) CHILD_REQUIRE(now_ns() < give_up);
    // Now the daemon drains the queued bytes — placing the runs — and
    // then meets the dead link.
    for (int i = 0; i < 10'000 && rt.negotiator().away_runs() == 0; ++i)
      pm2_sleep_us(1'000);
    CHILD_REQUIRE(rt.negotiator().away_runs() > 0);
    CHILD_REQUIRE(rt.migrations_in() == 0);
    // The audit's requests wait for the restarted node 1 to reconnect.
    AuditReport report = audit_session(rt);
    PM2_CHECK(report.ok) << report.summary();
  });
  std::exit(0);
}

TEST(CrashRestart, PeerDyingMidMigrationFrameReturnsPlacedRuns) {
  if (is_spawned_child()) {
    cr_mid_frame_child();  // never returns
  }
  std::string dir = make_dir();
  std::vector<std::string> args = {
      "--gtest_filter=CrashRestart.PeerDyingMidMigrationFrameReturnsPlacedRuns"};
  auto env_for = [&](int node, bool restart) {
    std::vector<std::string> env = {
        "PM2_MP_NODE=" + std::to_string(node),
        "PM2_MP_NODES=2",
        "PM2_MP_DIR=" + dir,
        "PM2_MP_RECONNECT=1",
        "PM2_CR_DIR=" + dir,
    };
    if (restart) env.push_back("PM2_CR_RESTART=1");
    return env;
  };
  pid_t n0 = sys::spawn(sys::self_exe(), args, env_for(0, false));
  pid_t n1 = sys::spawn(sys::self_exe(), args, env_for(1, false));
  ASSERT_TRUE(wait_for_file(dir + "/sending", 30'000)) << "sending marker";
  ::usleep(500'000);  // let node 1 fill the socket and block mid-frame
  ::kill(n1, SIGKILL);
  EXPECT_EQ(sys::wait_child(n1), 128 + SIGKILL);
  touch(dir + "/killed");
  pid_t n1b = sys::spawn(sys::self_exe(), args, env_for(1, true));
  // Node 0 exits last on success (it halts the session); if it failed
  // instead, the restarted node 1 would wait for it forever.
  const int n0_status = sys::wait_child(n0);
  if (n0_status != 0) ::kill(n1b, SIGKILL);
  EXPECT_EQ(n0_status, 0);
  EXPECT_EQ(sys::wait_child(n1b), n0_status == 0 ? 0 : 128 + SIGKILL);
  for (int i = 0; i < 2; ++i) {
    ::unlink((dir + "/node" + std::to_string(i) + ".sock").c_str());
  }
}

}  // namespace
}  // namespace pm2
