// Mirror invariant of the slot store under kernel write tracking: after a
// checkpoint round, the store file's bytes equal memory for every sealed
// run, whichever way a page changed since the previous round — the owning
// thread, another thread through a shared pointer, the kernel (read(2)
// into the slot), a decommit and recommit, a release and reuse by another
// thread, a demotion and fault-back, a trip to another in-process node
// that has its own store, or a forked child.  Every case runs twice: with
// the area's sys::WriteWatch ("Tracked", skipped with the errno where the
// kernel refuses userfaultfd) and with a store opened without one
// ("Untracked", every imaged page compared).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "fabric/inproc.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/slot_store.hpp"
#include "pm2/api.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"
#include "sys/vm.hpp"

namespace pm2 {
namespace {

constexpr size_t kPage = 4096;

std::string make_store_dir() {
  char tmpl[] = "/tmp/pm2-watch-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  PM2_CHECK(dir != nullptr) << "mkdtemp failed";
  return dir;
}

/// True when the file image of slots [first, first+count) in the store at
/// `path` equals their memory.
bool file_equals_memory(const std::string& path, iso::Area& area,
                        size_t first, size_t count) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PM2_CHECK(fd >= 0) << "cannot open " << path;
  iso::StoreHeader hdr;
  const size_t len = count * area.slot_size();
  std::vector<char> bytes(len);
  const bool read_all =
      ::pread(fd, &hdr, sizeof(hdr), 0) == static_cast<ssize_t>(sizeof(hdr)) &&
      ::pread(fd, bytes.data(), len,
              static_cast<off_t>(hdr.data_off + first * area.slot_size())) ==
          static_cast<ssize_t>(len);
  ::close(fd);
  return read_all && std::memcmp(bytes.data(), area.slot_addr(first), len) == 0;
}

/// Sealed runs of `rt`'s store whose file image differs from memory (each
/// one is reported).  Demoted threads are skipped: all but the first page
/// of each run is released, and their record sealed at demotion stands.
int mirror_mismatches(Runtime& rt) {
  const std::string path = rt.config().slot_store_dir + "/node" +
                           std::to_string(rt.self()) + ".store";
  int checked = 0;
  int bad = 0;
  for (const auto& rec : rt.slot_store()->recorded_threads()) {
    if (rt.residency().demoted(rec.id)) continue;
    for (auto [first, count] : rec.runs) {
      ++checked;
      if (!file_equals_memory(path, rt.area(), first, count)) {
        ++bad;
        ADD_FAILURE() << "node " << rt.self() << " thread " << rec.id
                      << ": run [" << first << ", +" << count
                      << ") differs from its file image";
      }
    }
  }
  EXPECT_GT(checked, 0) << "no sealed run to compare";
  return bad;
}

/// `nodes` in-process nodes over the hub, each with a slot store, opened
/// with the area's write watch when `tracked` and without one otherwise.
void run_nodes(uint32_t nodes, bool tracked,
               const std::function<void(Runtime&)>& node_main) {
  iso::AreaConfig ac;
  ac.skip_decommit = nodes > 1;  // shared address space, as run_app does
  iso::Area area(ac);
  auto hub = std::make_shared<fabric::InProcHub>(nodes);
  const std::string dir = make_store_dir();
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < nodes; ++i) {
    threads.emplace_back([&, i] {
      RuntimeConfig rc;
      rc.node = i;
      rc.n_nodes = nodes;
      rc.slot_store_dir = dir;
      Runtime rt(rc, area, hub->endpoint(i),
                 tracked ? &area.write_watch() : nullptr);
      rt.run([&] {
        node_main(rt);
        rt.barrier();
        if (rt.self() == 0) rt.halt();
      });
    });
  }
  for (std::thread& t : threads) t.join();
}

class Mirror : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!tracked()) return;
    sys::VmReservation scratch(iso::offset_area_base(1), 1 << 20);
    sys::WriteWatch watch(scratch.base(), scratch.size());
    if (watch.error() != 0) {
      GTEST_SKIP() << "kernel write watch unavailable: "
                   << std::strerror(watch.error());
    }
  }
  bool tracked() const { return GetParam(); }
};

// --- rounds driven by the node's main thread --------------------------------

constexpr int kRounds = 4;
std::atomic<int> g_step{0};  // main -> workers: the round they may change
std::atomic<int> g_acks{0};  // workers -> main: changes made (summed)
std::atomic<void*> g_shared{nullptr};
std::atomic<bool> g_ok{true};

/// Deterministic page picks: round r dirties bytes on pages of its own.
size_t pick(int round, int k, size_t bytes) {
  uint64_t x = uint64_t(round) * 0x9E3779B97F4A7C15ull + uint64_t(k) * 977;
  x ^= x >> 29;
  return static_cast<size_t>(x % bytes);
}

/// Worker side of one round: wait for the round, make `change`, ack.
void await_round(int r, const std::function<void()>& change) {
  while (g_step.load() < r) pm2_yield();
  change();
  ++g_acks;
}

void finish_worker() {
  while (g_step.load() <= kRounds) pm2_yield();
  pm2_signal(0);
}

/// Main side: kRounds checkpoint rounds over `ids` (all frozen for the
/// round, so every sealed record is rewritten by it), checking the mirror
/// after each; `per_round` workers ack each round.
void drive_rounds(Runtime& rt, const std::vector<marcel::ThreadId>& ids,
                  int per_round) {
  for (int r = 1; r <= kRounds; ++r) {
    g_step = r;
    while (g_acks.load() < r * per_round) pm2_yield();
    for (marcel::ThreadId id : ids) ASSERT_TRUE(rt.freeze_thread(id));
    checkpoint_node_to_store(rt);
    EXPECT_EQ(mirror_mismatches(rt), 0) << "after round " << r;
    for (marcel::ThreadId id : ids) ASSERT_TRUE(rt.unfreeze_thread(id));
  }
  g_step = kRounds + 1;
  pm2_wait_signals(ids.size());
}

void reset_globals() {
  g_step = 0;
  g_acks = 0;
  g_shared = nullptr;
  g_ok = true;
}

constexpr size_t kHeapBytes = 160 * 1024;  // a multi-slot run

void owner_worker(void*) {
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(kHeapBytes));
  std::memset(data, 0x11, kHeapBytes);
  for (int r = 1; r <= kRounds; ++r) {
    await_round(r, [&] {
      for (int k = 0; k < 8; ++k) data[pick(r, k, kHeapBytes)] ^= 0x5a;
    });
  }
  finish_worker();
  pm2_isofree(data);
}

TEST_P(Mirror, OwningThreadWrites) {
  reset_globals();
  run_nodes(1, tracked(), [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(owner_worker, nullptr, "owner");
    drive_rounds(rt, {id}, 1);
  });
}

void holder_worker(void*) {
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(kHeapBytes));
  std::memset(data, 0x22, kHeapBytes);
  g_shared = data;
  for (int r = 1; r <= kRounds; ++r) await_round(r, [] {});
  finish_worker();
  pm2_isofree(data);
}

void sharer_worker(void*) {
  unsigned char* data = nullptr;
  while ((data = static_cast<unsigned char*>(g_shared.load())) == nullptr)
    pm2_yield();
  for (int r = 1; r <= kRounds; ++r) {
    await_round(r, [&] {
      for (int k = 0; k < 8; ++k) data[pick(r, k, kHeapBytes)] += 3;
    });
  }
  finish_worker();
}

TEST_P(Mirror, AnotherThreadWritesThroughSharedPointer) {
  reset_globals();
  run_nodes(1, tracked(), [](Runtime& rt) {
    marcel::ThreadId holder =
        pm2_thread_create(holder_worker, nullptr, "holder");
    marcel::ThreadId sharer =
        pm2_thread_create(sharer_worker, nullptr, "sharer");
    drive_rounds(rt, {holder, sharer}, 2);
  });
}

std::string g_source;  // file the kernel copies from

void kernel_worker(void*) {
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(kHeapBytes));
  std::memset(data, 0x33, kHeapBytes);
  const int fd = ::open(g_source.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) g_ok = false;
  for (int r = 1; r <= kRounds; ++r) {
    await_round(r, [&] {
      // The kernel writes the slot: read(2) straight into the heap.
      const size_t at = pick(r, 0, kHeapBytes - 3 * kPage);
      if (::pread(fd, data + at, 2 * kPage, r * 100) != 2 * kPage)
        g_ok = false;
    });
  }
  ::close(fd);
  finish_worker();
  pm2_isofree(data);
}

TEST_P(Mirror, KernelWritesIntoTheSlot) {
  reset_globals();
  g_source = make_store_dir() + "/source";
  {
    std::vector<unsigned char> bytes(64 * 1024);
    for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = (i * 131 + 7) & 0xff;
    const int fd = ::open(g_source.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                          0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }
  run_nodes(1, tracked(), [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(kernel_worker, nullptr, "kernel");
    drive_rounds(rt, {id}, 1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- release, then reuse by another thread -----------------------------------

std::atomic<void*> g_released{nullptr};

void releaser_worker(void*) {
  auto* keep = static_cast<unsigned char*>(pm2_isomalloc(512));
  auto* run = static_cast<unsigned char*>(pm2_isomalloc(kHeapBytes));
  std::memset(run, 0x44, kHeapBytes);
  keep[0] = 1;
  await_round(1, [] {});
  // Round 2: the multi-slot run goes back to the node's free distribution.
  await_round(2, [&] {
    pm2_isofree(run);
    g_released = run;
  });
  for (int r = 3; r <= kRounds; ++r) await_round(r, [] {});
  finish_worker();
  pm2_isofree(keep);
}

void reuser_worker(void*) {
  unsigned char* data = nullptr;
  for (int r = 1; r <= kRounds; ++r) {
    await_round(r, [&] {
      if (r == 2) {
        // Allocated after the release: takes the released slots.
        while (g_released.load() == nullptr) pm2_yield();
        data = static_cast<unsigned char*>(pm2_isomalloc(kHeapBytes));
        if (data != g_released.load()) g_ok = false;
      }
      if (data != nullptr) data[pick(r, 0, kHeapBytes)] = 0x55;
    });
  }
  finish_worker();
  pm2_isofree(data);
}

TEST_P(Mirror, ReleaseThenReuseByAnotherThread) {
  reset_globals();
  g_released = nullptr;
  run_nodes(1, tracked(), [](Runtime& rt) {
    marcel::ThreadId releaser =
        pm2_thread_create(releaser_worker, nullptr, "releaser");
    marcel::ThreadId reuser =
        pm2_thread_create(reuser_worker, nullptr, "reuser");
    drive_rounds(rt, {releaser, reuser}, 2);
  });
  EXPECT_TRUE(g_ok.load()) << "the reuser did not get the released slots";
}

// --- demote, then fault back -------------------------------------------------

TEST_P(Mirror, DemoteThenFaultBack) {
  reset_globals();
  run_nodes(1, tracked(), [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(owner_worker, nullptr, "owner");
    for (int r = 1; r <= kRounds; ++r) {
      g_step = r;
      while (g_acks.load() < r) pm2_yield();
      ASSERT_TRUE(rt.freeze_thread(id));
      checkpoint_node_to_store(rt);
      EXPECT_EQ(mirror_mismatches(rt), 0) << "after round " << r;
      // Out to the file and back: the pages are zapped, then read(2) back.
      ASSERT_TRUE(rt.residency().demote(id));
      ASSERT_TRUE(rt.unfreeze_thread(id));
    }
    g_step = kRounds + 1;
    pm2_wait_signals(1);
  });
}

// --- ship out and back between two nodes with stores -------------------------

std::atomic<int> g_at{-1};  // node the traveller last reported from
marcel::ThreadId g_traveller = 0;

void traveller(void*) {
  g_traveller = marcel_self()->id;
  auto* keep = static_cast<unsigned char*>(pm2_isomalloc(1024));
  auto* scratch = static_cast<unsigned char*>(pm2_isomalloc(24 * 1024));
  std::memset(keep, 0x66, 1024);
  std::memset(scratch, 0x77, 24 * 1024);
  g_at = 0;
  while (g_step.load() < 1) pm2_yield();
  pm2_migrate(marcel_self(), 1);
  // On node 1: change bytes that the trip back will not ship (a freed
  // block's payload is dead space), then let node 1 checkpoint.
  std::memset(scratch, 0x88, 24 * 1024);
  pm2_isofree(scratch);
  keep[0] = 0x99;
  g_at = 1;
  while (g_step.load() < 2) pm2_yield();
  pm2_migrate(marcel_self(), 0);
  g_at = 2;
  while (g_step.load() < 3) pm2_yield();
  pm2_isofree(keep);
  pm2_signal(0);
}

TEST_P(Mirror, ShipOutAndBackBetweenNodesWithStores) {
  reset_globals();
  g_at = -1;
  run_nodes(2, tracked(), [](Runtime& rt) {
    auto round_at = [&](int at) {
      while (g_at.load() < at) pm2_yield();
      ASSERT_TRUE(rt.freeze_thread(g_traveller));
      checkpoint_node_to_store(rt);
      EXPECT_EQ(mirror_mismatches(rt), 0) << "round on node " << rt.self();
      ASSERT_TRUE(rt.unfreeze_thread(g_traveller));
    };
    if (rt.self() == 0) {
      pm2_thread_create(traveller, nullptr, "traveller");
      round_at(0);
      g_step = 1;
      round_at(2);  // back home: node 1's round consumed the write bits
      g_step = 3;
      pm2_wait_signals(1);
    } else {
      round_at(1);
      g_step = 2;
    }
  });
}

// --- a quiet round compares nothing, but only with the watch -----------------

TEST_P(Mirror, QuietRoundComparesOnlyWithoutWatch) {
  reset_globals();
  const bool with_watch = tracked();
  run_nodes(1, with_watch, [with_watch](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(owner_worker, nullptr, "owner");
    g_step = 1;
    while (g_acks.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    checkpoint_node_to_store(rt);
    const uint64_t before = rt.slot_store()->stats().pages_compared;
    StoreCheckpointStats quiet = checkpoint_node_to_store(rt);
    const uint64_t compared =
        rt.slot_store()->stats().pages_compared - before;
    EXPECT_EQ(quiet.bytes_written, 0u);
    if (with_watch) {
      EXPECT_EQ(compared, 0u);
    } else {
      EXPECT_EQ(compared, quiet.bytes_skipped / kPage);
      EXPECT_GT(compared, 0u);
    }
    EXPECT_EQ(mirror_mismatches(rt), 0);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_step = kRounds + 1;
    pm2_wait_signals(1);
  });
}

// --- store-level cases: no runtime ------------------------------------------

/// One store over a private area, with or without the area's watch.
struct Bench {
  explicit Bench(bool tracked, unsigned base_index) : area([&] {
      iso::AreaConfig ac;
      ac.base = iso::offset_area_base(base_index);
      ac.size = 64ull << 20;
      return ac;
    }()) {
    iso::SlotStoreConfig sc;
    sc.path = make_store_dir() + "/bench.store";
    path = sc.path;
    store = std::make_unique<iso::SlotStore>(
        area, sc, binary_stamp(), 0, 1,
        tracked ? &area.write_watch() : nullptr);
  }
  unsigned char* slot(size_t i) {
    return static_cast<unsigned char*>(area.slot_addr(i));
  }
  /// One store-level round: stage the run's changed pages, commit them.
  bool round_mirrors(size_t first, size_t count) {
    store->write_changed(first, count);
    return store->sync() && file_equals_memory(path, area, first, count);
  }

  iso::Area area;
  std::string path;
  std::unique_ptr<iso::SlotStore> store;
};

TEST_P(Mirror, DecommitAndRecommit) {
  Bench b(tracked(), 2);
  b.area.commit(4, 2);
  std::memset(b.slot(4), 0xab, 2 * b.area.slot_size());
  ASSERT_TRUE(b.round_mirrors(4, 2));
  // Zapped and recommitted: memory reads zero again, the file does not.
  b.area.decommit_force(4, 2);
  b.area.commit(4, 2);
  EXPECT_TRUE(b.round_mirrors(4, 2));
  b.slot(5)[3 * kPage] = 0xcd;
  EXPECT_TRUE(b.round_mirrors(4, 2));
}

TEST_P(Mirror, ForkedChild) {
  Bench b(tracked(), 3);
  b.area.commit(8, 2);
  std::memset(b.slot(8), 0x21, 2 * b.area.slot_size());
  ASSERT_TRUE(b.round_mirrors(8, 2));
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The inherited pagemap fd reads the parent's address space, which
    // saw none of these writes: the child must compare every page.
    for (size_t p = 0; p < 32; p += 5) b.slot(8)[p * kPage + 1] = 0x42;
    ::_exit(b.round_mirrors(8, 2) ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the forked child's round left its file image stale";
}

INSTANTIATE_TEST_SUITE_P(Watch, Mirror, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tracked" : "Untracked";
                         });

}  // namespace
}  // namespace pm2
