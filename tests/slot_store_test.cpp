// SlotStore residency tiering: freeze -> demote -> (unfreeze | migrate),
// budget-driven eviction order, capacity beyond the resident budget,
// header/stamp validation on recovery, audit coverage of demoted runs, and
// node checkpoints that write only the pages differing from the store file.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/slot_store.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/audit.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"
#include "sys/vm.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_phase{0};
std::atomic<int> g_built{0};
std::atomic<int> g_done{0};
std::atomic<bool> g_ok{true};

#define WEXPECT(cond)                                                   \
  do {                                                                  \
    if (!(cond)) {                                                      \
      g_ok = false;                                                     \
      pm2_printf("WEXPECT failed: %s (line %d)\n", #cond, __LINE__);    \
    }                                                                   \
  } while (0)

std::string make_store_dir() {
  char tmpl[] = "/tmp/pm2-store-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  PM2_CHECK(dir != nullptr) << "mkdtemp failed";
  return dir;
}

/// True when the page holding `addr` has resident (committed) physical
/// memory.  Demotion decommits (MADV_DONTNEED + PROT_NONE) every page of a
/// run but its first, so those pages read as non-resident without touching
/// them.
bool page_resident(const void* addr) {
  uintptr_t page = reinterpret_cast<uintptr_t>(addr) & ~uintptr_t{4095};
  unsigned char vec = 0;
  PM2_CHECK(::mincore(reinterpret_cast<void*>(page), 1, &vec) == 0);
  return (vec & 1) != 0;
}

// --- freeze -> demote -> unfreeze -------------------------------------------

void tier_worker(void*) {
  auto* data = static_cast<int*>(pm2_isomalloc(2048 * sizeof(int)));
  for (int i = 0; i < 2048; ++i) data[i] = i ^ 0x5a5a;
  int local = 4242;
  g_phase = 1;
  while (g_phase.load() < 2) pm2_yield();
  // Back from the store file: heap and stack contents must be intact.
  for (int i = 0; i < 2048; ++i) WEXPECT(data[i] == (i ^ 0x5a5a));
  WEXPECT(local == 4242);
  pm2_isofree(data);
  g_done = 1;
  pm2_signal(0);
}

TEST(SlotStore, TierCycleFreezeDemoteUnfreeze) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    ASSERT_NE(rt.slot_store(), nullptr);
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    marcel::Thread* t = rt.sched().find(id);
    ASSERT_NE(t, nullptr);
    // The stack's top page (its live frames): demotion keeps only the
    // run's first page, which holds the descriptor and the canary.
    void* stack_probe = static_cast<char*>(t->stack_top) - 1;
    EXPECT_TRUE(page_resident(stack_probe));

    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.residency().demote(id));
    EXPECT_TRUE(rt.residency().demoted(id));
    EXPECT_EQ(rt.residency().demoted_count(), 1u);
    EXPECT_EQ(rt.residency().demotions(), 1u);
    EXPECT_GT(rt.residency().demoted_bytes(), 0u);
    // Pages are really gone, not just bookkept: the store file is the only
    // copy of the thread now.
    EXPECT_FALSE(page_resident(stack_probe));
    EXPECT_TRUE(rt.slot_store()->has_record(id));

    ASSERT_TRUE(rt.unfreeze_thread(id));
    EXPECT_EQ(rt.residency().fault_backs(), 1u);
    EXPECT_FALSE(rt.residency().demoted(id));
    EXPECT_EQ(rt.residency().demoted_count(), 0u);
    EXPECT_TRUE(page_resident(stack_probe));
    g_phase = 2;
    pm2_wait_signals(1);
    EXPECT_EQ(g_done.load(), 1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- freeze -> demote -> migrate out ----------------------------------------

void roam_worker(void*) {
  auto* data = static_cast<long*>(pm2_isomalloc(1024 * sizeof(long)));
  for (int i = 0; i < 1024; ++i) data[i] = 3L * i + 7;
  g_phase = 1;
  while (pm2_self() == 0) pm2_yield();
  // Resumed on node 1 after a demote + ship: the pack faulted the image
  // back from node 0's store file.
  WEXPECT(pm2_self() == 1);
  for (int i = 0; i < 1024; ++i) WEXPECT(data[i] == 3L * i + 7);
  pm2_isofree(data);
  pm2_signal(0);
}

TEST(SlotStore, FreezeDemoteMigrateFaultsBackOnPack) {
  g_phase = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() != 0) return;
    marcel::ThreadId id = pm2_thread_create(roam_worker, nullptr, "roam");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.residency().demote(id));
    EXPECT_TRUE(rt.residency().demoted(id));
    ASSERT_TRUE(rt.migrate(id, 1));
    // The slots left this node: the demotion record went with them.
    EXPECT_EQ(rt.residency().demoted_count(), 0u);
    EXPECT_FALSE(rt.slot_store()->has_record(id));
    EXPECT_GE(rt.residency().fault_backs(), 1u);
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- budget-driven decay: coldest first -------------------------------------

void spin_worker(void* arg) {
  // Stack-only footprint (one slot): a recognizable local pattern survives
  // the store round trip.
  long seed = reinterpret_cast<intptr_t>(arg);
  volatile long pattern[32];
  for (int i = 0; i < 32; ++i) pattern[i] = seed * 1000 + i;
  g_built.fetch_add(1);
  while (g_phase.load() < 1) pm2_yield();
  for (int i = 0; i < 32; ++i) WEXPECT(pattern[i] == seed * 1000 + i);
  g_done.fetch_add(1);
  pm2_signal(0);
}

TEST(SlotStore, OverBudgetEvictionIsColdestFirst) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  cfg.rt.slot_store_budget = cfg.area.slot_size;  // one resident cold thread
  cfg.rt.slot_store_decay_us = 0;                 // age horizon: immediate
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId ids[3];
    for (int i = 0; i < 3; ++i) {
      ids[i] = pm2_thread_create(spin_worker,
                                 reinterpret_cast<void*>(intptr_t{i + 1}),
                                 "spin");
    }
    while (g_built.load() < 3) pm2_yield();
    // Freeze in order 0,1,2 with distinct cold stamps: 0 is coldest.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(rt.freeze_thread(ids[i]));
      pm2_sleep_us(2000);
    }
    rt.residency().decay(now_ns());
    // Budget fits exactly one stack slot: the two coldest page out, the
    // youngest stays resident.
    EXPECT_TRUE(rt.residency().demoted(ids[0]));
    EXPECT_TRUE(rt.residency().demoted(ids[1]));
    EXPECT_FALSE(rt.residency().demoted(ids[2]));
    EXPECT_EQ(rt.residency().demoted_count(), 2u);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(rt.unfreeze_thread(ids[i]));
    EXPECT_EQ(rt.residency().demoted_count(), 0u);
    g_phase = 1;
    pm2_wait_signals(3);
    EXPECT_EQ(g_done.load(), 3);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- capacity beyond the resident budget ------------------------------------

// Acceptance shape: a node hosts 4x more frozen threads than the resident
// budget allows hot — 8 frozen one-slot threads against a 2-slot budget.
constexpr int kThreads = 8;

TEST(SlotStore, HostsFourTimesMoreFrozenThanBudget) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  cfg.rt.slot_store_budget = 2 * cfg.area.slot_size;
  cfg.rt.slot_store_decay_us = 0;
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId ids[kThreads];
    for (int i = 0; i < kThreads; ++i) {
      ids[i] = pm2_thread_create(spin_worker,
                                 reinterpret_cast<void*>(intptr_t{i + 1}),
                                 "spin");
    }
    while (g_built.load() < kThreads) pm2_yield();
    for (int i = 0; i < kThreads; ++i) ASSERT_TRUE(rt.freeze_thread(ids[i]));
    rt.residency().decay(now_ns());
    // 8 frozen threads, at most 2 slots resident: >= 6 demoted to the file.
    EXPECT_GE(rt.residency().demoted_count(), static_cast<size_t>(kThreads - 2));
    EXPECT_GE(rt.residency().demoted_bytes(),
              static_cast<size_t>(kThreads - 2) * rt.area().slot_size());
    for (int i = 0; i < kThreads; ++i) ASSERT_TRUE(rt.unfreeze_thread(ids[i]));
    EXPECT_EQ(rt.residency().demoted_count(), 0u);
    EXPECT_GE(rt.residency().fault_backs(), static_cast<uint64_t>(kThreads - 2));
    g_phase = 1;
    pm2_wait_signals(kThreads);
    EXPECT_EQ(g_done.load(), kThreads);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- recovery validation: refuse foreign or torn store files ----------------

TEST(SlotStore, RecoveryRefusesGarbageFile) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string path = make_store_dir() + "/bad.store";
  {
    std::ofstream f(path, std::ios::binary);
    for (int i = 0; i < 8192; ++i) f.put(static_cast<char>(i * 37));
  }
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(8);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH({ iso::SlotStore store(area, sc, binary_stamp(), 0, 1); },
               "not a PM2 slot store");
}

TEST(SlotStore, RecoveryRefusesForeignBinaryStamp) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string path = make_store_dir() + "/stamp.store";
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(9);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  {
    iso::SlotStoreConfig sc;
    sc.path = path;
    iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  }
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH({ iso::SlotStore store(area, sc, binary_stamp() ^ 1, 0, 1); },
               "different binary");
}

TEST(SlotStore, RecoveryRefusesGeometryMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string path = make_store_dir() + "/geom.store";
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(10);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  {
    iso::SlotStoreConfig sc;
    sc.path = path;
    iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  }
  iso::AreaConfig ac2 = ac;
  ac2.base = iso::offset_area_base(11);  // different area base, same file
  iso::Area area2(ac2);
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH({ iso::SlotStore store(area2, sc, binary_stamp(), 0, 1); },
               "geometry mismatch");
}

TEST(SlotStore, RecoveryRefusesSessionShapeMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string path = make_store_dir() + "/shape.store";
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(12);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  {
    iso::SlotStoreConfig sc;
    sc.path = path;
    iso::SlotStore store(area, sc, binary_stamp(), /*node=*/0, /*n_nodes=*/2);
  }
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH(
      { iso::SlotStore store(area, sc, binary_stamp(), /*node=*/1,
                             /*n_nodes=*/2); },
      "different node/session shape");
}

// --- audit covers demoted runs ----------------------------------------------

TEST(SlotStore, AuditCoversDemotedRuns) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() != 0) return;
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.residency().demote(id));
    AuditReport report = audit_session(rt);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.threads_demoted, 1u);
    // Stack run plus at least one heap run.
    EXPECT_GE(report.demoted_slots, 2u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    AuditReport after = audit_session(rt);
    EXPECT_TRUE(after.ok) << after.summary();
    EXPECT_EQ(after.threads_demoted, 0u);
    g_phase = 2;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- compare-and-write node checkpoints -------------------------------------

/// Byte-compare every recorded run of `id` in this node's store file with
/// the (committed, quiescent) memory at the same iso-addresses.
bool file_matches_memory(Runtime& rt, marcel::ThreadId id) {
  const std::string path = rt.config().slot_store_dir + "/node" +
                           std::to_string(rt.self()) + ".store";
  std::ifstream f(path, std::ios::binary);
  iso::StoreHeader hdr;
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  bool found = false;
  for (const auto& rec : rt.slot_store()->recorded_threads()) {
    if (rec.id != id) continue;
    found = true;
    for (auto [first, count] : rec.runs) {
      const size_t len = size_t{count} * rt.area().slot_size();
      std::vector<char> bytes(len);
      f.seekg(static_cast<std::streamoff>(hdr.data_off +
                                          first * rt.area().slot_size()));
      f.read(bytes.data(), static_cast<std::streamsize>(len));
      if (!f.good() ||
          std::memcmp(bytes.data(), rt.area().slot_addr(first), len) != 0) {
        return false;
      }
    }
  }
  return found;
}

void dirty_worker(void*) {
  constexpr size_t kBytes = 64 * 1024;
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(kBytes));
  std::memset(data, 0xab, kBytes);
  g_phase = 1;
  while (g_phase.load() < 2) pm2_yield();
  // Dirty ~10% of the pages between the two checkpoints.
  for (size_t p = 0; p < kBytes / 4096; p += 8) data[p * 4096] = 0xcd;
  g_phase = 3;
  while (g_phase.load() < 4) pm2_yield();
  for (size_t i = 0; i < kBytes; ++i) {
    unsigned char want = (i % 4096 == 0 && (i / 4096) % 8 == 0) ? 0xcd : 0xab;
    WEXPECT(data[i] == want);
  }
  pm2_isofree(data);
  pm2_signal(0);
}

TEST(SlotStore, IncrementalCheckpointWritesLessThanFull) {
  g_phase = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    pm2_thread_create(dirty_worker, nullptr, "dirty");
    while (g_phase.load() < 1) pm2_yield();
    StoreCheckpointStats full = checkpoint_node_to_store(rt);
    EXPECT_EQ(full.threads, 1u);
    EXPECT_GT(full.bytes_written, 0u);
    g_phase = 2;
    while (g_phase.load() < 3) pm2_yield();
    StoreCheckpointStats incr = checkpoint_node_to_store(rt);
    EXPECT_EQ(incr.threads, 1u);
    EXPECT_LT(incr.bytes_written, full.bytes_written);
    EXPECT_GT(incr.bytes_skipped, 0u);
    // Both rounds cover the same slots.
    EXPECT_EQ(incr.bytes_written + incr.bytes_skipped,
              full.bytes_written + full.bytes_skipped);
    g_phase = 4;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

TEST(SlotStore, BackToBackRoundsOverFrozenThreadsWriteNothing) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId ids[3];
    for (int i = 0; i < 3; ++i) {
      ids[i] = pm2_thread_create(spin_worker,
                                 reinterpret_cast<void*>(intptr_t{i + 1}),
                                 "spin");
    }
    while (g_built.load() < 3) pm2_yield();
    for (marcel::ThreadId id : ids) ASSERT_TRUE(rt.freeze_thread(id));
    StoreCheckpointStats first = checkpoint_node_to_store(rt);
    EXPECT_EQ(first.threads, 3u);
    EXPECT_GT(first.bytes_written, 0u);
    // Nothing ran in between: every page already equals the file.
    StoreCheckpointStats second = checkpoint_node_to_store(rt);
    EXPECT_EQ(second.threads, 3u);
    EXPECT_EQ(second.bytes_written, 0u);
    EXPECT_EQ(second.bytes_skipped, first.bytes_written + first.bytes_skipped);
    for (marcel::ThreadId id : ids) EXPECT_TRUE(file_matches_memory(rt, id));
    for (marcel::ThreadId id : ids) ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 1;
    pm2_wait_signals(3);
    EXPECT_EQ(g_done.load(), 3);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- durability order: a round's seals wait for its data sync --------------

// checkpoint_node_to_store records and writes every thread first and seals
// them only in its closing sync step (data, then seals, then directory), so
// no record can turn adoptable before the data it names is on disk.
TEST(SlotStore, RecordStaysUnsealedUntilTheSyncStep) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(14);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = make_store_dir() + "/order.store";
  iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  auto sealed = [&store](uint64_t id) {
    for (const auto& rec : store.recorded_threads()) {
      if (rec.id == id) return true;
    }
    return false;
  };
  area.commit(2, 1);
  std::memset(area.slot_addr(2), 0x5c, area.slot_size());
  ASSERT_TRUE(store.record_thread(77, 0, {{2, 1}}));
  EXPECT_EQ(store.write_changed(2, 1), area.slot_size());
  EXPECT_TRUE(store.has_record(77));
  EXPECT_FALSE(sealed(77));
  store.sync({77});
  EXPECT_TRUE(sealed(77));
}

/// The home bytes of slots [first, first+count) in the store file at
/// `path`; bytes past its end read as zeros.
std::vector<char> home_bytes(const std::string& path, const iso::Area& area,
                             size_t first, size_t count) {
  std::vector<char> bytes(count * area.slot_size(), 0);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PM2_CHECK(fd >= 0) << "cannot open " << path;
  iso::StoreHeader hdr;
  PM2_CHECK(::pread(fd, &hdr, sizeof(hdr), 0) ==
            static_cast<ssize_t>(sizeof(hdr)));
  PM2_CHECK(::pread(fd, bytes.data(), bytes.size(),
                    static_cast<off_t>(hdr.data_off +
                                       first * area.slot_size())) >= 0);
  ::close(fd);
  return bytes;
}

bool home_equals_memory(const std::string& path, const iso::Area& area,
                        size_t first, size_t count) {
  std::vector<char> bytes = home_bytes(path, area, first, count);
  return std::memcmp(bytes.data(), area.slot_addr(first), bytes.size()) == 0;
}

// After a failed fdatasync Linux may drop the dirty pages, so a seal would
// name data that never reached the disk.  A failed sync — the lap that
// precedes a fresh store's first record, or the journal write itself —
// writes no home page and seals nothing, and keeps the staged pages: the
// next good sync writes and seals them.
TEST(SlotStore, FailedDataSyncSealsNothing) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(14);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = make_store_dir() + "/fail.store";
  iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  area.commit(2, 1);
  for (uint64_t failures = 1; failures <= 2; ++failures) {
    std::memset(area.slot_addr(2), 0x3e + static_cast<int>(failures),
                area.slot_size());
    ASSERT_TRUE(store.record_thread(78, failures, {{2, 1}}));
    store.write_changed(2, 1);
    const std::vector<char> before = home_bytes(sc.path, area, 2, 1);
    const uint64_t journaled = store.stats().journal_bytes;
    sys::fault_arm_sync_failures(1);
    EXPECT_FALSE(store.sync({78}));
    EXPECT_EQ(store.stats().sync_failures, failures);
    EXPECT_EQ(store.stats().journal_bytes, journaled);
    EXPECT_EQ(home_bytes(sc.path, area, 2, 1), before);
    const auto sealed = store.recorded_threads();
    EXPECT_EQ(sealed.size(), failures - 1);
    for (const auto& rec : sealed) EXPECT_EQ(rec.desc_addr, failures - 1);
    EXPECT_TRUE(store.sync({78}));
    EXPECT_EQ(store.stats().sync_failures, failures);
    ASSERT_EQ(store.recorded_threads().size(), 1u);
    EXPECT_EQ(store.recorded_threads()[0].desc_addr, failures);
    EXPECT_TRUE(home_equals_memory(sc.path, area, 2, 1));
  }
}

// checkpoint_node_to_store passes a failed sync up instead of reporting a
// durable round.
TEST(SlotStore, CheckpointReportsAFailedSync) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(
        spin_worker, reinterpret_cast<void*>(intptr_t{9}), "spin");
    while (g_built.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    sys::fault_arm_sync_failures(1);
    StoreCheckpointStats failed = checkpoint_node_to_store(rt);
    EXPECT_FALSE(failed.synced);
    EXPECT_EQ(failed.threads, 1u);
    EXPECT_TRUE(rt.slot_store()->recorded_threads().empty());
    EXPECT_EQ(rt.slot_store()->stats().sync_failures, 1u);
    StoreCheckpointStats retry = checkpoint_node_to_store(rt);
    EXPECT_TRUE(retry.synced);
    EXPECT_EQ(rt.slot_store()->recorded_threads().size(), 1u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 1;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
  EXPECT_EQ(g_done.load(), 1);
}

std::atomic<unsigned char*> g_buffer{nullptr};
constexpr size_t kBufferBytes = 32 * 1024;

void buffer_worker(void*) {
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(kBufferBytes));
  std::memset(data, 0x11, kBufferBytes);
  g_buffer = data;
  while (g_phase.load() < 1) pm2_yield();
  pm2_isofree(data);
  g_done.fetch_add(1);
  pm2_signal(0);
}

/// The home bytes of every recorded run of `id`, in record order.
std::vector<char> recorded_home_bytes(Runtime& rt, marcel::ThreadId id) {
  const std::string path = rt.config().slot_store_dir + "/node" +
                           std::to_string(rt.self()) + ".store";
  std::vector<char> out;
  for (const auto& rec : rt.slot_store()->recorded_threads()) {
    if (rec.id != id) continue;
    for (auto [first, count] : rec.runs) {
      std::vector<char> run = home_bytes(path, rt.area(), first, count);
      out.insert(out.end(), run.begin(), run.end());
    }
  }
  return out;
}

// A failed round or demotion seals nothing, and its threads then change.
// The next commit, here another thread's demotion, must not write the
// failed commit's staged pages home: the target's record still seals the
// round before, and its home bytes must stay that round's image.
TEST(SlotStore, FailedCommitLeavesNoPagesForALaterCommit) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  g_buffer = nullptr;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId target = pm2_thread_create(buffer_worker, nullptr, "buf");
    marcel::ThreadId others[2];
    for (int i = 0; i < 2; ++i) {
      others[i] = pm2_thread_create(
          spin_worker, reinterpret_cast<void*>(intptr_t{5 + i}), "spin");
    }
    while (g_buffer.load() == nullptr || g_built.load() < 2) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(target));
    for (marcel::ThreadId id : others) ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(checkpoint_node_to_store(rt).synced);
    const std::vector<char> sealed = recorded_home_bytes(rt, target);
    ASSERT_FALSE(sealed.empty());

    // A failed round, then another thread's demotion.
    std::memset(g_buffer.load(), 0x22, kBufferBytes);
    sys::fault_arm_sync_failures(1);
    EXPECT_FALSE(checkpoint_node_to_store(rt).synced);
    std::memset(g_buffer.load(), 0x33, kBufferBytes);
    ASSERT_TRUE(rt.residency().demote(others[0]));
    EXPECT_EQ(recorded_home_bytes(rt, target), sealed);

    // A failed demotion of the target, then another thread's demotion.
    std::memset(g_buffer.load(), 0x44, kBufferBytes);
    sys::fault_arm_sync_failures(1);
    EXPECT_FALSE(rt.residency().demote(target));
    std::memset(g_buffer.load(), 0x55, kBufferBytes);
    ASSERT_TRUE(rt.residency().demote(others[1]));
    EXPECT_EQ(recorded_home_bytes(rt, target), sealed);

    // The next good round writes the target whole and seals it.
    ASSERT_TRUE(checkpoint_node_to_store(rt).synced);
    EXPECT_TRUE(file_matches_memory(rt, target));
    ASSERT_TRUE(rt.unfreeze_thread(target));
    for (marcel::ThreadId id : others) ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 1;
    pm2_wait_signals(3);
    EXPECT_EQ(g_done.load(), 3);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- the journal: torn records, laps ----------------------------------------

/// Copy the data extents of `from` to a fresh `to` of the same size (the
/// journal and home regions are mostly holes).
void copy_sparse(const std::string& from, const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY | O_CLOEXEC);
  const int out = ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  PM2_CHECK(in >= 0 && out >= 0) << "cannot copy " << from;
  struct stat st{};
  PM2_CHECK(::fstat(in, &st) == 0 && ::ftruncate(out, st.st_size) == 0);
  std::vector<char> buf(1 << 20);
  for (off_t pos = 0; (pos = ::lseek(in, pos, SEEK_DATA)) >= 0;) {
    const off_t hole = ::lseek(in, pos, SEEK_HOLE);
    while (pos < hole) {
      const ssize_t n = ::pread(
          in, buf.data(), std::min<size_t>(buf.size(), hole - pos), pos);
      PM2_CHECK(n > 0 && ::pwrite(out, buf.data(), n, pos) == n);
      pos += n;
    }
  }
  ::close(in);
  ::close(out);
}

/// Offset and header of the last record of the journal chain in `path`.
std::pair<uint64_t, iso::JournalRecord> last_record(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PM2_CHECK(fd >= 0);
  iso::StoreHeader hdr;
  PM2_CHECK(::pread(fd, &hdr, sizeof(hdr), 0) ==
            static_cast<ssize_t>(sizeof(hdr)));
  std::pair<uint64_t, iso::JournalRecord> last{0, {}};
  uint64_t at = hdr.journal_off;
  for (uint64_t seq = hdr.journal_seq;; ++seq) {
    iso::JournalRecord rec;
    if (::pread(fd, &rec, sizeof(rec), static_cast<off_t>(at)) !=
            static_cast<ssize_t>(sizeof(rec)) ||
        rec.magic != iso::JournalRecord::kMagic || rec.seq != seq) {
      break;
    }
    last = {at, rec};
    at += rec.bytes;
  }
  ::close(fd);
  return last;
}

/// Rounds over slots [kFirst, kFirst + kCount) of a private area and one
/// record (thread 90): round r rewrites a third of the pages, chosen by r,
/// and records desc_addr = r, so a recovered file names the round its
/// directory holds and the test can check its home bytes are that round's.
struct JournalRounds {
  static constexpr size_t kFirst = 4;
  static constexpr size_t kCount = 4;

  JournalRounds(unsigned base_index, size_t first, size_t count)
      : area([&] {
          iso::AreaConfig ac;
          ac.base = iso::offset_area_base(base_index);
          ac.size = 64ull << 20;
          return ac;
        }()),
        first(first),
        count(count),
        dir(make_store_dir()) {
    iso::SlotStoreConfig sc;
    sc.path = dir + "/journal.store";
    store = std::make_unique<iso::SlotStore>(area, sc, binary_stamp(), 0, 1);
    area.commit(first, count);
    images.emplace_back(count * area.slot_size(), 0);  // round 0: nothing
  }
  std::string path() const { return dir + "/journal.store"; }

  /// Run round r; `every` = 1 rewrites every page.
  void round(uint64_t r, size_t every = 3) {
    auto* mem = static_cast<unsigned char*>(area.slot_addr(first));
    for (size_t p = 0; p < count * area.slot_size() / 4096; ++p) {
      if ((p + r) % every != 0) continue;
      for (size_t i = 0; i < 4096; ++i) {
        mem[p * 4096 + i] = static_cast<unsigned char>(r * 31 + p + i / 97);
      }
    }
    ASSERT_TRUE(store->record_thread(90, r, {{first, count}}));
    store->write_changed(first, count);
    ASSERT_TRUE(store->sync({90}));
    images.emplace_back(reinterpret_cast<char*>(mem),
                        reinterpret_cast<char*>(mem) + count * area.slot_size());
  }

  /// Recover the store file `copy` and return the round it holds, or -1
  /// when its directory and home bytes are not one round's.
  int recovered_round(const std::string& copy) {
    iso::SlotStoreConfig sc;
    sc.path = copy;
    sc.recover = true;
    iso::SlotStore again(area, sc, binary_stamp(), 0, 1);
    const auto recs = again.recorded_threads();
    const uint64_t r = recs.size() == 1 ? recs[0].desc_addr : 0;
    if (r >= images.size()) return -1;
    return home_bytes(copy, area, first, count) == images[r]
               ? static_cast<int>(r)
               : -1;
  }

  iso::Area area;
  size_t first;
  size_t count;
  std::string dir;
  std::unique_ptr<iso::SlotStore> store;
  std::vector<std::vector<char>> images;  // [r] = memory after round r
};

// A crash can leave any prefix of the last journal record on disk, and a
// bad sector can flip a byte of it.  Recovery must then hold the round
// before, whole — never a mix of the two.  The copy of the file taken
// before the last round is the disk state the WAL rule allows at that
// point: no home page of the last round is written before its record.
TEST(SlotStore, TornJournalRecordRecoversThePreviousRoundWhole) {
  JournalRounds j(15, JournalRounds::kFirst, JournalRounds::kCount);
  constexpr int kRounds = 5;
  for (int r = 1; r < kRounds; ++r) j.round(r);
  const std::string before = j.dir + "/before.store";
  copy_sparse(j.path(), before);
  j.round(kRounds);
  const auto [at, rec] = last_record(j.path());
  ASSERT_EQ(rec.seq, static_cast<uint64_t>(kRounds) + 0u);
  std::vector<char> bytes(rec.bytes);
  {
    const int fd = ::open(j.path().c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_EQ(::pread(fd, bytes.data(), bytes.size(), static_cast<off_t>(at)),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }
  ASSERT_GT(rec.bytes, 4 * iso::JournalRecord::kAlign);  // several cuts
  const std::string copy = j.dir + "/copy.store";
  auto with_record = [&](const std::vector<char>& rec_bytes, size_t len) {
    copy_sparse(before, copy);
    const int fd = ::open(copy.c_str(), O_WRONLY | O_CLOEXEC);
    EXPECT_EQ(::pwrite(fd, rec_bytes.data(), len, static_cast<off_t>(at)),
              static_cast<ssize_t>(len));
    ::close(fd);
    return j.recovered_round(copy);
  };
  for (size_t cut = 0; cut < rec.bytes; cut += iso::JournalRecord::kAlign) {
    EXPECT_EQ(with_record(bytes, cut), kRounds - 1) << "cut at " << cut;
  }
  EXPECT_EQ(with_record(bytes, bytes.size()), kRounds);
  const uint64_t payload =
      sizeof(iso::JournalRecord) + rec.n_stretches * sizeof(iso::JournalStretch) +
      rec.n_entries * sizeof(iso::JournalEntry);
  std::vector<char> flipped = bytes;
  flipped[payload + 1000] ^= 0x10;
  EXPECT_EQ(with_record(flipped, flipped.size()), kRounds - 1);
}

// Rounds that fill the journal twice over lap it (sync home, restart the
// journal), and a round larger than the journal commits around it; a copy
// of the file recovers byte-exact after either.
TEST(SlotStore, JournalLapsAndOversizedRoundsRecoverExactly) {
  const std::string copy = make_store_dir() + "/copy.store";
  {
    // 16 slots rewritten whole: 1 MiB records, seven to a journal.
    JournalRounds j(15, 16, 16);
    // The first lap makes the fresh store's header durable; two more
    // wrap the journal twice.
    uint64_t r = 1;
    for (; j.store->stats().journal_laps < 3; ++r) j.round(r, 1);
    EXPECT_GT(j.store->stats().journal_bytes, iso::SlotStore::kJournalBytes);
    j.round(r++);  // recovery replays the records since the last lap
    copy_sparse(j.path(), copy);
    EXPECT_EQ(j.recovered_round(copy), static_cast<int>(r - 1));
  }
  // 9 MiB written whole: no record can carry it.
  JournalRounds big(15, 0, 144);
  big.round(1, 1);
  big.round(2);
  EXPECT_GT(big.store->stats().journal_bytes, 0u);
  copy_sparse(big.path(), copy);
  EXPECT_EQ(big.recovered_round(copy), 2);
}

// An erase reaches the directory page at once, but a power cut can lose
// that page while a later journal record survives.  Thread 2 exits and
// thread 3 reuses its slot from a lower directory entry (thread 1's, also
// erased): recovering a file whose directory predates the erases must
// adopt thread 3 alone, never thread 2 over thread 3's bytes.
TEST(SlotStore, ErasedRecordStaysErasedWhenItsDirectoryPageIsLost) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(14);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = make_store_dir() + "/erase.store";
  iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  area.commit(2, 2);
  std::memset(area.slot_addr(2), 0x21, 2 * area.slot_size());
  ASSERT_TRUE(store.record_thread(1, 0xa, {{2, 1}}));
  ASSERT_TRUE(store.record_thread(2, 0xb, {{3, 1}}));
  store.write_changed(2, 2);
  ASSERT_TRUE(store.sync({1, 2}));

  iso::StoreHeader hdr;
  std::vector<char> old_dir;
  {
    const int fd = ::open(sc.path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_EQ(::pread(fd, &hdr, sizeof(hdr), 0),
              static_cast<ssize_t>(sizeof(hdr)));
    old_dir.resize(hdr.journal_off);
    ASSERT_EQ(::pread(fd, old_dir.data(), old_dir.size(), 0),
              static_cast<ssize_t>(old_dir.size()));
    ::close(fd);
  }
  store.erase_thread(1);
  store.erase_thread(2);
  std::memset(area.slot_addr(3), 0x43, area.slot_size());
  ASSERT_TRUE(store.record_thread(3, 0xc, {{3, 1}}));
  store.write_changed(3, 1);
  ASSERT_TRUE(store.sync({3}));

  const std::string copy = sc.path + ".copy";
  copy_sparse(sc.path, copy);
  {
    const int fd = ::open(copy.c_str(), O_WRONLY | O_CLOEXEC);
    ASSERT_EQ(::pwrite(fd, old_dir.data(), old_dir.size(), 0),
              static_cast<ssize_t>(old_dir.size()));
    ::close(fd);
  }
  iso::SlotStoreConfig rc;
  rc.path = copy;
  rc.recover = true;
  iso::SlotStore again(area, rc, binary_stamp(), 0, 1);
  const auto recs = again.recorded_threads();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].id, 3u);
  EXPECT_EQ(recs[0].desc_addr, 0xcu);
  EXPECT_TRUE(home_equals_memory(copy, area, 3, 1));
}

// A record holds up to StoreDirEntry::kMaxRuns runs, and recovery returns
// them all; one run more is refused.
TEST(SlotStore, RecordKeepsItsFullRunTable) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(14);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = make_store_dir() + "/runs.store";
  std::vector<iso::SlotRun> runs;
  {
    iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
    for (size_t i = 0; i <= iso::StoreDirEntry::kMaxRuns; ++i) {
      runs.emplace_back(2 * i, 1);
    }
    EXPECT_FALSE(store.record_thread(5, 0, runs));
    runs.pop_back();
    ASSERT_TRUE(store.record_thread(5, 0, runs));
    for (auto [first, count] : runs) {
      area.commit(first, count);
      store.write_changed(first, count);
    }
    ASSERT_TRUE(store.sync({5}));
  }
  sc.recover = true;
  iso::SlotStore again(area, sc, binary_stamp(), 0, 1);
  const auto recs = again.recorded_threads();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].runs, runs);
}

// --- demotion writes only what the file lacks -------------------------------

TEST(SlotStore, DemoteAfterCheckpointWritesNoDataPages) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    StoreCheckpointStats ckpt = checkpoint_node_to_store(rt);
    ASSERT_EQ(ckpt.threads, 1u);
    const uint64_t out0 = rt.slot_store()->stats().bytes_out;
    ASSERT_TRUE(rt.residency().demote(id));
    // The checkpoint left the file equal to the frozen thread's memory.
    EXPECT_EQ(rt.slot_store()->stats().bytes_out - out0, 0u);
    EXPECT_GT(rt.residency().demoted_bytes(), 0u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 2;
    pm2_wait_signals(1);
    EXPECT_EQ(g_done.load(), 1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- multi-node in-process sessions -----------------------------------------

std::atomic<int> g_node_built[2];
std::atomic<int> g_node_phase[2];

void shared_as_worker(void*) {
  const uint32_t me = pm2_self();
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(16 * 1024));
  std::memset(data, 0x77, 16 * 1024);
  g_node_built[me] = 1;
  while (g_node_phase[me].load() < 1) pm2_yield();
  data[8192] = 0x78;  // one page changes between the node's two rounds
  g_node_built[me] = 2;
  while (g_phase.load() < 1) pm2_yield();
  pm2_isofree(data);
  pm2_signal(me);
}

// Two Runtimes share one address space, each with its own store file: each
// node's second round writes only what changed in its own threads, and
// each file ends byte-equal to its node's memory.
TEST(SlotStore, InprocMultiNodeSecondRoundsWriteOnlyChanges) {
  g_phase = 0;
  for (int i = 0; i < 2; ++i) {
    g_node_built[i] = 0;
    g_node_phase[i] = 0;
  }
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    const uint32_t me = rt.self();
    marcel::ThreadId id =
        pm2_thread_create(shared_as_worker, nullptr, "shared");
    while (g_node_built[me].load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    StoreCheckpointStats first = checkpoint_node_to_store(rt);
    EXPECT_EQ(first.threads, 1u);
    EXPECT_GT(first.bytes_written, 0u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_node_phase[me] = 1;
    while (g_node_built[me].load() < 2) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    rt.barrier();  // both nodes' first rounds and writes are done
    StoreCheckpointStats second = checkpoint_node_to_store(rt);
    EXPECT_EQ(second.threads, 1u);
    EXPECT_GT(second.bytes_written, 0u);
    EXPECT_LT(second.bytes_written, first.bytes_written);
    EXPECT_TRUE(file_matches_memory(rt, id));
    ASSERT_TRUE(rt.unfreeze_thread(id));
    rt.barrier();  // both nodes checkpoint before either releases its worker
    g_phase = 1;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// A demoted thread is already fully persisted: the node checkpoint counts
// it without touching its image (released but for each run's first page).
TEST(SlotStore, NodeCheckpointSkipsDemotedThreads) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = make_store_dir();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.residency().demote(id));
    StoreCheckpointStats stats = checkpoint_node_to_store(rt);
    EXPECT_EQ(stats.threads, 1u);
    EXPECT_EQ(stats.bytes_written, 0u);   // image already in the file
    EXPECT_GT(stats.bytes_skipped, 0u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 2;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

}  // namespace
}  // namespace pm2
