// SlotStore residency tiering: freeze -> demote -> (unfreeze | migrate),
// budget-driven eviction order, capacity beyond the resident budget,
// header/stamp validation on recovery, audit coverage of demoted runs, and
// node checkpoints that write only the pages differing from the store file.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
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

// After a failed fdatasync Linux may drop the dirty pages, so a seal would
// name data that never reached the disk.  The failed sync seals nothing and
// says so; the next good sync seals as usual.
TEST(SlotStore, FailedDataSyncSealsNothing) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(14);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = make_store_dir() + "/fail.store";
  iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  area.commit(2, 1);
  std::memset(area.slot_addr(2), 0x3e, area.slot_size());
  ASSERT_TRUE(store.record_thread(78, 0, {{2, 1}}));
  store.write_changed(2, 1);
  sys::fault_arm_sync_failures(1);
  EXPECT_FALSE(store.sync({78}));
  EXPECT_TRUE(store.recorded_threads().empty());
  EXPECT_EQ(store.stats().sync_failures, 1u);
  EXPECT_TRUE(store.sync({78}));
  EXPECT_EQ(store.recorded_threads().size(), 1u);
  EXPECT_EQ(store.stats().sync_failures, 1u);
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
