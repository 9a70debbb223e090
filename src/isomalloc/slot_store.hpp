// SlotStore: a buffer manager over iso-address slot runs.
//
// The iso-address discipline (paper §3.1) makes a thread's slot image
// *address-stable*: a run written out byte-for-byte can be read back at the
// same virtual addresses later — in this process, or in a restarted one —
// with every absolute pointer still valid.  That is exactly the property a
// database buffer manager needs to page data out without relocation, so the
// store treats slot runs like buffer pages with three residency states:
//
//   * hot          — committed anonymous RAM, as always;
//   * demoted      — run bytes written to a per-node backing file keyed by
//                    slot index, and every page but the run's first
//                    released (Area::decommit_force), so a cold frozen
//                    thread stops pinning physical memory.  The
//                    first page holds the run's SlotHeader and, for a stack
//                    run, the Thread descriptor and its canary: a demoted
//                    thread's descriptor and slot chain stay readable;
//   * faulted-back — the released pages re-committed and read back from
//                    the file at the same iso-addresses when the thread
//                    resumes, packs for migration, or is checkpointed.
//
// While a thread is demoted only node-local descriptor fields (a joiner
// link, say) may change in the kept page, so the record sealed at demotion
// stays the thread's checkpoint: restore re-adopts the thread through
// Scheduler::adopt(), which resets those fields.  Fault-back never re-reads
// the kept page, which would lose them.  The kept pages (one per demoted
// run) stay resident outside RuntimeConfig::slot_store_budget.
//
// The same backing file doubles as the persistence layer: a thread
// *directory* (MAP_SHARED header + records, so `kill -9` cannot lose it —
// the page cache survives the process) names the threads whose images live
// in the file.  A restarted node re-opens the file with `recover = true`,
// validates the binary-stamp/geometry header, and adopts the recorded
// threads (pm2::restore_node_from_store).
//
// One write rule serves both demotion and pm2::checkpoint_node_to_store:
// write_changed() makes a run's file bytes equal to its memory by writing
// only the pages that differ, compared against a read-only MAP_SHARED view
// of the data region mapped once at open.  Because the file mirrors the
// iso-area at fixed offsets, a second round over an unchanged thread writes
// nothing.  A per-slot *image bit* says the file already holds a complete
// image of the slot: slots without it are written whole, never compared, so
// the file never has holes inside a run (restores read it sequentially) and
// the view is never read past end-of-file.  Bits are set after a whole
// write and, on recovery, for the runs of sealed (kValid) records; the file
// keeps its natural size.
//
// The compare is narrowed by the area's sys::WriteWatch (kernel write
// tracking, shared by every store on the area): write_changed first takes
// the run's pages written since its last scan and skips, with no memcmp,
// an imaged page the kernel did not see written.  Every page is compared
// when the store was opened without a watch or the watch is unavailable
// (old kernel, seccomp, a forked child).  Another in-process node's scan
// may consume the write bits of a slot while it is away, so the runtime
// calls forget() whenever a slot leaves this node's threads: its next
// image is written whole.
//
// File layout (PM2STOR1):
//   [0, 4K)              StoreHeader — magic, version, binary stamp, area
//                        geometry, node, directory capacity, data offset.
//   [4K, data_off)       StoreDirEntry[dir_capacity] thread directory.
//   [data_off, ...)      sparse data region: slot index i lives at byte
//                        data_off + i * slot_size.  Only demoted or
//                        checkpointed slots occupy file blocks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isomalloc/area.hpp"
#include "sys/spinlock.hpp"
#include "sys/vm.hpp"

namespace pm2::iso {

/// One (first slot, slot count) run, as tracked by the directory.
using SlotRun = std::pair<size_t, uint32_t>;

struct SlotStoreConfig {
  /// Backing file path.  Empty disables the store.
  std::string path;
  /// Re-open an existing store and adopt its contents (crash restart).
  /// False truncates the file and writes a fresh header.
  bool recover = false;
  /// Thread-directory capacity.
  uint32_t dir_capacity = 4096;
};

struct StoreHeader {
  static constexpr uint64_t kMagic = 0x504D3253544F5231ull;  // "PM2STOR1"
  static constexpr uint32_t kVersion = 1;

  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t node = 0;
  uint64_t binary_stamp = 0;
  uint64_t area_base = 0;
  uint64_t area_size = 0;
  uint64_t slot_size = 0;
  uint32_t n_nodes = 0;
  uint32_t dir_capacity = 0;
  uint64_t data_off = 0;
};

struct StoreRun {
  uint32_t first = 0;
  uint32_t count = 0;
};

/// Fixed-size thread-directory record.  `state` is the crash-atomicity
/// latch: records are flipped to kWriting before any data write and sealed
/// kValid after, so a kill -9 mid-write leaves a record recovery skips
/// instead of a torn image it would adopt.
struct StoreDirEntry {
  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kWriting = 1;
  static constexpr uint32_t kValid = 2;
  static constexpr uint32_t kMaxRuns = 13;

  uint64_t id = 0;
  uint64_t desc_addr = 0;  // iso-address of the Thread descriptor
  uint32_t state = kEmpty;
  uint32_t n_runs = 0;
  StoreRun runs[kMaxRuns] = {};
};
static_assert(sizeof(StoreDirEntry) == 128, "directory entries are packed");

struct SlotStoreStats {
  uint64_t bytes_out = 0;  // written by demote() (changed pages only)
  uint64_t bytes_in = 0;   // read by fault_back()/read_run()
  uint64_t pages_compared = 0;  // imaged pages memcmp'd by write_changed()
  uint64_t sync_failures = 0;   // sync() calls that failed
};

class SlotStore {
 public:
  /// Open (or create) the per-node backing file.  `binary_stamp` is the
  /// caller's code-identity hash (pm2::binary_stamp()); with
  /// `config.recover` the on-file header must match it and the area
  /// geometry exactly — a mismatched store is refused with a fatal check,
  /// never silently adopted.  `watch` (nullable; the caller keeps it
  /// alive) narrows write_changed's compare to the pages it saw written.
  SlotStore(Area& area, const SlotStoreConfig& config, uint64_t binary_stamp,
            uint32_t node, uint32_t n_nodes, sys::WriteWatch* watch = nullptr);
  ~SlotStore();

  SlotStore(const SlotStore&) = delete;
  SlotStore& operator=(const SlotStore&) = delete;

  /// True when recover=true found and validated an existing store.
  bool recovered() const { return recovered_; }

  // --- residency ---------------------------------------------------------

  /// Bring the run's file image up to date (write_changed) and release its
  /// memory except the first page (pages dropped, protection PROT_NONE).
  /// The *caller* re-establishes any ASan poison after fault_back().
  void demote(size_t first, size_t count);

  /// Re-commit the pages demote() released and read their bytes back from
  /// the file at the same iso-addresses.  The first page is left as is.
  void fault_back(size_t first, size_t count);

  // --- checkpoint I/O (residency unchanged) ------------------------------

  /// Make the file bytes of the run equal to its (committed) memory: slots
  /// without an image bit are written whole, the others page by page,
  /// writing maximal stretches of pages that differ from the file (with a
  /// watch, only pages it saw written are compared).  Sets
  /// the run's image bits.  Unpoisons the run first: frozen stacks carry
  /// redzone poison; ASan checks the compare and the pwrite source, and the
  /// file must never capture poison as data.  Returns bytes written.
  uint64_t write_changed(size_t first, size_t count);

  /// Read the run's bytes from the file into (already committed) memory.
  void read_run(size_t first, size_t count);

  /// Clear the run's image bits: its slots left this node's threads, and
  /// their next image is written whole.
  void forget(size_t first, size_t count);

  // --- thread directory --------------------------------------------------

  /// Begin (or restart) a record for `id`: state kWriting.  Returns false
  /// when the directory is full or the thread spans more than
  /// StoreDirEntry::kMaxRuns runs (the caller then skips persisting it).
  bool record_thread(uint64_t id, uint64_t desc_addr,
                     const std::vector<SlotRun>& runs);
  /// Seal `id`'s record: state kValid.  Survives kill -9 at once (the
  /// directory is MAP_SHARED); survives a machine crash only after sync().
  void seal_thread(uint64_t id);
  /// Drop `id`'s record (thread exited, migrated away, or was restored).
  void erase_thread(uint64_t id);
  bool has_record(uint64_t id) const;

  struct RecordedThread {
    uint64_t id = 0;
    uint64_t desc_addr = 0;
    std::vector<SlotRun> runs;
  };
  /// All sealed (kValid) records — the crash-restart adoption list.
  std::vector<RecordedThread> recorded_threads() const;

  // --- misc --------------------------------------------------------------

  /// Durability against a machine crash (kill -9 survival needs nothing —
  /// the page cache persists): fdatasync the data, then seal `seal`'s
  /// records, then msync the directory, so no durable seal names data that
  /// is not durable.  Demotion seals without a sync: its records are
  /// kill -9-safe only.  False (and counted in sync_failures) when either
  /// sync failed.  A failed data sync seals nothing: the records stay
  /// kWriting, which recovery skips.  After a failed directory msync the
  /// seals name durable data but may themselves be lost.
  bool sync(const std::vector<uint64_t>& seal = {});

  SlotStoreStats stats() const;

 private:
  uint64_t file_off(size_t first) const;
  bool imaged(size_t slot) const;
  void mark_imaged(size_t first, size_t count);
  StoreDirEntry* entry_of(uint64_t id);
  const StoreDirEntry* entry_of(uint64_t id) const;

  Area& area_;
  SlotStoreConfig config_;
  sys::WriteWatch* watch_;
  int fd_ = -1;
  sys::FileMapping meta_;     // header + directory
  StoreHeader* hdr_ = nullptr;
  StoreDirEntry* dir_ = nullptr;
  sys::FileMapping data_;     // read-only view of the data region
  // One image bit per area slot (set-only; fetch_or, so a demotion and a
  // checkpoint touching slots in the same word cannot lose a bit).
  std::unique_ptr<std::atomic<uint64_t>[]> imaged_;
  bool recovered_ = false;
  // Directory scans/updates.  kLeaf: fault_back runs under pm2::Residency's
  // lock, so this lock must rank below every runtime map lock and may
  // acquire nothing itself.
  mutable sys::SpinLock lock_{sys::LockRank::kLeaf};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> pages_compared_{0};
  std::atomic<uint64_t> sync_failures_{0};
};

}  // namespace pm2::iso
