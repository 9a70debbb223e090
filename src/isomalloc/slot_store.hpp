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
// *directory* (MAP_SHARED header + records) names the threads whose images
// live in the file.  A restarted node re-opens the file with
// `recover = true`, validates the binary-stamp/geometry header, replays the
// journal, and adopts the recorded threads (pm2::restore_node_from_store).
//
// One write rule serves both demotion and pm2::checkpoint_node_to_store:
// write_changed() stages the pages of a run that differ from the file,
// compared against a read-only MAP_SHARED view of the data region mapped
// once at open, and sync() commits what was staged.  Because the file
// mirrors the iso-area at fixed offsets, a second round over an unchanged
// thread stages nothing.  A per-slot *image bit* says the file already
// holds a complete image of the slot: slots without it are staged whole,
// never compared, so the file never has holes inside a run (restores read
// it sequentially) and the view is never read past end-of-file.  Bits are
// set when a commit writes a slot whole and, on recovery, for the runs of
// sealed records; the file keeps its natural size.
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
// Commits go through a write-ahead journal (a redo log, as in ARIES or
// ext4's jbd2) inside the same file.  sync() packs the staged stretches,
// the records it seals, a sequence number and a checksum into one journal
// record and writes it with a single pwritev2(RWF_DSYNC); only then does it
// write the stretches to their home offsets (page cache only) and apply
// the records to the MAP_SHARED directory.  The rule: no home page and no
// directory record reaches the file before a durable journal record that
// carries it, so a crash (kill -9 or power cut) never leaves a sealed
// record over a half-rewritten image.  A failed journal write writes no
// home page and seals nothing.  When the journal is full, one fdatasync
// makes the home region and the directory durable, and a durable header
// update restarts the journal (a *lap*).  A commit too large for the
// journal first drops, through the journal, the records naming the pages
// it rewrites, then writes home and fdatasyncs, then seals.  Erasing a
// record empties its directory entry at once, so a kill -9 cannot bring it
// back, and the next journal record carries the erase too: a power cut can
// lose the directory page, but never the erase while a later seal or home
// write that may reuse its slots survives.
//
// Every directory record carries the sequence number of its last seal or
// erase.  Recovery, in the constructor, replays the chain of records that
// starts at the journal's start with the header's sequence number and
// continues while sequence numbers follow on and checksums match: it
// rewrites their stretches home and applies a record's directory entry
// only over an older one, so replay never revives an erased record nor
// rolls back a newer seal.  Then it fdatasyncs and restarts the journal.
//
// File layout (PM2STOR1, version 2):
//   [0, 4K)              StoreHeader — magic, version, binary stamp, area
//                        geometry, node, directory capacity, journal and
//                        data offsets, the journal's first sequence number.
//   [4K, journal_off)    StoreDirEntry[dir_capacity] thread directory.
//   [journal_off, data_off)
//                        journal: kJournalBytes of JournalRecords, each at
//                        a 4 KiB boundary and padded to one.
//   [data_off, ...)      sparse home region: slot index i lives at byte
//                        data_off + i * slot_size.  Only demoted or
//                        checkpointed slots occupy file blocks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isomalloc/area.hpp"
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
  static constexpr uint32_t kVersion = 2;

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
  uint64_t journal_off = 0;
  uint64_t journal_seq = 0;  // sequence number of the journal's first record
};

struct StoreRun {
  uint32_t first = 0;
  uint32_t count = 0;
};

/// Fixed-size thread-directory record.  `seq` is the sequence number of
/// the journal record that last sealed it, or of the last record before
/// its erase: replay applies a journaled entry only over an older one.
/// The record's runs are the leading ones with a nonzero count (a slot run
/// is never empty); an entry with none is empty.
struct StoreDirEntry {
  static constexpr uint32_t kMaxRuns = 13;

  uint64_t id = 0;
  uint64_t desc_addr = 0;  // iso-address of the Thread descriptor
  uint64_t seq = 0;
  StoreRun runs[kMaxRuns] = {};

  bool valid() const { return runs[0].count != 0; }
  uint32_t n_runs() const {
    uint32_t n = 0;
    while (n < kMaxRuns && runs[n].count != 0) ++n;
    return n;
  }
};
static_assert(sizeof(StoreDirEntry) == 128, "directory entries are packed");

/// Journal record header, at a 4 KiB boundary of the journal.  It is
/// followed by n_stretches JournalStretch, n_entries JournalEntry, the
/// stretches' bytes in order, and zeros up to `bytes`.  `checksum` chains
/// xxh64 over the header (checksum zero) with the tables, then over each
/// stretch's bytes, seeding each step with the previous hash.
struct JournalRecord {
  static constexpr uint64_t kMagic = 0x504D324A524E4C31ull;  // "PM2JRNL1"
  static constexpr uint64_t kAlign = 4096;

  uint64_t magic = kMagic;
  uint64_t seq = 0;
  uint64_t checksum = 0;
  uint64_t bytes = 0;  // whole record, a multiple of kAlign
  uint32_t n_stretches = 0;
  uint32_t n_entries = 0;
};

/// `len` bytes at home offset `off` of the data region.
struct JournalStretch {
  uint64_t off = 0;
  uint64_t len = 0;
};

/// A directory entry to store at `index`.
struct JournalEntry {
  uint32_t index = 0;
  uint32_t pad = 0;
  StoreDirEntry entry;
};

struct SlotStoreStats {
  uint64_t bytes_out = 0;  // staged by demote() (changed pages only)
  uint64_t bytes_in = 0;   // read by fault_back()/read_run()
  uint64_t pages_compared = 0;  // imaged pages memcmp'd by write_changed()
  uint64_t sync_failures = 0;   // sync() calls that failed
  uint64_t journal_bytes = 0;   // journal records written, padding included
  uint64_t journal_laps = 0;    // journal restarts (fdatasync + header)
};

class SlotStore {
 public:
  /// Journal size, fixed by the file format (a round of ckpt_cycle writes
  /// about 90 KB, so a lap comes every ~90 rounds).
  static constexpr uint64_t kJournalBytes = 8ull << 20;

  /// Open (or create) the per-node backing file.  `binary_stamp` is the
  /// caller's code-identity hash (pm2::binary_stamp()); with
  /// `config.recover` the on-file header must match it and the area
  /// geometry exactly — a mismatched store is refused with a fatal check,
  /// never silently adopted — and the journal is replayed.  `watch`
  /// (nullable; the caller keeps it alive) narrows write_changed's compare
  /// to the pages it saw written.
  SlotStore(Area& area, const SlotStoreConfig& config, uint64_t binary_stamp,
            uint32_t node, uint32_t n_nodes, sys::WriteWatch* watch = nullptr);
  ~SlotStore();

  SlotStore(const SlotStore&) = delete;
  SlotStore& operator=(const SlotStore&) = delete;

  /// True when recover=true found and validated an existing store.
  bool recovered() const { return recovered_; }

  // --- residency ---------------------------------------------------------

  /// Record thread `id` over `runs`, stage the runs' changed pages and
  /// commit both (sync({id}); no I/O when nothing changed), then release
  /// the runs' memory except each first page (pages dropped, protection
  /// PROT_NONE).  False, with nothing released, when the record does not
  /// fit the directory or the commit failed.  The *caller* re-establishes
  /// any ASan poison after fault_back().
  bool demote(uint64_t id, uint64_t desc_addr,
              const std::vector<SlotRun>& runs);

  /// Re-commit the pages demote() released and read their bytes back from
  /// the file at the same iso-addresses.  The first page is left as is.
  void fault_back(size_t first, size_t count);

  // --- checkpoint I/O (residency unchanged) ------------------------------

  /// Stage the stretches of the run whose memory differs from the file:
  /// slots without an image bit whole, the others page by page, as maximal
  /// stretches of differing pages (with a watch, only pages it saw written
  /// are compared).  Nothing is written: the next successful sync() writes
  /// the run's memory *as it is then*, so the run must stay committed and
  /// its bytes must not change until that sync.  Unpoisons the run first:
  /// frozen stacks carry redzone poison; ASan checks the compare and the
  /// checksum, and the file must never capture poison as data.  Returns
  /// bytes staged.
  uint64_t write_changed(size_t first, size_t count);

  /// Read the run's bytes from the file into (already committed) memory.
  void read_run(size_t first, size_t count);

  /// Clear the run's image bits and drop its staged stretches: its slots
  /// left this node's threads, or a failed sync() left its pages staged
  /// under an older seal.  The run's next image is written whole.
  void forget(size_t first, size_t count);

  // --- thread directory --------------------------------------------------

  /// Stage a record for `id` (a new one, or a replacement for its current
  /// one), sealed by the next sync() that names `id`.  Returns false when
  /// the directory is full or the thread spans more than
  /// StoreDirEntry::kMaxRuns runs (the caller then skips persisting it).
  bool record_thread(uint64_t id, uint64_t desc_addr,
                     const std::vector<SlotRun>& runs);
  /// Drop `id`'s record, staged or sealed (thread exited, migrated away,
  /// or was restored).  Written to the directory at once, so it survives
  /// kill -9; the next journal record carries it, so a machine crash never
  /// keeps a later seal without it.
  void erase_thread(uint64_t id);
  /// True when `id` has a sealed or a staged record.
  bool has_record(uint64_t id) const;

  struct RecordedThread {
    uint64_t id = 0;
    uint64_t desc_addr = 0;
    std::vector<SlotRun> runs;
  };
  /// All sealed records — the crash-restart adoption list.
  std::vector<RecordedThread> recorded_threads() const;

  // --- misc --------------------------------------------------------------

  /// Commit every staged stretch, the erases since the last record and
  /// the staged records of `seal`, in one durable journal record, then
  /// write the stretches home and the records to the directory.  Records
  /// whose entry would not change, and a commit with no stretch and no
  /// seal, cost no I/O.  Durable against a machine crash when it returns
  /// true.  False (and counted in sync_failures) when the journal write or
  /// a lap's sync failed: then no home page was written and nothing was
  /// sealed, and the staged stretches and records stay for the next sync.
  /// A caller that lets the staged runs change before that sync must
  /// forget() them first, or the next commit would write them home under
  /// their older seals.
  bool sync(const std::vector<uint64_t>& seal = {});

  SlotStoreStats stats() const;

 private:
  struct Stretch {
    const char* mem;  // source memory at sync()
    uint64_t off;     // home offset in the data region
    uint64_t len;
  };
  struct Pending {
    uint32_t index;  // directory slot the record will take
    StoreDirEntry entry;
  };

  uint64_t file_off(size_t first) const;
  bool imaged(size_t slot) const;
  void mark_imaged(size_t first, size_t count);
  StoreDirEntry* entry_of(uint64_t id);
  const StoreDirEntry* entry_of(uint64_t id) const;
  // Under lock_.
  bool commit_locked(const std::vector<uint64_t>& seal);
  bool append_record(const std::vector<Stretch>& stretches,
                     std::vector<JournalEntry>& entries);
  void write_home(const std::vector<Stretch>& stretches);
  bool lap();
  void replay();

  Area& area_;
  SlotStoreConfig config_;
  sys::WriteWatch* watch_;
  int fd_ = -1;
  sys::FileMapping meta_;     // header + directory
  StoreHeader* hdr_ = nullptr;
  StoreDirEntry* dir_ = nullptr;
  sys::FileMapping data_;     // read-only view of the data region
  // One image bit per area slot (fetch_or, so a demotion and a checkpoint
  // touching slots in the same word cannot lose a bit).
  std::unique_ptr<std::atomic<uint64_t>[]> imaged_;
  bool recovered_ = false;
  // Directory, staging and journal state.  Held across a commit's I/O
  // (a durable journal write; a lap's fdatasync), so it blocks rather than
  // spins: a commit runs under the worker pause (checkpoint, demotion), and
  // only an erase, forget or lookup from outside the pause waits on it.
  // Taken last: no store method acquires another lock while holding it.
  mutable std::mutex lock_;
  std::vector<Stretch> staged_;
  std::vector<Pending> pending_;
  std::vector<uint32_t> erased_;  // entries erased since the last record
  std::vector<char> record_meta_;  // header + tables of the record being written
  uint64_t next_seq_ = 1;   // sequence number of the next journal record
  uint64_t jpos_ = 0;       // its offset in the journal
  bool need_lap_ = false;   // a lap must precede the next journal write
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> pages_compared_{0};
  std::atomic<uint64_t> sync_failures_{0};
  std::atomic<uint64_t> journal_bytes_{0};
  std::atomic<uint64_t> journal_laps_{0};
};

}  // namespace pm2::iso
