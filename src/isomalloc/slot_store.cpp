#include "isomalloc/slot_store.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "sys/backoff.hpp"
#include "sys/sanitizer.hpp"

namespace pm2::iso {

namespace {

void pwrite_all(int fd, const void* buf, size_t len, uint64_t off) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t rc = sys::retry_eintr(
        [&] { return ::pwrite(fd, p, len, static_cast<off_t>(off)); });
    PM2_CHECK(rc > 0) << "slot store pwrite failed: " << std::strerror(errno);
    p += rc;
    off += static_cast<uint64_t>(rc);
    len -= static_cast<size_t>(rc);
  }
}

/// False on a read error or a short read (errno ENODATA): a truncated
/// store file, or a journal that ends there.
bool pread_full(int fd, void* buf, size_t len, uint64_t off) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t rc = sys::retry_eintr(
        [&] { return ::pread(fd, p, len, static_cast<off_t>(off)); });
    if (rc <= 0) {
      if (rc == 0) errno = ENODATA;
      return false;
    }
    p += rc;
    off += static_cast<uint64_t>(rc);
    len -= static_cast<size_t>(rc);
  }
  return true;
}

void pread_all(int fd, void* buf, size_t len, uint64_t off) {
  PM2_CHECK(pread_full(fd, buf, len, off))
      << "slot store pread failed: "
      << (errno == ENODATA ? "truncated store file" : std::strerror(errno));
}

uint64_t round_up(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// XXH64 (Yann Collet's xxHash, 64-bit variant): the journal checksum.
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

uint64_t rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

template <typename T>
T load(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t xxh_round(uint64_t acc, uint64_t in) {
  return rotl(acc + in * kP2, 31) * kP1;
}

uint64_t xxh_merge(uint64_t h, uint64_t v) {
  return (h ^ xxh_round(0, v)) * kP1 + kP4;
}

uint64_t xxh64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
    for (; p + 32 <= end; p += 32) {
      for (int i = 0; i < 4; ++i) v[i] = xxh_round(v[i], load<uint64_t>(p + 8 * i));
    }
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (uint64_t x : v) h = xxh_merge(h, x);
  } else {
    h = seed + kP5;
  }
  h += len;
  for (; p + 8 <= end; p += 8) {
    h = rotl(h ^ xxh_round(0, load<uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (p + 4 <= end) {
    h = rotl(h ^ (load<uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

/// Bytes of a record's header and tables.
uint64_t record_meta_bytes(uint64_t n_stretches, uint64_t n_entries) {
  return sizeof(JournalRecord) + n_stretches * sizeof(JournalStretch) +
         n_entries * sizeof(JournalEntry);
}

/// Store `e` into a directory slot with its sequence number last: an entry
/// torn by a kill keeps its old number, so replay rewrites it whole.
void put_entry(StoreDirEntry& slot, const StoreDirEntry& e) {
  StoreDirEntry body = e;
  body.seq = slot.seq;
  slot = body;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::atomic_ref<uint64_t>(slot.seq).store(e.seq, std::memory_order_release);
}

bool same_record(const StoreDirEntry& a, const StoreDirEntry& b) {
  return a.id == b.id && a.desc_addr == b.desc_addr &&
         std::memcmp(a.runs, b.runs, sizeof(a.runs)) == 0;
}

const char kZeros[JournalRecord::kAlign] = {};

}  // namespace

SlotStore::SlotStore(Area& area, const SlotStoreConfig& config,
                     uint64_t binary_stamp, uint32_t node, uint32_t n_nodes,
                     sys::WriteWatch* watch)
    : area_(area), config_(config), watch_(watch) {
  PM2_CHECK(!config_.path.empty()) << "slot store needs a backing file path";
  const uint64_t dir_bytes =
      uint64_t{config_.dir_capacity} * sizeof(StoreDirEntry);
  const uint64_t meta_bytes = round_up(4096 + dir_bytes, sys::page_size());
  const uint64_t journal_off = meta_bytes;
  const uint64_t data_off = journal_off + kJournalBytes;

  int flags = O_RDWR | O_CLOEXEC | O_CREAT | (config_.recover ? 0 : O_TRUNC);
  fd_ = ::open(config_.path.c_str(), flags, 0644);
  PM2_CHECK(fd_ >= 0) << "slot store open(" << config_.path
                      << ") failed: " << std::strerror(errno);

  if (config_.recover) {
    // Adopting an existing store: the header must prove it was written by
    // this binary over this exact area geometry — iso-addresses are only
    // meaningful under both.
    StoreHeader on_file{};
    ssize_t rc = ::pread(fd_, &on_file, sizeof(on_file), 0);
    PM2_CHECK(rc == static_cast<ssize_t>(sizeof(on_file)))
        << "slot store recover: cannot read header of " << config_.path;
    PM2_CHECK(on_file.magic == StoreHeader::kMagic)
        << "not a PM2 slot store: " << config_.path;
    PM2_CHECK(on_file.version == StoreHeader::kVersion)
        << "slot store version mismatch";
    PM2_CHECK(on_file.binary_stamp == binary_stamp)
        << "slot store was written by a different binary";
    PM2_CHECK(on_file.area_base == area_.base() &&
              on_file.area_size == area_.size() &&
              on_file.slot_size == area_.slot_size())
        << "slot store iso-area geometry mismatch";
    PM2_CHECK(on_file.node == node && on_file.n_nodes == n_nodes)
        << "slot store belongs to a different node/session shape";
    PM2_CHECK(on_file.dir_capacity == config_.dir_capacity &&
              on_file.journal_off == journal_off &&
              on_file.data_off == data_off)
        << "slot store directory layout mismatch";
    recovered_ = true;
  } else {
    PM2_CHECK(::ftruncate(fd_, static_cast<off_t>(meta_bytes)) == 0)
        << "slot store ftruncate failed: " << std::strerror(errno);
  }

  meta_ = sys::FileMapping(fd_, 0, meta_bytes);
  hdr_ = static_cast<StoreHeader*>(meta_.data());
  dir_ = reinterpret_cast<StoreDirEntry*>(static_cast<char*>(meta_.data()) +
                                          4096);
  if (!config_.recover) {
    // O_TRUNC + ftruncate left the metadata a hole that reads as zeros:
    // only the header page is written, made durable by the lap that
    // precedes the first journal record.
    hdr_->magic = StoreHeader::kMagic;
    hdr_->version = StoreHeader::kVersion;
    hdr_->node = node;
    hdr_->binary_stamp = binary_stamp;
    hdr_->area_base = area_.base();
    hdr_->area_size = area_.size();
    hdr_->slot_size = area_.slot_size();
    hdr_->n_nodes = n_nodes;
    hdr_->dir_capacity = config_.dir_capacity;
    hdr_->data_off = data_off;
    hdr_->journal_off = journal_off;
    hdr_->journal_seq = 1;
    need_lap_ = true;
  }

  data_ = sys::FileMapping(fd_, data_off, area_.size(), /*writable=*/false);
  imaged_ = std::make_unique<std::atomic<uint64_t>[]>((area_.n_slots() + 63) /
                                                      64);
  next_seq_ = hdr_->journal_seq;
  if (recovered_) {
    replay();
    // Sealed records were written whole before they were sealed, so their
    // runs are complete images — unless the file was cut short since, in
    // which case the view must not be read there.
    struct stat st{};
    PM2_CHECK(::fstat(fd_, &st) == 0)
        << "slot store fstat failed: " << std::strerror(errno);
    for (const RecordedThread& rec : recorded_threads()) {
      for (auto [first, count] : rec.runs) {
        if (file_off(first + count) <= static_cast<uint64_t>(st.st_size)) {
          mark_imaged(first, count);
        }
      }
    }
  }
}

SlotStore::~SlotStore() {
  meta_.release();
  if (fd_ >= 0) ::close(fd_);
}

uint64_t SlotStore::file_off(size_t first) const {
  return hdr_->data_off + uint64_t{first} * area_.slot_size();
}

bool SlotStore::imaged(size_t slot) const {
  return (imaged_[slot / 64].load(std::memory_order_acquire) >> (slot % 64) &
          1) != 0;
}

void SlotStore::mark_imaged(size_t first, size_t count) {
  for (size_t s = first; s < first + count; ++s) {
    imaged_[s / 64].fetch_or(uint64_t{1} << (s % 64),
                             std::memory_order_release);
  }
}

void SlotStore::forget(size_t first, size_t count) {
  for (size_t s = first; s < first + count; ++s) {
    imaged_[s / 64].fetch_and(~(uint64_t{1} << (s % 64)),
                              std::memory_order_release);
  }
  // Staged bytes of released slots must not be read at the next sync (the
  // slots may be decommitted by then); keep the parts outside the run.
  const uint64_t lo = uint64_t{first} * area_.slot_size();
  const uint64_t hi = lo + uint64_t{count} * area_.slot_size();
  std::lock_guard<std::mutex> g(lock_);
  if (staged_.empty()) return;
  std::vector<Stretch> kept;
  for (const Stretch& s : staged_) {
    if (s.off < lo) kept.push_back({s.mem, s.off, std::min(s.len, lo - s.off)});
    if (s.off + s.len > hi) {
      const uint64_t skip = std::max(hi, s.off) - s.off;
      kept.push_back({s.mem + skip, s.off + skip, s.len - skip});
    }
  }
  staged_.swap(kept);
}

// --- residency ---------------------------------------------------------

bool SlotStore::demote(uint64_t id, uint64_t desc_addr,
                       const std::vector<SlotRun>& runs) {
  if (!record_thread(id, desc_addr, runs)) return false;
  uint64_t written = 0;
  for (auto [first, count] : runs) written += write_changed(first, count);
  if (!sync({id})) {
    // Nothing was sealed, and the thread stays resident and may run: drop
    // what was staged, so no later commit writes it home under the
    // thread's older record.
    for (auto [first, count] : runs) forget(first, count);
    return false;
  }
  for (auto [first, count] : runs) {
    area_.decommit_force(first, count, sys::page_size());
  }
  bytes_out_.fetch_add(written, std::memory_order_relaxed);
  return true;
}

void SlotStore::fault_back(size_t first, size_t count) {
  // The header page stayed resident and may hold newer node-local fields
  // than the file: only the pages demote() dropped come back.
  const size_t ps = sys::page_size();
  area_.commit(first, count, ps);  // mprotect RW + shadow unpoison
  const size_t len = count * area_.slot_size() - ps;
  pread_all(fd_, static_cast<char*>(area_.slot_addr(first)) + ps, len,
            file_off(first) + ps);
  bytes_in_.fetch_add(len, std::memory_order_relaxed);
}

// --- checkpoint I/O ----------------------------------------------------

uint64_t SlotStore::write_changed(size_t first, size_t count) {
  const size_t slot_size = area_.slot_size();
  const size_t ps = sys::page_size();
  const size_t len = count * slot_size;
  const uint64_t base = uint64_t{first} * slot_size;
  const auto* mem = static_cast<const char*>(area_.slot_addr(first));
  const char* file = static_cast<const char*>(data_.data()) + base;
  sys::san_unpoison(mem, len);
  // Pages written since this run was last scanned; an imaged page outside
  // that set still equals the file.  Scanning before comparing means a
  // write racing the compare is reported again next round.
  std::vector<uint8_t> touched;
  const bool tracked =
      watch_ != nullptr &&
      watch_->take_written(reinterpret_cast<uintptr_t>(mem), len, touched);
  std::vector<Stretch> found;
  uint64_t written = 0;
  uint64_t compared = 0;
  size_t stretch = len;  // start of the pending differing pages; len = none
  auto flush = [&](size_t end) {
    if (stretch == len) return;
    found.push_back({mem + stretch, base + stretch, end - stretch});
    written += end - stretch;
    stretch = len;
  };
  for (size_t s = 0; s < count; ++s) {
    const bool whole = !imaged(first + s);
    for (size_t off = s * slot_size; off < (s + 1) * slot_size; off += ps) {
      bool differs = whole;
      if (!whole && (!tracked || touched[off / ps] != 0)) {
        ++compared;
        differs = std::memcmp(mem + off, file + off, ps) != 0;
      }
      if (differs) {
        if (stretch == len) stretch = off;
      } else {
        flush(off);
      }
    }
  }
  flush(len);
  pages_compared_.fetch_add(compared, std::memory_order_relaxed);
  if (!found.empty()) {
    std::lock_guard<std::mutex> g(lock_);
    staged_.insert(staged_.end(), found.begin(), found.end());
  }
  return written;
}

void SlotStore::read_run(size_t first, size_t count) {
  const size_t len = count * area_.slot_size();
  pread_all(fd_, area_.slot_addr(first), len, file_off(first));
  bytes_in_.fetch_add(len, std::memory_order_relaxed);
}

// --- thread directory --------------------------------------------------

StoreDirEntry* SlotStore::entry_of(uint64_t id) {
  for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
    if (dir_[i].valid() && dir_[i].id == id) {
      return &dir_[i];
    }
  }
  return nullptr;
}

const StoreDirEntry* SlotStore::entry_of(uint64_t id) const {
  return const_cast<SlotStore*>(this)->entry_of(id);
}

bool SlotStore::record_thread(uint64_t id, uint64_t desc_addr,
                              const std::vector<SlotRun>& runs) {
  if (runs.size() > StoreDirEntry::kMaxRuns) {
    PM2_WARN << "slot store: thread " << id << " spans " << runs.size()
             << " runs (directory limit " << StoreDirEntry::kMaxRuns
             << "); not persisted";
    return false;
  }
  PM2_CHECK(!runs.empty()) << "slot store: thread " << id << " has no runs";
  StoreDirEntry e;
  e.id = id;
  e.desc_addr = desc_addr;
  for (size_t i = 0; i < runs.size(); ++i) {
    PM2_CHECK(runs[i].second > 0) << "slot store: empty run of thread " << id;
    e.runs[i].first = static_cast<uint32_t>(runs[i].first);
    e.runs[i].count = runs[i].second;
  }
  {
    std::lock_guard<std::mutex> g(lock_);
    for (Pending& p : pending_) {
      if (p.entry.id == id) {
        p.entry = e;
        return true;
      }
    }
    // The thread's current slot, else the first empty slot no staged
    // record has taken.
    const StoreDirEntry* cur = entry_of(id);
    uint32_t index = cur != nullptr ? static_cast<uint32_t>(cur - dir_)
                                    : hdr_->dir_capacity;
    for (uint32_t i = 0; cur == nullptr && i < hdr_->dir_capacity; ++i) {
      if (dir_[i].valid()) continue;
      bool taken = false;
      for (const Pending& p : pending_) taken |= p.index == i;
      if (!taken) {
        index = i;
        break;
      }
    }
    if (index < hdr_->dir_capacity) {
      pending_.push_back({index, e});
      return true;
    }
  }
  PM2_WARN << "slot store: thread directory full (capacity "
           << hdr_->dir_capacity << "); thread " << id << " not persisted";
  return false;
}

void SlotStore::erase_thread(uint64_t id) {
  std::lock_guard<std::mutex> g(lock_);
  std::erase_if(pending_, [id](const Pending& p) { return p.entry.id == id; });
  StoreDirEntry* e = entry_of(id);
  if (e == nullptr) return;
  // Empty first, then the number: records up to the last journaled one
  // must not bring it back on replay after a kill, later ones may reuse
  // the slot.  A power cut may still lose this page, so the next record
  // carries the erase as well.
  std::atomic_ref<uint32_t>(e->runs[0].count).store(0,
                                                    std::memory_order_release);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  StoreDirEntry empty;
  empty.seq = next_seq_ - 1;
  put_entry(*e, empty);
  erased_.push_back(static_cast<uint32_t>(e - dir_));
}

bool SlotStore::has_record(uint64_t id) const {
  std::lock_guard<std::mutex> g(lock_);
  for (const Pending& p : pending_) {
    if (p.entry.id == id) return true;
  }
  return entry_of(id) != nullptr;
}

std::vector<SlotStore::RecordedThread> SlotStore::recorded_threads() const {
  std::vector<RecordedThread> out;
  std::lock_guard<std::mutex> g(lock_);
  for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
    const StoreDirEntry& e = dir_[i];
    if (!e.valid()) continue;
    RecordedThread rec;
    rec.id = e.id;
    rec.desc_addr = e.desc_addr;
    for (uint32_t r = 0; r < e.n_runs(); ++r) {
      rec.runs.emplace_back(e.runs[r].first, e.runs[r].count);
    }
    out.push_back(std::move(rec));
  }
  return out;
}

// --- journal -----------------------------------------------------------

bool SlotStore::sync(const std::vector<uint64_t>& seal) {
  bool ok;
  int err = 0;
  {
    std::lock_guard<std::mutex> g(lock_);
    ok = commit_locked(seal);
    err = errno;
  }
  if (!ok) {
    PM2_WARN << "slot store: journal commit failed, nothing sealed: "
             << std::strerror(err);
    sync_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

bool SlotStore::commit_locked(const std::vector<uint64_t>& seal) {
  std::vector<JournalEntry> seals;
  for (uint64_t id : seal) {
    for (const Pending& p : pending_) {
      if (p.entry.id == id && !same_record(dir_[p.index], p.entry)) {
        seals.push_back({p.index, 0, p.entry});
      }
    }
  }
  // The erases since the last record go first, ahead of any home write or
  // seal that may reuse their slots; an entry a seal takes over needs none.
  // Alone they wait for the next record.
  std::vector<JournalEntry> erases;
  for (uint32_t i : erased_) {
    if (std::none_of(seals.begin(), seals.end(),
                     [i](const JournalEntry& e) { return e.index == i; })) {
      erases.push_back({i, 0, StoreDirEntry{}});
    }
  }
  uint64_t payload = 0;
  for (const Stretch& s : staged_) payload += s.len;
  if (record_meta_bytes(staged_.size(), seals.size() + erases.size()) +
          payload >
      kJournalBytes) {
    // No record can carry these pages.  Drop the records naming them
    // first, so none vouches for a half-rewritten image, then write them
    // home and sync; the seals follow in a record of their own.
    for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
      const StoreDirEntry& e = dir_[i];
      bool named = false;
      for (uint32_t r = 0; r < e.n_runs(); ++r) {
        const uint64_t lo = uint64_t{e.runs[r].first} * area_.slot_size();
        const uint64_t hi = lo + uint64_t{e.runs[r].count} * area_.slot_size();
        for (const Stretch& s : staged_) named |= s.off < hi && lo < s.off + s.len;
      }
      if (named) erases.push_back({i, 0, StoreDirEntry{}});
    }
    if (!erases.empty() && !append_record({}, erases)) return false;
    erases.clear();
    erased_.clear();
    write_home(staged_);
    if (!sys::data_sync(fd_)) return false;
    staged_.clear();
  }
  if (!staged_.empty() || !seals.empty()) {
    seals.insert(seals.begin(), erases.begin(), erases.end());
    if (!append_record(staged_, seals)) return false;
    erased_.clear();
  }
  write_home(staged_);
  staged_.clear();
  std::erase_if(pending_, [&seal](const Pending& p) {
    return std::find(seal.begin(), seal.end(), p.entry.id) != seal.end();
  });
  return true;
}

bool SlotStore::append_record(const std::vector<Stretch>& stretches,
                              std::vector<JournalEntry>& entries) {
  const uint64_t seq = next_seq_;
  JournalRecord rec;
  rec.seq = seq;
  rec.n_stretches = static_cast<uint32_t>(stretches.size());
  rec.n_entries = static_cast<uint32_t>(entries.size());
  const uint64_t meta = record_meta_bytes(rec.n_stretches, rec.n_entries);
  uint64_t payload = 0;
  for (const Stretch& s : stretches) payload += s.len;
  rec.bytes = round_up(meta + payload, JournalRecord::kAlign);
  if (need_lap_ || jpos_ + rec.bytes > kJournalBytes) {
    if (!lap()) return false;
  }
  record_meta_.resize(meta);
  char* p = record_meta_.data() + sizeof(rec);
  for (const Stretch& s : stretches) {
    const JournalStretch js{s.off, s.len};
    std::memcpy(p, &js, sizeof(js));
    p += sizeof(js);
  }
  for (JournalEntry& e : entries) {
    e.entry.seq = seq;
    std::memcpy(p, &e, sizeof(e));
    p += sizeof(e);
  }
  std::memcpy(record_meta_.data(), &rec, sizeof(rec));
  uint64_t sum = xxh64(record_meta_.data(), meta, 0);
  for (const Stretch& s : stretches) sum = xxh64(s.mem, s.len, sum);
  rec.checksum = sum;
  std::memcpy(record_meta_.data(), &rec, sizeof(rec));

  std::vector<iovec> iov;
  iov.reserve(stretches.size() + 2);
  iov.push_back({record_meta_.data(), meta});
  for (const Stretch& s : stretches) {
    iov.push_back({const_cast<char*>(s.mem), s.len});
  }
  iov.push_back({const_cast<char*>(kZeros), rec.bytes - meta - payload});
  if (!sys::write_durable(fd_, iov.data(), static_cast<int>(iov.size()),
                          hdr_->journal_off + jpos_)) {
    return false;
  }
  jpos_ += rec.bytes;
  ++next_seq_;
  journal_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
  for (const JournalEntry& e : entries) put_entry(dir_[e.index], e.entry);
  return true;
}

void SlotStore::write_home(const std::vector<Stretch>& stretches) {
  const uint64_t slot_size = area_.slot_size();
  for (const Stretch& s : stretches) {
    pwrite_all(fd_, s.mem, s.len, hdr_->data_off + s.off);
    // Every slot the stretch covers whole now has a complete image.
    const uint64_t first = round_up(s.off, slot_size) / slot_size;
    const uint64_t end = (s.off + s.len) / slot_size;
    if (end > first) mark_imaged(first, end - first);
  }
}

bool SlotStore::lap() {
  // Home pages and directory entries of every journaled record reach the
  // disk before the header forgets the records; until both syncs succeed
  // nothing more is appended.  With no record since the last lap (a fresh
  // store) only the header needs syncing.
  need_lap_ = true;
  if (jpos_ > 0 && !sys::data_sync(fd_)) return false;
  hdr_->journal_seq = next_seq_;
  if (!meta_.sync()) return false;
  jpos_ = 0;
  need_lap_ = false;
  journal_laps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SlotStore::replay() {
  const uint64_t t0 = now_ns();
  std::vector<char> buf;
  uint64_t records = 0;
  while (jpos_ + sizeof(JournalRecord) <= kJournalBytes) {
    JournalRecord rec;
    const uint64_t at = hdr_->journal_off + jpos_;
    if (!pread_full(fd_, &rec, sizeof(rec), at) ||
        rec.magic != JournalRecord::kMagic || rec.seq != next_seq_ ||
        rec.bytes % JournalRecord::kAlign != 0 ||
        rec.bytes > kJournalBytes - jpos_ ||
        record_meta_bytes(rec.n_stretches, rec.n_entries) > rec.bytes) {
      break;
    }
    buf.resize(rec.bytes);
    if (!pread_full(fd_, buf.data(), rec.bytes, at)) break;
    const uint64_t meta = record_meta_bytes(rec.n_stretches, rec.n_entries);
    const char* table = buf.data() + sizeof(rec);
    std::vector<JournalStretch> stretches(rec.n_stretches);
    for (JournalStretch& s : stretches) {
      std::memcpy(&s, table, sizeof(s));
      table += sizeof(s);
    }
    std::vector<JournalEntry> entries(rec.n_entries);
    for (JournalEntry& e : entries) {
      std::memcpy(&e, table, sizeof(e));
      table += sizeof(e);
    }
    uint64_t payload = 0;
    bool sane = true;
    for (const JournalStretch& s : stretches) {
      payload += s.len;
      sane &= s.len <= rec.bytes && s.off <= area_.size() &&
              s.len <= area_.size() - s.off;
    }
    for (const JournalEntry& e : entries) {
      sane &= e.index < hdr_->dir_capacity;
    }
    if (!sane || payload > rec.bytes - meta) break;
    JournalRecord zeroed = rec;
    zeroed.checksum = 0;
    std::memcpy(buf.data(), &zeroed, sizeof(zeroed));
    uint64_t sum = xxh64(buf.data(), meta, 0);
    for (uint64_t off = meta; const JournalStretch& s : stretches) {
      sum = xxh64(buf.data() + off, s.len, sum);
      off += s.len;
    }
    if (sum != rec.checksum) break;  // torn or corrupt: the chain ends here

    for (uint64_t off = meta; const JournalStretch& s : stretches) {
      pwrite_all(fd_, buf.data() + off, s.len, hdr_->data_off + s.off);
      off += s.len;
    }
    for (const JournalEntry& e : entries) {
      if (e.entry.seq > dir_[e.index].seq) put_entry(dir_[e.index], e.entry);
    }
    jpos_ += rec.bytes;
    ++next_seq_;
    ++records;
  }
  // Make the replayed state durable and restart the journal.  If that
  // fails the chain stays as it is and the first commit laps again.
  if (records > 0 && !lap()) {
    PM2_WARN << "slot store: could not sync the replayed journal: "
             << std::strerror(errno);
  }
  if (records > 0) {
    PM2_INFO << "slot store: replayed " << records << " journal records in "
             << (now_ns() - t0) / 1000 << " us";
  }
}

SlotStoreStats SlotStore::stats() const {
  SlotStoreStats s;
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.pages_compared = pages_compared_.load(std::memory_order_relaxed);
  s.sync_failures = sync_failures_.load(std::memory_order_relaxed);
  s.journal_bytes = journal_bytes_.load(std::memory_order_relaxed);
  s.journal_laps = journal_laps_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pm2::iso
