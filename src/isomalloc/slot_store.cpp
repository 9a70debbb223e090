#include "isomalloc/slot_store.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
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

void pread_all(int fd, void* buf, size_t len, uint64_t off) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t rc = sys::retry_eintr(
        [&] { return ::pread(fd, p, len, static_cast<off_t>(off)); });
    PM2_CHECK(rc > 0) << "slot store pread failed: "
                      << (rc == 0 ? "truncated store file"
                                  : std::strerror(errno));
    p += rc;
    off += static_cast<uint64_t>(rc);
    len -= static_cast<size_t>(rc);
  }
}

uint64_t round_up(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

SlotStore::SlotStore(Area& area, const SlotStoreConfig& config,
                     uint64_t binary_stamp, uint32_t node, uint32_t n_nodes,
                     sys::WriteWatch* watch)
    : area_(area), config_(config), watch_(watch) {
  PM2_CHECK(!config_.path.empty()) << "slot store needs a backing file path";
  const uint64_t dir_bytes =
      uint64_t{config_.dir_capacity} * sizeof(StoreDirEntry);
  const uint64_t meta_bytes = round_up(4096 + dir_bytes, sys::page_size());
  const uint64_t data_off = meta_bytes;

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
    // only the header page is written (and later synced), never the
    // directory pages.
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
  }

  data_ = sys::FileMapping(fd_, data_off, area_.size(), /*writable=*/false);
  imaged_ = std::make_unique<std::atomic<uint64_t>[]>((area_.n_slots() + 63) /
                                                      64);
  if (recovered_) {
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
}

// --- residency ---------------------------------------------------------

void SlotStore::demote(size_t first, size_t count) {
  const uint64_t written = write_changed(first, count);
  area_.decommit_force(first, count, sys::page_size());
  bytes_out_.fetch_add(written, std::memory_order_relaxed);
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
  const auto* mem = static_cast<const char*>(area_.slot_addr(first));
  const char* file =
      static_cast<const char*>(data_.data()) + uint64_t{first} * slot_size;
  sys::san_unpoison(mem, len);
  // Pages written since this run was last scanned; an imaged page outside
  // that set still equals the file.  Scanning before comparing means a
  // write racing the compare is reported again next round.
  std::vector<uint8_t> touched;
  const bool tracked =
      watch_ != nullptr &&
      watch_->take_written(reinterpret_cast<uintptr_t>(mem), len, touched);
  uint64_t written = 0;
  uint64_t compared = 0;
  size_t stretch = len;  // start of the pending differing pages; len = none
  auto flush = [&](size_t end) {
    if (stretch == len) return;
    pwrite_all(fd_, mem + stretch, end - stretch, file_off(first) + stretch);
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
  mark_imaged(first, count);
  pages_compared_.fetch_add(compared, std::memory_order_relaxed);
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
    if (dir_[i].state != StoreDirEntry::kEmpty && dir_[i].id == id) {
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
  lock_.lock();
  StoreDirEntry* e = entry_of(id);
  if (e == nullptr) {
    for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
      if (dir_[i].state == StoreDirEntry::kEmpty) {
        e = &dir_[i];
        break;
      }
    }
  }
  if (e == nullptr) {
    lock_.unlock();
    PM2_WARN << "slot store: thread directory full (capacity "
             << hdr_->dir_capacity << "); thread " << id << " not persisted";
    return false;
  }
  // kWriting first, then payload fields: a kill -9 between here and
  // seal_thread() leaves a record recovery ignores.  The flip goes through
  // an atomic ref + compiler fence so the payload stores below cannot be
  // hoisted above it — re-recording a kValid entry with a reordered run
  // list, killed in that window, would hand recovery new runs over old
  // data bytes.  (Crash ordering is same-CPU coherent, so a compiler
  // barrier is the whole requirement.)
  std::atomic_ref<uint32_t>(e->state).store(StoreDirEntry::kWriting,
                                            std::memory_order_release);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  e->id = id;
  e->desc_addr = desc_addr;
  e->n_runs = static_cast<uint32_t>(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    e->runs[i].first = static_cast<uint32_t>(runs[i].first);
    e->runs[i].count = runs[i].second;
  }
  lock_.unlock();
  return true;
}

void SlotStore::seal_thread(uint64_t id) {
  lock_.lock();
  StoreDirEntry* e = entry_of(id);
  PM2_CHECK(e != nullptr) << "seal_thread without record_thread";
  // Release: every payload store (and the data pwrites, already ordered by
  // the syscall boundary) settles before the record turns adoptable.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::atomic_ref<uint32_t>(e->state).store(StoreDirEntry::kValid,
                                            std::memory_order_release);
  lock_.unlock();
}

void SlotStore::erase_thread(uint64_t id) {
  lock_.lock();
  StoreDirEntry* e = entry_of(id);
  if (e != nullptr) {
    *e = StoreDirEntry{};
  }
  lock_.unlock();
}

bool SlotStore::has_record(uint64_t id) const {
  lock_.lock();
  bool found = entry_of(id) != nullptr;
  lock_.unlock();
  return found;
}

std::vector<SlotStore::RecordedThread> SlotStore::recorded_threads() const {
  std::vector<RecordedThread> out;
  lock_.lock();
  for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
    const StoreDirEntry& e = dir_[i];
    if (e.state != StoreDirEntry::kValid) continue;
    RecordedThread rec;
    rec.id = e.id;
    rec.desc_addr = e.desc_addr;
    for (uint32_t r = 0; r < e.n_runs; ++r) {
      rec.runs.emplace_back(e.runs[r].first, e.runs[r].count);
    }
    out.push_back(std::move(rec));
  }
  lock_.unlock();
  return out;
}

bool SlotStore::sync(const std::vector<uint64_t>& seal) {
  // Data first, then the seals vouching for it, then the directory: a
  // machine crash can lose seals, never data behind a durable seal.
  auto failed = [this](const char* what) {
    PM2_WARN << "slot store: " << what << ": " << std::strerror(errno);
    sync_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  if (!sys::data_sync(fd_)) return failed("fdatasync failed, nothing sealed");
  for (uint64_t id : seal) seal_thread(id);
  if (!meta_.sync()) return failed("directory msync failed");
  return true;
}

SlotStoreStats SlotStore::stats() const {
  SlotStoreStats s;
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.pages_compared = pages_compared_.load(std::memory_order_relaxed);
  s.sync_failures = sync_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pm2::iso
