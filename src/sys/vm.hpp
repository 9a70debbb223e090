// Virtual-memory control for the iso-address area.
//
// The paper (§4.1) allocates each slot with mmap() at a specified virtual
// address inside an "iso-address area" located identically in every node's
// address space.  The modern, race-free equivalent used here is:
//
//   1. reserve the whole iso-address area once per process with
//      mmap(base, size, PROT_NONE, MAP_FIXED_NOREPLACE|MAP_NORESERVE) —
//      this pins the range so neither libc malloc nor the loader can take
//      addresses inside it, and fails loudly if anything already lives
//      there (instead of silently clobbering, as plain MAP_FIXED would);
//   2. "allocating a slot" = mprotect(PROT_READ|PROT_WRITE) on its range
//      (commit);
//   3. "unmapping a slot" = madvise(MADV_DONTNEED) + mprotect(PROT_NONE)
//      (decommit: frees the physical pages, keeps the reservation).
//
// Because the same binary runs on every node (SPMD, paper assumption 1) the
// fixed base is free in every process, so a slot committed on one node can
// be re-committed at the same address on another: iso-addressing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

struct iovec;

namespace pm2::sys {

/// System page size (cached).
size_t page_size();

/// RAII reservation of a fixed virtual address range.
///
/// Non-copyable, movable.  The destructor unmaps the whole range.
class VmReservation {
 public:
  VmReservation() = default;
  /// Reserve [base, base+size) with PROT_NONE.  `base` and `size` must be
  /// page aligned.  Throws std::runtime_error if the range is unavailable.
  VmReservation(uintptr_t base, size_t size);
  ~VmReservation();

  VmReservation(const VmReservation&) = delete;
  VmReservation& operator=(const VmReservation&) = delete;
  VmReservation(VmReservation&& other) noexcept;
  VmReservation& operator=(VmReservation&& other) noexcept;

  bool valid() const { return base_ != 0; }
  uintptr_t base() const { return base_; }
  size_t size() const { return size_; }

  /// Make [addr, addr+len) readable/writable.  Page aligned, inside the
  /// reservation.
  void commit(uintptr_t addr, size_t len);

  /// Return [addr, addr+len) to PROT_NONE and release its physical pages.
  void decommit(uintptr_t addr, size_t len);

  /// Release the reservation early (idempotent).
  void release();

 private:
  uintptr_t base_ = 0;
  size_t size_ = 0;
};

/// Kernel write tracking over a range: one userfaultfd registered in async
/// write-protect mode (UFFD_FEATURE_WP_ASYNC: a write to a protected page
/// just unprotects it) plus the PAGEMAP_SCAN ioctl, which reports a range's
/// unprotected ("written") pages and protects them again in the same call —
/// CRIU's incremental-dump mechanism (Linux >= 6.7).  Kernel-side writes
/// (read(2) into the range) and zapped pages (MADV_DONTNEED) count as
/// written.  Unavailable when the kernel refuses any step (no userfaultfd,
/// seccomp, kernel < 6.7) and in a forked child, whose inherited pagemap fd
/// still reads the parent's address space.
class WriteWatch {
 public:
  /// Register [base, base+size) (page aligned, mapped anonymous memory).
  WriteWatch(uintptr_t base, size_t size);
  ~WriteWatch();
  WriteWatch(const WriteWatch&) = delete;
  WriteWatch& operator=(const WriteWatch&) = delete;

  /// errno of the step that failed at construction; 0 when usable.
  int error() const { return error_; }

  /// Report which pages of [addr, addr+len) were written since they were
  /// last taken, and protect them again: `pages` gets one byte per page
  /// (1 = written).  Returns false when the watch is unavailable or the
  /// scan failed; `pages` is then meaningless.  Thread-safe.
  bool take_written(uintptr_t addr, size_t len, std::vector<uint8_t>& pages);

 private:
  int uffd_ = -1;
  int pagemap_ = -1;
  int pid_ = 0;
  int error_ = 0;
};

/// True if [addr, addr+len) is currently readable (committed) — used by
/// tests to assert commit/decommit behaviour without faulting.
bool probe_readable(uintptr_t addr, size_t len);

/// RAII shared file-backed mapping (MAP_SHARED, read/write) of
/// [offset, offset+len) of an open fd at a kernel-chosen address.
///
/// Used for the slot-store header + thread directory: a MAP_SHARED store
/// lands in the page cache on every ordinary store instruction, so the
/// metadata survives a `kill -9` of the process (only a machine crash
/// needs the explicit sync).  Non-copyable, movable.
class FileMapping {
 public:
  FileMapping() = default;
  /// Map `len` bytes of `fd` starting at page-aligned `offset` (MAP_SHARED,
  /// read-write unless `writable` is false).  Throws std::runtime_error on
  /// failure.  The fd may be closed afterwards; the mapping keeps the file
  /// open.
  FileMapping(int fd, size_t offset, size_t len, bool writable = true);
  ~FileMapping();

  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;
  FileMapping(FileMapping&& other) noexcept;
  FileMapping& operator=(FileMapping&& other) noexcept;

  bool valid() const { return data_ != nullptr; }
  void* data() const { return data_; }
  size_t size() const { return size_; }

  /// msync(MS_SYNC) the whole mapping — durability against machine crash,
  /// not needed for kill -9 survival.  False (errno set) when it failed.
  bool sync();

  void release();

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

/// fdatasync(fd).  False (errno set) when it failed: Linux may then have
/// dropped the dirty pages, so nothing may be declared durable.
bool data_sync(int fd);

/// Write the `n` buffers of `iov` at `off` with pwritev2(RWF_DSYNC): the
/// bytes are durable when it returns true (the kernel syncs only the
/// written range).  Short writes are continued; `iov` is consumed.  False
/// (errno set) when a write failed: part of the range may have been
/// written.
bool write_durable(int fd, struct iovec* iov, int n, uint64_t off);

/// Forced-sync-failure hook (like the socket fault hooks): a process-wide
/// budget that data_sync(), write_durable() and FileMapping::sync()
/// consult.  While it lasts, each call fails with EIO without reaching the
/// kernel, exercising the callers' error paths.
void fault_arm_sync_failures(uint64_t n);

/// True when the kernel's soft-dirty page tracking is usable by this
/// process (writable /proc/self/clear_refs + pagemap bit 55 visible).
/// Probed once with a live write-then-read self-test.
bool soft_dirty_supported();

}  // namespace pm2::sys
