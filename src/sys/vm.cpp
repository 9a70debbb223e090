#include "sys/vm.hpp"

#include <errno.h>
#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "sys/backoff.hpp"
#include "sys/sanitizer.hpp"

#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0x100000
#endif

namespace pm2::sys {

size_t page_size() {
  static const size_t ps = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

VmReservation::VmReservation(uintptr_t base, size_t size)
    : base_(0), size_(size) {
  PM2_CHECK(base % page_size() == 0) << "base not page aligned";
  PM2_CHECK(size % page_size() == 0) << "size not page aligned";
  void* want = reinterpret_cast<void*>(base);
  void* got = ::mmap(want, size, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                         MAP_FIXED_NOREPLACE,
                     -1, 0);
  if (got == MAP_FAILED) {
    throw std::runtime_error(
        "iso-area reservation failed at fixed base (errno=" +
        std::string(std::strerror(errno)) +
        "); is the address range already in use in this process?");
  }
  if (got != want) {
    // Kernel without MAP_FIXED_NOREPLACE support ignored the hint; we must
    // not keep a mapping at the wrong address.
    ::munmap(got, size);
    throw std::runtime_error("iso-area reservation landed at wrong address");
  }
  base_ = base;
}

VmReservation::~VmReservation() { release(); }

VmReservation::VmReservation(VmReservation&& other) noexcept
    : base_(other.base_), size_(other.size_) {
  other.base_ = 0;
  other.size_ = 0;
}

VmReservation& VmReservation::operator=(VmReservation&& other) noexcept {
  if (this != &other) {
    release();
    base_ = other.base_;
    size_ = other.size_;
    other.base_ = 0;
    other.size_ = 0;
  }
  return *this;
}

void VmReservation::release() {
  if (base_ != 0) {
    ::munmap(reinterpret_cast<void*>(base_), size_);
    base_ = 0;
    size_ = 0;
  }
}

void VmReservation::commit(uintptr_t addr, size_t len) {
  PM2_CHECK(valid());
  PM2_CHECK(addr >= base_ && addr + len <= base_ + size_)
      << "commit outside reservation";
  PM2_CHECK(addr % page_size() == 0 && len % page_size() == 0);
  int rc = ::mprotect(reinterpret_cast<void*>(addr), len,
                      PROT_READ | PROT_WRITE);
  PM2_CHECK(rc == 0) << "mprotect(commit) failed: " << std::strerror(errno);
  // A re-committed range may still carry a previous tenant's shadow poison
  // (ASan never observes our mprotect games): committed slots start fully
  // addressable, exactly like the zero pages the kernel hands back.
  san_unpoison(reinterpret_cast<void*>(addr), len);
}

void VmReservation::decommit(uintptr_t addr, size_t len) {
  PM2_CHECK(valid());
  PM2_CHECK(addr >= base_ && addr + len <= base_ + size_)
      << "decommit outside reservation";
  PM2_CHECK(addr % page_size() == 0 && len % page_size() == 0);
  // Release the physical pages first, then drop access.  MADV_DONTNEED on an
  // anonymous private mapping guarantees subsequent reads (after re-commit)
  // see zero pages — which also gives migration a clean destination slot.
  int rc = ::madvise(reinterpret_cast<void*>(addr), len, MADV_DONTNEED);
  PM2_CHECK(rc == 0) << "madvise(DONTNEED) failed: " << std::strerror(errno);
  rc = ::mprotect(reinterpret_cast<void*>(addr), len, PROT_NONE);
  PM2_CHECK(rc == 0) << "mprotect(PROT_NONE) failed: " << std::strerror(errno);
}

FileMapping::FileMapping(int fd, size_t offset, size_t len, bool writable) {
  PM2_CHECK(offset % page_size() == 0) << "file mapping offset not aligned";
  const int prot = writable ? PROT_READ | PROT_WRITE : PROT_READ;
  void* got = ::mmap(nullptr, len, prot, MAP_SHARED, fd,
                     static_cast<off_t>(offset));
  if (got == MAP_FAILED) {
    throw std::runtime_error("file-backed mapping failed: " +
                             std::string(std::strerror(errno)));
  }
  data_ = got;
  size_ = len;
}

FileMapping::~FileMapping() { release(); }

FileMapping::FileMapping(FileMapping&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

FileMapping& FileMapping::operator=(FileMapping&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

namespace {

std::atomic<uint64_t> g_sync_failure_budget{0};

/// Consume one armed failure, if any (errno = EIO).
bool take_sync_failure() {
  uint64_t v = g_sync_failure_budget.load(std::memory_order_relaxed);
  while (v > 0 && !g_sync_failure_budget.compare_exchange_weak(
                      v, v - 1, std::memory_order_relaxed)) {
  }
  if (v == 0) return false;
  errno = EIO;
  return true;
}

}  // namespace

void fault_arm_sync_failures(uint64_t n) {
  g_sync_failure_budget.fetch_add(n, std::memory_order_relaxed);
}

bool data_sync(int fd) { return !take_sync_failure() && ::fdatasync(fd) == 0; }

bool write_durable(int fd, struct iovec* iov, int n, uint64_t off) {
  if (take_sync_failure()) return false;
  while (n > 0) {
    const ssize_t rc = retry_eintr([&] {
      return ::pwritev2(fd, iov, std::min(n, IOV_MAX),
                        static_cast<off_t>(off), RWF_DSYNC);
    });
    if (rc <= 0) {
      if (rc == 0) errno = EIO;
      return false;
    }
    off += static_cast<uint64_t>(rc);
    size_t left = static_cast<size_t>(rc);
    for (; n > 0 && left >= iov->iov_len; ++iov, --n) left -= iov->iov_len;
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

bool FileMapping::sync() {
  if (data_ == nullptr) return true;
  return !take_sync_failure() && ::msync(data_, size_, MS_SYNC) == 0;
}

void FileMapping::release() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

bool soft_dirty_supported() {
  // One live self-test: clear the bits, dirty a private page, and check the
  // kernel reports it dirty (pagemap bit 55).  Some kernels/containers hide
  // the bit (CONFIG_MEM_SOFT_DIRTY off, lockdown).
  static const bool supported = [] {
    const size_t ps = page_size();
    const int refs = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
    const int pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    void* p = ::mmap(nullptr, ps, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    bool ok = refs >= 0 && pagemap >= 0 && p != MAP_FAILED &&
              ::write(refs, "4", 1) == 1;
    if (ok) {
      *static_cast<volatile char*>(p) = 1;
      uint64_t entry = 0;
      const auto off = static_cast<off_t>(reinterpret_cast<uintptr_t>(p) / ps);
      ok = ::pread(pagemap, &entry, 8, off * 8) == 8 && (entry >> 55 & 1);
    }
    if (p != MAP_FAILED) ::munmap(p, ps);
    if (pagemap >= 0) ::close(pagemap);
    if (refs >= 0) ::close(refs);
    return ok;
  }();
  return supported;
}

// --- WriteWatch ---------------------------------------------------------
//
// The ABI below postdates some distributions' kernel headers (6.1 lacks
// both), so it is spelled out here: include/uapi/linux/userfaultfd.h and
// include/uapi/linux/fs.h of Linux 6.7.

namespace {

constexpr uint64_t kUffdFeatureWpAsync = uint64_t{1} << 15;

struct PageRegion {
  uint64_t start, end, categories;
};

struct PmScanArg {
  uint64_t size = 0, flags = 0, start = 0, end = 0, walk_end = 0, vec = 0,
           vec_len = 0, max_pages = 0, category_inverted = 0,
           category_mask = 0, category_anyof_mask = 0, return_mask = 0;
};

constexpr unsigned long kPagemapScan = _IOWR('f', 16, PmScanArg);
constexpr uint64_t kPageIsWritten = uint64_t{1} << 1;
constexpr uint64_t kPmScanWpMatching = uint64_t{1} << 0;
constexpr uint64_t kPmScanCheckWpAsync = uint64_t{1} << 1;

}  // namespace

WriteWatch::WriteWatch(uintptr_t base, size_t size) : pid_(::getpid()) {
  uffd_ = static_cast<int>(
      ::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
  uffdio_api api{.api = UFFD_API, .features = kUffdFeatureWpAsync, .ioctls = 0};
  uffdio_register reg{.range = {.start = base, .len = size},
                      .mode = UFFDIO_REGISTER_MODE_WP,
                      .ioctls = 0};
  if (uffd_ < 0 || ::ioctl(uffd_, UFFDIO_API, &api) != 0 ||
      ::ioctl(uffd_, UFFDIO_REGISTER, &reg) != 0 ||
      (pagemap_ = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC)) < 0) {
    error_ = errno;
    return;
  }
  // A kernel with userfaultfd but without PAGEMAP_SCAN (6.4-6.6) fails a
  // one-page probe scan (taken before any store relies on the watch).
  std::vector<uint8_t> pages;
  if (!take_written(base, page_size(), pages)) error_ = errno;
}

WriteWatch::~WriteWatch() {
  if (pagemap_ >= 0) ::close(pagemap_);
  if (uffd_ >= 0) ::close(uffd_);
}

bool WriteWatch::take_written(uintptr_t addr, size_t len,
                              std::vector<uint8_t>& pages) {
  if (pagemap_ < 0 || error_ != 0 || ::getpid() != pid_) return false;
  const size_t ps = page_size();
  pages.assign((len + ps - 1) / ps, 0);
  PageRegion regions[32];
  PmScanArg arg{.size = sizeof(PmScanArg),
                .flags = kPmScanWpMatching | kPmScanCheckWpAsync,
                .start = addr,
                .end = addr + len,
                .vec = reinterpret_cast<uintptr_t>(regions),
                .vec_len = std::size(regions),
                .category_mask = kPageIsWritten,
                .return_mask = kPageIsWritten};
  // A full region vector ends the walk early (walk_end < end).
  while (arg.start < arg.end) {
    const int n = ::ioctl(pagemap_, kPagemapScan, &arg);
    if (n < 0) return false;
    for (int i = 0; i < n; ++i) {
      for (uint64_t p = regions[i].start; p < regions[i].end; p += ps)
        pages[(p - addr) / ps] = 1;
    }
    arg.start = arg.walk_end;
  }
  return true;
}

bool probe_readable(uintptr_t addr, size_t len) {
  // Classic write(2)-probe, but against a pipe: unlike /dev/null (whose
  // write path never touches the source buffer), a pipe write copies the
  // bytes, so the kernel returns EFAULT instead of delivering SIGSEGV when
  // the source is unreadable.
  static thread_local int fds[2] = {-1, -1};
  if (fds[0] < 0) {
    PM2_CHECK(::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0);
  }
  // Probe one byte per page covered by [addr, addr+len).
  const size_t ps = page_size();
  uintptr_t first = addr & ~(ps - 1);
  uintptr_t last = (addr + (len == 0 ? 0 : len - 1)) & ~(ps - 1);
  for (uintptr_t page = first; page <= last; page += ps) {
    uintptr_t at = page < addr ? addr : page;
    ssize_t rc = ::write(fds[1], reinterpret_cast<void*>(at), 1);
    if (rc < 0) {
      PM2_CHECK(errno == EFAULT)
          << "probe write failed: " << std::strerror(errno);
      return false;
    }
  }
  // Drain so repeated probes never fill the pipe.
  char buf[4096];
  while (::read(fds[0], buf, sizeof(buf)) > 0) {
  }
  return true;
}

}  // namespace pm2::sys
