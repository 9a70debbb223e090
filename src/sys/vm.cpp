#include "sys/vm.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
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

void FileMapping::sync() {
  if (data_ != nullptr) ::msync(data_, size_, MS_SYNC);
}

void FileMapping::release() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

bool clear_soft_dirty() {
  int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  ssize_t rc = ::write(fd, "4", 1);
  ::close(fd);
  return rc == 1;
}

bool read_soft_dirty(uintptr_t addr, size_t len, std::vector<uint8_t>& bits) {
  bits.clear();
  const size_t ps = page_size();
  PM2_CHECK(addr % ps == 0) << "soft-dirty read not page aligned";
  int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const size_t pages = (len + ps - 1) / ps;
  bits.resize(pages, 1);  // unknown pages count as dirty (conservative)
  std::vector<uint64_t> entries(pages);
  off_t off = static_cast<off_t>(addr / ps) * 8;
  size_t filled = 0;
  while (filled < pages) {
    ssize_t rc = ::pread(fd, entries.data() + filled, (pages - filled) * 8,
                         off + static_cast<off_t>(filled) * 8);
    if (rc <= 0) {
      ::close(fd);
      bits.clear();
      return false;
    }
    filled += static_cast<size_t>(rc) / 8;
  }
  ::close(fd);
  for (size_t i = 0; i < pages; ++i) {
    bits[i] = (entries[i] >> 55) & 1 ? 1 : 0;
  }
  return true;
}

bool soft_dirty_supported() {
  // One live self-test: clear the bits, dirty a private page, and check the
  // kernel reports exactly that page dirty.  Some kernels/containers hide
  // pagemap bits (CONFIG_MEM_SOFT_DIRTY off, lockdown).
  static const bool supported = [] {
    if (!clear_soft_dirty()) return false;
    const size_t ps = page_size();
    void* p = ::mmap(nullptr, ps, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    *static_cast<volatile char*>(p) = 1;
    std::vector<uint8_t> bits;
    bool ok = read_soft_dirty(reinterpret_cast<uintptr_t>(p), ps, bits) &&
              bits.size() == 1 && bits[0] == 1;
    ::munmap(p, ps);
    return ok;
  }();
  return supported;
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
