// Virtual-memory reservation semantics: the substitution DESIGN.md documents
// (PROT_NONE reservation + mprotect commit) must behave like per-slot mmap.
#include "sys/vm.hpp"

#include <gtest/gtest.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "isomalloc/area.hpp"

namespace pm2::sys {
namespace {

// A test base away from the default iso-area base so tests never collide
// with runtime tests in the same process.  Derived from the default (k=14,
// above every other hand-built test area) so it lands inside sanitizer
// application address ranges: ASan parks its allocator near
// 0x6400'0000'0000, and TSan only shadows select app zones.
const uintptr_t kTestBase = iso::offset_area_base(14);

TEST(Vm, ReserveAndRelease) {
  {
    VmReservation r(kTestBase, 1 << 20);
    EXPECT_TRUE(r.valid());
    EXPECT_EQ(r.base(), kTestBase);
  }
  // Released: the same range must be reservable again.
  VmReservation r2(kTestBase, 1 << 20);
  EXPECT_TRUE(r2.valid());
}

TEST(Vm, DoubleReservationFails) {
  VmReservation r(kTestBase, 1 << 20);
  EXPECT_THROW(VmReservation(kTestBase, 1 << 20), std::runtime_error);
}

TEST(Vm, ReservedIsNotReadable) {
  VmReservation r(kTestBase, 1 << 20);
  EXPECT_FALSE(probe_readable(kTestBase, 1));
}

TEST(Vm, CommitMakesWritable) {
  VmReservation r(kTestBase, 1 << 20);
  size_t ps = page_size();
  r.commit(kTestBase, ps);
  EXPECT_TRUE(probe_readable(kTestBase, ps));
  auto* p = reinterpret_cast<char*>(kTestBase);
  std::memset(p, 0xAB, ps);
  EXPECT_EQ(p[0], static_cast<char>(0xAB));
  EXPECT_FALSE(probe_readable(kTestBase + ps, 1));  // next page untouched
}

TEST(Vm, DecommitRemovesAccessAndZeroes) {
  VmReservation r(kTestBase, 1 << 20);
  size_t ps = page_size();
  r.commit(kTestBase, ps);
  auto* p = reinterpret_cast<char*>(kTestBase);
  p[0] = 42;
  r.decommit(kTestBase, ps);
  EXPECT_FALSE(probe_readable(kTestBase, 1));
  // Re-commit must observe zeroed memory (fresh pages for migration).
  r.commit(kTestBase, ps);
  EXPECT_EQ(p[0], 0);
}

TEST(Vm, CommitInMiddleOfReservation) {
  VmReservation r(kTestBase, 1 << 20);
  size_t ps = page_size();
  uintptr_t mid = kTestBase + 16 * ps;
  r.commit(mid, 4 * ps);
  EXPECT_TRUE(probe_readable(mid, 4 * ps));
  EXPECT_FALSE(probe_readable(kTestBase, 1));
  EXPECT_FALSE(probe_readable(mid + 4 * ps, 1));
}

TEST(Vm, MoveTransfersOwnership) {
  VmReservation a(kTestBase, 1 << 20);
  VmReservation b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.commit(kTestBase, page_size());
  EXPECT_TRUE(probe_readable(kTestBase, 1));
}

TEST(Vm, ArmedSyncFailuresFailOneSyncEach) {
  char path[] = "/tmp/pm2-vm-sync-XXXXXX";
  int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::unlink(path);
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(page_size())), 0);
  FileMapping map(fd, 0, page_size());
  char a[] = "journal", b[] = "record";
  auto write = [&] {
    iovec iov[] = {{a, 7}, {nullptr, 0}, {b, 6}};
    return write_durable(fd, iov, 3, 100);
  };
  fault_arm_sync_failures(3);
  errno = 0;
  EXPECT_FALSE(data_sync(fd));
  EXPECT_EQ(errno, EIO);
  EXPECT_FALSE(map.sync());
  EXPECT_FALSE(write());
  char back[13] = {};
  ASSERT_EQ(::pread(fd, back, sizeof(back), 100), 13);
  EXPECT_EQ(std::memcmp(back, std::string(13, '\0').data(), 13), 0);
  EXPECT_TRUE(data_sync(fd));
  EXPECT_TRUE(map.sync());
  EXPECT_TRUE(write());
  ASSERT_EQ(::pread(fd, back, sizeof(back), 100), 13);
  EXPECT_EQ(std::memcmp(back, "journalrecord", 13), 0);
  ::close(fd);
}

TEST(VmDeath, CommitOutsideReservationAborts) {
  VmReservation r(kTestBase, 1 << 20);
  EXPECT_DEATH(r.commit(kTestBase + (1 << 20), page_size()),
               "outside reservation");
}

}  // namespace
}  // namespace pm2::sys
