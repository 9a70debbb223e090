// Dynamic lock-discipline checker tests (debug / sanitizer builds only).
//
// The checks under test live in sys/spinlock.hpp: per-lock static ranks
// with strictly-decreasing acquisition order, a per-kernel-thread held
// stack that catches double unlocks and unlocks from non-owners, and the
// in-context-switch window that turns "never hold a SpinLock across
// pm2_ctx_switch" into a CHECK.  All of them PM2_FATAL on violation, so
// every test here is a death test; in release builds (PM2_LOCK_CHECKS off)
// the whole suite skips.
#include "sys/spinlock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "marcel/scheduler.hpp"

namespace pm2 {
namespace {

#if PM2_LOCK_CHECKS == 0

TEST(LockCheck, DisabledInThisBuild) {
  GTEST_SKIP() << "PM2_LOCK_CHECKS is off (release build without "
                  "sanitizers); lock-discipline death tests need a debug "
                  "or sanitizer build";
}

#else

TEST(LockCheckDeath, DoubleUnlock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sys::SpinLock l;
        l.lock();
        l.unlock();
        l.unlock();
      },
      "unheld lock");
}

TEST(LockCheckDeath, UnlockFromNonOwningThread) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sys::SpinLock l;
        std::atomic<bool> locked{false};
        std::atomic<bool> release{false};
        std::thread owner([&] {
          l.lock();
          locked.store(true);
          while (!release.load()) {
          }
          // Never unlocks; the lock dies with the process.
        });
        while (!locked.load()) {
        }
        // The lock is held — but by the other kernel thread, whose held
        // stack we are not on.
        l.unlock();
        release.store(true);
        owner.join();
      },
      "does not hold");
}

TEST(LockCheckDeath, OutOfOrderAcquisition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Leaf locks are the innermost layer; taking an invocation-pool
        // shard (outermost) on top of one inverts the documented order.
        sys::SpinLock leaf{sys::LockRank::kLeaf};
        sys::SpinLock pool{sys::LockRank::kInvocationPool};
        leaf.lock();
        pool.lock();
      },
      "lock-rank violation");
}

TEST(LockCheck, EqualRankLockFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Strictly decreasing: two locks of the same rank may not nest via
  // lock() — equal-rank peers (e.g. two registry stripes) cross only via
  // try_lock.
  EXPECT_DEATH(
      {
        sys::SpinLock a{sys::LockRank::kRegistryShard};
        sys::SpinLock b{sys::LockRank::kRegistryShard};
        a.lock();
        b.lock();
      },
      "lock-rank violation");
}

TEST(LockCheck, TryLockIsExemptFromOrder) {
  // try_lock cannot deadlock, so rank order does not apply — equal-rank
  // peers (registry stripes) may be probed this way.  The
  // ready deques that once relied on this for stealing are lock-free now.
  // A successful try_lock still joins the held stack (unlock bookkeeping
  // must balance).
  sys::SpinLock a{sys::LockRank::kRegistryShard};
  sys::SpinLock b{sys::LockRank::kRegistryShard};
  a.lock();
  ASSERT_TRUE(b.try_lock());
  b.unlock();
  a.unlock();
}

TEST(LockCheck, DecreasingOrderIsAllowed) {
  sys::SpinLock outer{sys::LockRank::kRuntimeMaps};
  sys::SpinLock inner{sys::LockRank::kLeaf};
  outer.lock();
  inner.lock();
  inner.unlock();
  outer.unlock();
}

constexpr size_t kRegion = 64 * 1024;

void yield_with_lock_held(void*) {
  sys::SpinLock l;
  l.lock();
  marcel::Scheduler::current_scheduler()->yield();
  l.unlock();
  marcel::Scheduler::current_scheduler()->exit_current([](marcel::Thread*) {});
}

TEST(LockCheckDeath, LockHeldAcrossContextSwitch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        void* region = std::aligned_alloc(64, kRegion);
        marcel::Scheduler sched;
        sched.create(region, kRegion, &yield_with_lock_held, nullptr, 1,
                     "locked-yield");
        sched.stop();
        sched.run();
      },
      "SpinLock\\(s\\) held");
}

#endif  // PM2_LOCK_CHECKS

}  // namespace
}  // namespace pm2
