// The invocation pool makes the paper's thread-per-LRPC cheap: an exited
// service thread parks — descriptor, initialized stack and its one stack
// run, heap runs trimmed — and the next service dispatch re-arms it instead
// of acquiring a slot run and building a thread.  One LIFO list (the newest
// stack is the cache-warmest) under one SpinLock, lock_ (kInvocationPool);
// slot releases happen outside it.  A parked stack is ASan-poisoned whole
// until Scheduler::rearm(), so a write through a pointer that outlived its
// invocation is a hard report.  Parked shells are never demoted to the slot
// store: the cap and the idle decay bound them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "isomalloc/slot_manager.hpp"
#include "marcel/thread.hpp"
#include "sys/spinlock.hpp"
#include "sys/thread_safety.hpp"

namespace pm2 {

class InvocationPool {
 public:
  /// `cap` is RuntimeConfig::invocation_pool (0 parks nothing), `decay_us`
  /// RuntimeConfig::invocation_pool_decay_us (0 decays only at halt) and
  /// `stack_slots` the width of a service stack run.  Runs go back to the
  /// node through `ops`.
  InvocationPool(size_t cap, uint64_t decay_us, size_t stack_slots,
                 iso::SlotOps& ops)
      : cap_(cap), decay_ns_(decay_us * 1000), stack_slots_(stack_slots),
        ops_(ops) {}

  /// Park exited service thread `t` (off its stack for good), or release
  /// its runs when the list is full or its stack run has another width.
  void park(marcel::Thread* t);
  /// The most recently parked shell, still poisoned, or nullptr.  Counts a
  /// hit or a miss.
  marcel::Thread* take();
  /// Release the shells parked longer than the decay horizon (comm daemon
  /// idle laps; exposed for tests).
  void decay(uint64_t now);
  /// Release every parked shell (comm daemon exit at halt).
  void drain();

  size_t size() const;
  /// Visit every parked shell under the lock (audit, with the workers
  /// paused): parked shells still own their stack run while off the
  /// scheduler registry.  `fn` must take no lock.
  void for_each(const std::function<void(marcel::Thread*)>& fn) const;

  /// Dispatches served by re-arming a parked shell.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Dispatches that had to build a thread.
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Shells released without reuse (idle decay and the halt drain).
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    marcel::Thread* thread;
    uint64_t parked_ns;
  };
  /// Lift the park poison and hand the shell's stack run back.
  void release(marcel::Thread* t);

  const size_t cap_;
  const uint64_t decay_ns_;
  const size_t stack_slots_;
  iso::SlotOps& ops_;
  mutable sys::SpinLock lock_{sys::LockRank::kInvocationPool};
  std::vector<Entry> entries_ PM2_GUARDED_BY(lock_);  // back = newest
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace pm2
