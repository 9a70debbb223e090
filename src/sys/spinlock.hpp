// Kernel-level spinlock for the SMP scheduler's short critical sections.
//
// PM2 threads coordinate through the cooperative primitives in marcel/sync;
// this lock is for the *kernel* threads underneath them — registry stripes,
// sync-primitive state, runtime tables — where the critical section is a
// handful of pointer writes and parking a kernel thread would cost more
// than the wait.  (The worker ready deques, once the heaviest user, are
// lock-free now: sys/chase_lev.hpp.)  Two rules keep it safe:
//
//   * never hold a SpinLock across a pm2_ctx_switch.  The one sanctioned
//     exception is Scheduler::block_commit(), which *releases* the lock
//     after publishing the park decision and before switching — the lock is
//     not held during the switch, only up to it.
//   * never call into the fabric (which may pump receives re-entrantly)
//     with a SpinLock held: decide under the lock, send outside it.
//
// Both rules are now *enforced*, not just stated:
//   * statically — clang's -Wthread-safety pass, via the PM2_CAPABILITY /
//     PM2_GUARDED_BY annotations (see sys/thread_safety.hpp);
//   * dynamically — the lock-rank checker below (debug and sanitizer
//     builds).  Every SpinLock carries a LockRank; acquisition order must
//     be strictly *decreasing* (outer layers rank high, inner layers rank
//     low), a thread-local stack records what each kernel thread holds, and
//     unlock verifies the caller actually holds the lock.  A thread-local
//     in-context-switch flag turns "no SpinLock across pm2_ctx_switch"
//     into a hard CHECK at both the switch site and any acquisition that
//     races one.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "sys/sanitizer.hpp"
#include "sys/thread_safety.hpp"

// The rank checker costs a TLS lookup and a few compares per lock op — too
// much for release hot paths, cheap next to sanitizer instrumentation.  It
// is on in debug builds and in every sanitizer build (the ASan/TSan CI legs
// run the full suite, so rank violations surface there even though those
// legs compile with optimizations and NDEBUG unset only sometimes).
#if !defined(NDEBUG) || PM2_ASAN_ENABLED || PM2_TSAN_ENABLED
#define PM2_LOCK_CHECKS 1
#else
#define PM2_LOCK_CHECKS 0
#endif

namespace pm2::sys {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Static lock order.  Acquisition must be strictly *decreasing*: while
/// holding a lock of rank R, a kernel thread may only acquire locks of rank
/// < R.  Outer (decision) layers rank high, inner (mechanism) layers rank
/// low, so the runtime's decide-under-lock pattern — runtime table lock ->
/// sync-primitive state lock -> registry stripe — is monotone, i.e.
/// registry-shard < sync-state < runtime-maps < invocation-pool.
///
/// The order encodes the nestings that actually occur:
///   * CondVar::wait holds its state lock while Mutex::unlock runs
///     underneath (kSyncCondVar > kSyncState); the woken waiter's requeue
///     is lock-free (Chase-Lev deque / MPSC inbox), so nothing ranks
///     below it on that path anymore.
///   * Residency holds its lock while the slot store faults runs back and
///     scans its directory (kRuntimeMaps > kLeaf).
///   * The invocation pool's list and the RPC invocation freelist nest
///     nothing: no lock is taken under either, nor either under another.
/// Same-rank acquisition is refused; peers of equal rank may only be taken
/// with try_lock, which cannot deadlock and is therefore exempt from the
/// order check.
///
/// Historical note: rank 0x10 (kSchedulerDeque) guarded the per-worker
/// ready deques until they became lock-free Chase-Lev deques plus MPSC
/// inbox/handoff slots (sys/chase_lev.hpp).  The rank is retired — the
/// value stays unassigned so old rank numbers in crash logs stay readable.
enum class LockRank : uint8_t {
  kLeaf = 0x08,            // slot-store directory: acquire nothing
  kRegistryShard = 0x20,   // Scheduler registry stripes (sys::StripedMap)
  kSyncState = 0x30,       // Mutex/Semaphore/Barrier/Event/RwLock/WaitQueue
  kSyncCondVar = 0x34,     // CondVar state (runs Mutex::unlock underneath)
  kRuntimeMaps = 0x40,     // runtime tables: pending/services/bitmap/store/...
  kInvocationPool = 0x48,  // pool list + invocation freelist
};

#if PM2_LOCK_CHECKS

namespace lockrank {

/// Per-kernel-thread record of held SpinLocks.  Fixed capacity: the deepest
/// legal chain today is two (runtime map -> leaf); eight leaves headroom
/// for tests and future layers.
struct HeldStack {
  static constexpr int kMax = 8;
  const void* lock[kMax];
  uint8_t rank[kMax];
  int depth = 0;
  /// Between a lockrank_ctx_switch_begin() and the matching _end(): this
  /// kernel thread is mid-pm2_ctx_switch and must not touch any SpinLock.
  bool in_switch = false;
};

inline thread_local HeldStack t_held;

/// TLS accessor, deliberately noinline.  PM2 fibers migrate between kernel
/// threads at every pm2_ctx_switch (steal, unblock on another worker), but
/// the compiler is entitled to assume a function never changes threads and
/// may CSE the thread_local address across the switch — an inlined t_held
/// access after a resume would then scribble on the *previous* kernel
/// thread's held stack (seen in the wild as a corrupted depth tripping
/// UBSan's object-size check under ASan at 4 workers).  An opaque call
/// re-derives the TLS base from the current thread every time; two calls
/// cannot be merged because the function is not const-qualified.
[[gnu::noinline]] inline HeldStack& held() { return t_held; }

inline uint8_t min_held_rank() {
  // try_lock may record out-of-order entries, so scan instead of trusting
  // the top (depth <= kMax keeps this trivial).
  const HeldStack& h = held();
  uint8_t m = 0xFF;
  for (int i = 0; i < h.depth; ++i)
    if (h.rank[i] < m) m = h.rank[i];
  return m;
}

inline void check_acquire(const void* l, LockRank r) {
  PM2_CHECK(!held().in_switch)
      << "SpinLock " << l << " (rank 0x" << std::hex
      << unsigned(static_cast<uint8_t>(r))
      << ") acquired while this kernel thread is mid-pm2_ctx_switch";
  PM2_CHECK(static_cast<uint8_t>(r) < min_held_rank())
      << "lock-rank violation: acquiring SpinLock " << l << " of rank 0x"
      << std::hex << unsigned(static_cast<uint8_t>(r))
      << " while holding rank 0x" << unsigned(min_held_rank())
      << " (acquisition order must strictly decrease; same-rank peers only "
         "via try_lock)";
}

inline void note_acquired(const void* l, LockRank r) {
  HeldStack& h = held();
  PM2_CHECK(h.depth < HeldStack::kMax) << "SpinLock held-stack overflow";
  h.lock[h.depth] = l;
  h.rank[h.depth] = static_cast<uint8_t>(r);
  ++h.depth;
}

inline void note_released(const void* l) {
  // Search from the top: releases are almost always LIFO, but the
  // decide-under-lock pattern legitimately releases out of order
  // (SpinGuard::release before a later guard unwinds).
  HeldStack& h = held();
  for (int i = h.depth - 1; i >= 0; --i) {
    if (h.lock[i] != l) continue;
    for (int j = i; j + 1 < h.depth; ++j) {
      h.lock[j] = h.lock[j + 1];
      h.rank[j] = h.rank[j + 1];
    }
    --h.depth;
    return;
  }
  PM2_FATAL("SpinLock::unlock of a lock this kernel thread does not hold "
            "(double unlock, or unlock from a non-owning thread)");
}

}  // namespace lockrank

#endif  // PM2_LOCK_CHECKS

/// Bracket every pm2_ctx_switch: begin() immediately before the switch on
/// the departing context, end() at the first instruction the resumed (or
/// freshly booted) context runs.  begin() asserts the departing kernel
/// thread holds no SpinLock — the "never hold a SpinLock across a switch"
/// rule — and arms the in-switch flag that fails any acquisition racing
/// the switch itself.
inline void lockrank_ctx_switch_begin() {
#if PM2_LOCK_CHECKS
  // held() and not t_held: begin() runs on the departing kernel thread,
  // end() on whichever kernel thread resumes the context — the opaque
  // accessor keeps the compiler from reusing the departing thread's TLS
  // base across the switch when both brackets inline into one function.
  lockrank::HeldStack& h = lockrank::held();
  PM2_CHECK(h.depth == 0)
      << "pm2_ctx_switch with " << h.depth
      << " SpinLock(s) held (first held: " << h.lock[0]
      << "); publish, release, then switch";
  h.in_switch = true;
#endif
}

inline void lockrank_ctx_switch_end() {
#if PM2_LOCK_CHECKS
  lockrank::held().in_switch = false;
#endif
}

class PM2_CAPABILITY("spinlock") SpinLock {
 public:
  constexpr SpinLock() = default;
  constexpr explicit SpinLock([[maybe_unused]] LockRank rank)
#if PM2_LOCK_CHECKS
      : rank_(rank)
#endif
  {
  }
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() PM2_ACQUIRE() {
#if PM2_LOCK_CHECKS
    // Order is checked *before* spinning: a rank violation is exactly the
    // shape that deadlocks, so fail fast instead of hanging in it.
    lockrank::check_acquire(this, rank_);
#endif
    while (flag_.exchange(true, std::memory_order_acquire)) {
      // Spin on a plain load so the cache line stays shared while waiting.
      while (flag_.load(std::memory_order_relaxed)) cpu_relax();
    }
#if PM2_LOCK_CHECKS
    lockrank::note_acquired(this, rank_);
#endif
  }

  bool try_lock() PM2_TRY_ACQUIRE(true) {
    bool got = !flag_.load(std::memory_order_relaxed) &&
               !flag_.exchange(true, std::memory_order_acquire);
#if PM2_LOCK_CHECKS
    // A try-acquisition cannot deadlock (it fails instead of waiting), so
    // it is exempt from the rank-order check — this is how work stealing
    // takes a peer deque of equal rank — but the mid-switch rule and the
    // held-stack bookkeeping still apply.
    if (got) {
      PM2_CHECK(!lockrank::held().in_switch)
          << "SpinLock::try_lock succeeded mid-pm2_ctx_switch";
      lockrank::note_acquired(this, rank_);
    }
#endif
    return got;
  }

  void unlock() PM2_RELEASE() {
#if PM2_LOCK_CHECKS
    PM2_CHECK(flag_.load(std::memory_order_relaxed))
        << "SpinLock::unlock of an unheld lock (double unlock?)";
    lockrank::note_released(this);
#endif
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
#if PM2_LOCK_CHECKS
  LockRank rank_ = LockRank::kLeaf;
#endif
};

/// Scoped holder (std::lock_guard works too; this one permits early release
/// for the decide-under-lock / act-outside pattern).
class PM2_SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(SpinLock& l) PM2_ACQUIRE(l) : lock_(&l) { lock_->lock(); }
  ~SpinGuard() PM2_RELEASE() { release(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;
  void release() PM2_RELEASE() {
    if (lock_ != nullptr) {
      lock_->unlock();
      lock_ = nullptr;
    }
  }

 private:
  SpinLock* lock_;
};

}  // namespace pm2::sys
