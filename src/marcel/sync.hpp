// Synchronization primitives for PM2 threads (node-local).
//
// These park/unpark user-level threads through the cooperative scheduler.
// They coordinate threads *within* one node; the paper explicitly scopes
// data sharing between threads out (§1), and a thread blocked on a wait
// queue is not migratable (Scheduler::freeze refuses, because the queue
// holds a node-local link to it).
//
// SMP protocol: with multiple scheduler workers, waiters and wakers run on
// different kernel threads.  Each primitive guards its state with a short
// sys::SpinLock; a parking thread links itself and sets kBlocked *under*
// that lock and commits the park with Scheduler::block_commit(lock), which
// releases the lock only after the park decision is published — a racing
// unblock() then spins on Thread::running_on until the context is actually
// saved, so no wakeup can be lost and no live stack can be re-dispatched.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "marcel/scheduler.hpp"
#include "marcel/thread.hpp"
#include "sys/spinlock.hpp"
#include "sys/thread_safety.hpp"

namespace pm2::marcel {

/// Intrusive FIFO of parked threads (uses Thread::qnext/qprev).
///
/// Two usage modes, never mixed on one instance:
///  * standalone — park_current()/unpark_one() serialize on the queue's
///    internal lock;
///  * embedded — a primitive guards the queue with its *own* SpinLock and
///    uses the _locked raw ops (link_locked/pop_locked) under it, so the
///    queue links stay atomic with the primitive's state.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  ~WaitQueue();

  /// Park the calling thread at the tail and deschedule it (standalone
  /// mode: the internal lock closes the link-vs-wake race).
  void park_current();
  /// Park the calling thread, atomically releasing `held` (embedded mode:
  /// the caller linked state changes and this park under `held`).
  void park_current(sys::SpinLock& held) PM2_RELEASE(held);
  /// Unpark the head thread; returns it, or nullptr if empty.  With
  /// `front` set the woken thread jumps to the head of the ready queue
  /// (direct handoff — it runs next; see Scheduler::unblock).
  Thread* unpark_one(bool front = false);
  /// Unpark everything.
  void unpark_all(bool front = false);

  /// Raw ops for embedded mode — caller holds the owning primitive's lock.
  void link_locked(Thread* t);
  Thread* pop_locked();
  /// Detach the whole chain (linked via Thread::qnext) for broadcast wakes:
  /// detaching under the lock keeps late arrivals of the *next* generation
  /// out of this wake batch; the caller walks and unblocks outside the lock.
  Thread* pop_all_locked();

  /// Lock-free observers: outside any lock they answer "was the queue
  /// empty at some recent instant" — callers that need the answer to stay
  /// true hold the owning lock (embedded mode) around them.
  bool empty() const { return size_.load(std::memory_order_relaxed) == 0; }
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  sys::SpinLock lock_{sys::LockRank::kSyncState};  // standalone mode only
  // head_/tail_ deliberately carry no PM2_GUARDED_BY: in embedded mode they
  // are protected by the *owning primitive's* lock (a different capability
  // per instance), which the static analysis cannot express.  The dynamic
  // layer still covers them — every _locked call site holds some SpinLock,
  // and the rank checker validates that lock's order.
  Thread* head_ = nullptr;
  Thread* tail_ = nullptr;
  // Atomic: size()/empty() are sampled without the owning lock (runtime
  // stats dumps, idle predicates) while another worker links or pops.
  std::atomic<size_t> size_{0};
};

/// Non-recursive mutual exclusion.
class Mutex {
 public:
  void lock();
  bool try_lock();
  void unlock();
  /// Advisory (tests/diagnostics): takes the state lock so the read is not
  /// a race against a locker on another worker.
  bool locked() const {
    sys::SpinGuard g(state_lock_);
    return owner_ != nullptr;
  }

 private:
  mutable sys::SpinLock state_lock_{sys::LockRank::kSyncState};
  Thread* owner_ PM2_GUARDED_BY(state_lock_) = nullptr;
  WaitQueue waiters_;  // embedded mode: guarded by state_lock_
};

/// Condition variable paired with Mutex.
class CondVar {
 public:
  /// Atomically release `mu`, park, re-acquire on wakeup.
  void wait(Mutex& mu);
  void signal();
  void broadcast();

 private:
  // Distinct (higher) rank than kSyncState: wait() runs Mutex::unlock —
  // which acquires the mutex's own state lock and pushes the next owner
  // onto a ready deque — while this lock is held.
  sys::SpinLock state_lock_{sys::LockRank::kSyncCondVar};
  WaitQueue waiters_;  // embedded mode: guarded by state_lock_
};

/// Counting semaphore.
class Semaphore {
 public:
  explicit Semaphore(long initial = 0) : count_(initial) {}
  void acquire();  // P
  void release();  // V
  /// Advisory (tests/diagnostics): locked read, see Mutex::locked().
  long value() const {
    sys::SpinGuard g(state_lock_);
    return count_;
  }

 private:
  mutable sys::SpinLock state_lock_{sys::LockRank::kSyncState};
  long count_ PM2_GUARDED_BY(state_lock_);
  WaitQueue waiters_;  // embedded mode: guarded by state_lock_
};

/// Reusable rendezvous for `parties` threads.
class Barrier {
 public:
  explicit Barrier(size_t parties) : parties_(parties) {}
  /// Returns true for exactly one thread per generation (the releaser).
  bool arrive_and_wait();

 private:
  sys::SpinLock state_lock_{sys::LockRank::kSyncState};
  size_t parties_ PM2_GUARDED_BY(state_lock_);
  size_t arrived_ PM2_GUARDED_BY(state_lock_) = 0;
  WaitQueue waiters_;  // embedded mode: guarded by state_lock_
};

/// One-shot event: wait() blocks until set() (used for RPC replies and
/// negotiation responses delivered by the comm daemon).
class Event {
 public:
  /// With `direct_handoff` the waiters are woken to the *front* of their
  /// worker's ready deque: the completion path (the comm daemon finishing
  /// a reply) hands control straight to the waiting thread instead of
  /// making it ride out a full round-robin lap.  Plain set() keeps FIFO
  /// fairness.  Waking goes through Scheduler::unblock, which targets the
  /// waiter's own worker and kicks it awake if parked.
  void set(bool direct_handoff = false);
  void wait();
  bool is_set() const { return set_.load(std::memory_order_acquire); }

 private:
  sys::SpinLock state_lock_{sys::LockRank::kSyncState};
  std::atomic<bool> set_{false};
  WaitQueue waiters_;  // embedded mode: guarded by state_lock_
};

// ---------------------------------------------------------------------------
// Completion futures
// ---------------------------------------------------------------------------
//
// Future<T>/Promise<T> are the completion half of the v2 asynchronous RPC
// and migration API: the runtime hands out a Future and completes the
// matching Promise from the comm daemon when the reply / ack arrives.
// Deliberately `then`-free — consumers wait() (parking through the
// cooperative scheduler, like every primitive above), poll ready(), or
// take() the value.  Single consumer: take() moves the value out once.
//
// Futures are node-local objects (the shared state lives in node-local
// memory).  A thread parked in wait() cannot be migrated — like any parked
// thread — but a thread *polling* ready()/wait_any() is READY and therefore
// preemptively migratable; do not poll futures while a load balancer is
// allowed to move you.

namespace detail {
template <typename T>
struct FutureState {
  Event event;                // set once value or error lands
  std::optional<T> value;
  std::string error;          // non-empty <=> completed with an error
  uint8_t error_code = 0;     // the producer's classification (0 = none)
  bool failed = false;
  bool taken = false;
};

/// Size-binned recycling for the future shared-state control blocks — the
/// per-call allocation on the RPC hot path, pooled the way RpcInvocation
/// recycles through a freelist.  Freelists are thread_local, i.e. one per
/// scheduler worker kernel thread, so the hot path takes no lock; blocks
/// freed on a different worker than they were allocated on simply
/// rebalance the lists.  Hit/miss counters are process-wide (surfaced via
/// the runtime's pool stats).
void* future_pool_alloc(std::size_t bytes);
void future_pool_free(void* p, std::size_t bytes) noexcept;
uint64_t future_pool_hits();
uint64_t future_pool_misses();

template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(future_pool_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    future_pool_free(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const noexcept {
    return false;
  }
};
}  // namespace detail

template <typename T>
class Promise;

template <typename T>
class Future {
 public:
  Future() = default;  // invalid until obtained from a Promise

  bool valid() const { return state_ != nullptr; }
  /// Completed (with a value or an error)?  Never blocks.
  bool ready() const { return state_ != nullptr && state_->event.is_set(); }
  /// Park the calling thread until completion.
  void wait() {
    PM2_CHECK(state_ != nullptr) << "wait on invalid future";
    state_->event.wait();
  }
  /// After completion: did the producer fail it (e.g. session shutdown,
  /// unknown service)?
  bool failed() const {
    return state_ != nullptr && state_->event.is_set() && state_->failed;
  }
  const std::string& error() const {
    static const std::string empty;
    return state_ != nullptr ? state_->error : empty;
  }
  /// The code set_error() was given (0 when none, or not failed).
  uint8_t error_code() const {
    return state_ != nullptr ? state_->error_code : 0;
  }
  /// wait() + move the value out.  CHECK-fails on an errored future (test
  /// failed() first when errors are expected) and on a second take().
  T take() {
    wait();
    PM2_CHECK(!state_->failed) << "take() on failed future: " << state_->error;
    PM2_CHECK(!state_->taken) << "future value taken twice";
    state_->taken = true;
    return std::move(*state_->value);
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise()
      : state_(std::allocate_shared<detail::FutureState<T>>(
            detail::PoolAllocator<detail::FutureState<T>>())) {}

  /// The (single) consumer handle.
  Future<T> future() const { return Future<T>(state_); }

  // Completions use direct handoff: the producer is the comm daemon (or a
  // local service) finishing a reply the consumer may be parked on — wake
  // it to the front of its worker's ready deque so a blocking caller
  // resumes as soon as that worker schedules, not after a round-robin lap.
  // The value/error write is published by Event::set's release store.
  void set_value(T v) {
    PM2_CHECK(!state_->event.is_set()) << "promise completed twice";
    state_->value.emplace(std::move(v));
    state_->event.set(/*direct_handoff=*/true);
  }
  /// `why` is for people to read; `code` is a small classification for
  /// code to compare (its meaning is the producer's, e.g. pm2's
  /// RpcErrorCode).
  void set_error(std::string why, uint8_t code = 0) {
    PM2_CHECK(!state_->event.is_set()) << "promise completed twice";
    state_->failed = true;
    state_->error = std::move(why);
    state_->error_code = code;
    state_->event.set(/*direct_handoff=*/true);
  }
  bool completed() const { return state_->event.is_set(); }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Park until every future in `futures` has completed (value or error).
/// Works on anything future-shaped (Future<T>, pm2::RpcFuture<R>).
template <typename F>
void wait_all(std::vector<F>& futures) {
  for (F& f : futures) f.wait();
}

/// Index of a completed future, parking-free: polls ready() and yields
/// between scans (the comm daemon keeps running and completes futures).
/// The caller stays READY while polling — see the migratability note above.
template <typename F>
size_t wait_any(std::vector<F>& futures) {
  PM2_CHECK(!futures.empty()) << "wait_any on empty set";
  Scheduler* sched = Scheduler::current_scheduler();
  PM2_CHECK(sched != nullptr) << "wait_any outside a scheduler";
  while (true) {
    for (size_t i = 0; i < futures.size(); ++i)
      if (futures[i].ready()) return i;
    sched->yield();
  }
}

/// Readers-writer lock, writer-preferring: once a writer queues, new
/// readers wait, so writers cannot starve under a steady reader stream.
class RwLock {
 public:
  void lock_shared();
  void unlock_shared();
  void lock();
  void unlock();

  /// Advisory (tests/diagnostics): locked reads, see Mutex::locked().
  long readers() const {
    sys::SpinGuard g(state_lock_);
    return readers_;
  }
  bool has_writer() const {
    sys::SpinGuard g(state_lock_);
    return writer_ != nullptr;
  }

 private:
  mutable sys::SpinLock state_lock_{sys::LockRank::kSyncState};
  long readers_ PM2_GUARDED_BY(state_lock_) = 0;          // active readers
  Thread* writer_ PM2_GUARDED_BY(state_lock_) = nullptr;  // active writer
  WaitQueue read_waiters_;   // embedded mode: guarded by state_lock_
  WaitQueue write_waiters_;  // embedded mode: guarded by state_lock_
};

}  // namespace pm2::marcel
