#include "marcel/scheduler.hpp"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "common/time.hpp"
#include "marcel/keys.hpp"
#include "sys/backoff.hpp"
#include "sys/sanitizer.hpp"

namespace pm2::marcel {

namespace {
thread_local Scheduler* t_scheduler = nullptr;
thread_local uint32_t t_worker = kNoWorker;

/// Idle workers re-check the world at least this often even with no wake
/// signal (lost-wakeup backstop; normal wakeups are explicit notifies).
constexpr uint64_t kIdleBackstopNs = 100'000'000;  // 100 ms
}  // namespace

const char* to_string(ThreadState s) {
  switch (s) {
    case ThreadState::kReady:
      return "ready";
    case ThreadState::kRunning:
      return "running";
    case ThreadState::kBlocked:
      return "blocked";
    case ThreadState::kFrozen:
      return "frozen";
    case ThreadState::kDead:
      return "dead";
  }
  return "?";
}

void Thread::arm_canary() {
  *reinterpret_cast<uint64_t*>(stack_base) = kCanary;
}

bool Thread::canary_ok() const {
  return *reinterpret_cast<const uint64_t*>(stack_base) == kCanary;
}

Scheduler::Scheduler(uint32_t workers)
    : n_workers_(workers == 0 ? 1 : workers),
      registry_(sys::LockRank::kRegistryShard) {
  workers_.reserve(n_workers_);
  for (uint32_t i = 0; i < n_workers_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rng = 0x9E3779B97F4A7C15ull * (i + 1) + 1;
  }
}

Scheduler::~Scheduler() {
  for (const auto& w : workers_)
    PM2_CHECK(w->current == nullptr) << "scheduler destroyed while dispatching";
}

Scheduler* Scheduler::current_scheduler() { return t_scheduler; }

Thread* Scheduler::self() {
  if (t_scheduler == nullptr || t_worker == kNoWorker) return nullptr;
  return t_scheduler->workers_[t_worker]->current;
}

uint32_t Scheduler::current_worker() { return t_worker; }

uint32_t Scheduler::home_worker() const {
  return (t_scheduler == this && t_worker != kNoWorker) ? t_worker : 0;
}

bool Scheduler::on_worker(uint32_t idx) const {
  return t_scheduler == this && t_worker == idx;
}

SchedulerBinding::SchedulerBinding(Scheduler* sched) : prev_(t_scheduler) {
  t_scheduler = sched;
}

SchedulerBinding::~SchedulerBinding() { t_scheduler = prev_; }

// --- registry --------------------------------------------------------------

void Scheduler::register_thread(Thread* t) {
  auto [slot, inserted] = registry_.try_emplace(t->id, t);
  (void)slot;
  PM2_CHECK(inserted) << "duplicate thread id " << t->id;
  registry_count_.fetch_add(1, std::memory_order_relaxed);
  if (!t->is_daemon()) live_.fetch_add(1, std::memory_order_relaxed);
}

Thread* Scheduler::find(ThreadId id) const {
  // Copy under the stripe lock: a concurrent exit may erase the id (and
  // free the map node) the instant the lock drops.  The descriptor itself
  // lives in its slot region, not in the node, so the returned pointer is
  // as valid as it ever was — callers revalidate via state as before.
  Thread* t = nullptr;
  return registry_.find_copy(id, &t) ? t : nullptr;
}

void Scheduler::for_each(const std::function<void(Thread*)>& fn) const {
  // StripedMap snapshots stripe by stripe and calls back outside the stripe
  // locks: fn may look threads up again or take other locks.
  registry_.for_each_value(fn);
}

// --- thread lifecycle ------------------------------------------------------

Thread* Scheduler::create(void* region, size_t region_size, EntryFn entry,
                          void* arg, ThreadId id, const char* name,
                          uint32_t flags, bool start_frozen) {
  PM2_CHECK(region != nullptr);
  auto base = reinterpret_cast<uintptr_t>(region);
  PM2_CHECK(base % alignof(Thread) == 0) << "misaligned thread region";
  PM2_CHECK(region_size >= sizeof(Thread) + 16 * 1024)
      << "thread region too small: " << region_size;

  auto* t = new (region) Thread();
  t->id = id;
  t->flags = flags;
  std::strncpy(t->name, name != nullptr ? name : "", Thread::kNameLen - 1);

  uintptr_t stack_base = (base + sizeof(Thread) + 63) & ~uintptr_t{63};
  uintptr_t stack_top = (base + region_size) & ~uintptr_t{15};
  t->stack_base = reinterpret_cast<void*>(stack_base);
  t->stack_top = reinterpret_cast<void*>(stack_top);
  // The region may be a recycled slot whose previous tenant left redzone
  // poison behind (frames never unwind on exit/migration): this is a fresh
  // logical stack, scrub its shadow.
  sys::san_unpoison(t->stack_base, stack_top - stack_base);
  t->arm_canary();
  t->sp = ctx_make(t->stack_base, t->stack_top, entry, arg);
  t->tsan_fiber = sys::san_fiber_create();

  uint32_t home = home_worker();
  t->affinity = (flags & Thread::kFlagPinned) != 0 ? home : kNoWorker;
  t->last_worker = home;
  // A frozen newborn is registered (findable) but unpublished: the creator
  // finishes the descriptor, and unfreeze()'s push_ready is the release
  // store a stealing worker acquires.
  if (start_frozen)
    t->state.store(ThreadState::kFrozen, std::memory_order_relaxed);
  register_thread(t);
  if (!start_frozen) push_ready(t, home);
  return t;
}

Thread* Scheduler::rearm(Thread* t, EntryFn entry, void* arg, ThreadId id,
                         const char* name, uint32_t flags, bool start_frozen) {
  PM2_CHECK(t != nullptr && t->magic == Thread::kMagic)
      << "rearm on corrupt descriptor";
  PM2_CHECK(t->state == ThreadState::kDead)
      << "rearm on " << to_string(t->state) << " thread";
  t->id = id;
  t->flags = flags;
  std::strncpy(t->name, name != nullptr ? name : "", Thread::kNameLen - 1);
  t->name[Thread::kNameLen - 1] = '\0';
  t->user_fn = nullptr;
  t->user_arg = nullptr;
  std::memset(t->specific, 0, sizeof(t->specific));
  t->qnext = nullptr;
  t->qprev = nullptr;
  t->wait_queue = nullptr;
  t->joiner = nullptr;
  t->done = false;
  t->san_fake_stack = nullptr;
  t->running_on.store(kNoWorker, std::memory_order_relaxed);
  t->park_mode = ParkMode::kYield;
  t->san_worker = kNoWorker;
  // Stack bounds are unchanged; only the context restarts from scratch.
  // The invocation pool poisoned the parked stack — lift that before the
  // canary and the fresh initial frame are written.
  sys::san_unpoison(t->stack_base, t->stack_size());
  t->arm_canary();
  t->sp = ctx_make(t->stack_base, t->stack_top, entry, arg);
  // The exit epilogue destroyed the previous invocation's TSan fiber; the
  // recycled context gets a fresh one.
  t->tsan_fiber = sys::san_fiber_create();
  uint32_t home = home_worker();
  t->affinity = (flags & Thread::kFlagPinned) != 0 ? home : kNoWorker;
  t->last_worker = home;
  if (start_frozen)
    t->state.store(ThreadState::kFrozen, std::memory_order_relaxed);
  register_thread(t);
  if (!start_frozen) push_ready(t, home);
  return t;
}

// --- ready containers ------------------------------------------------------

void Scheduler::inbox_push(Worker& w, Thread* t) {
  // Treiber push.  The release CAS pairs with the drain's acquire exchange,
  // ordering the qnext write (and the whole descriptor) before the owner
  // reads the chain.
  t->qnext = w.inbox.load(std::memory_order_relaxed);
  while (!w.inbox.compare_exchange_weak(t->qnext, t,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
  }
}

void Scheduler::drain_inbox(Worker& w, uint32_t idx) {
  if (w.inbox.load(std::memory_order_relaxed) == nullptr) return;
  Thread* n = w.inbox.exchange(nullptr, std::memory_order_acquire);
  // The Treiber stack yields newest-first; reverse to FIFO arrival order
  // before routing, so remote pushes keep round-robin fairness.
  Thread* rev = nullptr;
  while (n != nullptr) {
    Thread* nx = n->qnext;
    n->qnext = rev;
    rev = n;
    n = nx;
  }
  while (rev != nullptr) {
    Thread* nx = rev->qnext;
    rev->qnext = nullptr;
    if (n_workers_ > 1 && rev->affinity != kNoWorker) {
      PM2_DCHECK(rev->affinity == idx);
      if (w.pinned_tail != nullptr)
        w.pinned_tail->qnext = rev;
      else
        w.pinned_head = rev;
      w.pinned_tail = rev;
    } else {
      w.deque.push_bottom(rev);
    }
    rev = nx;
  }
}

void Scheduler::push_ready(Thread* t, uint32_t w_idx, bool front) {
  PM2_DCHECK(w_idx < n_workers_);
  Worker& w = *workers_[w_idx];
  t->queue_worker.store(w_idx, std::memory_order_relaxed);
  // Publication point (ROADMAP obligation (a)): everything written to the
  // descriptor so far — user_fn/user_arg from a frozen create/rearm, the
  // saved context, queue_worker above — is released here; a consumer that
  // takes the thread from any container acquires state before touching it.
  // The container ops (Chase-Lev push/steal, mailbox exchange, inbox CAS)
  // carry their own release/acquire edge on top.
  t->state.store(ThreadState::kReady, std::memory_order_release);
  bool stealable = false;  // landed on this worker's own deque
  if (front) {
    // Direct handoff: single-slot mailbox, checked before everything else
    // by the owner.  A displaced occupant (two handoffs racing) overflows
    // into the inbox and keeps its ready accounting.
    Thread* prev = w.handoff.exchange(t, std::memory_order_acq_rel);
    if (prev != nullptr) inbox_push(w, prev);
    w.handoffs.fetch_add(1, std::memory_order_relaxed);
  } else if (on_worker(w_idx)) {
    if (n_workers_ > 1 && t->affinity != kNoWorker) {
      PM2_DCHECK(t->affinity == w_idx);
      t->qnext = nullptr;
      if (w.pinned_tail != nullptr)
        w.pinned_tail->qnext = t;
      else
        w.pinned_head = t;
      w.pinned_tail = t;
    } else {
      w.deque.push_bottom(t);
      stealable = true;
    }
  } else {
    // Chase-Lev pushes are owner-only; remote producers go via the inbox.
    inbox_push(w, t);
  }
  w.ready.fetch_add(1);  // seq_cst: meets the idle-park protocol

  if (n_workers_ == 1) return;
  uint32_t me = (t_scheduler == this) ? t_worker : kNoWorker;
  if (w_idx != me) {
    wake_worker(w_idx);
    // Worker 0's kernel thread may be parked deep inside the comm daemon's
    // blocking fabric receive, where no condvar reaches it.
    if (w_idx == 0 && me != 0 && external_wake_) external_wake_();
  } else if (stealable && has_surplus(w) && n_parked_.load() > 0) {
    // Local surplus: hand it to one parked peer, whose park predicate sees
    // the same surplus and leaves idle_park to steal.  Pinned requeues
    // (the comm daemon's) never get here.  seq_cst loads: the ready
    // increment above, these loads, and the parker's parked store and
    // peer_surplus read form the Dekker pair that loses no wake.
    for (uint32_t i = 0; i < n_workers_; ++i) {
      if (i != w_idx && workers_[i]->parked.load()) {
        wake_worker(i);
        break;
      }
    }
  }
}

bool Scheduler::has_surplus(const Worker& w) {
  // The owner takes its next pick from the deque top too, so only what lies
  // beyond it is work a thief can take without robbing the owner.
  return w.deque.size() > 1;
}

bool Scheduler::peer_surplus(uint32_t idx) const {
  for (uint32_t i = 0; i < n_workers_; ++i) {
    // The seq_cst `ready` load acquires the pusher's increment, which is
    // sequenced after its deque push: a surplus that pusher saw is seen here.
    if (i != idx && workers_[i]->ready.load() > 1 && has_surplus(*workers_[i]))
      return true;
  }
  return false;
}

void Scheduler::claim(Thread* t, uint32_t idx) {
  // The container's exactly-once removal (top CAS / exchange / owner drain)
  // made this worker the sole claimant; the acquire load pairs with
  // push_ready's release store, so the descriptor reads below — and the
  // first dispatch's user_fn/user_arg reads — see the producer's writes.
  ThreadState s = t->state.load(std::memory_order_acquire);
  PM2_DCHECK(s == ThreadState::kReady)
      << "claimed a " << to_string(s) << " thread";
  (void)s;
  t->state.store(ThreadState::kRunning, std::memory_order_relaxed);
  t->running_on.store(idx, std::memory_order_relaxed);
  t->last_worker = idx;
}

Thread* Scheduler::pop_local(Worker& w, uint32_t idx) {
  // 1. Handoff mailbox: direct handoffs dispatch before any peer.
  if (w.handoff.load(std::memory_order_relaxed) != nullptr) {
    Thread* t = w.handoff.exchange(nullptr, std::memory_order_acquire);
    if (t != nullptr) {
      w.ready.fetch_sub(1);
      claim(t, idx);
      return t;
    }
  }
  // `ready` counts all four containers; a zero read means they were all
  // empty at some recent instant — good enough for the fast path (the
  // idle-park protocol closes the race).
  if (w.ready.load(std::memory_order_relaxed) == 0) return nullptr;
  // 2. Remote pushes land in the owner's containers.
  drain_inbox(w, idx);
  // 3./4. Pinned FIFO and deque, alternating so neither starves the other
  // (the comm daemon is pinned work and must not be starved by a full
  // deque — nor vice versa).
  Thread* t = nullptr;
  bool prefer_pinned = (++w.pop_tick & 1) != 0;
  for (int round = 0; round < 2 && t == nullptr; ++round) {
    if (prefer_pinned) {
      if (w.pinned_head != nullptr) {
        t = w.pinned_head;
        w.pinned_head = t->qnext;
        if (w.pinned_head == nullptr) w.pinned_tail = nullptr;
        t->qnext = nullptr;
      }
    } else {
      // Owner takes from the *top* (steal side) so dispatch order stays
      // FIFO — round-robin fairness, same as the spinlocked deque had.
      t = w.deque.steal();
    }
    prefer_pinned = !prefer_pinned;
  }
  if (t == nullptr) return nullptr;
  w.ready.fetch_sub(1);
  claim(t, idx);
  return t;
}

Thread* Scheduler::try_steal(uint32_t thief) {
  Worker& me = *workers_[thief];
  uint64_t x = me.rng;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  me.rng = x;
  uint32_t start = static_cast<uint32_t>(x % n_workers_);
  bool saw_work = false;
  for (uint32_t k = 0; k < n_workers_; ++k) {
    uint32_t v = (start + k) % n_workers_;
    if (v == thief) continue;
    Worker& vic = *workers_[v];
    if (vic.ready.load(std::memory_order_relaxed) == 0) continue;
    saw_work = true;
    Thread* t = vic.deque.steal();
    if (t != nullptr) {
      vic.ready.fetch_sub(1);
      claim(t, thief);
      me.steals.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  if (saw_work) {
    // Nothing stealable on any deque — the work may be a handoff parked in
    // the mailbox of a worker that is busy running something long.  Poach
    // it rather than idle (the old deque-front handoff was stealable too).
    for (uint32_t k = 0; k < n_workers_; ++k) {
      uint32_t v = (start + k) % n_workers_;
      if (v == thief) continue;
      Worker& vic = *workers_[v];
      if (vic.handoff.load(std::memory_order_relaxed) == nullptr) continue;
      Thread* h = vic.handoff.exchange(nullptr, std::memory_order_acquire);
      if (h == nullptr) continue;
      if (h->affinity != kNoWorker && h->affinity != thief) {
        // Pinned to the victim: put it back where its owner will find it.
        inbox_push(vic, h);
        wake_worker(v);
        continue;
      }
      vic.ready.fetch_sub(1);
      claim(h, thief);
      me.steals.fetch_add(1, std::memory_order_relaxed);
      return h;
    }
    me.steal_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

// --- dispatch --------------------------------------------------------------

void Scheduler::dispatch(Worker& w, uint32_t idx, Thread* t) {
  PM2_DCHECK(t->state == ThreadState::kRunning);
  PM2_DCHECK(t->magic == Thread::kMagic) << "corrupt thread descriptor";
  w.current = t;
  w.dispatches.fetch_add(1, std::memory_order_relaxed);
  w.slice_start_ns = now_ns();
  sys::san_start_switch(&w.san_sched_fake, t->stack_base, t->stack_size());
  sys::san_fiber_switch(t->tsan_fiber);
  sys::lockrank_ctx_switch_begin();
  pm2_ctx_switch(&w.sched_sp, t->sp);
  sys::lockrank_ctx_switch_end();
  sys::san_finish_switch(w.san_sched_fake);
  // The thread switched back (yield/block/exit/freeze).  Its memory is
  // still mapped even if it exited — the reaper continuation has not run
  // yet — so the overflow canary can be verified on every switch.
  PM2_CHECK(t->canary_ok())
      << "stack overflow detected on thread " << t->id << " (" << t->name
      << "): the stack ran into its descriptor";
  // Iso-address one-owner invariant: the stack run we just dispatched must
  // have been owned by this worker for the whole slice.
  PM2_DCHECK(t->running_on.load(std::memory_order_relaxed) == idx)
      << "thread " << t->id << " dispatched by worker " << idx
      << " without owning it";
  ParkMode mode = t->park_mode;
  w.current = nullptr;
  if (mode == ParkMode::kDone && t->done) {
    // The context exited and never runs again; release its TSan state now,
    // before w.post (the reaper) releases or pool-parks the slot memory the
    // descriptor lives in.  Pool re-arm creates a fresh fiber.
    sys::san_fiber_destroy(t->tsan_fiber);
    t->tsan_fiber = nullptr;
  }
  // Only now is the context fully saved: release ownership so a racing
  // unblock()/steal may requeue and re-dispatch the thread.
  t->running_on.store(kNoWorker, std::memory_order_release);
  if (mode == ParkMode::kYield) push_ready(t, idx);
  // kBlock: the unblocker owns the requeue.  kDone: w.post runs next.
}

void Scheduler::switch_to_scheduler(Thread* t) {
  uint32_t w_idx = t->running_on.load(std::memory_order_relaxed);
  PM2_DCHECK(w_idx < n_workers_);
  Worker& w = *workers_[w_idx];
  t->san_worker = w_idx;
  sys::san_start_switch(&t->san_fake_stack, w.san_stack_bottom,
                        w.san_stack_size);
  sys::san_fiber_switch(w.tsan_fiber);
  sys::lockrank_ctx_switch_begin();
  pm2_ctx_switch(&t->sp, w.sched_sp);
  sys::lockrank_ctx_switch_end();
  // The thread may have been resumed under a *different* worker (steal) or
  // a different scheduler (migration): `this` must not be touched, but `t`
  // is iso-addressed and therefore valid anywhere.  The parked fake-stack
  // handle belongs to the kernel thread that parked it — install_thread
  // nulls it for migrated-in stacks, and a cross-worker resume hands ASan
  // null for the same reason.
  void* fake = t->san_fake_stack;
  t->san_fake_stack = nullptr;
  if (t->san_worker != t->running_on.load(std::memory_order_relaxed))
    fake = nullptr;
  sys::san_finish_switch(fake);
}

void Scheduler::yield() {
  Thread* t = self();
  PM2_CHECK(t != nullptr) << "yield() outside a thread";
  // The requeue happens on the scheduler side (dispatch epilogue), after
  // the context is saved: pushing first — as the single-threaded scheduler
  // did — would let a peer worker dispatch a stack that is still live here.
  t->park_mode = ParkMode::kYield;
  switch_to_scheduler(t);
  // NOTE: nothing after the switch may touch `this` — after a migration a
  // resumed thread continues under a *different* scheduler instance.
}

void Scheduler::block() {
  Thread* t = self();
  PM2_CHECK(t != nullptr) << "block() outside a thread";
  t->state = ThreadState::kBlocked;
  t->park_mode = ParkMode::kBlock;
  switch_to_scheduler(t);
}

void Scheduler::block_commit(sys::SpinLock& lock) {
  Thread* t = self();
  PM2_CHECK(t != nullptr) << "block_commit() outside a thread";
  PM2_DCHECK(t->state == ThreadState::kBlocked)
      << "block_commit without kBlocked (caller must park under its lock)";
  t->park_mode = ParkMode::kBlock;
  // Safe to release before the switch: a racing unblock() waits on
  // running_on, which this worker clears only after the context is saved.
  lock.unlock();
  switch_to_scheduler(t);
}

void Scheduler::sleep_us(uint64_t us) {
  Thread* t = self();
  PM2_CHECK(t != nullptr) << "sleep_us() outside a thread";
  if (us == 0) {
    yield();
    return;
  }
  uint32_t w_idx = t->running_on.load(std::memory_order_relaxed);
  PM2_DCHECK(on_worker(w_idx)) << "sleep_us off the owning worker";
  Worker& w = *workers_[w_idx];
  uint64_t deadline = now_ns() + us * 1000;
  // Timers are owner-confined: this code runs on worker w_idx's kernel
  // thread, the same thread that fires them — no lock needed, only the
  // atomic `earliest` mirror for cross-worker deadline reads.
  w.timers.emplace(deadline, t);
  if (deadline < w.earliest.load(std::memory_order_relaxed))
    w.earliest.store(deadline, std::memory_order_relaxed);
  t->state = ThreadState::kBlocked;
  t->park_mode = ParkMode::kBlock;
  switch_to_scheduler(t);
}

void Scheduler::unblock(Thread* t, bool front) {
  PM2_CHECK(t->state == ThreadState::kBlocked)
      << "unblock on " << to_string(t->state) << " thread";
  t->wait_queue = nullptr;
  // The thread may still be on-CPU between publishing its park and saving
  // its context; wait for the owning worker to release it.  Spin briefly
  // (the window is a few hundred instructions), then back off sleeping —
  // a raw spin here can burn a whole quantum when the parker's kernel
  // thread gets preempted mid-switch.
  if (t->running_on.load(std::memory_order_acquire) != kNoWorker) {
    uint32_t spins = 0;
    sys::Backoff bo(sys::Backoff::Config{
        .start_us = 1, .cap_us = 200, .seed = t->id});
    while (t->running_on.load(std::memory_order_acquire) != kNoWorker) {
      if (++spins <= 64)
        sys::cpu_relax();
      else
        bo.sleep();
    }
  }
  uint32_t w = t->affinity != kNoWorker ? t->affinity : t->last_worker;
  if (w >= n_workers_) w = 0;
  push_ready(t, w, front);
}

void Scheduler::exit_current(Continuation reaper) {
  Thread* t = self();
  PM2_CHECK(t != nullptr) << "exit_current() outside a thread";
  // TSD destructors run on the exiting thread's own context, while its
  // stack and iso-heap are still intact — a destructor may isofree the
  // value it owns.  After this, every destructor-bearing key is null, so
  // no per-invocation state survives into a pooled re-arm.
  run_key_destructors(t);
  // One stripe critical section: mark dead, claim the joiner, erase the id
  // — join() serializes against this under the same stripe lock.
  sys::SpinLock& l = registry_.lock_for(t->id);
  l.lock();
  t->state = ThreadState::kDead;
  t->done = true;
  Thread* joiner = t->joiner;
  t->joiner = nullptr;
  bool erased = registry_.erase_locked(t->id);
  l.unlock();
  PM2_CHECK(erased) << "exit of unregistered thread " << t->id;
  size_t left = registry_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (!t->is_daemon()) live_.fetch_sub(1, std::memory_order_relaxed);
  if (joiner != nullptr) unblock(joiner);
  if (left == 0 && stop_requested_.load(std::memory_order_relaxed))
    wake_all_workers();
  Worker& w = *workers_[t->running_on.load(std::memory_order_relaxed)];
  w.post = std::move(reaper);
  w.post_thread = t;
  t->park_mode = ParkMode::kDone;
  switch_out_forever(t);
}

void Scheduler::switch_out_forever(Thread* t) {
  Worker& w = *workers_[t->running_on.load(std::memory_order_relaxed)];
  // Null save slot: the context never runs again, so ASan may release its
  // fake-stack frames instead of keeping them alive forever.
  sys::san_start_switch(nullptr, w.san_stack_bottom, w.san_stack_size);
  sys::san_fiber_switch(w.tsan_fiber);
  sys::lockrank_ctx_switch_begin();
  pm2_ctx_switch(&t->sp, w.sched_sp);
  PM2_FATAL("dead/shipped thread was resumed");
}

bool Scheduler::join(ThreadId id) {
  Thread* self_t = self();
  PM2_CHECK(self_t != nullptr) << "join() outside a thread";
  sys::SpinLock& l = registry_.lock_for(id);
  l.lock();
  Thread* const* p = registry_.find_locked(id);
  Thread* t = p == nullptr ? nullptr : *p;
  if (t == nullptr || t->done) {
    l.unlock();
    return false;
  }
  PM2_CHECK(t != self_t) << "thread joining itself";
  PM2_CHECK(t->joiner == nullptr) << "thread " << id << " already has a joiner";
  t->joiner = self_t;
  self_t->state = ThreadState::kBlocked;
  // The stripe lock serializes against the exit path, which reads `joiner`
  // under it — released atomically with the park.
  block_commit(l);
  return true;
}

// --- migration support -----------------------------------------------------

namespace {
void mark_frozen(Thread* t) {
  t->state.store(ThreadState::kFrozen, std::memory_order_release);
  // Demotion-age stamp for the slot store.  Relaxed: the decay prescan may
  // read it from another worker without a lock.
  t->cold_ns.store(now_ns(), std::memory_order_relaxed);
}
}  // namespace

bool Scheduler::freeze(Thread* t) {
  if (t == nullptr || t == self()) return false;
  // Quiesced tier: single worker, or this worker holds the pause gate —
  // every peer is parked at its loop top, so the caller may scrub the
  // owning worker's containers as a pseudo-owner.  Guaranteed for any
  // kReady thread; callers that must not fail (checkpoint, store decay)
  // wrap in pause_workers(), same contract as before.
  bool quiesced =
      n_workers_ == 1 ||
      (t_scheduler == this && t_worker != kNoWorker &&
       pause_requested_.load(std::memory_order_relaxed) &&
       pauser_worker_.load(std::memory_order_relaxed) == t_worker);
  return quiesced ? freeze_quiesced(t) : freeze_opportunistic(t);
}

bool Scheduler::freeze_quiesced(Thread* t) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (t->state.load(std::memory_order_acquire) != ThreadState::kReady)
      return false;
    uint32_t qw = t->queue_worker.load(std::memory_order_relaxed);
    if (qw >= n_workers_) return false;
    Worker& w = *workers_[qw];
    bool found = false;
    // Handoff mailbox.
    if (w.handoff.load(std::memory_order_relaxed) == t) {
      Thread* e = t;
      found = w.handoff.compare_exchange_strong(e, nullptr,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed);
    }
    // Inbox: take the whole chain, filter, restore the rest (no concurrent
    // pusher while quiesced, so the plain restore store is race-free).
    if (!found) {
      Thread* n = w.inbox.exchange(nullptr, std::memory_order_acquire);
      Thread* keep_head = nullptr;
      Thread* keep_tail = nullptr;
      while (n != nullptr) {
        Thread* nx = n->qnext;
        n->qnext = nullptr;
        if (n == t) {
          found = true;
        } else {
          if (keep_tail != nullptr)
            keep_tail->qnext = n;
          else
            keep_head = n;
          keep_tail = n;
        }
        n = nx;
      }
      if (keep_head != nullptr)
        w.inbox.store(keep_head, std::memory_order_release);
    }
    // Pinned FIFO.
    if (!found) {
      Thread* prev = nullptr;
      for (Thread* it = w.pinned_head; it != nullptr;
           prev = it, it = it->qnext) {
        if (it != t) continue;
        if (prev != nullptr)
          prev->qnext = it->qnext;
        else
          w.pinned_head = it->qnext;
        if (w.pinned_tail == it) w.pinned_tail = prev;
        it->qnext = nullptr;
        found = true;
        break;
      }
    }
    // Deque: rotate through the top; re-pushing non-targets at the bottom
    // preserves their relative FIFO order (pseudo-owner: quiesced).
    if (!found) {
      size_t n_elems = w.deque.size();
      for (size_t i = 0; i <= n_elems; ++i) {
        Thread* x = w.deque.steal();
        if (x == nullptr) break;
        if (x == t) {
          found = true;
          break;
        }
        w.deque.push_bottom(x);
      }
    }
    if (found) {
      w.ready.fetch_sub(1);
      mark_frozen(t);
      return true;
    }
    // kReady but not in its queue_worker's containers: caught it mid-push.
    // Quiesced means the pusher is this same caller's earlier stale read;
    // re-read and retry (defensive — should not happen in practice).
    sys::cpu_relax();
  }
  return false;
}

bool Scheduler::freeze_opportunistic(Thread* t) {
  // Un-gated tier (workers > 1): Runtime::migrate/migrate_async freeze
  // without pausing the node.  Act as a *targeted thief*: the Chase-Lev
  // top CAS and the mailbox exchange hand over elements exactly once, so
  // winning one for the target makes this caller its sole owner — no
  // tombstones, no racing dispatcher.  Threads hiding in the pinned FIFO
  // are unreachable here (they refuse migration anyway); inbox residents
  // are flushed by waking the owner and retrying.  Bounded: may fail under
  // churn, exactly as the old try_lock scan could.
  sys::Backoff bo(sys::Backoff::Config{
      .start_us = 10, .cap_us = 1'000, .seed = t->id});
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (t->state.load(std::memory_order_acquire) != ThreadState::kReady)
      return false;
    // Relaxed hint: a concurrent re-push may be rewriting this.  A stale
    // read targets the wrong worker's containers, finds nothing (the
    // exactly-once removal is authoritative), and retries.
    uint32_t qw = t->queue_worker.load(std::memory_order_relaxed);
    if (qw >= n_workers_) return false;
    Worker& w = *workers_[qw];
    // Mailbox probe.
    if (w.handoff.load(std::memory_order_acquire) == t) {
      Thread* e = t;
      if (w.handoff.compare_exchange_strong(e, nullptr,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        w.ready.fetch_sub(1);
        mark_frozen(t);
        return true;
      }
      continue;
    }
    // Steal from the victim's top until the target surfaces; innocent
    // bystanders keep running — re-pushed onto the caller's own worker.
    size_t n_elems = w.deque.size();
    for (size_t i = 0; i <= n_elems; ++i) {
      Thread* x = w.deque.steal();
      if (x == nullptr) break;
      w.ready.fetch_sub(1);
      if (x == t) {
        mark_frozen(t);
        return true;
      }
      push_ready(x, home_worker());
    }
    // Possibly inbox-resident: kick the owner to drain, then retry.
    wake_worker(qw);
    if (attempt < 8)
      sys::cpu_relax();
    else
      bo.sleep();
  }
  return false;
}

void Scheduler::unfreeze(Thread* t) {
  PM2_CHECK(t->state == ThreadState::kFrozen)
      << "unfreeze on " << to_string(t->state) << " thread";
  // Publication: push_ready's release store of kReady (and the container
  // insert) make the fully prepared descriptor visible to any worker that
  // takes it — the explicit happens-before edge frozen create/rearm needs.
  push_ready(t, home_worker());
}

void Scheduler::freeze_current_and(Continuation cont) {
  Thread* t = self();
  PM2_CHECK(t != nullptr) << "freeze_current_and() outside a thread";
  t->state = ThreadState::kFrozen;
  Worker& w = *workers_[t->running_on.load(std::memory_order_relaxed)];
  w.post = std::move(cont);
  w.post_thread = t;
  t->park_mode = ParkMode::kDone;
  switch_to_scheduler(t);
  // Resumes here after adopt() — usually on another node.  Only TLS
  // lookups are valid beyond this point (see header).
}

void Scheduler::adopt(Thread* t) {
  PM2_CHECK(t->magic == Thread::kMagic) << "corrupt migrated descriptor";
  t->qnext = nullptr;
  t->qprev = nullptr;
  t->wait_queue = nullptr;
  t->joiner = nullptr;
  t->done = false;
  t->running_on.store(kNoWorker, std::memory_order_relaxed);
  t->park_mode = ParkMode::kYield;
  t->affinity = kNoWorker;
  t->san_worker = kNoWorker;
  // A descriptor forgotten with keep_fiber in this same process carries a
  // live fiber whose shadow call stack still matches the byte-copied
  // frames: reuse it, so resuming mid-call-chain keeps TSan's func
  // entry/exit balanced (a fresh fiber underflows on the first return).
  // A cross-process arrival — or a store-restored image from a dead
  // incarnation — carries a foreign pointer this process does not own:
  // overwrite (never destroy) with a fresh fiber.
  if (t->tsan_fiber == nullptr ||
      t->tsan_fiber_pid != static_cast<uint32_t>(::getpid())) {
    t->tsan_fiber = sys::san_fiber_create();
  }
  uint32_t home = home_worker();
  t->last_worker = home;
  auto [slot, inserted] = registry_.try_emplace(t->id, t);
  (void)slot;
  PM2_CHECK(inserted) << "adopt: duplicate thread id " << t->id;
  registry_count_.fetch_add(1, std::memory_order_relaxed);
  if (!t->is_daemon()) live_.fetch_add(1, std::memory_order_relaxed);
  push_ready(t, home);
}

void Scheduler::forget(Thread* t, bool keep_fiber) {
  if (keep_fiber) {
    // The descriptor bytes (t->tsan_fiber included) ship verbatim; if the
    // adopting process is this one, adopt() resumes on this very fiber —
    // its shadow call stack still matches the byte-copied frames, so the
    // resumed returns stay balanced.  The pid stamp lets adopt() tell a
    // same-process handoff from a foreign (cross-process) handle.
    t->tsan_fiber_pid = static_cast<uint32_t>(::getpid());
  } else {
    sys::san_fiber_destroy(t->tsan_fiber);
    t->tsan_fiber = nullptr;
  }
  bool erased = registry_.erase(t->id);
  PM2_CHECK(erased) << "forget: unknown thread " << t->id;
  registry_count_.fetch_sub(1, std::memory_order_relaxed);
  if (!t->is_daemon()) live_.fetch_sub(1, std::memory_order_relaxed);
}

// --- timers ----------------------------------------------------------------

void Scheduler::fire_expired_timers(Worker& w, uint32_t idx) {
  uint64_t e = w.earliest.load(std::memory_order_relaxed);
  if (e == UINT64_MAX) return;
  uint64_t now = now_ns();
  if (e > now) return;
  // Owner-confined: only this worker's kernel thread touches w.timers.
  while (!w.timers.empty() && w.timers.begin()->first <= now) {
    Thread* t = w.timers.begin()->second;
    w.timers.erase(w.timers.begin());
    PM2_DCHECK(t->state == ThreadState::kBlocked);
    // The sleeper fully switched out before this worker returned to its
    // loop (it slept *on* this worker), so it can be requeued directly.
    push_ready(t, idx);
  }
  w.earliest.store(w.timers.empty() ? UINT64_MAX : w.timers.begin()->first,
                   std::memory_order_relaxed);
}

uint64_t Scheduler::ns_until_next_timer() const {
  uint64_t earliest = UINT64_MAX;
  for (const auto& w : workers_) {
    uint64_t e = w->earliest.load(std::memory_order_relaxed);
    if (e < earliest) earliest = e;
  }
  if (earliest == UINT64_MAX) return UINT64_MAX;
  uint64_t now = now_ns();
  return earliest > now ? earliest - now : 0;
}

// --- worker loop -----------------------------------------------------------

void Scheduler::wake_worker(uint32_t idx) {
  Worker& w = *workers_[idx];
  if (!w.parked.load()) return;
  {
    std::lock_guard<std::mutex> g(w.park_mu);
    w.park_cv.notify_one();
  }
  w.idle_wakeups.fetch_add(1, std::memory_order_relaxed);
}

void Scheduler::wake_all_workers() {
  for (uint32_t i = 0; i < n_workers_; ++i) {
    Worker& w = *workers_[i];
    std::lock_guard<std::mutex> g(w.park_mu);
    w.park_cv.notify_all();
  }
}

void Scheduler::stop() {
  stop_requested_.store(true);
  wake_all_workers();
}

bool Scheduler::idle_park(Worker& w, uint32_t idx) {
  if (n_workers_ == 1) {
    // Historical single-loop behavior, preserved exactly; timers are
    // owner-confined, so the read needs no lock.
    if (!w.timers.empty()) {
      uint64_t deadline = w.timers.begin()->first;
      // Lost-wakeup guard: a handoff/inbox push may have landed after
      // pop_local's empty read — re-check before committing to the sleep.
      if (w.handoff.load() != nullptr || w.inbox.load() != nullptr)
        return false;
      // Park the kernel thread until the nearest deadline instead of
      // busy-waiting: a sleeping thread is the only local wake source
      // (cross-node events are owned by the comm daemon, which is a
      // thread and therefore never leaves the scheduler idle).
      timespec until;
      until.tv_sec = static_cast<time_t>(deadline / 1'000'000'000ull);
      until.tv_nsec = static_cast<long>(deadline % 1'000'000'000ull);
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr);
      return false;
    }
    if (w.ready.load() != 0 || w.handoff.load() != nullptr ||
        w.inbox.load() != nullptr)
      return false;
    // No runnable thread, no timer, no event source: with a cooperative
    // scheduler this state can never resolve itself.
    PM2_CHECK(registry_count_.load() != 0)
        << "scheduler idle with empty registry but no stop request";
    PM2_FATAL("deadlock: all threads blocked/frozen");
  }

  // Multi-worker: if a peer has surplus, spin back around and steal.
  if (peer_surplus(idx)) return false;
  uint64_t now = now_ns();
  uint64_t deadline = now + kIdleBackstopNs;
  uint64_t e = w.earliest.load(std::memory_order_relaxed);
  if (e < deadline) deadline = e;
  if (deadline <= now) return false;

  std::unique_lock<std::mutex> lk(w.park_mu);
  w.parked.store(true);
  n_parked_.fetch_add(1);
  // Re-check under "parked" visibility: a pusher that saw parked == false
  // is ordered before our ready loads (all seq_cst), so either it sees the
  // flag and notifies or we see its push here — a push into our own
  // containers, or a peer's deque surplus, which ends the park so the loop
  // steals it.  The handoff slot gets its own explicit re-check: a direct
  // handoff is latency-critical, and its ready increment may still be in
  // flight when this predicate runs.
  auto runnable = [&] {
    return w.ready.load() > 0 || w.handoff.load() != nullptr ||
           stop_requested_.load() || pause_requested_.load() ||
           peer_surplus(idx);
  };
  bool woken = false;
  if (!runnable()) {
    woken = w.park_cv.wait_for(lk, std::chrono::nanoseconds(deadline - now),
                               runnable) &&
            !stop_requested_.load() && !pause_requested_.load();
  }
  w.parked.store(false);
  n_parked_.fetch_sub(1);
  return woken;
}

void Scheduler::gate_wait(uint32_t idx) {
  std::unique_lock<std::mutex> lk(gate_mu_);
  while (pause_requested_.load(std::memory_order_relaxed) &&
         pauser_worker_.load(std::memory_order_relaxed) != idx) {
    ++gated_;
    gate_cv_.notify_all();
    gate_cv_.wait(lk, [&] {
      return !pause_requested_.load(std::memory_order_relaxed) ||
             pauser_worker_.load(std::memory_order_relaxed) == idx;
    });
    --gated_;
  }
}

void Scheduler::pause_workers() {
  if (n_workers_ == 1) return;
  PM2_CHECK(self() != nullptr) << "pause_workers() outside a thread";
  std::unique_lock<std::mutex> lk(gate_mu_);
  while (pause_requested_.load(std::memory_order_relaxed)) {
    // Another pauser holds the token: yield so our worker parks at its
    // gate (a PM2-yielded pauser counts as quiesced), then retry.
    lk.unlock();
    yield();
    lk.lock();
  }
  pause_requested_.store(true);
  pauser_worker_.store(t_worker, std::memory_order_relaxed);
  lk.unlock();
  wake_all_workers();
  if (external_wake_) external_wake_();
  lk.lock();
  gate_cv_.wait(lk, [&] { return gated_ == n_workers_ - 1; });
}

void Scheduler::resume_workers() {
  if (n_workers_ == 1) return;
  std::lock_guard<std::mutex> g(gate_mu_);
  pause_requested_.store(false);
  pauser_worker_.store(kNoWorker, std::memory_order_relaxed);
  gate_cv_.notify_all();
}

bool Scheduler::pause_pending() const {
  return pause_requested_.load(std::memory_order_relaxed) &&
         pauser_worker_.load(std::memory_order_relaxed) != t_worker;
}

void Scheduler::worker_loop(uint32_t idx) {
  Worker& w = *workers_[idx];
  sys::san_current_stack(&w.san_stack_bottom, &w.san_stack_size);
  w.tsan_fiber = sys::san_fiber_current();
  bool woken = false;  // the last park was ended by a wake, not the clock
  while (true) {
    if (pause_requested_.load(std::memory_order_relaxed)) gate_wait(idx);
    fire_expired_timers(w, idx);
    Thread* t = pop_local(w, idx);
    if (t == nullptr && n_workers_ > 1) t = try_steal(idx);
    if (woken && t == nullptr)
      w.futile_wakeups.fetch_add(1, std::memory_order_relaxed);
    woken = false;
    if (t != nullptr) {
      dispatch(w, idx, t);
      if (w.post) {
        // Run exit/freeze continuation on the scheduler stack, where the
        // departing thread's stack is guaranteed quiescent.
        Continuation cont = std::move(w.post);
        w.post = nullptr;
        Thread* pt = w.post_thread;
        w.post_thread = nullptr;
        cont(pt);
      }
      continue;
    }
    if (stop_requested_.load() && registry_count_.load() == 0) break;
    woken = idle_park(w, idx);
  }
}

void Scheduler::run() {
  SchedulerBinding bind(this);
  std::vector<std::thread> helpers;
  helpers.reserve(n_workers_ - 1);
  for (uint32_t i = 1; i < n_workers_; ++i) {
    helpers.emplace_back([this, i] {
      SchedulerBinding b(this);
      t_worker = i;
      if (worker_init_) worker_init_(i);
      worker_loop(i);
      t_worker = kNoWorker;
    });
  }
  uint32_t prev_worker = t_worker;
  t_worker = 0;
  worker_loop(0);
  t_worker = prev_worker;
  for (std::thread& h : helpers) h.join();
}

// --- preemption / introspection -------------------------------------------

void Scheduler::maybe_preempt() {
  if (quantum_ns_ == 0) return;
  if (t_scheduler != this || t_worker == kNoWorker) return;
  Worker& w = *workers_[t_worker];
  if (w.current == nullptr) return;
  if (now_ns() - w.slice_start_ns >= quantum_ns_) yield();
}

size_t Scheduler::ready_count() const {
  size_t n = 0;
  for (const auto& w : workers_) n += w->ready.load(std::memory_order_relaxed);
  return n;
}

size_t Scheduler::local_ready_count() const {
  if (t_scheduler != this || t_worker == kNoWorker) return 0;
  return workers_[t_worker]->ready.load(std::memory_order_relaxed);
}

uint64_t Scheduler::context_switches() const {
  uint64_t n = 0;
  for (const auto& w : workers_)
    n += w->dispatches.load(std::memory_order_relaxed);
  return n;
}

std::vector<WorkerStats> Scheduler::worker_stats() const {
  std::vector<WorkerStats> out(n_workers_);
  for (uint32_t i = 0; i < n_workers_; ++i) {
    const Worker& w = *workers_[i];
    out[i].dispatches = w.dispatches.load(std::memory_order_relaxed);
    out[i].steals = w.steals.load(std::memory_order_relaxed);
    out[i].steal_failures = w.steal_failures.load(std::memory_order_relaxed);
    out[i].handoffs = w.handoffs.load(std::memory_order_relaxed);
    out[i].idle_wakeups = w.idle_wakeups.load(std::memory_order_relaxed);
    out[i].futile_wakeups = w.futile_wakeups.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace pm2::marcel
