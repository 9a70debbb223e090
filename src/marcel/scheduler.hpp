// Cooperative user-level scheduler — one instance per PM2 node.
//
// The node's PM2 threads execute on top of N worker kernel threads
// (RuntimeConfig::workers; 1 = the original single-loop behavior, bit for
// bit).  Worker 0 is the kernel thread that called run(); helpers are
// spawned for workers 1..N-1.  Since the lock-free rework each worker owns
// four ready containers, consulted in this order:
//
//   1. a single-slot MPSC *handoff mailbox* (std::atomic<Thread*>): direct
//      handoffs — unblock(front=true) when the comm daemon completes a
//      reply — land here and are dispatched before anything else, the
//      lock-free successor of PR 3's front-of-deque handoff slot;
//   2. an MPSC *inbox* (Treiber stack, drained FIFO): remote pushes from
//      other workers or non-worker kernel threads, since Chase-Lev pushes
//      are owner-only;
//   3. an owner-confined FIFO of affinity-pinned threads (workers > 1):
//      thieves structurally never see pinned work, replacing the old
//      skip-scan under the victim's deque lock;
//   4. a lock-free Chase-Lev deque (sys/chase_lev.hpp) of stealable
//      threads: the owner pushes at the bottom and *takes from the top* so
//      dispatch order stays FIFO (round-robin fairness), idle workers
//      steal from the same top end with a CAS.
//
// Publication discipline: a descriptor becomes visible to other workers the
// instant it is pushed ready, so frozen-create/rearm fill user_fn/user_arg
// first and unfreeze() publishes — push_ready's release-store of
// state = kReady (plus the container's own release/acquire edge) is the
// explicit publication the stealing worker acquires.  The per-deque
// spinlock that used to carry this edge (rank kSchedulerDeque) is retired.
//
// The iso-address one-owner invariant is structural: a ready thread sits in
// exactly one container, every container removes exactly once (top CAS /
// exchange / owner drain), the remover marks it kRunning and owns the slot
// run, and Thread::running_on is only cleared by the dispatching worker's
// epilogue after the context is fully saved — so a slot run is touched by
// one worker at a time, and unblock() waits on running_on to close the
// wakeup-vs-park race.
//
// Migration hooks: freeze()/freeze_current_and() take a thread out of
// scheduling with its complete context saved on its own stack, and adopt()
// installs a thread whose slots were byte-copied from another node.  The
// scheduler itself knows nothing about networks or slots — the PM2 runtime
// composes those.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "marcel/context.hpp"
#include "marcel/thread.hpp"
#include "sys/chase_lev.hpp"
#include "sys/spinlock.hpp"
#include "sys/striped_map.hpp"
#include "sys/thread_safety.hpp"

namespace pm2::marcel {

/// Per-worker observability counters (cheap relaxed atomics; see
/// Scheduler::worker_stats()).
struct WorkerStats {
  uint64_t dispatches = 0;     // context switches into PM2 threads
  uint64_t steals = 0;         // threads taken from a peer's deque top
  uint64_t steal_failures = 0; // steal rounds that found nothing
  uint64_t handoffs = 0;       // handoff-mailbox direct pushes
  uint64_t idle_wakeups = 0;   // notifies sent to this worker while parked
                               // (a push to it, or a peer's deque surplus)
  uint64_t futile_wakeups = 0; // parks a notify ended whose next pass found
                               // nothing to run or steal
};

class Scheduler {
 public:
  /// `workers` kernel threads dispatch this node's PM2 threads; clamped to
  /// at least 1.  The default preserves the historical single-loop scheduler.
  explicit Scheduler(uint32_t workers = 1);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Scheduler bound to the calling kernel thread, or nullptr.
  static Scheduler* current_scheduler();
  /// Currently running PM2 thread on this kernel thread (nullptr while the
  /// scheduler loop itself runs, and on non-worker kernel threads).
  static Thread* self();
  /// Worker index of the calling kernel thread (kNoWorker when the caller
  /// is not one of this scheduler's workers — e.g. bootstrap code).
  static uint32_t current_worker();

  // --- thread lifecycle --------------------------------------------------

  /// Continuation invoked on the scheduler stack right after a thread's
  /// final switch-out (exit, or freeze for migration).  Receives the now
  /// quiescent thread.
  using Continuation = std::function<void(Thread*)>;

  /// Create a thread inside caller-provided memory: the descriptor is
  /// placed at the region base, the stack fills the rest (growing down from
  /// the region end).  The region is typically one iso-address slot body.
  /// `id` must be globally unique (the runtime derives it from the node id).
  /// The thread enters the creating worker's containers (worker 0 from
  /// bootstrap); kFlagPinned threads get hard affinity to that worker.
  /// With `start_frozen` the thread is registered kFrozen instead of ready:
  /// the creator finishes preparing it (e.g. copying a spawn_copy image into
  /// its stack) and then unfreeze()s it — at workers > 1 a ready newborn
  /// could be stolen and dispatched mid-preparation otherwise.  unfreeze()'s
  /// push is the release-store the stealing worker acquires.
  Thread* create(void* region, size_t region_size, EntryFn entry, void* arg,
                 ThreadId id, const char* name, uint32_t flags = 0,
                 bool start_frozen = false);

  /// Recycle a dead thread in place (invocation pooling): reset the
  /// descriptor's node-local state, thread-specific data and context to a
  /// fresh entry at `entry(arg)` — without touching the stack slot layout,
  /// so the caller skips init_stack_slot and the slot acquire entirely.
  /// The thread must have exited (its reaper parked it instead of
  /// releasing its memory); it re-enters scheduling ready, under a new id.
  /// `start_frozen` mirrors create(): the caller finishes preparing the
  /// descriptor (user_fn/user_arg) before unfreeze() publishes it — once
  /// pushed ready, any worker may steal and run it immediately.
  Thread* rearm(Thread* t, EntryFn entry, void* arg, ThreadId id,
                const char* name, uint32_t flags = 0,
                bool start_frozen = false);

  /// Cooperative yield: requeue caller, run someone else.
  void yield();

  /// Park the caller (state kBlocked).  The caller must already be linked
  /// on some wait queue that will unblock() it later.  Prefer
  /// block_commit() when a spinlock guards the queue: it closes the window
  /// between publishing the park and switching out.
  void block();

  /// Atomically release `lock` and park the caller.  The caller must have
  /// linked itself on a wait structure and set state = kBlocked while
  /// holding `lock`; the lock is released after the park decision is
  /// published and before the switch, and a racing unblock() waits on
  /// running_on until the context is actually saved.
  void block_commit(sys::SpinLock& lock) PM2_RELEASE(lock);

  /// Park the caller for at least `us` microseconds.  Expired timers fire
  /// whenever control returns to the owning worker's loop; under PM2 the
  /// comm daemon bounds its fabric waits by ns_until_next_timer(), so
  /// wake-ups land within the fabric's wake latency of the deadline even on
  /// an otherwise idle node.  Sleeping threads are kBlocked and therefore
  /// not preemptively migratable, like any parked thread.
  void sleep_us(uint64_t us);

  /// Make a blocked thread runnable again on its affinity worker (if
  /// pinned) or the worker that last ran it.  With `front` set the thread
  /// goes into the target worker's handoff mailbox (direct handoff): it is
  /// dispatched next, before any round-robin peer — used when the comm
  /// daemon completes a reply the thread is parked on.  Safe from any
  /// kernel thread; wakes the target worker if it is parked idle.
  void unblock(Thread* t, bool front = false);

  /// Terminate the calling thread.  `reaper` runs on the scheduler stack
  /// after the thread is off its stack — it releases the thread's memory
  /// (slots) back to the allocator.  Never returns.
  [[noreturn]] void exit_current(Continuation reaper);

  /// Block the caller until thread `id` exits.  Returns false if no such
  /// thread lives here (it may have migrated away or finished).
  bool join(ThreadId id);

  // --- migration support ---------------------------------------------------

  /// Freeze a non-running thread: take it out of its worker's ready
  /// containers.  Its context is already fully saved on its stack (that is
  /// the invariant of every non-running thread).  Fails (returns false) if
  /// the thread is blocked on a local wait queue — migrating it would leave
  /// a dangling queue link — is currently dispatched on some worker, or is
  /// the caller itself.
  ///
  /// Two tiers since the lock-free rework:
  ///   * quiesced (workers == 1, or the caller holds the pause gate): the
  ///     caller scrubs the owning worker's containers directly — guaranteed
  ///     for any kReady thread, pinned included.  Callers that must not
  ///     fail wrap this in pause_workers(), same contract as before.
  ///   * opportunistic (workers > 1, no gate): the freezer acts as a
  ///     targeted thief — it steals from the owning worker's deque top,
  ///     re-pushing threads that are not the target onto its own worker,
  ///     until the top CAS hands it the target (exactly-once, so no
  ///     tombstones and no use-after-free window).  Bounded retries; may
  ///     fail under churn, as the old try_lock-based scan could.
  bool freeze(Thread* t);

  /// Re-enqueue a frozen thread locally (the freeze was provisional — e.g.
  /// holding a newborn thread back while its argument is prepared).  This
  /// is the publication point for frozen-create/rearm: the push is a
  /// release-store a stealing worker acquires before its first dispatch
  /// reads user_fn/user_arg.
  void unfreeze(Thread* t);

  /// Freeze the *calling* thread and run `cont` on the scheduler stack.
  /// Used for self-migration: cont packs and ships the thread, after which
  /// the local copy is dead.  If the thread is adopted elsewhere, this call
  /// returns *there* — the code after freeze_current_and() must therefore
  /// only rely on TLS re-lookups, never on pointers captured before the
  /// call (they reference the source node's scheduler).
  void freeze_current_and(Continuation cont);

  /// Install a thread object (descriptor already at its iso-address, stack
  /// and heap already committed and copied).  Resets node-local fields and
  /// enqueues it ready.
  void adopt(Thread* t);

  /// Forget a thread that was shipped away (erase from registry, drop from
  /// live count).  The memory is released by the migration engine.
  /// keep_fiber: the descriptor is about to be byte-copied and adopted
  /// elsewhere (migration, checkpoint thaw) — keep its TSan fiber alive and
  /// stamp the owning pid so a same-process adopt() can resume the copied
  /// frames on the shadow call stack that still matches them.  The default
  /// destroys the fiber (the context is gone for good).
  void forget(Thread* t, bool keep_fiber = false);

  // --- main loop ---------------------------------------------------------

  /// Run until stop() was requested and no registered threads remain.  Must
  /// be called on the kernel thread owning this scheduler; it becomes
  /// worker 0 and spawns/join the helper workers.
  void run();

  /// Ask run() to return once the node drains.  Daemon threads should
  /// observe stopping() and exit.
  void stop();
  bool stopping() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds until the earliest sleep timer expires on *any* worker:
  /// 0 if one is already due, UINT64_MAX if no thread is sleeping.
  /// External event loops that park the kernel thread (the PM2 comm daemon
  /// blocking on the fabric) bound their waits with this so timers fire on
  /// time.
  uint64_t ns_until_next_timer() const;

  // --- preemption (deferred) ----------------------------------------------

  /// Arm a time-slice: maybe_preempt() yields if the running thread has
  /// exceeded `quantum_us`.  PM2 API entry points call maybe_preempt(), so
  /// compute-heavy threads that use the API get descheduled transparently;
  /// pure compute loops must call it (or yield) themselves.
  void set_preemption(uint64_t quantum_us) { quantum_ns_ = quantum_us * 1000; }
  void maybe_preempt();

  // --- SMP coordination ----------------------------------------------------

  /// Quiesce every worker except the caller's at its loop top (no-op at
  /// workers == 1).  While paused, no other worker dispatches — and none is
  /// mid-steal, since workers only park at the gate from the loop top — so
  /// freeze()/for_each() see a node as quiescent as the single-threaded
  /// scheduler did; the audit and checkpoint paths rely on this.  Must be
  /// called from a PM2 thread; the caller must not block through the
  /// scheduler until resume_workers().  Concurrent pausers are safe: the
  /// loser PM2-yields (parking its worker at the winner's gate) and
  /// retries.
  void pause_workers();
  void resume_workers();
  /// A pause is waiting for the calling kernel thread's worker to reach the
  /// gate.  Long-running event loops (the comm daemon) must poll this and
  /// yield so the pauser is not stalled behind a blocking fabric wait.
  bool pause_pending() const;

  /// Hook run on each helper worker kernel thread before its loop (bind
  /// runtime TLS, logging).  Set before run().
  void set_worker_init(std::function<void(uint32_t)> fn) {
    worker_init_ = std::move(fn);
  }
  /// Cross-kernel-thread kick for worker 0, whose loop may be parked deep
  /// inside a blocking fabric receive (the comm daemon): called whenever a
  /// different kernel thread makes work runnable on worker 0.  The runtime
  /// points this at Fabric::wake().
  void set_external_wake(std::function<void()> fn) {
    external_wake_ = std::move(fn);
  }

  // --- introspection -------------------------------------------------------

  Thread* find(ThreadId id) const;
  /// Ready threads across all workers.
  size_t ready_count() const;
  /// Ready threads on the calling kernel thread's own worker (0 when not a
  /// worker).  The comm daemon uses this for its yield predicate so it does
  /// not busy-spin on work that belongs to other workers.
  size_t local_ready_count() const;
  size_t live_count() const { return live_.load(std::memory_order_relaxed); }
  uint64_t context_switches() const;
  uint32_t workers() const { return n_workers_; }
  /// Snapshot of the per-worker counters.
  std::vector<WorkerStats> worker_stats() const;
  /// Visit every thread registered on this node.  At workers > 1 wrap in
  /// pause_workers() when a consistent snapshot is required.
  void for_each(const std::function<void(Thread*)>& fn) const;

 private:
  struct alignas(64) Worker {
    // --- ready containers (see file header for the dispatch order) -------
    /// Direct-handoff mailbox: MPSC single slot, exchange() both ways.  A
    /// displaced occupant (two handoffs racing) overflows into the inbox.
    std::atomic<Thread*> handoff{nullptr};
    /// Remote-push inbox: Treiber stack (push = CAS the head), drained by
    /// the owner in one exchange and reversed to FIFO arrival order.
    std::atomic<Thread*> inbox{nullptr};
    /// Stealable ready threads.  Owner pushes bottom / takes top (FIFO);
    /// thieves CAS the same top.  Lock-free; no capability, no rank.
    sys::ChaseLevDeque<Thread> deque;
    /// Affinity-pinned ready threads (workers > 1 only; at one worker the
    /// deque holds everything, preserving the historical FIFO exactly).
    /// Owner-confined: only this worker's kernel thread links/unlinks.
    Thread* pinned_head = nullptr;
    Thread* pinned_tail = nullptr;
    /// Fairness tick alternating pinned-FIFO/deque preference so neither
    /// source starves the other (the comm daemon is pinned work).
    uint64_t pop_tick = 0;

    /// Ready threads across all four containers.  Incremented by push_ready
    /// after the insert, decremented by the remover; seq_cst where it meets
    /// the park protocol.  A zero read is a fast-path hint, not a proof.
    std::atomic<size_t> ready{0};

    // --- timers (owner-confined) -----------------------------------------
    /// wake_ns -> sleeping thread.  Owner-confined since the lock-free
    /// rework: sleep_us runs on this worker's kernel thread and
    /// fire_expired_timers on its loop — same thread, no capability needed.
    /// Cross-worker readers see only the atomic `earliest` mirror.
    std::multimap<uint64_t, Thread*> timers;
    std::atomic<uint64_t> earliest{UINT64_MAX};

    // Idle parking.
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<bool> parked{false};

    // Dispatch context of this worker's kernel thread.
    void* sched_sp = nullptr;
    void* san_sched_fake = nullptr;
    const void* san_stack_bottom = nullptr;
    size_t san_stack_size = 0;
    // TSan fiber of the worker's own scheduler context (captured once at
    // loop entry; null in non-TSan builds).  Thread contexts switch back
    // to it in switch_to_scheduler / switch_out_forever.
    void* tsan_fiber = nullptr;
    Thread* current = nullptr;
    Continuation post;  // continuation to run after next switch back
    Thread* post_thread = nullptr;
    uint64_t slice_start_ns = 0;
    uint64_t rng = 0;  // xorshift state for steal victim selection

    std::atomic<uint64_t> dispatches{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_failures{0};
    std::atomic<uint64_t> handoffs{0};
    std::atomic<uint64_t> idle_wakeups{0};
    std::atomic<uint64_t> futile_wakeups{0};
  };

  void worker_loop(uint32_t idx);
  void dispatch(Worker& w, uint32_t idx, Thread* t);
  /// Route `t` into worker `w`'s containers and wake whoever must notice.
  void push_ready(Thread* t, uint32_t w, bool front = false);
  /// MPSC inbox push (any kernel thread).
  static void inbox_push(Worker& w, Thread* t);
  /// Drain the inbox (owner only) and route entries to deque/pinned FIFO in
  /// FIFO arrival order.
  void drain_inbox(Worker& w, uint32_t idx);
  /// Mark a thread taken out of a ready container as owned by worker `idx`.
  void claim(Thread* t, uint32_t idx);
  Thread* pop_local(Worker& w, uint32_t idx);
  Thread* try_steal(uint32_t thief);
  bool freeze_quiesced(Thread* t);
  bool freeze_opportunistic(Thread* t);
  void fire_expired_timers(Worker& w, uint32_t idx);
  /// Park until there is work for this worker: its own, or a peer's deque
  /// surplus to steal.  True when a wake (not the clock) ended the park.
  bool idle_park(Worker& w, uint32_t idx);
  /// `w`'s deque holds more than its owner's next pick: work a thief can
  /// take.  Pinned, inbox and mailbox residents never count.
  static bool has_surplus(const Worker& w);
  /// Some worker other than `idx` has surplus (seq_cst: park protocol).
  bool peer_surplus(uint32_t idx) const;
  void wake_worker(uint32_t w);
  void wake_all_workers();
  void gate_wait(uint32_t idx);
  void register_thread(Thread* t);
  [[noreturn]] void switch_out_forever(Thread* t);
  /// Thread-side half of every switch back to the worker loop, with the
  /// sanitizer fiber annotations bracketing it.  After the switch returns
  /// the thread may be running under a different worker or a different
  /// scheduler (migration), so the epilogue touches only `t`
  /// (iso-addressed), never `this`.
  void switch_to_scheduler(Thread* t);
  /// Worker index new work should land on from the calling context.
  uint32_t home_worker() const;
  /// True when the calling kernel thread is worker `idx` of this scheduler.
  bool on_worker(uint32_t idx) const;

  uint32_t n_workers_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Thread registry: id -> descriptor.  Striped concurrent map (locked
  /// accessors — the registry churns, so the lock-free read path is out of
  /// bounds; see sys/striped_map.hpp).  Stripe rank kRegistryShard.
  sys::StripedMap<ThreadId, Thread*, 8> registry_;
  std::atomic<size_t> registry_count_{0};
  std::atomic<size_t> live_{0};  // non-daemon threads registered here
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint32_t> n_parked_{0};

  // Pause gate (audit/checkpoint quiescence).
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::atomic<bool> pause_requested_{false};
  std::atomic<uint32_t> pauser_worker_{kNoWorker};
  uint32_t gated_ = 0;  // under gate_mu_

  std::function<void(uint32_t)> worker_init_;
  std::function<void()> external_wake_;

  uint64_t quantum_ns_ = 0;
};

/// RAII binding of a scheduler to the current kernel thread (used by the
/// runtime and by tests that drive the scheduler manually).
class SchedulerBinding {
 public:
  explicit SchedulerBinding(Scheduler* sched);
  ~SchedulerBinding();

 private:
  Scheduler* prev_;
};

}  // namespace pm2::marcel
