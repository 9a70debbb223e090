// Thread descriptor.
//
// A PM2 thread is "an execution flow managing a set of resources, i.e. its
// state descriptor and its private execution stack" (paper §2).  The
// descriptor is a trivially-copyable struct placed *inside the thread's
// first iso-address slot*, immediately followed by the stack, so that a
// byte copy of the thread's slots at the same virtual addresses moves the
// complete thread.
//
// Fields are split into two classes:
//   * migrating state — meaningful on any node (saved sp, stack bounds,
//     iso-address heap pointers, id, name).  Absolute pointers here are safe
//     precisely because of iso-addressing.
//   * node-local state — scheduler queue links, join wait queue.  These are
//     reset by Scheduler::adopt() when a migrated thread is installed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pm2::marcel {

using ThreadId = uint64_t;

/// Sentinel worker index: "no worker" (thread not running / no affinity).
inline constexpr uint32_t kNoWorker = UINT32_MAX;

/// How the running thread asked to be parked when it last switched back to
/// its worker's scheduler context.  Written only by the on-CPU thread right
/// before the switch; consumed by the worker's dispatch epilogue, which owns
/// the post-switch bookkeeping (SMP rule: a thread must be fully off its
/// stack before anyone may requeue it, so the *scheduler side* requeues).
enum class ParkMode : uint8_t {
  kYield = 0,  // requeue on the owning worker's ready deque
  kBlock,      // nothing: the unblocker owns the requeue
  kDone,       // run the worker's post continuation (exit / freeze)
};

enum class ThreadState : uint32_t {
  kReady = 0,
  kRunning,
  kBlocked,   // parked on a wait queue (mutex/cond/join/...)
  kFrozen,    // removed from scheduling for migration packing
  kDead,
};

const char* to_string(ThreadState s);

struct Thread {
  static constexpr uint64_t kMagic = 0x504D325448524421ull;  // "PM2THRD!"
  static constexpr size_t kNameLen = 32;

  // --- migrating state -------------------------------------------------
  uint64_t magic = kMagic;
  ThreadId id = 0;
  void* sp = nullptr;          // saved stack pointer while not running
  void* stack_base = nullptr;  // lowest stack address (canary lives here)
  void* stack_top = nullptr;   // one past highest address
  void* slot_list = nullptr;   // opaque iso::SlotHeader* chain head
  void* user_fn = nullptr;     // user entry (code is SPMD: same addr anywhere)
  void* user_arg = nullptr;    // must not point into node-local memory if
                               // the thread migrates
  uint32_t home_node = 0;      // node that created the thread
  uint32_t flags = 0;
  char name[kNameLen] = {};
  /// Thread-specific data (marcel_key_*): stored inline in the descriptor
  /// so values — including pointers into iso-memory — migrate with the
  /// thread.  Keys are allocated process-wide (SPMD: identical on all
  /// nodes when allocated in deterministic order before run()).
  static constexpr size_t kMaxKeys = 16;
  void* specific[kMaxKeys] = {};

  // --- node-local state (reset on adopt) --------------------------------
  /// Atomic since the lock-free scheduler: the per-deque spinlock used to
  /// order state writes against pops/steals; now the store in push_ready is
  /// the *explicit publication point* — a release store of kReady after the
  /// descriptor (user_fn/user_arg, context) is complete, which a consumer's
  /// acquire pairs with (belt and suspenders on top of the Chase-Lev
  /// publication edge, see sys/chase_lev.hpp).  Plain `=`/`==` still work
  /// (seq_cst) on cold paths; hot paths use explicit orders.
  std::atomic<ThreadState> state{ThreadState::kReady};
  Thread* qnext = nullptr;  // intrusive link: ready queue or wait queue
  Thread* qprev = nullptr;
  void* wait_queue = nullptr;     // WaitQueue currently parked on (or null)
  Thread* joiner = nullptr;       // thread blocked in join() on us
  bool done = false;              // set just before the final switch-out
  /// ASan fake-stack handle parked by san_start_switch while the thread is
  /// off-CPU (null in non-ASan builds).  It references the *source* kernel
  /// thread's fake-stack allocator, so install_thread nulls it: the first
  /// switch onto a migrated stack must hand ASan a null handle.
  void* san_fake_stack = nullptr;
  /// TSan per-context ("fiber") state handle (null in non-TSan builds).
  /// Created when the context is built (create / pool re-arm), switched to
  /// before every dispatch, destroyed when the context dies (reap) or is
  /// unwound half-created.  On a forget(keep_fiber=true) handoff (migration
  /// pack, checkpoint thaw) the handle ships with the descriptor bytes:
  /// its shadow call stack still matches the byte-copied frames, so a
  /// same-process adopt() must resume on this very fiber — a fresh one
  /// would underflow on the first return.  tsan_fiber_pid lets adopt()
  /// recognize a foreign (cross-process) handle and start fresh instead.
  void* tsan_fiber = nullptr;
  uint32_t tsan_fiber_pid = 0;

  // --- SMP ownership (node-local, reset on adopt) ------------------------
  /// Index of the worker currently dispatching this thread, kNoWorker while
  /// fully switched out.  This is the one-owner handshake: set by the
  /// worker that took the thread out of a ready container (the container's
  /// exactly-once removal — Chase-Lev top CAS, inbox drain, mailbox
  /// exchange — makes that worker the sole claimant), cleared (release) by
  /// that worker's dispatch epilogue only after the context is saved and
  /// the canary verified.  unblock() waits on it (spin, then sys::Backoff)
  /// so a wakeup racing the park can never requeue a thread whose stack is
  /// still live on a CPU.
  std::atomic<uint32_t> running_on{kNoWorker};
  /// Park request for the dispatch epilogue (see ParkMode).
  ParkMode park_mode = ParkMode::kYield;
  /// Hard worker pinning (kNoWorker = any).  Pinned threads are pushed only
  /// to this worker's deque and are never stolen: the comm daemon and
  /// spawn_local service threads rely on staying on one kernel thread.
  uint32_t affinity = kNoWorker;
  /// Worker that last ran the thread — the wakeup target for cache/handoff
  /// locality when no affinity is set.
  uint32_t last_worker = 0;
  /// Worker whose ready containers (deque / pinned FIFO / inbox / handoff
  /// mailbox) currently hold the thread.  Written before the kReady
  /// release-store in push_ready, so a reader that acquires state == kReady
  /// sees a matching value.  Atomic (relaxed) because an un-gated freezer
  /// reads it while a later push_ready may be rewriting it concurrently —
  /// there it is only a targeting *hint*, re-validated by the container's
  /// exactly-once removal (top CAS / mailbox exchange), so a stale value
  /// costs a retry, never correctness.
  std::atomic<uint32_t> queue_worker{0};
  /// Worker whose kernel thread parked san_fake_stack: the handle belongs
  /// to that thread's fake-stack allocator, so a resume on a different
  /// worker (steal) must hand ASan null instead — same rule as migration.
  uint32_t san_worker = kNoWorker;
  /// now_ns() when the scheduler last froze the thread.  pm2::Residency's
  /// decay pass ranks demotion candidates by this stamp — coldest first.
  /// Atomic (relaxed): the decay prescan reads stamps of threads another
  /// worker may be freezing at that instant; the value is advisory there
  /// (the authoritative pass runs under pause_workers), only the load must
  /// not tear.
  std::atomic<uint64_t> cold_ns{0};

  static constexpr uint32_t kFlagDaemon = 1u << 0;  // excluded from live count
  static constexpr uint32_t kFlagPinned = 1u << 1;  // refuses migration
  static constexpr uint32_t kFlagRestored = 1u << 2;  // came from a checkpoint
  /// Spawned for an RPC service invocation on this node: eligible for the
  /// runtime's invocation pool at exit.  Cleared when the thread migrates
  /// (install side never pools foreign slot runs).
  static constexpr uint32_t kFlagService = 1u << 3;

  bool is_daemon() const { return flags & kFlagDaemon; }
  bool is_pinned() const { return flags & kFlagPinned; }

  /// Byte extent of the logical stack [stack_base, stack_top) — the range
  /// the sanitizer shim poisons, scrubs, and announces on switches.
  size_t stack_size() const {
    return static_cast<size_t>(reinterpret_cast<uintptr_t>(stack_top) -
                               reinterpret_cast<uintptr_t>(stack_base));
  }

  /// Stack canary helpers: a magic word at stack_base detects overflow (the
  /// stack grows down toward the descriptor).
  static constexpr uint64_t kCanary = 0xC0FFEE0CACA0FEEDull;
  void arm_canary();
  bool canary_ok() const;
};

static_assert(sizeof(Thread) <= 512, "descriptor should stay compact");

}  // namespace pm2::marcel
