// The owner of one node's slot bitmap and of the protocol that changes it
// (paper §4.4).
//
// The rule: a node's bitmap changes only inside the system-wide critical
// section — (a) lock, (b) gather, (c)+(d) plan, (e) scatter, (f) unlock.
// The pure planning lives in isomalloc/negotiation.*; this part adds the
// lock server hosted by node 0, the gather, the acked scatter, and the
// freeze that keeps the bitmap immutable while any negotiation (ours or a
// peer's) has it: acquires park until the freeze lifts and releases wait
// in a deferred list.  with_system_bitmaps() is the one bracket around a
// critical section; negotiate() and audit_session() are its callers.
//
// Locking: one SpinLock, lock_, guards the bitmap, the freeze depth, the
// deferred releases, the freeze wait queue, the lock-server fields and
// this node's grant wait (the comm daemon's handlers race worker threads),
// and with the bitmap the slot manager's free and away caches.
// Sends and wake-ups always happen outside it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "fabric/message.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/slot_manager.hpp"
#include "marcel/scheduler.hpp"
#include "marcel/sync.hpp"
#include "pm2/correlation.hpp"
#include "pm2/protocol.hpp"
#include "sys/spinlock.hpp"
#include "sys/thread_safety.hpp"

namespace pm2 {

class Negotiator {
 public:
  /// `slots.node`/`slots.n_nodes` name this node and the session size.
  /// `prebuy_slots` is RuntimeConfig::nego_prebuy_slots.
  Negotiator(iso::Area& area, const iso::SlotManagerConfig& slots,
             size_t prebuy_slots, fabric::Fabric& fabric,
             marcel::Scheduler& sched, CorrelationTable& pending);

  /// A contiguous run of `count` slots for a thread: wait out any freeze,
  /// take it locally, else negotiate (from a PM2 thread of a multi-node
  /// session).  nullopt when no run of that length exists anywhere.
  /// Bootstrap callers (no PM2 thread yet) get a local run or nothing.
  std::optional<size_t> acquire(size_t count);
  /// A local run of `count` slots now, or nullopt: never waits on the
  /// freeze and never negotiates (the comm daemon's acquire).
  std::optional<size_t> try_acquire(size_t count);
  /// Claim the specific run [first, first+count) (checkpoint restore),
  /// waiting out any freeze.  False if any slot of it is not free here.
  bool acquire_at(size_t first, size_t count);
  /// Give a run back to this node; deferred while the bitmap is frozen.
  void release(size_t first, size_t count);

  // The away cache (iso::SlotManager::cache_away): runs of threads that
  // migrated away stay committed.  Neither call waits on the freeze — the
  // comm daemon places arriving threads through take_away — but a claim
  // of slots an eviction is still decommitting waits for that decommit.
  /// Keep a departed thread's run committed; an evicted run is
  /// decommitted after lock_ drops.
  void cache_away(size_t first, size_t count);
  /// Drop the away-runs overlapping the run; true on an exact hit (the
  /// pages are still committed).
  bool take_away(size_t first, size_t count);
  size_t away_runs() const;

  /// Run `fn` on every node's bitmap inside the system-wide critical
  /// section: take the node's client mutex, freeze, lock the system,
  /// gather, call fn(bitmaps), scatter the (possibly changed) bitmaps and
  /// wait for every peer's ack, unlock, unfreeze and apply the releases
  /// deferred meanwhile.  From a PM2 thread only.
  void with_system_bitmaps(
      const std::function<void(std::vector<Bitmap>&)>& fn);

  /// Send a `type` request to `node` and park until its reply (gathers;
  /// audit inventories inside with_system_bitmaps).  CHECK-fails naming
  /// `what` when the session halted or `node` was declared down first.
  std::vector<uint8_t> await_reply(uint32_t node, MsgType type,
                                   const char* what);

  /// Runs released while the bitmap was frozen and not yet applied: owned
  /// by this node, yet in neither its bitmap nor any thread's slot list.
  std::vector<std::pair<size_t, size_t>> deferred_runs() const;

  // Comm-daemon handlers (handle_message) and the peer-down sweep.
  void on_lock_req(uint32_t from);
  void on_lock_grant();
  void on_unlock(uint32_t from);
  void on_gather_req(fabric::Message& msg);
  void on_nego_update(fabric::Message& msg);
  /// A peer was declared down: a thread waiting for the system lock wakes
  /// and aborts (the bitmap protocol cannot lose a participant).
  void peer_lost();

  /// The bitmap itself.  Guarded by lock_, so reads outside a quiescent
  /// point (tests, stats, paused-worker audits) are advisory.
  iso::SlotManager& slots() { return slot_mgr_; }
  uint64_t negotiations_initiated() const {
    return negotiations_initiated_.load(std::memory_order_relaxed);
  }

 private:
  /// Park until no negotiation freezes the bitmap (each park drops lock_).
  void wait_unfrozen() PM2_REQUIRES(lock_);
  /// Wait, dropping lock_ meanwhile, until no evicted away-run overlapping
  /// [first, first+count) is still being decommitted; true if one was
  /// (the run's pages may be gone).  Every claim of slots passes here.
  bool settle(size_t first, size_t count) PM2_REQUIRES(lock_);
  /// slot_mgr_.acquire, settled and committed.
  std::optional<size_t> take_run(size_t count) PM2_REQUIRES(lock_);
  /// One global negotiation for `run` contiguous slots; the run is taken
  /// for the caller still inside the critical section.
  std::optional<size_t> negotiate(size_t run);
  /// Enter/leave the system-wide critical section (lock server: node 0,
  /// which takes its own turn through on_lock_req like any client).
  void lock_system();
  void unlock_system();
  /// Hand the system lock to `to` (a local grant wakes lock_wait_).
  void grant(uint32_t to);
  /// Drop one freeze level; at zero, apply the deferred releases and wake
  /// the acquirers parked on the freeze.
  void unfreeze();
  void send(MsgType type, uint32_t dst, uint64_t corr = 0,
            std::vector<uint8_t> payload = {});

  iso::Area& area_;
  const uint32_t node_;
  const uint32_t n_nodes_;
  const size_t prebuy_slots_;
  fabric::Fabric& fabric_;
  marcel::Scheduler& sched_;
  CorrelationTable& pending_;

  mutable sys::SpinLock lock_{sys::LockRank::kRuntimeMaps};
  // Guarded by lock_, but escapes through slots() for quiescent reads, so
  // it carries no GUARDED_BY.
  iso::SlotManager slot_mgr_;
  // > 0 between a peer's gather and its update, and while this node runs
  // its own critical section.
  int freeze_ PM2_GUARDED_BY(lock_) = 0;
  // Between our reply to a remote gather and that initiator's update.
  bool remote_gather_ PM2_GUARDED_BY(lock_) = false;
  // Embedded-mode WaitQueue: linked/popped under lock_ (its own lock is
  // bypassed), which static analysis cannot express — the dynamic
  // lock-rank layer covers it.
  marcel::WaitQueue bitmap_wait_;
  std::vector<std::pair<size_t, size_t>> deferred_releases_
      PM2_GUARDED_BY(lock_);
  // Lock server (node 0 only).
  bool lock_held_ PM2_GUARDED_BY(lock_) = false;
  uint32_t lock_owner_ PM2_GUARDED_BY(lock_) = 0;
  std::vector<uint32_t> lock_queue_ PM2_GUARDED_BY(lock_);
  // This node's thread waiting for the grant, and the peer-down verdict
  // that wakes it instead.
  marcel::Event* lock_wait_ PM2_GUARDED_BY(lock_) = nullptr;
  bool peer_lost_ PM2_GUARDED_BY(lock_) = false;
  // One critical-section client per node (the lock server tracks one
  // outstanding request per node).
  marcel::Mutex client_mutex_;
  std::atomic<uint64_t> negotiations_initiated_{0};
};

}  // namespace pm2
