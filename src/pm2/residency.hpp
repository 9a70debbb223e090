// Residency of frozen threads over the node's slot store (iso::SlotStore).
// demote() pages a frozen thread's slot runs out to the backing file, and
// ensure_resident() — the choke point of every resume path (unfreeze,
// migration pack, checkpoint) — faults them back.  A demoted run keeps its
// first page (slot header; descriptor and canary for the stack run), so a
// demoted thread reads like any other frozen one.  Parked invocation-pool
// shells are never demoted.  The store also holds the node's checkpoints:
// when it is recovered, construction fences off every recorded thread's
// slot runs until restore_node_from_store() takes the reservation.
//
// Locking: one SpinLock, lock_ (kRuntimeMaps), guards the demoted map and
// the restore reservations.  Demotion runs with the workers paused and the
// fault-back I/O completes under lock_, so no caller can resume a thread
// whose bytes are still in flight.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "isomalloc/area.hpp"
#include "isomalloc/slot_store.hpp"
#include "marcel/scheduler.hpp"
#include "pm2/negotiator.hpp"
#include "sys/spinlock.hpp"
#include "sys/thread_safety.hpp"

namespace pm2 {

struct RuntimeConfig;

class Residency {
 public:
  /// Opens config.slot_store_dir's store for this node (none when the
  /// directory is empty: every call below is then a no-op or false).  A
  /// recovered store's recorded runs are claimed through `nego`, and
  /// `claim_id` is called with each recorded thread id, so a service thread
  /// spawned before the restore cannot take the slots or the id.
  Residency(const RuntimeConfig& config, iso::Area& area,
            sys::WriteWatch* watch, marcel::Scheduler& sched, Negotiator& nego,
            const std::function<void(marcel::ThreadId)>& claim_id);

  /// The node's slot store, or nullptr.
  iso::SlotStore* store() { return store_.get(); }

  /// Demote the frozen thread `id` now, bypassing the decay policy.  False
  /// when there is no store, or the thread is unknown, not frozen, already
  /// demoted, or spans too many runs for the store directory.
  bool demote(marcel::ThreadId id);
  /// If `t` is demoted, fault every run of its slot chain back and drop
  /// the record.  No-op for a resident thread.
  void ensure_resident(marcel::Thread* t);
  /// Decay pass (comm daemon idle laps; exposed for tests): demote frozen
  /// threads frozen at least slot_store_decay_us ago, coldest first, until
  /// the resident bytes of frozen threads fit slot_store_budget.
  void decay(uint64_t now);

  bool demoted(marcel::ThreadId id) const;
  bool demoted(marcel::Thread* t) const;
  size_t demoted_count() const;
  size_t demoted_bytes() const {
    return demoted_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t demotions() const {
    return demotions_.load(std::memory_order_relaxed);
  }
  uint64_t fault_backs() const {
    return fault_backs_.load(std::memory_order_relaxed);
  }

  /// True exactly once per recorded thread whose runs construction
  /// reserved; the caller (restore) then owns the runs.
  bool take_restore_reservation(uint64_t id);

 private:
  /// Demote frozen, resident `t` (workers paused).  False when it spans
  /// more runs than the store directory can record.
  bool demote_locked(marcel::Thread* t);

  iso::Area& area_;
  marcel::Scheduler& sched_;
  const size_t budget_;
  const uint64_t horizon_ns_;
  std::unique_ptr<iso::SlotStore> store_;
  mutable sys::SpinLock lock_{sys::LockRank::kRuntimeMaps};
  // Demoted thread -> its demoted bytes.
  std::unordered_map<marcel::Thread*, size_t> demoted_ PM2_GUARDED_BY(lock_);
  std::unordered_set<uint64_t> restore_reserved_ PM2_GUARDED_BY(lock_);
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> fault_backs_{0};
  std::atomic<size_t> demoted_bytes_{0};
};

}  // namespace pm2
