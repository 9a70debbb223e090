// CorrelationTable: every reply a node awaits — RPC calls, migration
// install acks, negotiation gathers and audit inventories — is one entry
// here, keyed by a correlation id the table mints.  It is the only place a
// correlation is resolved, and each is resolved exactly once: by its reply
// (take), its deadline (take_due), a peer-down verdict (take_for) or the
// halt drain (close).  Whoever takes an entry owns it and completes its
// promise outside the table's lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "marcel/sync.hpp"
#include "marcel/thread.hpp"
#include "sys/spinlock.hpp"
#include "sys/thread_safety.hpp"

namespace pm2 {

/// What a migrate_async entry needs to adopt its thread back when the
/// install ack never comes: the forgotten descriptor and its slot runs
/// (pages the away cache keeps committed).
struct MigrationRollback {
  marcel::Thread* thread = nullptr;
  marcel::ThreadId id = 0;
  std::vector<std::pair<size_t, size_t>> runs;
  // The entry opens *before* ship_thread so an early ack always finds it,
  // but rollback is only legal once the pack/forget/send has finished:
  // arm_after_ship flips this, and only then may a deadline or a
  // peer-down sweep take the entry.
  bool shipped = false;
};

class CorrelationTable {
 public:
  /// An awaited reply: the promise it completes, the node it must come
  /// from, its absolute deadline (0 = none) and, for a migration that can
  /// be rolled back, the rollback record.
  struct Pending {
    marcel::Promise<std::vector<uint8_t>> promise;
    uint32_t dest = 0;
    uint64_t deadline_ns = 0;
    std::optional<MigrationRollback> rollback;
  };
  struct Opened {
    uint64_t corr = 0;  // 0 when the table is closed (future already failed)
    marcel::Future<std::vector<uint8_t>> future;
  };

  /// Mint a correlation awaiting a reply from `dest`.  A non-zero deadline
  /// is armed now, or — for an entry with a rollback record — by
  /// arm_after_ship.  Once closed, returns corr 0 with a future failed
  /// "session halting".
  Opened open(uint32_t dest, uint64_t deadline_ns,
              std::optional<MigrationRollback> rollback = std::nullopt);

  /// Remove the entry a reply resolves.  nullopt for an id minted here but
  /// no longer pending (resolved before by a deadline, a sweep or a
  /// duplicate frame): counted as a late reply and dropped.  Any other
  /// unknown id CHECK-fails while the table is open (a protocol bug); a
  /// closed table tolerates it (replies race the halt drain).
  std::optional<Pending> take(uint64_t corr);

  /// Mark a migration entry shipped and arm its deadline.  `dest_down()`
  /// runs under the lock, so a take_for sweep racing the ship either saw
  /// the entry shipped or left it here: when it reports the destination
  /// down, the entry is removed and returned for the caller to fail.
  /// nullopt when the ack already resolved the entry or nothing is owed.
  template <typename DestDown>
  std::optional<Pending> arm_after_ship(uint64_t corr, DestDown&& dest_down) {
    sys::SpinGuard g(lock_);
    auto it = pending_.find(corr);
    if (it == pending_.end()) return std::nullopt;
    if (it->second.rollback) it->second.rollback->shipped = true;
    if (dest_down()) return extract_locked(it);
    if (it->second.deadline_ns != 0) arm_locked(corr, it->second.deadline_ns);
    return std::nullopt;
  }

  /// Remove every entry whose armed deadline is <= now, earliest first.
  std::vector<Pending> take_due(uint64_t now);
  /// Remove every entry awaiting `node`, except migrations still being
  /// shipped (their sender re-checks the verdict in arm_after_ship).
  std::vector<Pending> take_for(uint32_t node);
  /// Halt drain: remove every entry and refuse later opens.
  std::vector<Pending> close();

  /// Earliest armed deadline, UINT64_MAX when none (one relaxed load).
  uint64_t next_deadline() const {
    return next_deadline_ns_.load(std::memory_order_relaxed);
  }
  /// Replies dropped because their correlation was already resolved.
  uint64_t late_replies() const {
    return late_replies_.load(std::memory_order_relaxed);
  }

 private:
  struct DeadlineEnt {
    uint64_t deadline_ns;
    uint64_t corr;
    bool operator>(const DeadlineEnt& o) const {
      return deadline_ns > o.deadline_ns;
    }
  };
  using Map = std::unordered_map<uint64_t, Pending>;

  void arm_locked(uint64_t corr, uint64_t deadline_ns) PM2_REQUIRES(lock_);
  Pending extract_locked(Map::iterator it) PM2_REQUIRES(lock_);

  mutable sys::SpinLock lock_{sys::LockRank::kRuntimeMaps};
  // Ids only grow, so an unknown id below next_corr_ was resolved before.
  uint64_t next_corr_ PM2_GUARDED_BY(lock_) = 1;
  bool closed_ PM2_GUARDED_BY(lock_) = false;
  Map pending_ PM2_GUARDED_BY(lock_);
  // Min-heap of armed deadlines, popped lazily: an entry is live only while
  // its corr is still pending.  The cached top lets the daemon's laps test
  // for expiry with one relaxed load; sessions without deadlines keep it at
  // UINT64_MAX.
  std::priority_queue<DeadlineEnt, std::vector<DeadlineEnt>,
                      std::greater<DeadlineEnt>>
      deadlines_ PM2_GUARDED_BY(lock_);
  std::atomic<uint64_t> next_deadline_ns_{UINT64_MAX};
  std::atomic<uint64_t> late_replies_{0};
};

}  // namespace pm2
