// Distributed invariant audit.
//
// The whole iso-address design rests on one global safety property (paper
// §3.2): *at any instant, every slot has exactly one owner* — a node (bit
// set in exactly one bitmap) or a thread (bit clear everywhere, the slot
// appearing in exactly one thread's slot list, wherever that thread
// currently lives).
//
// audit_session() proves the property for a live session: under the same
// system-wide critical section the negotiation uses (so no ownership moves
// mid-audit), it gathers every node's bitmap and every node's inventory —
// the slot runs its threads hold, and the runs released there while its
// bitmap was frozen (a thread that exits mid-audit leaves its stack run in
// that deferred list until the freeze lifts; the run is the node's).  The
// pure check_ownership() then verifies:
//
//   1. node bitmaps (deferred runs included) are pairwise disjoint, and no
//      deferred run was already owned by a node;
//   2. thread-held runs do not overlap each other or any bitmap;
//   3. every slot is covered (owned by someone) — no leaks.
//
// Used by stress tests as a final oracle and available to applications as
// a debugging aid (expensive: O(nodes × slots), full lock).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"

namespace pm2 {

class Runtime;

struct AuditReport {
  bool ok = false;
  uint64_t total_slots = 0;
  uint64_t node_owned = 0;    // free slots across all bitmaps
  uint64_t thread_owned = 0;  // slots in some thread's list
  uint64_t threads_seen = 0;  // live threads across the session
  /// Threads whose runs were demoted to a slot store at audit time, and the
  /// slots those runs span.  Demoted runs still count toward thread_owned:
  /// exactly-one-owner covers them through the demotion records.
  uint64_t threads_demoted = 0;
  uint64_t demoted_slots = 0;
  std::vector<std::string> violations;

  std::string summary() const;
};

/// One node's inventory: the slot runs held by its threads (registered or
/// parked in the invocation pool), and its deferred releases.
struct NodeInventory {
  struct Held {
    uint64_t thread = 0;
    uint64_t first = 0;
    uint32_t count = 0;
    bool demoted = false;  // the run's bytes live in the node's slot store
  };
  std::vector<Held> held;
  std::vector<std::pair<size_t, size_t>> deferred;  // (first, count)
};

/// The audit's checks over gathered state: `bitmaps[i]` and
/// `inventories[i]` describe node i.  Pure, so tests feed it directly.
AuditReport check_ownership(std::vector<Bitmap> bitmaps,
                            const std::vector<NodeInventory>& inventories);

/// Run the audit from any PM2 thread.  Locks the system-wide critical
/// section for the duration.
///
/// Caveat: the critical section freezes *ownership bookkeeping*, not
/// migrations — a thread whose slots are mid-flight between two nodes at
/// the moment of the audit belongs to neither inventory and reports as a
/// coverage leak.  Audit at quiescent points (after a barrier with workers
/// drained), which is how the stress tests use it.
AuditReport audit_session(Runtime& rt);

}  // namespace pm2
