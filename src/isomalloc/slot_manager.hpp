// Per-node slot ownership (paper §4.2, "Managing slots").
//
// Each node tracks the slots it owns in a private bitmap: bit = 1 means
// "owned by this node and free"; 0 means "owned by another node (free
// there) or by some thread (anywhere)".  Acquire hands slots to threads and
// clears bits; release takes slots back from threads and sets bits —
// possibly on a *different* node than the one the slot was acquired from,
// which is how nodes end up owning slots they did not start with.
//
// Pure node-local component: no networking.  When a contiguous run cannot
// be satisfied locally, acquire() returns nullopt and the caller
// (pm2::Negotiator) launches the global negotiation (negotiation.hpp),
// adopts the resulting bitmap through set_bitmap(), and retries.
//
// Includes the paper's §6 optimization: slots that no local thread uses
// stay committed, saving the commit/decommit (mmap) round-trip on slot
// churn.  Two kinds are kept: free slots this node owns (the free cache),
// and the runs of threads that migrated away (the away cache), so a thread
// migrating back skips the commit and page-fault cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/stats.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/distribution.hpp"

namespace pm2::iso {

/// Slot provisioning as seen by a thread heap.  SlotManager implements it
/// directly (node-local policy only); the PM2 runtime interposes an adapter
/// that adds global negotiation on acquire misses and defers releases while
/// a negotiation freezes the bitmap.
class SlotOps {
 public:
  virtual ~SlotOps() = default;
  /// Contiguous run of `count` slots, committed, now thread-owned; nullopt
  /// when unobtainable.
  virtual std::optional<size_t> acquire(size_t count) = 0;
  virtual void release(size_t first, size_t count) = 0;
  virtual Area& area() = 0;
};

struct SlotManagerConfig {
  uint32_t node = 0;
  uint32_t n_nodes = 1;
  Distribution distribution = Distribution::kRoundRobin;
  size_t block_cyclic_block = 16;
  /// Max committed-but-free slots kept mapped (0 disables the cache).
  size_t cache_capacity = 64;
};

class SlotManager final : public SlotOps {
 public:
  /// A slot run: (first slot, count).
  using Run = std::pair<size_t, size_t>;

  /// Away-runs kept committed per node.  A deadline-armed migrate_async
  /// rolls back by reclaiming its runs from this cache, so it must not
  /// evict them inside the deadline window: more than this many runs
  /// shipped away from one node within one rpc timeout make a rollback
  /// fail its check.
  static constexpr size_t kAwayRunCapacity = 64;

  SlotManager(Area& area, const SlotManagerConfig& config);

  /// Take `count` contiguous owned slots (first-fit over the bitmap),
  /// commit their memory, and hand them to the caller (the bits are
  /// cleared: the slots now belong to a thread).  Returns the first slot
  /// index, or nullopt when no owned run of that length exists — the
  /// signal to negotiate.  Like acquire_at, drops every away-run the
  /// returned run overlaps (its pages belong to the new owner now).
  std::optional<size_t> acquire(size_t count) override;

  /// Claim a *specific* run the node currently owns (checkpoint restore
  /// needs the exact slots recorded in the image).  Clears the bits and
  /// drops any cached commits without decommitting (the caller re-commits
  /// or reuses them).  Returns false if any slot is not owned-and-free.
  bool acquire_at(size_t first, size_t count);

  /// Give slots back to this node (thread released or died here).  Memory
  /// is decommitted unless the whole run fits in the committed-slot cache
  /// (any width — multi-slot stack/heap runs are absorbed per slot, so
  /// run churn pays no commit/decommit mmap round trip either).
  void release(size_t first, size_t count) override;

  /// Replace the whole bitmap (scatter step of the negotiation, paper
  /// §4.4 step e).  Reconciles the free cache against lost ownership;
  /// away-runs are thread-owned and stay.
  void set_bitmap(pm2::Bitmap bitmap);

  /// Keep the run of a thread that migrated away committed.  Returns the
  /// oldest away-run when the cache overflows: the caller decommits it
  /// (outside any lock it holds — decommit is an mmap call), then calls
  /// evicted().  Until then the run is listed as evicting.
  std::optional<Run> cache_away(size_t first, size_t count);
  /// The caller of cache_away has decommitted `run`.
  void evicted(Run run);
  /// True while an evicted run overlapping [first, first+count) still
  /// awaits evicted(): whoever claims these slots in that window must wait
  /// for it before committing, or the late decommit wipes their pages.
  bool evicting(size_t first, size_t count) const;
  /// Drop every away-run overlapping [first, first+count) without
  /// decommitting; true when one of them was exactly this run (a thread
  /// migrating back into its cached pages skips the commit).
  bool take_away(size_t first, size_t count);
  size_t away_runs() const { return away_.size(); }

  const pm2::Bitmap& bitmap() const { return bitmap_; }
  Area& area() override { return area_; }
  const SlotManagerConfig& config() const { return config_; }

  size_t owned_free_slots() const { return bitmap_.count(); }
  size_t cached_slots() const { return cache_.size(); }

  SlotStats& stats() { return stats_; }
  const SlotStats& stats() const { return stats_; }

  /// Drop every cached slot (decommit).  For tests/ablation.
  void flush_cache();

 private:
  void commit_run(size_t first, size_t count);
  /// Contiguous stretch of `count` cached slots, or nullopt.
  std::optional<size_t> find_cached_run(size_t count) const;

  Area& area_;
  SlotManagerConfig config_;
  pm2::Bitmap bitmap_;
  /// Committed, owned, free slots (paper §6 cache, extended to multi-slot
  /// runs — absorbed per slot).  Kept as a set: membership matters when an
  /// acquired run partially overlaps cached slots.
  std::unordered_set<size_t> cache_;
  /// Committed runs of threads that migrated away, front = oldest.
  std::deque<Run> away_;
  /// Runs cache_away evicted whose decommit has not been reported yet.
  std::vector<Run> evicting_;
  SlotStats stats_;
};

}  // namespace pm2::iso
