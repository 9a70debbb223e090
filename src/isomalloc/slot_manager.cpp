#include "isomalloc/slot_manager.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace pm2::iso {

SlotManager::SlotManager(Area& area, const SlotManagerConfig& config)
    : area_(area),
      config_(config),
      bitmap_(initial_bitmap(config.distribution, area.n_slots(), config.node,
                             config.n_nodes, config.block_cyclic_block)) {}

std::optional<size_t> SlotManager::acquire(size_t count) {
  PM2_CHECK(count >= 1);
  if (count > 1) ++stats_.multi_slot_requests;

  std::optional<size_t> first;
  if (count == 1 && !cache_.empty()) {
    // Prefer a cached (already committed) slot: no VM call at all.
    size_t idx = *cache_.begin();
    PM2_DCHECK(bitmap_.test(idx)) << "cached slot not owned";
    cache_.erase(cache_.begin());
    bitmap_.clear(idx);
    take_away(idx, 1);
    ++stats_.cache_hits;
    ++stats_.slots_acquired;
    return idx;
  }
  if (count > 1) {
    // Multi-slot fast path: a fully cached contiguous stretch (a released
    // stack/heap run still committed) beats first-fit — no VM call at all.
    if (auto run = find_cached_run(count)) {
      PM2_DCHECK(bitmap_.all_set(*run, count)) << "cached run not owned";
      bitmap_.clear_range(*run, count);
      for (size_t i = *run; i < *run + count; ++i) cache_.erase(i);
      take_away(*run, count);
      ++stats_.cache_hits;
      stats_.slots_acquired += count;
      return run;
    }
  }

  first = bitmap_.find_run(count);
  if (!first) return std::nullopt;
  bitmap_.clear_range(*first, count);
  take_away(*first, count);
  commit_run(*first, count);
  stats_.slots_acquired += count;
  if (count == 1) ++stats_.cache_misses;
  return first;
}

bool SlotManager::acquire_at(size_t first, size_t count) {
  PM2_CHECK(count >= 1 && first + count <= area_.n_slots());
  if (!bitmap_.all_set(first, count)) return false;
  bitmap_.clear_range(first, count);
  for (size_t i = first; i < first + count; ++i) cache_.erase(i);
  take_away(first, count);
  stats_.slots_acquired += count;
  return true;
}

void SlotManager::commit_run(size_t first, size_t count) {
  // Slots inside the run that sit in the cache are already committed;
  // commit the rest.  Commit ranges maximally to batch mprotect calls.
  size_t i = first;
  while (i < first + count) {
    if (cache_.erase(i) > 0) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < first + count && cache_.count(j) == 0) ++j;
    area_.commit(i, j - i);
    ++stats_.commits;
    i = j;
  }
}

void SlotManager::release(size_t first, size_t count) {
  PM2_CHECK(count >= 1 && first + count <= area_.n_slots());
  PM2_CHECK(bitmap_.none_set(first, count))
      << "releasing slots the node already owns (double release?)";
  bitmap_.set_range(first, count);
  stats_.slots_released += count;
  if (cache_.size() + count <= config_.cache_capacity) {
    // Absorb the whole run (stays committed for cheap reuse): multi-slot
    // runs enter per slot, so a later acquire of any width over them pays
    // no mmap either (commit_run skips cached stretches).
    for (size_t i = first; i < first + count; ++i) cache_.insert(i);
    return;
  }
  area_.decommit(first, count);
  ++stats_.decommits;
}

std::optional<size_t> SlotManager::find_cached_run(size_t count) const {
  // Only reached for count > 1 (single-slot acquires pick straight from
  // the set).  The cache is small (capacity defaults to 64), so sorting a
  // snapshot per multi-slot acquire is cheaper than keeping run structure.
  if (count < 2 || cache_.size() < count) return std::nullopt;
  std::vector<size_t> sorted(cache_.begin(), cache_.end());
  std::sort(sorted.begin(), sorted.end());
  size_t len = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    len = sorted[i] == sorted[i - 1] + 1 ? len + 1 : 1;
    if (len == count) return sorted[i] - count + 1;
  }
  return std::nullopt;
}

void SlotManager::set_bitmap(pm2::Bitmap bitmap) {
  PM2_CHECK(bitmap.size() == area_.n_slots());
  bitmap_ = std::move(bitmap);
  // Drop cached commits for slots we no longer own.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (!bitmap_.test(*it)) {
      area_.decommit(*it, 1);
      ++stats_.decommits;
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void SlotManager::flush_cache() {
  for (size_t idx : cache_) {
    area_.decommit(idx, 1);
    ++stats_.decommits;
  }
  cache_.clear();
}

std::optional<SlotManager::Run> SlotManager::cache_away(size_t first,
                                                       size_t count) {
  // Overlapping entries go first: an exact match makes the put idempotent,
  // and an entry of another shape is stale (its slots belong to this run's
  // thread now).
  take_away(first, count);
  away_.emplace_back(first, count);
  if (away_.size() <= kAwayRunCapacity) return std::nullopt;
  Run oldest = away_.front();
  away_.pop_front();
  evicting_.push_back(oldest);
  return oldest;
}

void SlotManager::evicted(Run run) {
  auto it = std::find(evicting_.begin(), evicting_.end(), run);
  PM2_CHECK(it != evicting_.end()) << "evicted() of a run not evicting";
  evicting_.erase(it);
}

bool SlotManager::evicting(size_t first, size_t count) const {
  for (auto [f, c] : evicting_)
    if (f < first + count && first < f + c) return true;
  return false;
}

bool SlotManager::take_away(size_t first, size_t count) {
  // Every overlapping entry goes, not just an exact match: an entry of
  // another shape left behind would decommit the new tenant's pages when
  // it is evicted later.
  bool hit = false;
  for (auto it = away_.begin(); it != away_.end();) {
    auto [f, c] = *it;
    hit |= f == first && c == count;
    it = f < first + count && first < f + c ? away_.erase(it) : ++it;
  }
  return hit;
}

}  // namespace pm2::iso
