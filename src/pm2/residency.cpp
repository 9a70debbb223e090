#include "pm2/residency.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "isomalloc/heap.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

// Demotion keeps each run's first page resident (SlotStore::demote).  A
// stack run's header, descriptor and canary all sit in that page (see
// Runtime::create_thread_in_slots and Scheduler::create), so a demoted
// thread's descriptor and slot chain stay readable.
static_assert(((sizeof(iso::SlotHeader) + 63) & ~size_t{63}) +
                      ((sizeof(marcel::Thread) + 63) & ~size_t{63}) +
                      sizeof(marcel::Thread::kCanary) <=
                  4096,
              "a stack run's descriptor and canary must fit its first page");

Residency::Residency(const RuntimeConfig& config, iso::Area& area,
                     sys::WriteWatch* watch, marcel::Scheduler& sched,
                     Negotiator& nego,
                     const std::function<void(marcel::ThreadId)>& claim_id)
    : area_(area),
      sched_(sched),
      budget_(config.slot_store_budget),
      horizon_ns_(config.slot_store_decay_us * 1000) {
  if (config.slot_store_dir.empty()) return;
  iso::SlotStoreConfig sc;
  sc.path = config.slot_store_dir + "/node" + std::to_string(config.node) +
            ".store";
  sc.recover = config.slot_store_recover;
  store_ = std::make_unique<iso::SlotStore>(area_, sc, binary_stamp(),
                                            config.node, config.n_nodes, watch);
  if (!store_->recovered()) return;
  // Fence off every recorded image before the node serves anything: a
  // pending RPC racing the restart would otherwise allocate a service stack
  // over a recorded thread's slots (or mint its id) and make the restore
  // impossible.  Nothing is cached or frozen yet, so the Negotiator's own
  // acquire and release are the whole claim.
  for (const auto& rec : store_->recorded_threads()) {
    claim_id(rec.id);
    size_t claimed = 0;
    while (claimed < rec.runs.size() &&
           nego.acquire_at(rec.runs[claimed].first, rec.runs[claimed].second))
      ++claimed;
    if (claimed == rec.runs.size()) {
      restore_reserved_.insert(rec.id);
      continue;
    }
    for (size_t i = 0; i < claimed; ++i) {
      store_->forget(rec.runs[i].first, rec.runs[i].second);
      nego.release(rec.runs[i].first, rec.runs[i].second);
    }
    PM2_WARN << "recovered store: slot runs of thread " << rec.id
             << " are not locally free; left unreserved";
  }
}

bool Residency::demote_locked(marcel::Thread* t) {
  std::vector<iso::SlotRun> runs;
  size_t bytes = 0;
  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
    runs.emplace_back(area_.slot_of(s), s->nslots);
    bytes += size_t{s->nslots} * area_.slot_size();
  });
  // The record makes the file image a complete, current checkpoint (only
  // node-local descriptor fields can change while demoted, and adopt()
  // resets those), so a crash restart adopts a demoted thread for free.
  // A thread the directory cannot hold, or whose commit failed, stays
  // resident.
  if (!store_->demote(t->id, reinterpret_cast<uint64_t>(t), runs))
    return false;
  lock_.lock();
  demoted_.emplace(t, bytes);
  lock_.unlock();
  demoted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  demotions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Residency::demote(marcel::ThreadId id) {
  if (store_ == nullptr) return false;
  sched_.pause_workers();
  marcel::Thread* t = sched_.find(id);
  bool ok = t != nullptr && t->state == marcel::ThreadState::kFrozen &&
            !demoted(t) && demote_locked(t);
  sched_.resume_workers();
  return ok;
}

void Residency::ensure_resident(marcel::Thread* t) {
  if (store_ == nullptr) return;
  lock_.lock();
  auto it = demoted_.find(t);
  if (it == demoted_.end()) {
    lock_.unlock();
    return;
  }
  const size_t bytes = it->second;
  demoted_.erase(it);
  // The fault-back I/O completes under the lock: a second resumer (or the
  // audit walking inventories) must never observe the record gone while
  // the bytes are still on their way in.
  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
    store_->fault_back(area_.slot_of(s), s->nslots);
  });
  lock_.unlock();
  demoted_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  fault_backs_.fetch_add(1, std::memory_order_relaxed);
}

void Residency::decay(uint64_t now) {
  if (store_ == nullptr || budget_ == SIZE_MAX) return;
  auto cold = [&](marcel::Thread* t) {
    return t->state == marcel::ThreadState::kFrozen && !demoted(t);
  };
  // Cheap racy prescan (no pause): is any resident frozen thread past the
  // horizon?
  bool candidates = false;
  sched_.for_each([&](marcel::Thread* t) {
    if (!candidates && cold(t) &&
        now - t->cold_ns.load(std::memory_order_relaxed) >= horizon_ns_)
      candidates = true;
  });
  if (!candidates) return;

  // Authoritative pass under the worker pause: no unfreeze or migration
  // pack can race the page-out.
  sched_.pause_workers();
  struct Cand {
    marcel::Thread* t;
    uint64_t cold_ns;
    size_t bytes;
  };
  std::vector<Cand> frozen;
  size_t resident = 0;
  sched_.for_each([&](marcel::Thread* t) {
    if (!cold(t)) return;
    size_t bytes = 0;
    iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
      bytes += size_t{s->nslots} * area_.slot_size();
    });
    resident += bytes;
    frozen.push_back(
        Cand{t, t->cold_ns.load(std::memory_order_relaxed), bytes});
  });
  // Coldest first: a stable eviction order a test can pin down.
  std::sort(frozen.begin(), frozen.end(),
            [](const Cand& a, const Cand& b) { return a.cold_ns < b.cold_ns; });
  for (const Cand& c : frozen) {
    if (resident <= budget_) break;
    if (now - c.cold_ns < horizon_ns_) break;  // sorted: the rest are younger
    if (demote_locked(c.t)) resident -= c.bytes;
  }
  sched_.resume_workers();
}

bool Residency::demoted(marcel::ThreadId id) const {
  marcel::Thread* t = sched_.find(id);
  return t != nullptr && demoted(t);
}

bool Residency::demoted(marcel::Thread* t) const {
  sys::SpinGuard g(lock_);
  return demoted_.count(t) != 0;
}

size_t Residency::demoted_count() const {
  sys::SpinGuard g(lock_);
  return demoted_.size();
}

bool Residency::take_restore_reservation(uint64_t id) {
  sys::SpinGuard g(lock_);
  return restore_reserved_.erase(id) != 0;
}

}  // namespace pm2
