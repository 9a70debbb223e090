#include "pm2/invocation_pool.hpp"

#include <cstring>

#include "common/time.hpp"
#include "isomalloc/heap.hpp"
#include "sys/sanitizer.hpp"

namespace pm2 {

void InvocationPool::park(marcel::Thread* t) {
  // Trim the heap chain back to the stack run.  Migration install clears
  // the service flag, so a foreign run never lands here; the width check
  // guards heterogeneous stack_slots.
  iso::SlotHeader* stack = iso::ThreadHeap::release_heap_runs(
      static_cast<iso::SlotHeader*>(t->slot_list), ops_);
  if (cap_ > 0 && stack->nslots == stack_slots_) {
    t->slot_list = stack;
    // TSD hygiene: a recycled invocation observes pristine keys, and so do
    // audits and debuggers walking the pool.
    std::memset(t->specific, 0, sizeof(t->specific));
    sys::san_poison(t->stack_base, t->stack_size());
    const uint64_t now = now_ns();
    lock_.lock();
    const bool parked = entries_.size() < cap_;
    if (parked) entries_.push_back(Entry{t, now});
    lock_.unlock();
    if (parked) return;
    sys::san_unpoison(t->stack_base, t->stack_size());
  }
  iso::ThreadHeap::release_chain(stack, ops_);
}

marcel::Thread* InvocationPool::take() {
  marcel::Thread* t = nullptr;
  lock_.lock();
  if (!entries_.empty()) {
    t = entries_.back().thread;
    entries_.pop_back();
  }
  lock_.unlock();
  (t != nullptr ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return t;
}

void InvocationPool::release(marcel::Thread* t) {
  evictions_.fetch_add(1, std::memory_order_relaxed);
  // The run re-enters general circulation (heap slots, fresh stacks) and
  // must be addressable for its next tenant.
  sys::san_unpoison(t->stack_base, t->stack_size());
  iso::ThreadHeap::release_chain(static_cast<iso::SlotHeader*>(t->slot_list),
                                 ops_);
}

void InvocationPool::decay(uint64_t now) {
  if (decay_ns_ == 0) return;
  // Park times grow from the front (take() pops the back), so the victims
  // are a prefix.  Releasing takes the Negotiator's lock and may decommit:
  // collect under lock_, release outside it.
  std::vector<marcel::Thread*> victims;
  lock_.lock();
  size_t n = 0;
  while (n < entries_.size() && entries_[n].parked_ns + decay_ns_ < now) {
    victims.push_back(entries_[n].thread);
    ++n;
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(n));
  lock_.unlock();
  for (marcel::Thread* t : victims) release(t);
}

void InvocationPool::drain() {
  std::vector<Entry> drained;
  lock_.lock();
  drained.swap(entries_);
  lock_.unlock();
  for (const Entry& e : drained) release(e.thread);
}

size_t InvocationPool::size() const {
  sys::SpinGuard g(lock_);
  return entries_.size();
}

void InvocationPool::for_each(
    const std::function<void(marcel::Thread*)>& fn) const {
  sys::SpinGuard g(lock_);
  for (const Entry& e : entries_) fn(e.thread);
}

}  // namespace pm2
