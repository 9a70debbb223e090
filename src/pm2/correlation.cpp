#include "pm2/correlation.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace pm2 {

CorrelationTable::Opened CorrelationTable::open(
    uint32_t dest, uint64_t deadline_ns,
    std::optional<MigrationRollback> rollback) {
  marcel::Promise<std::vector<uint8_t>> promise;
  Opened out{0, promise.future()};
  {
    sys::SpinGuard g(lock_);
    if (!closed_) {
      out.corr = next_corr_++;
      bool arm_now = deadline_ns != 0 && !rollback;
      pending_.emplace(out.corr, Pending{std::move(promise), dest, deadline_ns,
                                         std::move(rollback)});
      if (arm_now) arm_locked(out.corr, deadline_ns);
      return out;
    }
  }
  // The halt drain already swept the table: an entry opened now would
  // never complete.
  promise.set_error("session halting");
  return out;
}

std::optional<CorrelationTable::Pending> CorrelationTable::take(uint64_t corr) {
  sys::SpinGuard g(lock_);
  auto it = pending_.find(corr);
  if (it != pending_.end()) return extract_locked(it);
  if (corr != 0 && corr < next_corr_) {
    late_replies_.fetch_add(1, std::memory_order_relaxed);
    PM2_DEBUG << "dropping late reply (corr " << corr << ")";
    return std::nullopt;
  }
  PM2_CHECK(closed_) << "reply with no pending waiter (corr " << corr << ")";
  return std::nullopt;
}

std::vector<CorrelationTable::Pending> CorrelationTable::take_due(
    uint64_t now) {
  std::vector<Pending> due;
  sys::SpinGuard g(lock_);
  while (!deadlines_.empty() && deadlines_.top().deadline_ns <= now) {
    auto it = pending_.find(deadlines_.top().corr);
    deadlines_.pop();
    if (it != pending_.end()) due.push_back(extract_locked(it));
  }
  next_deadline_ns_.store(
      deadlines_.empty() ? UINT64_MAX : deadlines_.top().deadline_ns,
      std::memory_order_relaxed);
  return due;
}

std::vector<CorrelationTable::Pending> CorrelationTable::take_for(
    uint32_t node) {
  std::vector<Pending> swept;
  sys::SpinGuard g(lock_);
  for (auto it = pending_.begin(); it != pending_.end();) {
    const Pending& p = it->second;
    if (p.dest == node && (!p.rollback || p.rollback->shipped)) {
      swept.push_back(std::move(it->second));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Their heap entries go stale and are skipped by take_due.
  return swept;
}

std::vector<CorrelationTable::Pending> CorrelationTable::close() {
  std::vector<Pending> all;
  sys::SpinGuard g(lock_);
  closed_ = true;
  all.reserve(pending_.size());
  for (auto& [corr, p] : pending_) all.push_back(std::move(p));
  pending_.clear();
  deadlines_ = {};
  next_deadline_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  return all;
}

void CorrelationTable::arm_locked(uint64_t corr, uint64_t deadline_ns) {
  deadlines_.push(DeadlineEnt{deadline_ns, corr});
  // Monotonic min: the heap top only moves earlier on a push.
  if (deadline_ns < next_deadline_ns_.load(std::memory_order_relaxed))
    next_deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
}

CorrelationTable::Pending CorrelationTable::extract_locked(Map::iterator it) {
  Pending p = std::move(it->second);
  pending_.erase(it);
  return p;
}

}  // namespace pm2
