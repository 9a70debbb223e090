#include "pm2/peer_monitor.hpp"

#include "common/log.hpp"

namespace pm2 {

PeerMonitor::PeerMonitor(uint32_t self, uint32_t n_nodes, uint64_t period_ns,
                         uint32_t miss_limit)
    : self_(self), n_nodes_(n_nodes), period_ns_(period_ns),
      miss_limit_(miss_limit) {
  if (period_ns > 0 && n_nodes > 1) peers_ = std::make_unique<Peer[]>(n_nodes);
}

PeerMonitor::State PeerMonitor::state(uint32_t node) const {
  if (peers_ == nullptr || node == self_ || node >= n_nodes_)
    return State::kUp;
  return static_cast<State>(peers_[node].state.load(std::memory_order_acquire));
}

void PeerMonitor::start(uint64_t now) {
  if (peers_ == nullptr) return;
  for (uint32_t n = 0; n < n_nodes_; ++n)
    peers_[n].last_seen_ns.store(now, std::memory_order_relaxed);
  next_heartbeat_ns_ = now + period_ns_;
  next_scan_ns_ = now;
}

void PeerMonitor::seen(uint32_t node, uint64_t now) {
  if (peers_ == nullptr || node == self_ || node >= n_nodes_) return;
  Peer& p = peers_[node];
  p.last_seen_ns.store(now, std::memory_order_relaxed);
  if (p.state.load(std::memory_order_relaxed) !=
      static_cast<uint8_t>(State::kUp)) {
    // What the down sweep failed stays failed; callers retry.
    p.state.store(static_cast<uint8_t>(State::kUp), std::memory_order_release);
    PM2_WARN << "node " << node << " is back up";
  }
}

PeerMonitor::Tick PeerMonitor::tick(uint64_t now) {
  Tick t;
  // A quarter period: a verdict lands within about one period of its
  // deadline, and a busy daemon does not rescan on every frame.
  if (peers_ == nullptr || now < next_scan_ns_) return t;
  next_scan_ns_ = now + period_ns_ / 4 + 1;
  if (now >= next_heartbeat_ns_) {
    // Down peers are probed too: a restarted or healed peer answers.
    next_heartbeat_ns_ = now + period_ns_;
    t.heartbeat = true;
    heartbeats_sent_.fetch_add(n_nodes_ - 1, std::memory_order_relaxed);
  }
  for (uint32_t n = 0; n < n_nodes_; ++n) {
    if (n == self_) continue;
    Peer& p = peers_[n];
    auto st = static_cast<State>(p.state.load(std::memory_order_relaxed));
    if (st == State::kDown) continue;
    uint64_t last = p.last_seen_ns.load(std::memory_order_relaxed);
    uint64_t missed = (now > last ? now - last : 0) / period_ns_;
    if (missed >= miss_limit_) {
      p.state.store(static_cast<uint8_t>(State::kDown),
                    std::memory_order_release);
      PM2_WARN << "node " << n << " declared down (" << miss_limit_
               << " heartbeats missed)";
      t.down.push_back(n);
    } else if (missed >= 1 && st == State::kUp) {
      p.state.store(static_cast<uint8_t>(State::kSuspect),
                    std::memory_order_release);
      PM2_DEBUG << "node " << n << " suspect (" << missed
                << " heartbeats missed)";
    }
  }
  return t;
}

}  // namespace pm2
