// Heartbeat failure detector (RuntimeConfig::heartbeat_period_ns): this
// node's verdict on each peer, up → suspect → down → up.  Any frame from a
// peer is proof of life (seen); tick() scans for misses and says when a
// heartbeat round is due.  The monitor keeps clocks and verdicts only: it
// is handed the time and sends nothing, so the comm daemon sends the
// heartbeats and sweeps a peer tick() reports down, and a test drives it
// on a fake clock.
//
// One writer (the comm daemon: start, seen, tick); state() is lock-free for
// any reader.  The down sweep takes kRuntimeMaps locks, so the verdicts
// must not live under one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace pm2 {

class PeerMonitor {
 public:
  /// kSuspect (one missed period) is observational; kDown triggers the
  /// runtime's failure sweep.
  enum class State : uint8_t { kUp = 0, kSuspect = 1, kDown = 2 };

  /// Disabled (every peer kUp forever) at period 0 or with one node.
  PeerMonitor(uint32_t self, uint32_t n_nodes, uint64_t period_ns,
              uint32_t miss_limit);

  bool enabled() const { return peers_ != nullptr; }
  /// kUp for self, out-of-range nodes, and while disabled.
  State state(uint32_t node) const;

  /// Every peer counts as seen at `now`: a slow starter gets a full miss
  /// budget before the first suspicion.
  void start(uint64_t now);
  /// A frame from `node` arrived: a suspect or down peer is up again.
  void seen(uint32_t node, uint64_t now);

  struct Tick {
    bool heartbeat = false;      // send one to every peer now
    std::vector<uint32_t> down;  // peers that just crossed the miss limit
  };
  /// Upkeep at `now`, at most every quarter period.
  Tick tick(uint64_t now);
  /// When the next round is due (UINT64_MAX while disabled).
  uint64_t next_heartbeat() const { return next_heartbeat_ns_; }
  /// Heartbeat frames due so far, one per peer per round.
  uint64_t heartbeats_sent() const {
    return heartbeats_sent_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    std::atomic<uint64_t> last_seen_ns{0};
    std::atomic<uint8_t> state{0};  // State
  };

  const uint32_t self_;
  const uint32_t n_nodes_;
  const uint64_t period_ns_;
  const uint32_t miss_limit_;
  std::unique_ptr<Peer[]> peers_;  // null while disabled
  uint64_t next_heartbeat_ns_ = UINT64_MAX;
  uint64_t next_scan_ns_ = 0;
  std::atomic<uint64_t> heartbeats_sent_{0};
};

}  // namespace pm2
