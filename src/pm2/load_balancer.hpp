// Dynamic load balancing by preemptive thread migration (paper §1–2).
//
// "A generic module implemented outside the running application could
// balance the load by migrating the application threads.  The threads are
// unaware of their being migrated."  This is that module: a per-node daemon
// that gossips load figures (kLoadInfo) and preemptively migrates READY
// threads from overloaded to underloaded nodes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace pm2 {

class Runtime;

struct LoadBalancerConfig {
  /// Gossip/decision period.
  uint64_t period_us = 2000;
  /// Migrate only if our load exceeds the victim's by more than this.
  uint64_t imbalance_threshold = 2;
  /// Cap on threads shipped per decision round.
  uint32_t max_migrations_per_round = 1;
};

/// A started balancer's progress: decision rounds completed so far.
struct LoadBalancerStatus {
  std::atomic<uint64_t> rounds{0};
};

class LoadBalancer {
 public:
  /// Start the balancer daemon on this node (call on every node, SPMD).
  /// The daemon stops itself at halt.
  static std::shared_ptr<const LoadBalancerStatus> start(
      Runtime& rt, const LoadBalancerConfig& config = {});
};

}  // namespace pm2
