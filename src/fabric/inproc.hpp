// In-process fabric: N logical nodes inside one process, each running on its
// own kernel thread, exchanging messages through per-node queues.
//
// This transport makes the full PM2 protocol stack (RPC, migration,
// negotiation) testable deterministically inside a single gtest process.
// Iso-addressing remains faithful: the logical nodes share one address
// space, but slot ownership is disjoint by construction, and migration
// still packs, decommits on the sender, transfers bytes and re-commits on
// the receiver — the same code path as the socket fabric.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "fabric/message.hpp"

namespace pm2::fabric {

class InProcHub;

/// One logical node's endpoint into the hub.
class InProcEndpoint final : public Fabric {
 public:
  InProcEndpoint(std::shared_ptr<InProcHub> hub, NodeId id);

  NodeId node_id() const override { return id_; }
  NodeId n_nodes() const override;
  /// Delivery serializes on the destination mailbox mutex, and the
  /// sender-side counters are atomic.
  void send(Message msg) override;
  std::optional<Message> try_recv() override;
  std::optional<Message> recv_until(uint64_t deadline_ns) override;
  void wake() override;
  uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  uint64_t payload_copy_bytes() const override {
    return payload_copy_bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<InProcHub> hub_;
  NodeId id_;
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> payload_copy_bytes_{0};
};

/// Shared mailbox array.  Create once, then endpoint(i) for each node.
class InProcHub : public std::enable_shared_from_this<InProcHub> {
 public:
  explicit InProcHub(NodeId n_nodes);

  NodeId n_nodes() const { return static_cast<NodeId>(boxes_.size()); }
  std::unique_ptr<Fabric> endpoint(NodeId node);

  /// Simulated per-message latency in nanoseconds added on delivery (0 = off).
  /// Lets in-process benches approximate network-like conditions.
  void set_latency_ns(uint64_t ns) { latency_ns_ = ns; }

 private:
  friend class InProcEndpoint;
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
    // queue.size(), written under `mu`: an empty non-blocking poll reads
    // it instead of taking the lock.
    std::atomic<size_t> queued{0};
    bool wake_pending = false;  // Fabric::wake() latch (consumed by take)
  };
  void deliver(Message msg);
  std::optional<Message> take_until(NodeId node, uint64_t deadline_ns);
  void wake(NodeId node);

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  uint64_t latency_ns_ = 0;
};

}  // namespace pm2::fabric
