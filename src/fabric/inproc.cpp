#include "fabric/inproc.hpp"

#include <chrono>

#include "common/check.hpp"
#include "common/time.hpp"

namespace pm2::fabric {

InProcHub::InProcHub(NodeId n_nodes) {
  PM2_CHECK(n_nodes >= 1);
  boxes_.reserve(n_nodes);
  for (NodeId i = 0; i < n_nodes; ++i)
    boxes_.push_back(std::make_unique<Mailbox>());
}

std::unique_ptr<Fabric> InProcHub::endpoint(NodeId node) {
  PM2_CHECK(node < n_nodes());
  return std::make_unique<InProcEndpoint>(shared_from_this(), node);
}

void InProcHub::deliver(Message msg) {
  PM2_CHECK(msg.dst < n_nodes()) << "bad destination " << msg.dst;
  if (latency_ns_ > 0) {
    // Busy-wait: sleep granularity is far coarser than the latencies being
    // modelled (sub-microsecond network stacks).
    uint64_t until = now_ns() + latency_ns_;
    while (now_ns() < until) {
    }
  }
  Mailbox& box = *boxes_[msg.dst];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
    box.queued.store(box.queue.size(), std::memory_order_relaxed);
  }
  box.cv.notify_one();
}

std::optional<Message> InProcHub::take_until(NodeId node, uint64_t deadline_ns) {
  Mailbox& box = *boxes_[node];
  // An empty non-blocking poll (the comm daemon's every lap) answers from
  // the count alone.  A frame delivered just after this load is seen by
  // the next poll, as if it had arrived after the lock was released.
  if (deadline_ns == 0 && box.queued.load(std::memory_order_relaxed) == 0)
    return std::nullopt;
  std::unique_lock<std::mutex> lock(box.mu);
  auto ready = [&] { return !box.queue.empty() || box.wake_pending; };
  if (deadline_ns > 0) {
    if (!ready()) {
      uint64_t now = now_ns();
      if (deadline_ns == UINT64_MAX) {
        box.cv.wait(lock, ready);
      } else if (deadline_ns > now) {
        box.cv.wait_for(lock, std::chrono::nanoseconds(deadline_ns - now),
                        ready);
      }
    }
    // Only a blocking-capable receive consumes the wake latch: a wake()
    // landing during a non-blocking try_recv (deadline 0) must survive to
    // interrupt the *next* recv_until, matching the socket fabric's
    // eventfd semantics.
    box.wake_pending = false;
  }
  if (box.queue.empty()) return std::nullopt;
  Message msg = std::move(box.queue.front());
  box.queue.pop_front();
  box.queued.store(box.queue.size(), std::memory_order_relaxed);
  return msg;
}

void InProcHub::wake(NodeId node) {
  Mailbox& box = *boxes_[node];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.wake_pending = true;
  }
  box.cv.notify_one();
}

InProcEndpoint::InProcEndpoint(std::shared_ptr<InProcHub> hub, NodeId id)
    : hub_(std::move(hub)), id_(id) {}

NodeId InProcEndpoint::n_nodes() const { return hub_->n_nodes(); }

void InProcEndpoint::send(Message msg) {
  msg.src = id_;
  bytes_sent_.fetch_add(msg.wire_size(), std::memory_order_relaxed);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  // Chained payloads move through the hub as-is — owned chunks change
  // hands with zero copies.  Borrowed segments would dangle once the
  // sender reuses its memory (e.g. migration decommits the slots), so
  // take ownership of those bytes now; this is the in-process equivalent
  // of the socket fabric's synchronous gather-to-wire.
  payload_copy_bytes_.fetch_add(msg.chain.seal(), std::memory_order_relaxed);
  hub_->deliver(std::move(msg));
}

std::optional<Message> InProcEndpoint::try_recv() {
  return hub_->take_until(id_, 0);
}

std::optional<Message> InProcEndpoint::recv_until(uint64_t deadline_ns) {
  return hub_->take_until(id_, deadline_ns);
}

void InProcEndpoint::wake() { hub_->wake(id_); }

}  // namespace pm2::fabric
