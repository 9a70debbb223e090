// Deterministic fault injection for either transport.
//
// FaultFabric is a Fabric decorator driven by a seedable FaultPlan: it can
// drop, delay, duplicate, and truncate outgoing frames, enforce one-way
// partitions, flap a link for a while, and arm forced short writes / EINTR
// in the socket send path.  Everything it injects is counted, so a test can
// assert the plan actually fired rather than silently not matching.
//
// The plan is a pure function of its seed (pm2::Rng, no global RNG), which
// keeps chaos runs reproducible: the same seed over the same traffic makes
// the same decisions.
//
// Scope and safety: drop/dup/truncate model *application-level* loss on a
// reliable stream — there is no retransmission layer underneath, so a
// dropped control frame (barrier release, migration payload, install ack)
// would wedge or corrupt a session outright rather than exercise a recovery
// path.  By default those mutations therefore apply only to loss-tolerant
// types (RPC requests/replies, load gossip, heartbeats, user channels),
// where the deadline + late-reply machinery turns a loss into a clean
// kTimeout.  `all=1` lifts the filter for tests that want to break control
// traffic on purpose (e.g. partition tests already do, wholesale).
// Delay applies to every type: a slow frame is always legal.
//
// Plan grammar (comma-separated `key=value`; probabilities in [0,1];
// durations accept ns/us/ms/s suffixes, bare numbers are ns):
//
//   seed=42            RNG seed (default 1)
//   drop=0.01          P(drop) per eligible frame
//   dup=0.01           P(duplicate) per eligible frame
//   trunc=0.01         P(truncate payload to a random prefix)
//   delay=200us        max added latency; each delayed frame waits
//                      uniform(0, delay]
//   delay_p=0.5        P(delay) per frame (default 1 when delay is set)
//   part=0->1          one-way partition: frames from node 0 to node 1
//                      never arrive (repeatable; applied on the sender)
//   flap_p=0.001       P(start a link flap) per send
//   flap=5ms           flap duration: all traffic to that peer drops
//   shortw=16          force the next 16 socket writes to be 1-byte short
//   eintr=16           force the next 16 sendmsg calls to fail with EINTR
//   all=1              apply drop/dup/trunc to every message type
//
// A per-destination scope `key@node=value` overrides drop/dup/trunc/delay_p
// for frames to that node only, e.g. `drop@2=1` drops everything to node 2.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "fabric/message.hpp"
#include "sys/spinlock.hpp"

namespace pm2::fabric {

struct FaultPlan {
  uint64_t seed = 1;
  double drop = 0.0;
  double dup = 0.0;
  double trunc = 0.0;
  double delay_p = 0.0;
  uint64_t delay_ns = 0;
  double flap_p = 0.0;
  uint64_t flap_ns = 5'000'000;  // 5 ms
  uint64_t short_writes = 0;
  uint64_t eintr = 0;
  bool all_types = false;
  std::vector<std::pair<NodeId, NodeId>> partitions;  // one-way src -> dst
  // Per-destination overrides (key@node=value).
  std::unordered_map<NodeId, double> drop_per_peer;
  std::unordered_map<NodeId, double> dup_per_peer;
  std::unordered_map<NodeId, double> trunc_per_peer;
  std::unordered_map<NodeId, double> delay_p_per_peer;

  /// Does this plan inject anything at all?  An inactive plan makes
  /// FaultFabric a pure pass-through.
  bool active() const;

  /// Parse the grammar above; PM2_CHECK-fails on malformed input (a chaos
  /// run with a silently-ignored plan is worse than a loud one).
  static FaultPlan parse(const std::string& spec);
};

/// Injection counters.  Every mutated frame increments exactly one of the
/// first six; `short_writes`/`eintr` count consumed forced-I/O budget.
struct FaultStats {
  uint64_t dropped = 0;
  uint64_t delayed = 0;
  uint64_t duplicated = 0;
  uint64_t truncated = 0;
  uint64_t partitioned = 0;
  uint64_t flapped = 0;
  uint64_t short_writes = 0;
  uint64_t eintr = 0;
  uint64_t total() const {
    return dropped + delayed + duplicated + truncated + partitioned +
           flapped + short_writes + eintr;
  }
};

class FaultFabric : public Fabric {
 public:
  FaultFabric(std::unique_ptr<Fabric> inner, FaultPlan plan);
  ~FaultFabric() override;

  NodeId node_id() const override { return inner_->node_id(); }
  NodeId n_nodes() const override { return inner_->n_nodes(); }
  void send(Message msg) override;
  void set_teardown(bool v) override { inner_->set_teardown(v); }
  /// Placement is a receive-side concern of the inner transport; injected
  /// faults act on outgoing frames only.
  void set_placer(uint16_t type, Placer* placer) override {
    inner_->set_placer(type, placer);
  }
  std::optional<Message> try_recv() override;
  std::optional<Message> recv_until(uint64_t deadline_ns) override;
  void wake() override { inner_->wake(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }
  uint64_t payload_copy_bytes() const override {
    return inner_->payload_copy_bytes();
  }
  uint64_t recv_copy_bytes() const override {
    return inner_->recv_copy_bytes();
  }

  const FaultPlan& plan() const { return plan_; }
  FaultStats stats() const;
  Fabric& inner() { return *inner_; }

  /// Release every held frame immediately, ignoring release times.  The
  /// comm daemon calls this when it exits: a session-closing frame (the
  /// halt broadcast, a final reply) that drew a delay must still reach the
  /// wire — after the daemon's last lap nobody would ever flush it, and
  /// the peers would wait forever.
  void drain_delayed();

 private:
  struct Delayed {
    uint64_t release_ns;
    Message msg;
  };

  // What to do with one outgoing frame (decided under lock, acted outside).
  enum class Action { kForward, kDrop, kDuplicate, kTruncate, kDelay };

  Action decide(const Message& msg, uint64_t now, uint64_t* release_ns,
                uint64_t* trunc_len) PM2_REQUIRES(lock_);
  bool mutable_type(uint16_t type) const;
  /// Pop frames whose release time has passed (under lock) and send them
  /// through the inner transport (outside the lock).
  void flush_due(uint64_t now);
  uint64_t next_release() const;

  std::unique_ptr<Fabric> inner_;
  const FaultPlan plan_;
  const bool pass_through_;  // inactive plan: skip all bookkeeping

  mutable sys::SpinLock lock_{sys::LockRank::kLeaf};
  pm2::Rng rng_ PM2_GUARDED_BY(lock_);
  std::deque<Delayed> delayed_ PM2_GUARDED_BY(lock_);
  std::vector<uint64_t> flap_until_ PM2_GUARDED_BY(lock_);  // per peer, ns
  FaultStats stats_ PM2_GUARDED_BY(lock_);
};

/// Wrap `inner` when the plan is active; otherwise return it unchanged
/// (zero overhead for the fault-free path).
std::unique_ptr<Fabric> wrap_with_faults(std::unique_ptr<Fabric> inner,
                                         const FaultPlan& plan);

}  // namespace pm2::fabric
