#include "fabric/fault_fabric.hpp"

#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
// The loss-tolerant type filter needs the protocol's discriminators.  The
// fabric otherwise stays protocol-agnostic; this is a read-only peek at the
// enum, not a behavioral dependency.
#include "pm2/protocol.hpp"
#include "sys/socket.hpp"

namespace pm2::fabric {

namespace {

uint64_t parse_duration_ns(const std::string& v, const std::string& spec) {
  size_t pos = 0;
  double num = std::stod(v, &pos);
  std::string unit = v.substr(pos);
  double scale = 1.0;  // bare number = ns
  if (unit == "ns" || unit.empty()) {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    PM2_CHECK(false) << "fault plan: bad duration '" << v << "' in '" << spec
                     << "'";
  }
  return static_cast<uint64_t>(num * scale);
}

double parse_prob(const std::string& v, const std::string& spec) {
  double p = std::stod(v);
  PM2_CHECK(p >= 0.0 && p <= 1.0)
      << "fault plan: probability out of [0,1]: '" << v << "' in '" << spec
      << "'";
  return p;
}

double per_peer_or(const std::unordered_map<NodeId, double>& overrides,
                   NodeId dst, double fallback) {
  auto it = overrides.find(dst);
  return it == overrides.end() ? fallback : it->second;
}

}  // namespace

bool FaultPlan::active() const {
  return drop > 0 || dup > 0 || trunc > 0 ||
         (delay_ns > 0 && (delay_p > 0 || !delay_p_per_peer.empty())) ||
         flap_p > 0 || short_writes > 0 ||
         eintr > 0 || !partitions.empty() || !drop_per_peer.empty() ||
         !dup_per_peer.empty() || !trunc_per_peer.empty();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  size_t start = 0;
  bool delay_p_given = false;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    std::string tok = spec.substr(start, end - start);
    start = end + 1;
    if (tok.empty()) continue;
    size_t eq = tok.find('=');
    PM2_CHECK(eq != std::string::npos)
        << "fault plan: token without '=': '" << tok << "' in '" << spec
        << "'";
    std::string key = tok.substr(0, eq);
    std::string val = tok.substr(eq + 1);
    // Optional per-destination scope: key@node=value.
    bool scoped = false;
    NodeId peer = 0;
    if (size_t at = key.find('@'); at != std::string::npos) {
      scoped = true;
      peer = static_cast<NodeId>(std::stoul(key.substr(at + 1)));
      key = key.substr(0, at);
    }
    if (key == "seed") {
      plan.seed = std::stoull(val);
    } else if (key == "drop") {
      (scoped ? plan.drop_per_peer[peer] : plan.drop) =
          parse_prob(val, spec);
    } else if (key == "dup") {
      (scoped ? plan.dup_per_peer[peer] : plan.dup) = parse_prob(val, spec);
    } else if (key == "trunc") {
      (scoped ? plan.trunc_per_peer[peer] : plan.trunc) =
          parse_prob(val, spec);
    } else if (key == "delay") {
      plan.delay_ns = parse_duration_ns(val, spec);
    } else if (key == "delay_p") {
      (scoped ? plan.delay_p_per_peer[peer] : plan.delay_p) =
          parse_prob(val, spec);
      delay_p_given = true;
    } else if (key == "part") {
      size_t arrow = val.find("->");
      PM2_CHECK(arrow != std::string::npos)
          << "fault plan: part wants 'A->B', got '" << val << "'";
      plan.partitions.emplace_back(
          static_cast<NodeId>(std::stoul(val.substr(0, arrow))),
          static_cast<NodeId>(std::stoul(val.substr(arrow + 2))));
    } else if (key == "flap_p") {
      plan.flap_p = parse_prob(val, spec);
    } else if (key == "flap") {
      plan.flap_ns = parse_duration_ns(val, spec);
    } else if (key == "shortw") {
      plan.short_writes = std::stoull(val);
    } else if (key == "eintr") {
      plan.eintr = std::stoull(val);
    } else if (key == "all") {
      plan.all_types = std::stoull(val) != 0;
    } else {
      PM2_CHECK(false) << "fault plan: unknown key '" << key << "' in '"
                       << spec << "'";
    }
  }
  // A delay without an explicit probability means "delay every frame".
  if (plan.delay_ns > 0 && !delay_p_given && plan.delay_p_per_peer.empty())
    plan.delay_p = 1.0;
  return plan;
}

FaultFabric::FaultFabric(std::unique_ptr<Fabric> inner, FaultPlan plan)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      pass_through_(!plan_.active()),
      rng_(plan_.seed) {
  flap_until_.assign(inner_->n_nodes(), 0);
  // Forced-I/O budgets live in sys:: globals the socket send path consults;
  // they self-consume and are correctness-neutral (a short write or EINTR
  // only exercises the resume path), so leftovers are harmless.
  if (plan_.short_writes > 0) sys::fault_arm_short_writes(plan_.short_writes);
  if (plan_.eintr > 0) sys::fault_arm_eintr(plan_.eintr);
  if (!pass_through_) {
    PM2_INFO << "node " << inner_->node_id() << ": fault injection armed"
             << " (seed " << plan_.seed << ")";
  }
}

FaultFabric::~FaultFabric() = default;

bool FaultFabric::mutable_type(uint16_t type) const {
  if (plan_.all_types) return true;
  // Loss-tolerant traffic only: RPC requests/replies (deadline + late drop
  // turn a loss into kTimeout), load gossip and heartbeats (periodic,
  // self-healing), and user channel messages.  Control frames (halt,
  // barriers, migration payloads and acks, negotiation) ride a reliable
  // stream with no retransmit layer — dropping them wedges the session
  // rather than exercising a recovery path.
  return type == kRpc || type == kReply || type == kReplyError ||
         type == kLoadInfo || type == kHeartbeat || type >= kUserBase;
}

FaultFabric::Action FaultFabric::decide(const Message& msg, uint64_t now,
                                        uint64_t* release_ns,
                                        uint64_t* trunc_len) {
  const NodeId dst = msg.dst;
  for (const auto& [a, b] : plan_.partitions) {
    if (a == inner_->node_id() && b == dst) {
      ++stats_.partitioned;
      return Action::kDrop;
    }
  }
  if (dst < flap_until_.size() && flap_until_[dst] > now) {
    ++stats_.flapped;
    return Action::kDrop;
  }
  if (plan_.flap_p > 0 && rng_.next_bool(plan_.flap_p)) {
    if (dst < flap_until_.size()) flap_until_[dst] = now + plan_.flap_ns;
    ++stats_.flapped;
    return Action::kDrop;
  }
  if (mutable_type(msg.type)) {
    double p = per_peer_or(plan_.drop_per_peer, dst, plan_.drop);
    if (p > 0 && rng_.next_bool(p)) {
      ++stats_.dropped;
      return Action::kDrop;
    }
    p = per_peer_or(plan_.trunc_per_peer, dst, plan_.trunc);
    if (p > 0 && msg.payload_size() > 0 && rng_.next_bool(p)) {
      *trunc_len = rng_.next_below(msg.payload_size());
      ++stats_.truncated;
      return Action::kTruncate;
    }
    p = per_peer_or(plan_.dup_per_peer, dst, plan_.dup);
    if (p > 0 && rng_.next_bool(p)) {
      ++stats_.duplicated;
      return Action::kDuplicate;
    }
  }
  double p = per_peer_or(plan_.delay_p_per_peer, dst, plan_.delay_p);
  if (plan_.delay_ns > 0 && p > 0 && rng_.next_bool(p)) {
    *release_ns = now + 1 + rng_.next_below(plan_.delay_ns);
    ++stats_.delayed;
    return Action::kDelay;
  }
  return Action::kForward;
}

void FaultFabric::send(Message msg) {
  if (pass_through_) {
    inner_->send(std::move(msg));
    return;
  }
  const uint64_t now = now_ns();
  flush_due(now);
  uint64_t release_ns = 0;
  uint64_t trunc_len = 0;
  Action act;
  {
    sys::SpinGuard g(lock_);
    act = decide(msg, now, &release_ns, &trunc_len);
  }
  switch (act) {
    case Action::kForward:
      inner_->send(std::move(msg));
      return;
    case Action::kDrop:
      // Borrowed chain segments only had to stay valid until send()
      // returns — dropping the frame honors that trivially.
      return;
    case Action::kDuplicate: {
      Message dup;
      dup.type = msg.type;
      dup.dst = msg.dst;
      dup.corr = msg.corr;
      dup.payload = msg.flat();  // copies; original stays intact
      inner_->send(std::move(msg));
      inner_->send(std::move(dup));
      return;
    }
    case Action::kTruncate: {
      msg.flat().resize(trunc_len);
      inner_->send(std::move(msg));
      return;
    }
    case Action::kDelay: {
      // The sender's borrowed bytes may vanish once we return: own them.
      msg.flat();
      {
        sys::SpinGuard g(lock_);
        delayed_.push_back(Delayed{release_ns, std::move(msg)});
      }
      // The daemon may be parked with a pre-clamp deadline; have it
      // re-evaluate so the frame is released on time.
      inner_->wake();
      return;
    }
  }
}

void FaultFabric::flush_due(uint64_t now) {
  std::vector<Message> due;
  {
    sys::SpinGuard g(lock_);
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (it->release_ns <= now) {
        due.push_back(std::move(it->msg));
        it = delayed_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Message& m : due) inner_->send(std::move(m));
}

void FaultFabric::drain_delayed() {
  std::deque<Delayed> held;
  {
    sys::SpinGuard g(lock_);
    held.swap(delayed_);
  }
  for (Delayed& d : held) inner_->send(std::move(d.msg));
}

uint64_t FaultFabric::next_release() const {
  sys::SpinGuard g(lock_);
  uint64_t next = UINT64_MAX;
  for (const Delayed& d : delayed_) next = std::min(next, d.release_ns);
  return next;
}

std::optional<Message> FaultFabric::try_recv() {
  if (!pass_through_) flush_due(now_ns());
  return inner_->try_recv();
}

std::optional<Message> FaultFabric::recv_until(uint64_t deadline_ns) {
  if (pass_through_) return inner_->recv_until(deadline_ns);
  flush_due(now_ns());
  if (auto m = inner_->try_recv()) return m;
  // Clamp the park to the earliest delayed release so a held frame goes
  // out on schedule, not when the next unrelated wake happens.
  auto m = inner_->recv_until(std::min(deadline_ns, next_release()));
  flush_due(now_ns());
  if (m) return m;
  return inner_->try_recv();
}

FaultStats FaultFabric::stats() const {
  sys::SpinGuard g(lock_);
  FaultStats s = stats_;
  // Forced-I/O counts are process-wide (the sys:: hooks are consulted by
  // every socket connection in the process).
  s.short_writes = sys::fault_short_writes_fired();
  s.eintr = sys::fault_eintr_fired();
  return s;
}

std::unique_ptr<Fabric> wrap_with_faults(std::unique_ptr<Fabric> inner,
                                         const FaultPlan& plan) {
  if (!plan.active()) return inner;
  return std::make_unique<FaultFabric>(std::move(inner), plan);
}

}  // namespace pm2::fabric
