#include "pm2/load_balancer.hpp"

#include <algorithm>
#include <vector>

#include "common/time.hpp"
#include "marcel/scheduler.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

namespace {

void balancer_loop(Runtime& rt, LoadBalancerConfig cfg,
                   LoadBalancerStatus& status) {
  marcel::Scheduler& sched = rt.sched();
  // One iteration is one decision round; the increment counts it done.
  for (; !rt.halting(); status.rounds.fetch_add(1, std::memory_order_release)) {
    sched.sleep_us(cfg.period_us);
    // Halt may have arrived during the sleep: do not gossip to nodes that
    // are already draining (their processes may exit at any moment).
    if (rt.halting()) break;

    rt.broadcast_load();
    const auto& table = rt.load_table();
    uint64_t my = table[rt.self()];

    // Pick the least loaded node as the victim.  Skip peers the failure
    // detector has declared down: their load-table entry is stale (a dead
    // node gossips nothing, so it looks idle forever) and a migration
    // there would only burn its deadline before failing.
    uint32_t victim = rt.self();
    uint64_t victim_load = my;
    for (uint32_t n = 0; n < rt.n_nodes(); ++n) {
      if (n != rt.self() && rt.peer_down(n)) continue;
      if (table[n] < victim_load) {
        victim = n;
        victim_load = table[n];
      }
    }
    if (victim == rt.self() || my < victim_load + cfg.imbalance_threshold)
      continue;

    // Collect migratable candidates: READY, not pinned, not the balancer.
    std::vector<marcel::ThreadId> candidates;
    sched.for_each([&](marcel::Thread* t) {
      if (t->state == marcel::ThreadState::kReady && !t->is_pinned())
        candidates.push_back(t->id);
    });
    // Ship at most half the gap: moving k threads narrows it by 2k, and an
    // overshoot makes the victim ship them straight back, round after round.
    const uint64_t cap = std::min<uint64_t>(cfg.max_migrations_per_round,
                                            (my - victim_load) / 2);
    uint32_t shipped = 0;
    for (marcel::ThreadId id : candidates) {
      if (shipped >= cap) break;
      if (rt.migrate(id, victim)) ++shipped;
    }
    if (shipped > 0) {
      // Optimistically account for the transfer so the next round does not
      // re-ship before fresh gossip arrives.
      rt.broadcast_load();
    }
  }
}

}  // namespace

std::shared_ptr<const LoadBalancerStatus> LoadBalancer::start(
    Runtime& rt, const LoadBalancerConfig& config) {
  // Pinned thread: participates in scheduling but never migrates; exits by
  // itself when the session halts.
  Runtime* rtp = &rt;
  LoadBalancerConfig cfg = config;
  auto status = std::make_shared<LoadBalancerStatus>();
  rt.spawn_local([rtp, cfg, status] { balancer_loop(*rtp, cfg, *status); },
                 "load-balancer");
  return status;
}

}  // namespace pm2
