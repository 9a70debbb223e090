#include "pm2/audit.hpp"

#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "isomalloc/heap.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

namespace {

/// This node's inventory; the caller has the other workers paused, so
/// every registered thread's slot list and the deferred list hold still.
/// Demoted threads are walked like any other (their slot headers stay
/// resident): exactly-one-owner must keep covering runs whose bytes live in
/// the store file.  Parked pool shells are never demoted.
NodeInventory local_inventory(Runtime& rt) {
  NodeInventory inv;
  auto add = [&](marcel::Thread* t, bool demoted) {
    iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
      inv.held.push_back({t->id, rt.area().slot_of(s), s->nslots, demoted});
    });
  };
  rt.sched().for_each(
      [&](marcel::Thread* t) { add(t, rt.residency().demoted(t)); });
  rt.pool().for_each([&](marcel::Thread* t) { add(t, false); });
  inv.deferred = rt.negotiator().deferred_runs();
  return inv;
}

void pack_inventory(ByteWriter& w, const NodeInventory& inv) {
  w.put<uint32_t>(static_cast<uint32_t>(inv.held.size()));
  for (const NodeInventory::Held& h : inv.held) {
    w.put<uint64_t>(h.thread);
    w.put<uint64_t>(h.first);
    w.put<uint32_t>(h.count);
    w.put<uint8_t>(h.demoted ? 1 : 0);
  }
  w.put<uint32_t>(static_cast<uint32_t>(inv.deferred.size()));
  for (auto [first, count] : inv.deferred) {
    w.put<uint64_t>(first);
    w.put<uint64_t>(count);
  }
}

NodeInventory unpack_inventory(ByteReader& r) {
  NodeInventory inv;
  inv.held.resize(r.get<uint32_t>());
  for (NodeInventory::Held& h : inv.held) {
    h.thread = r.get<uint64_t>();
    h.first = r.get<uint64_t>();
    h.count = r.get<uint32_t>();
    h.demoted = r.get<uint8_t>() != 0;
  }
  inv.deferred.resize(r.get<uint32_t>());
  for (auto& [first, count] : inv.deferred) {
    first = r.get<uint64_t>();
    count = r.get<uint64_t>();
  }
  return inv;
}

}  // namespace

void Runtime::handle_audit_req(fabric::Message& msg) {
  // Served by the comm daemon.  At workers == 1 no other thread of this
  // node runs while the daemon does; at workers > 1 the helper workers are
  // gated at their pause point first, so every registered thread's slot
  // list is quiescent for the walk either way.
  ByteWriter w;
  sched_.pause_workers();
  pack_inventory(w, local_inventory(*this));
  sched_.resume_workers();
  fabric::Message resp;
  resp.type = kAuditResp;
  resp.dst = msg.src;
  resp.corr = msg.corr;
  resp.payload = w.take();
  fabric_->send(std::move(resp));
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "VIOLATIONS") << ": slots=" << total_slots
     << " node_owned=" << node_owned << " thread_owned=" << thread_owned
     << " threads=" << threads_seen;
  if (threads_demoted != 0) {
    os << " demoted=" << threads_demoted << " (slots=" << demoted_slots
       << ")";
  }
  for (const auto& v : violations) os << "\n  ! " << v;
  return os.str();
}

AuditReport check_ownership(std::vector<Bitmap> bitmaps,
                            const std::vector<NodeInventory>& inventories) {
  PM2_CHECK(!bitmaps.empty() && inventories.size() == bitmaps.size());
  AuditReport report;
  report.total_slots = bitmaps[0].size();
  auto violate = [&](const std::string& what) {
    report.violations.push_back(what);
  };

  // 0. A deferred release is its node's: it joins that node's bitmap,
  //    unless a bitmap already holds the slot (a double release).
  for (size_t i = 0; i < inventories.size(); ++i) {
    for (auto [first, count] : inventories[i].deferred) {
      for (size_t s = first; s < first + count; ++s) {
        for (size_t j = 0; j < bitmaps.size(); ++j) {
          if (bitmaps[j].test(s))
            violate("slot " + std::to_string(s) + " released on node " +
                    std::to_string(i) + " while owned by node " +
                    std::to_string(j));
        }
        bitmaps[i].set(s);
      }
    }
  }

  // 1. bitmaps pairwise disjoint.
  for (size_t i = 0; i < bitmaps.size(); ++i) {
    report.node_owned += bitmaps[i].count();
    for (size_t j = i + 1; j < bitmaps.size(); ++j) {
      if (bitmaps[i].intersects(bitmaps[j]))
        violate("bitmaps of nodes " + std::to_string(i) + " and " +
                std::to_string(j) + " overlap");
    }
  }

  // 2. thread runs vs bitmaps and vs each other; 3. coverage.
  Bitmap global = bitmaps[0];
  for (size_t i = 1; i < bitmaps.size(); ++i) global.or_with(bitmaps[i]);
  std::map<uint64_t, bool> threads;
  Bitmap held_map(report.total_slots);
  for (const NodeInventory& inv : inventories) {
    for (const NodeInventory::Held& r : inv.held) {
      auto ins = threads.emplace(r.thread, r.demoted);
      // A thread's runs are either all resident or all demoted (demotion
      // is whole-thread): a mix means a torn demotion record.
      if (!ins.second && ins.first->second != r.demoted)
        violate("thread " + std::to_string(r.thread) +
                " mixes demoted and resident runs");
      if (r.demoted) {
        report.demoted_slots += r.count;
        if (ins.second) ++report.threads_demoted;
      }
      report.thread_owned += r.count;
      for (uint64_t s = r.first; s < r.first + r.count; ++s) {
        if (global.test(s))
          violate("slot " + std::to_string(s) + " owned by both thread " +
                  std::to_string(r.thread) + " and a node bitmap");
        if (held_map.test(s))
          violate("slot " + std::to_string(s) + " held by two threads");
        held_map.set(s);
      }
    }
  }
  report.threads_seen = threads.size();
  if (report.node_owned + report.thread_owned != report.total_slots)
    violate("coverage leak: " +
            std::to_string(report.node_owned + report.thread_owned) + " of " +
            std::to_string(report.total_slots) + " slots accounted for");

  report.ok = report.violations.empty();
  return report;
}

AuditReport audit_session(Runtime& rt) {
  // Same discipline as a negotiation: exclusive ownership of the bitmaps
  // for the duration (gather freezes peers; the scatter, unchanged,
  // unfreezes them).  The checks run after the critical section.
  std::vector<Bitmap> bitmaps;
  std::vector<NodeInventory> inventories(rt.n_nodes());
  rt.negotiator().with_system_bitmaps([&](std::vector<Bitmap>& gathered) {
    bitmaps = gathered;
    // Walking the local registry needs the other workers gated (their
    // threads' slot lists mutate freely otherwise).
    rt.sched().pause_workers();
    inventories[rt.self()] = local_inventory(rt);
    rt.sched().resume_workers();
    for (uint32_t node = 0; node < rt.n_nodes(); ++node) {
      if (node == rt.self()) continue;
      std::vector<uint8_t> resp =
          rt.negotiator().await_reply(node, kAuditReq, "audit");
      ByteReader r(resp);
      inventories[node] = unpack_inventory(r);
    }
  });
  return check_ownership(std::move(bitmaps), inventories);
}

}  // namespace pm2
