#include "pm2/audit.hpp"

#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "isomalloc/heap.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

namespace {

struct HeldRun {
  uint64_t thread;
  uint64_t first;
  uint32_t count;
  uint8_t demoted;  // run's bytes live in the node's slot store file
};

/// Inventory of slot runs held by the threads registered on one node —
/// plus the invocation pool's parked service threads, which sit off the
/// scheduler registry but still own their stack run.  Demoted threads are
/// walked like any other (their slot headers stay resident): exactly-one-
/// owner must keep covering runs whose bytes live in the store file.
std::vector<HeldRun> local_inventory(Runtime& rt) {
  std::vector<HeldRun> runs;
  auto add = [&](marcel::Thread* t) {
    const uint8_t demoted = rt.thread_demoted(t) ? 1 : 0;
    iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
      runs.push_back(HeldRun{t->id, rt.area().slot_of(s), s->nslots, demoted});
    });
  };
  rt.sched().for_each(add);
  rt.for_each_parked(add);
  return runs;
}

void pack_inventory(ByteWriter& w, const std::vector<HeldRun>& runs) {
  w.put<uint32_t>(static_cast<uint32_t>(runs.size()));
  for (const HeldRun& r : runs) {
    w.put<uint64_t>(r.thread);
    w.put<uint64_t>(r.first);
    w.put<uint32_t>(r.count);
    w.put<uint8_t>(r.demoted);
  }
}

std::vector<HeldRun> unpack_inventory(ByteReader& r) {
  auto n = r.get<uint32_t>();
  std::vector<HeldRun> runs;
  runs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    HeldRun run;
    run.thread = r.get<uint64_t>();
    run.first = r.get<uint64_t>();
    run.count = r.get<uint32_t>();
    run.demoted = r.get<uint8_t>();
    runs.push_back(run);
  }
  return runs;
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

AuditReport audit_session(Runtime& rt) {
  PM2_CHECK(marcel::Scheduler::self() != nullptr)
      << "audit outside a PM2 thread";
  AuditReport report;
  report.total_slots = rt.area().n_slots();

  // Same discipline as a negotiation: exclusive ownership of the bitmaps
  // for the duration (gather freezes peers; the final scatter unfreezes).
  rt.nego_mutex_.lock();
  rt.slot_lock_.lock();
  ++rt.bitmap_freeze_;
  rt.slot_lock_.unlock();
  rt.lock_system();

  std::vector<Bitmap> bitmaps = rt.gather_all_bitmaps();

  // Collect inventories: remote via kAuditReq, local inline.  Walking the
  // local registry needs the other workers gated (their threads' slot
  // lists mutate freely otherwise).
  rt.sched().pause_workers();
  std::vector<HeldRun> held = local_inventory(rt);
  rt.sched().resume_workers();
  for (uint32_t node = 0; node < rt.n_nodes(); ++node) {
    if (node == rt.self()) continue;
    std::vector<uint8_t> resp =
        rt.await_control_reply(node, kAuditReq, "audit");
    ByteReader r(resp);
    for (HeldRun& run : unpack_inventory(r)) held.push_back(run);
  }

  // Release the peers (bitmaps unchanged) and the critical section before
  // the pure checking below.
  rt.scatter_bitmaps(bitmaps);  // by value copy retained for checks
  rt.unlock_system();
  rt.slot_lock_.lock();
  --rt.bitmap_freeze_;
  rt.slot_lock_.unlock();
  rt.apply_deferred_releases();
  rt.nego_mutex_.unlock();

  // ---- pure checks ----------------------------------------------------------
  auto violate = [&](const std::string& what) {
    report.violations.push_back(what);
  };

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
  for (const HeldRun& r : held) {
    auto ins = threads.emplace(r.thread, r.demoted != 0);
    // A thread's runs are either all resident or all demoted (demotion is
    // whole-thread): a mix means a torn demotion record.
    if (!ins.second && ins.first->second != (r.demoted != 0))
      violate("thread " + std::to_string(r.thread) +
              " mixes demoted and resident runs");
    if (r.demoted != 0) {
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
  report.threads_seen = threads.size();
  if (report.node_owned + report.thread_owned != report.total_slots)
    violate("coverage leak: " +
            std::to_string(report.node_owned + report.thread_owned) + " of " +
            std::to_string(report.total_slots) + " slots accounted for");

  report.ok = report.violations.empty();
  return report;
}

}  // namespace pm2
