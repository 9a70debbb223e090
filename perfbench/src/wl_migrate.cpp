// migrate_tour: a closed loop of touring threads over 3 in-process nodes on
// the socket fabric (real UNIX-domain sockets, so the writev gather and
// scatter-read path runs).
//
// Each thread carries a seeded iso-heap of sparse blocks (16 B up to
// kMaxBlockBytes; thread 0 tours with an empty heap).
// At every hop it moves to a seeded next node, either by self-migration
// (pm2_migrate) or, for a seeded share of hops, by asking its node's
// controller thread to migrate it preemptively (migrate_async, the freeze
// path).  On arrival it checks its node and every block's checksum, then
// frees one seeded block and allocates and writes a new one.
//
// A hop is timed from the migrate call on the source to the thread running
// on the destination.  The traced run adds migration hooks (pre: on the
// source before packing; post: on the destination after install), which
// split a hop into depart / transit / resume, plus the migrate_async ack.
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>

#include "common.hpp"
#include "common/random.hpp"
#include "marcel/sync.hpp"
#include "pm2/api.hpp"

namespace pb {
namespace {

constexpr uint32_t kNodes = 3;
constexpr uint32_t kThreads = 18;
constexpr uint32_t kMaxBlocks = 6;
constexpr double kPreemptShare = 0.25;
constexpr uint32_t kWarmHops = 3;
constexpr size_t kHopCap = 20000;  // per thread per phase
constexpr double kTracedHopsPerSecond = 40;  // per thread, traced phases
constexpr int kSessions = 8;     // untraced sessions per run (see wl_rpc.cpp)
constexpr int kSetupOnly = 6;    // set-up-only sessions before each one
constexpr double kShare = 0.75;  // of the run, over all sessions

struct HopRec {
  uint64_t t_call, t_pre, t_post, t_ret, t_ack;
  uint64_t t_free0, t_free1, t_alloc0, t_alloc1;
  uint32_t live_bytes;
  uint8_t src, dest, preemptive, ok;
};

struct PhaseCfg {
  uint32_t hops;         // hops per thread (0 = until deadline)
  uint64_t deadline_ns;  // set when the gate opens
};

struct Ask {
  uint32_t idx;
  uint32_t hop;
  uint32_t dest;
  bool stop;
};

struct Controller {
  std::mutex mu;
  std::deque<Ask> q;
  pm2::marcel::Semaphore sem{0};
};

// Session state (in-process nodes share it; every field is written before
// the threads that read it are released, or is per-thread).
std::vector<PhaseCfg> g_phases;
std::atomic<uint32_t> g_gate{0};
std::atomic<bool> g_all_done{false};
std::atomic<uint64_t> g_tid[kThreads];
std::atomic<uint64_t> g_pre[kThreads], g_post[kThreads];
std::atomic<bool> g_ask_failed[kThreads];
std::atomic<uint64_t> g_bad{0}, g_mig_failed{0};
std::atomic<bool> g_hooks_on{false};  // traced phase only
std::unique_ptr<HopRec[]> g_recs;  // kThreads * kHopCap
std::atomic<uint32_t> g_nhops[kThreads];
std::unique_ptr<Controller[]> g_ctl;
uint64_t g_seed = 1;

struct Block {
  unsigned char* p;
  uint32_t size;
  uint64_t sum;
};

void new_block(Block& b, uint32_t stratum, pm2::Rng& rng, HopRec* r) {
  b.size = block_size(rng, stratum, kMaxBlocks);
  uint64_t fill = rng.next();
  b.p = nullptr;
  b.sum = 0;
  if (b.size == 0) return;
  uint64_t t0 = now_ns();
  b.p = static_cast<unsigned char*>(pm2::pm2_isomalloc(b.size));
  if (r != nullptr) {
    r->t_alloc0 = t0;
    r->t_alloc1 = now_ns();
  }
  fill_seeded(b.p, b.size, fill);
  b.sum = checksum(b.p, b.size);
}

void free_block(Block& b, HopRec* r) {
  if (b.p == nullptr) return;
  uint64_t t0 = now_ns();
  pm2::pm2_isofree(b.p);
  if (r != nullptr) {
    r->t_free0 = t0;
    r->t_free1 = now_ns();
  }
  b.p = nullptr;
}

struct TourArg {
  uint32_t idx;
};

void tour_thread(void* arg) {
  TourArg a;
  std::memcpy(&a, arg, sizeof(a));
  pm2::pm2_isofree(arg);
  const uint32_t me = a.idx;
  g_tid[me] = pm2::marcel_self()->id;
  pm2::Rng rng(g_seed * 1000003u + me);
  Block b[kMaxBlocks] = {};
  // Thread 0 tours with an empty heap: the paper's null-payload case.
  const uint32_t nb = me == 0 ? 0 : kMaxBlocks;
  for (uint32_t i = 0; i < nb; ++i) new_block(b[i], i, rng, nullptr);

  for (uint32_t ph = 1; ph <= g_phases.size(); ++ph) {
    while (g_gate.load() < ph) pm2::pm2_yield();
    const PhaseCfg pc = g_phases[ph - 1];
    HopRec* recs = &g_recs[static_cast<size_t>(me) * kHopCap];
    for (uint32_t h = 0; h < kHopCap; ++h) {
      if (pc.hops != 0 ? h >= pc.hops : now_ns() >= pc.deadline_ns) break;
      const uint32_t cur = pm2::pm2_self();
      const uint32_t dest =
          (cur + 1 + static_cast<uint32_t>(rng.next_below(kNodes - 1))) % kNodes;
      const bool preempt = rng.next_double() < kPreemptShare;
      HopRec& r = recs[h];
      r = HopRec{};
      r.src = static_cast<uint8_t>(cur);
      r.dest = static_cast<uint8_t>(dest);
      r.preemptive = preempt;
      for (uint32_t i = 0; i < nb; ++i) r.live_bytes += b[i].size;
      if (preempt) {
        g_ask_failed[me] = false;
        Controller& c = g_ctl[cur];
        {
          std::lock_guard<std::mutex> g(c.mu);
          c.q.push_back(Ask{me, h, dest, false});
        }
        c.sem.release();
        while (pm2::pm2_self() == cur && !g_ask_failed[me].load())
          pm2::pm2_yield();
      } else {
        r.t_call = now_ns();
        pm2::pm2_migrate(pm2::marcel_self(), dest);
      }
      r.t_ret = now_ns();
      r.t_pre = g_pre[me].load();
      r.t_post = g_post[me].load();
      bool ok = pm2::pm2_self() == dest;
      for (uint32_t i = 0; i < nb; ++i)
        if (b[i].p != nullptr) ok &= checksum(b[i].p, b[i].size) == b[i].sum;
      r.ok = ok;
      if (!ok) g_bad.fetch_add(1);
      if (nb > 0) {
        const uint32_t j = static_cast<uint32_t>(rng.next_below(nb));
        free_block(b[j], &r);
        new_block(b[j], j, rng, &r);
      }
      g_nhops[me] = h + 1;
    }
    pm2::pm2_signal(0);
  }
  for (uint32_t i = 0; i < nb; ++i) free_block(b[i], nullptr);
}

void controller_body(pm2::Runtime& rt) {
  Controller& c = g_ctl[rt.self()];
  while (true) {
    c.sem.acquire();
    Ask a;
    {
      std::lock_guard<std::mutex> g(c.mu);
      a = c.q.front();
      c.q.pop_front();
    }
    if (a.stop) return;
    HopRec& r = g_recs[static_cast<size_t>(a.idx) * kHopCap + a.hop];
    r.t_call = now_ns();
    auto f = rt.migrate_async(g_tid[a.idx].load(), a.dest);
    f.wait();
    r.t_ack = now_ns();
    if (f.failed()) {
      g_mig_failed.fetch_add(1);
      g_ask_failed[a.idx] = true;
    }
  }
}

int thread_index(uint64_t id) {
  for (uint32_t i = 0; i < kThreads; ++i)
    if (g_tid[i].load(std::memory_order_relaxed) == id) return static_cast<int>(i);
  return -1;
}

struct PhaseOut {
  uint64_t start_ns = 0, end_ns = 0;
  Counters counters;
  std::vector<uint64_t> cpu_ns;
  double session_mem_mb = 0;  // after the session's warm-up
  std::string summary;        // summary_json of the phase's hops
  double p50_us = 0;
  double live_bytes = 0;      // summed over the phase's hops
  std::vector<HopRec> hops;   // traced phase only
};

/// Visit the hop records every thread wrote in the phase just ended.
template <typename F>
void for_each_hop(F&& fn) {
  for (uint32_t i = 0; i < kThreads; ++i) {
    const HopRec* r = &g_recs[static_cast<size_t>(i) * kHopCap];
    for (uint32_t h = 0; h < g_nhops[i].load(); ++h) fn(r[h]);
  }
}

/// Summarize the phase's hop records into p.summary / p.p50_us.
void summarize(PhaseOut& p, uint64_t* attempted, uint64_t* failed) {
  std::vector<double> lat;
  std::vector<std::pair<uint64_t, double>> timed;
  std::vector<uint64_t> done;
  uint64_t ok = 0, bad = 0, n = 0;
  double live = 0;
  for_each_hop([&](const HopRec& r) {
    ++n;
    if (r.ok) {
      ++ok;
      double us = static_cast<double>(r.t_ret - r.t_call) / 1e3;
      lat.push_back(us);
      timed.emplace_back(r.t_call, us);
      done.push_back(r.t_ret);
    } else {
      ++bad;
    }
    live += r.live_bytes;
  });
  *attempted += n;
  *failed += bad;
  p.live_bytes = live;
  p.p50_us = quantile(lat, 0.5);
  std::vector<double> w50, w99;
  windowed(timed, p.start_ns, &w50, &w99);
  double secs = static_cast<double>(p.end_ns - p.start_ns) / 1e9;
  Json j;
  j.integer("hops", n)
      .integer("verified", ok)
      .integer("failed", bad)
      .num("seconds", secs)
      .num("hops_s", static_cast<double>(ok) / secs)
      .raw("win_ops_s", json_array(window_rates(done, p.start_ns, p.end_ns)))
      .num("p50_us", p.p50_us)
      .num("p99_us", quantile(lat, 0.99))
      .num("p999_us", quantile(lat, 0.999))
      .num("live_bytes_per_hop", n == 0 ? 0 : live / static_cast<double>(n))
      .num("cpu_us_per_op", static_cast<double>(sum_nodes(p.counters, "cpu_ns")) /
                                1e3 / std::max<double>(ok, 1))
      .num("session_mem_mb", p.session_mem_mb)
      .raw("win_p50_us", json_array(w50))
      .raw("win_p99_us", json_array(w99));
  p.summary = j.render();
}

void add_hop_spans(SpanLog& log, const std::vector<HopRec>& hops) {
  uint64_t op = 0;
  for (const HopRec& r : hops) {
    ++op;
    if (!r.ok) continue;
    uint64_t root = log.add("mig.hop", r.t_call, r.t_ret, op, 0, r.src);
    log.add("pm2.migrate.depart", r.t_call, r.t_pre, op, root, r.src);
    log.add("pm2.migrate.transit", r.t_pre, r.t_post, op, root, r.dest);
    log.add("marcel.resume", r.t_post, r.t_ret, op, root, r.dest);
    if (r.preemptive) log.add("pm2.migrate.ack", r.t_post, r.t_ack, op, 0, r.src);
    if (r.t_free1 != 0)
      log.add("isomalloc.free", r.t_free0, r.t_free1, op, 0, r.dest);
    if (r.t_alloc1 != 0)
      log.add("isomalloc.alloc", r.t_alloc0, r.t_alloc1, op, 0, r.dest);
  }
}

}  // namespace

int run_migrate_tour(const Options& o) {
  g_seed = o.seed;
  g_recs.reset(new HopRec[static_cast<size_t>(kThreads) * kHopCap]());
  SessionConfig sc;
  sc.nodes = kNodes;
  sc.socket_fabric = true;
  sc.socket_dir = o.run_dir + "/sock";
  sc.workers.assign(kNodes, 1);
  sc.cpus = assign_cpus(sc.workers);
  sc.keep_cpus_busy = true;

  std::vector<double> setup_s;
  std::vector<PhaseOut> outs;
  uint64_t attempted = 0, failed = 0;
  auto session = [&](bool setup_only) {
    // Phase 1 is the warm-up; measured phases follow.
    g_phases.assign(1, PhaseCfg{kWarmHops, 0});
    if (!o.trace && !setup_only) g_phases.push_back(PhaseCfg{0, 0});
    const uint32_t traced_hops =
        static_cast<uint32_t>(kTracedHopsPerSecond * o.seconds * 0.4);
    if (o.trace) {
      g_phases.push_back(PhaseCfg{traced_hops, 0});  // untraced reference
      g_phases.push_back(PhaseCfg{traced_hops, 0});  // traced
    }
    g_gate = 0;
    g_all_done = false;
    g_ctl.reset(new Controller[kNodes]);
    for (uint32_t i = 0; i < kThreads; ++i) {
      g_tid[i] = 0;
      g_pre[i] = 0;
      g_post[i] = 0;
    }
    run_session(
        sc,
        [&](pm2::Runtime& rt) {
          if (!o.trace) return;
          rt.on_migration(
              [](pm2::marcel::Thread* t) {
                int i = g_hooks_on.load() ? thread_index(t->id) : -1;
                if (i >= 0) g_pre[i] = now_ns();
              },
              [](pm2::marcel::Thread* t) {
                int i = g_hooks_on.load() ? thread_index(t->id) : -1;
                if (i >= 0) g_post[i] = now_ns();
              });
        },
        [&](pm2::Runtime& rt) {
          pm2::marcel::ThreadId ctl =
              rt.spawn_local([&rt] { controller_body(rt); }, "controller");
          for (uint32_t i = rt.self(); i < kThreads; i += kNodes) {
            TourArg a{i};
            rt.spawn_copy(&tour_thread, &a, sizeof(a), "tour");
          }
          if (rt.self() == 0) {
            // Memory is sampled after warm-up, not at the end of a measured
            // phase: in-process nodes never decommit iso slots
            // (AreaConfig::skip_decommit), so during a phase it grows with
            // the number of hops and a faster runtime would look bigger.
            double warm_mem_mb = 0;
            for (uint32_t ph = 1; ph <= g_phases.size(); ++ph) {
              PhaseOut out;
              for (uint32_t i = 0; i < kThreads; ++i) g_nhops[i] = 0;
              out.counters = snapshot(g_nodes);
              out.cpu_ns = node_cpu_ns();
              out.start_ns = now_ns();
              g_phases[ph - 1].deadline_ns =
                  out.start_ns + static_cast<uint64_t>(o.seconds * kShare / kSessions * 1e9);
              g_hooks_on = o.trace && ph == 3;
              g_gate = ph;
              pm2::pm2_wait_signals(kThreads);
              out.end_ns = now_ns();
              if (ph == 1) {
                setup_s.push_back(session_seconds());
                warm_mem_mb = session_mem_mb();
              }
              out.session_mem_mb = warm_mem_mb;
              std::vector<uint64_t> cpu = node_cpu_ns();
              out.counters = diff(snapshot(g_nodes), out.counters);
              for (size_t n = 0; n < cpu.size(); ++n)
                out.counters["n" + std::to_string(n) + ".cpu_ns"] =
                    cpu[n] - out.cpu_ns[n];
              summarize(out, &attempted, &failed);
              if (g_hooks_on.load())
                for_each_hop([&](const HopRec& r) { out.hops.push_back(r); });
              g_hooks_on = false;
              if (ph != 1) outs.push_back(std::move(out));
            }
            g_all_done = true;
          }
          while (!g_all_done.load()) pm2::pm2_sleep_us(2000);
          Controller& c = g_ctl[rt.self()];
          {
            std::lock_guard<std::mutex> g(c.mu);
            c.q.push_back(Ask{0, 0, 0, true});
          }
          c.sem.release();
          rt.join(ctl);
        });
  };
  if (o.trace) {
    session(false);
  } else {
    for (int k = 0; k < kSessions; ++k) {
      for (int j = 0; j < kSetupOnly; ++j) session(true);
      session(false);
    }
  }

  const uint64_t bad = g_bad.load();
  if (bad > 0)
    report_failure(o, std::to_string(bad) +
                          " hops arrived on the wrong node or with a corrupt heap");
  if (g_mig_failed.load() > 0)
    report_failure(o, std::to_string(g_mig_failed.load()) +
                          " migrate_async calls failed");
  std::string results = "[";
  if (!o.trace) {
    for (size_t k = 0; k < outs.size(); ++k)
      results += (k ? ", " : "") + outs[k].summary;
  } else {
    const PhaseOut& u = outs.at(0);
    const PhaseOut& t = outs.at(1);
    SpanLog log(t.hops.size() * 7 + 1024);
    add_hop_spans(log, t.hops);
    log.counters("phase", t.end_ns, t.counters);
    Json other;
    other.str("workload", o.workload)
        .integer("seed", o.seed)
        .integer("ops", t.hops.size())
        .num("untraced_p50_us", u.p50_us)
        .num("live_bytes", t.live_bytes)
        .integer("spans_dropped", log.dropped())
        .raw("traced", t.summary);
    log.write_chrome(o.trace_file, other.render());
    results += u.summary;
  }
  results += "]";
  bool correct = bad == 0 && g_mig_failed.load() == 0;
  Json j;
  j.str("workload", o.workload)
      .integer("seed", o.seed)
      .boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("machine", machine_json(""))
      .str("fabric", "socket (in-process UDS nodes)")
      .raw("workers", "[1, 1, 1]")
      .raw("cpus", cpus_json(sc.cpus))
      .boolean("cpus_kept_busy", sc.keep_cpus_busy)
      .raw("setup_s", json_array(setup_s))
      .raw("sessions", results);
  write_file(o.out, j.render() + "\n");
  g_recs.reset();
  g_ctl.reset();
  return correct ? 0 : 1;
}

}  // namespace pb
