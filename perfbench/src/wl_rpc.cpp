// rpc_open: an open-loop generator on node 0 issues typed call_async
// requests to node 1 over the in-process hub, with Poisson arrivals.
//
// Three services make the request mix: echo (64 B in, 8 B out), put
// (1-4 KiB in, 8 B out) and get (8 B in, 16 KiB out).  Every reply is
// checked.  Latency runs from the request's *intended* send time to the
// moment the generator sees its future ready, so a stall also charges the
// requests queued behind it.  The generator never blocks: it sends what is
// due, scans its outstanding futures, and yields to its node's comm daemon.
//
// Untraced run: kSessions sessions, each a reference phase at a fixed
// offered rate (latency) and a closed-loop phase (throughput), then, once,
// a fixed ladder of offered rates (sustained rate).  Traced run: the same
// fixed-count schedule at the reference rate twice, untraced then with the
// server's handler stamps on; spans are assembled from the timestamps after
// the phase, so the generator's loop is the same in both.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common.hpp"
#include "common/check.hpp"
#include "common/random.hpp"
#include "madeleine/buffers.hpp"
#include "madeleine/typed.hpp"
#include "pm2/api.hpp"

namespace pb {
namespace {

// --- fixed benchmark parameters -----------------------------------------------
constexpr double kRefRate = 8000;  // requests/s offered in the reference phase
// Untraced runs measure kSessions independent sessions (set-up, warm-up,
// reference phase, closed-loop phase); run.py reports the interquartile
// mean of the per-session values.  On a shared VM one session's latency
// level can sit far from the next one's, so one session is not a sample.
constexpr int kSessions = 16;
constexpr int kSetupOnly = 2;  // set-up-only sessions before each one
constexpr double kRefShare = 0.6;  // of the run, over all sessions
constexpr size_t kWindow = 64;     // closed-loop outstanding requests
constexpr size_t kClosedOps = 40000;
// Offered-rate ladder (requests/s), run once at the end of an untraced run.
constexpr double kLadder[] = {8000, 10400, 13520, 17576, 22849, 29703, 38614};
constexpr double kRungShare = 0.02;  // of the run, per rung
constexpr double kLimitUs = 10000;   // p99 latency limit of a rung
// A request not answered this long after the last send of its phase counts
// as failed.  The runtime's own deadlines stay off (rpc_timeout_ns = 0):
// with them armed, an overloaded rung panics the runtime once a timed-out
// request's reply outlives the 1024-entry tombstone FIFO.
constexpr uint64_t kGiveUpNs = 5'000'000'000ull;
constexpr size_t kMaxTracedOps = 20000;
constexpr uint32_t kBlobBytes = 16 * 1024;

enum Cls : uint8_t { kEcho = 0, kPut = 1, kGet = 2 };
const char* const kClsName[] = {"echo", "put", "get"};

struct Req {
  uint64_t at_ns;  // intended send time, from the phase start
  uint8_t cls;
  uint16_t idx;  // payload index (echo/put) or key (get)
};

struct OpRec {
  uint64_t intended, call_start, call_ret, ready;
  uint64_t h_in, h_out;  // server stamps (traced phases only)
  uint32_t inflight;     // outstanding requests when this one was sent
  uint8_t cls;
  bool ok;
};

// Inputs, generated from the seed before the session starts.
std::vector<std::vector<uint8_t>> g_echo, g_put, g_get;
std::vector<uint64_t> g_echo_sum, g_put_sum, g_get_sum;

// Current phase's records; the server stamps them when g_stamp is set.
OpRec* g_ops = nullptr;
std::atomic<bool> g_stamp{false};

void make_inputs(uint64_t seed) {
  pm2::Rng rng(seed * 0x51ED27u + 11);
  auto gen = [&](std::vector<std::vector<uint8_t>>& v, std::vector<uint64_t>& s,
                 size_t n, size_t lo, size_t hi) {
    v.assign(n, {});
    s.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      v[i].resize(rng.next_range(lo, hi));
      fill_seeded(v[i].data(), v[i].size(), rng.next());
      s[i] = checksum(v[i].data(), v[i].size());
    }
  };
  gen(g_echo, g_echo_sum, 64, 64, 64);
  gen(g_put, g_put_sum, 256, 1024, 4096);
  gen(g_get, g_get_sum, 64, kBlobBytes, kBlobBytes);
}

/// Poisson arrivals at `rate` for `duration_ns` (or exactly `count`
/// requests when count > 0), with the seeded class mix 2:1:1.
std::vector<Req> make_schedule(pm2::Rng& rng, double rate, uint64_t duration_ns,
                               size_t count) {
  std::vector<Req> s;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate * 1e9;
    if (count > 0 ? s.size() >= count : t >= static_cast<double>(duration_ns))
      break;
    uint64_t r = rng.next_below(4);
    uint8_t cls = r < 2 ? kEcho : (r == 2 ? kPut : kGet);
    uint16_t idx = static_cast<uint16_t>(
        rng.next_below(cls == kPut ? g_put.size() : 64));
    s.push_back(Req{static_cast<uint64_t>(t), cls, idx});
  }
  return s;
}

void register_services(pm2::Runtime& rt) {
  // echo and put do the same work on different sizes: hash the payload.
  auto hash = [](pm2::RpcContext&, uint32_t rid, std::vector<uint8_t> p) -> uint64_t {
    bool st = g_stamp.load(std::memory_order_relaxed);
    if (st) g_ops[rid].h_in = now_ns();
    uint64_t h = checksum(p.data(), p.size());
    if (st) g_ops[rid].h_out = now_ns();
    return h;
  };
  rt.service("echo", hash);
  rt.service("put", hash);
  rt.service("get", [](pm2::RpcContext&, uint32_t rid,
                       uint32_t key) -> std::vector<uint8_t> {
    bool st = g_stamp.load(std::memory_order_relaxed);
    if (st) g_ops[rid].h_in = now_ns();
    std::vector<uint8_t> out = g_get[key % g_get.size()];
    if (st) g_ops[rid].h_out = now_ns();
    return out;
  });
}

struct PhaseStats {
  uint64_t sent = 0, completed = 0, failed = 0, wrong = 0;
  std::vector<double> lat_us;   // intended -> ready; failures at the timeout
  std::vector<double> late_us;  // intended -> call start
  double inflight_first = 0, inflight_last = 0;  // mean, first/last quarter
  uint64_t start_ns = 0, end_ns = 0;
  std::vector<double> win_p50, win_p99;  // per kWindowNs of intended time
};

struct Pending {
  uint32_t rid;
  pm2::RpcFuture<uint64_t> f;
  pm2::RpcFuture<std::vector<uint8_t>> g;
};

/// Run one open-loop phase on node 0's main thread.
PhaseStats run_phase(pm2::Runtime& rt, const std::vector<Req>& sched,
                     OpRec* ops, size_t window = 0) {
  PhaseStats st;
  const size_t n = sched.size();
  g_ops = ops;
  std::vector<Pending> pend;
  pend.reserve(256);
  const uint64_t t0 = now_ns() + 200'000;
  const uint64_t give_up = t0 + (n ? sched.back().at_ns : 0) + kGiveUpNs;
  size_t next = 0;
  st.start_ns = t0;
  while (true) {
    uint64_t now = now_ns();
    while (next < n && (window ? pend.size() < window && now >= t0
                               : t0 + sched[next].at_ns <= now)) {
      const Req& q = sched[next];
      OpRec& op = ops[next];
      op = OpRec{};
      op.intended = window ? now : t0 + q.at_ns;
      op.cls = q.cls;
      op.inflight = static_cast<uint32_t>(pend.size());
      Pending p;
      p.rid = static_cast<uint32_t>(next);
      op.call_start = now_ns();
      if (q.cls == kEcho) {
        p.f = rt.call_async<uint64_t>(1, "echo", p.rid, g_echo[q.idx]);
      } else if (q.cls == kPut) {
        p.f = rt.call_async<uint64_t>(1, "put", p.rid, g_put[q.idx]);
      } else {
        p.g = rt.call_async<std::vector<uint8_t>>(1, "get", p.rid,
                                                  static_cast<uint32_t>(q.idx));
      }
      op.call_ret = now_ns();
      pend.push_back(std::move(p));
      ++next;
      now = op.call_ret;
    }
    for (size_t k = 0; k < pend.size();) {
      Pending& p = pend[k];
      bool ready = p.f.valid() ? p.f.ready() : p.g.ready();
      if (!ready) {
        ++k;
        continue;
      }
      OpRec& op = ops[p.rid];
      op.ready = now_ns();
      const Req& q = sched[p.rid];
      if (p.f.valid() ? p.f.failed() : p.g.failed()) {
        op.ok = false;
      } else if (q.cls == kGet) {
        std::vector<uint8_t> v = p.g.take();
        op.ok = v.size() == kBlobBytes &&
                checksum(v.data(), v.size()) == g_get_sum[q.idx];
        if (!op.ok) ++st.wrong;
      } else {
        uint64_t h = p.f.take();
        op.ok = h == (q.cls == kEcho ? g_echo_sum[q.idx] : g_put_sum[q.idx]);
        if (!op.ok) ++st.wrong;
      }
      pend[k] = std::move(pend.back());
      pend.pop_back();
    }
    if (next == n && pend.empty()) break;
    if (now > give_up) {
      for (Pending& p : pend) {
        ops[p.rid].ok = false;
        ops[p.rid].ready = 0;
      }
      break;
    }
    pm2::pm2_yield();
  }
  st.end_ns = now_ns();
  st.sent = n;
  const double timeout_us = static_cast<double>(kGiveUpNs) / 1e3;
  double sum_first = 0, sum_last = 0;
  size_t q4 = std::max<size_t>(n / 4, 1);
  for (size_t i = 0; i < n; ++i) {
    const OpRec& op = ops[i];
    st.late_us.push_back(static_cast<double>(op.call_start - op.intended) / 1e3);
    bool done = op.ok && op.ready != 0;
    if (done) {
      ++st.completed;
      st.lat_us.push_back(static_cast<double>(op.ready - op.intended) / 1e3);
    } else {
      ++st.failed;
      st.lat_us.push_back(timeout_us);
    }
    if (i < q4) sum_first += op.inflight;
    if (i >= n - q4) sum_last += op.inflight;
  }
  std::vector<std::pair<uint64_t, double>> timed;
  for (size_t i = 0; i < n; ++i) timed.emplace_back(ops[i].intended, st.lat_us[i]);
  windowed(std::move(timed), st.start_ns, &st.win_p50, &st.win_p99);
  st.inflight_first = sum_first / static_cast<double>(q4);
  st.inflight_last = sum_last / static_cast<double>(q4);
  return st;
}

/// Closed-loop warm-up: bursts of 64 concurrent calls of each class, so the
/// server's invocation pool and the chunk/future pools are populated.
bool warm_up(pm2::Runtime& rt) {
  bool ok = true;
  for (int round = 0; round < 4; ++round) {
    std::vector<pm2::RpcFuture<uint64_t>> f;
    std::vector<pm2::RpcFuture<std::vector<uint8_t>>> g;
    for (uint32_t i = 0; i < 64; ++i) {
      f.push_back(rt.call_async<uint64_t>(1, "echo", uint32_t{0}, g_echo[i % 64]));
      f.push_back(rt.call_async<uint64_t>(1, "put", uint32_t{0}, g_put[i]));
      g.push_back(rt.call_async<std::vector<uint8_t>>(1, "get", uint32_t{0}, i));
    }
    for (size_t i = 0; i < f.size(); ++i) {
      uint64_t want = i % 2 == 0 ? g_echo_sum[(i / 2) % 64] : g_put_sum[i / 2];
      ok &= f[i].take() == want;
    }
    for (uint32_t i = 0; i < g.size(); ++i) {
      std::vector<uint8_t> v = g[i].take();
      ok &= checksum(v.data(), v.size()) == g_get_sum[i];
    }
  }
  return ok;
}

std::string phase_json(const PhaseStats& s, double rate) {
  Json j;
  j.num("rate", rate)
      .integer("sent", s.sent)
      .integer("completed", s.completed)
      .integer("failed", s.failed)
      .num("p50_us", quantile(s.lat_us, 0.50))
      .num("p90_us", quantile(s.lat_us, 0.90))
      .num("p99_us", quantile(s.lat_us, 0.99))
      .num("p999_us", quantile(s.lat_us, 0.999))
      .num("late_p99_us", quantile(s.late_us, 0.99))
      .num("inflight_first", s.inflight_first)
      .num("inflight_last", s.inflight_last)
      .num("seconds", static_cast<double>(s.end_ns - s.start_ns) / 1e9)
      .raw("win_p50_us", json_array(s.win_p50))
      .raw("win_p99_us", json_array(s.win_p99));
  return j.render();
}

/// madeleine probe: pack each request class into a fresh PackBuffer the way
/// the typed call path does (service hash + arguments), one span per pack.
void pack_probe(SpanLog& log) {
  for (int i = 0; i < 1000; ++i) {
    for (uint8_t cls = 0; cls < 3; ++cls) {
      uint64_t t0 = now_ns();
      {
        pm2::mad::PackBuffer pb;
        pb.pack<uint32_t>(pm2::service_id(kClsName[cls]));
        if (cls == kGet) {
          pm2::mad::pack_values(pb, uint32_t{1}, uint32_t{7});
        } else {
          pm2::mad::pack_values(pb, uint32_t{1},
                                cls == kEcho ? g_echo[i % 64] : g_put[i % 256]);
        }
        pm2::mad::BufferChain chain = pb.take_chain();
        if (chain.size() == 0) std::abort();
      }
      log.add("madeleine.pack", t0, now_ns(), cls, 0, 0);
    }
  }
}

void add_op_spans(SpanLog& log, const OpRec* ops, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const OpRec& o = ops[i];
    if (!o.ok || o.ready == 0) continue;
    // The handler can start before call_async returns, when the caller is
    // descheduled after the send; the issue stage then ends at handler
    // entry and the request leg is empty, so the stages still tile the op.
    // A handler stamp that never fired (0) leaves a negative stage.
    const uint64_t issued = std::min(o.call_ret, o.h_in);
    uint64_t root = log.add("rpc.op", o.intended, o.ready, i, 0, 0);
    log.add("gen.late", o.intended, o.call_start, i, root, 0);
    log.add("pm2.rpc.issue", o.call_start, issued, i, root, 0);
    log.add("pm2.rpc.request_leg", issued, o.h_in, i, root, 1);
    log.add(kClsName[o.cls], o.h_in, o.h_out, i, root, 1);
    log.add("pm2.rpc.reply_leg", o.h_out, o.ready, i, root, 0);
  }
}

}  // namespace

int run_rpc_open(const Options& o) {
  make_inputs(o.seed);
  SessionConfig sc;
  sc.nodes = 2;
  sc.workers = {1, 2};
  sc.cpus = assign_cpus(sc.workers);
  sc.keep_cpus_busy = true;

  std::vector<double> setup_s;
  bool ok = true;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  // Per-request records for every phase, allocated and touched once.
  const size_t per_session =
      static_cast<size_t>(kRefRate * o.seconds * kRefShare / kSessions);
  const size_t rung_max = static_cast<size_t>(
      kLadder[std::size(kLadder) - 1] * o.seconds * kRungShare);
  const size_t cap =
      std::max({per_session, rung_max, kClosedOps, kMaxTracedOps}) * 5 / 4 + 1024;
  std::vector<OpRec> record_buf(cap);
  auto records = [&](size_t a, size_t b) {
    PM2_CHECK(std::max(a, b) <= cap) << "schedule larger than the record buffer";
    return record_buf.data();
  };
  auto session = [&](bool last, bool setup_only, std::string* results) {
    run_session(
        sc, [](pm2::Runtime& rt) { if (rt.self() == 1) register_services(rt); },
        [&](pm2::Runtime& rt) {
          if (rt.self() != 0) return;
          ok &= warm_up(rt);
          setup_s.push_back(session_seconds());
          if (setup_only) return;
          pm2::Rng rng(o.seed);
          if (!o.trace) {
            // Reference phase (open loop), then a closed-loop phase with
            // kWindow requests outstanding (throughput).
            auto ref = make_schedule(
                rng, kRefRate,
                static_cast<uint64_t>(o.seconds * kRefShare / kSessions * 1e9), 0);
            auto closed = make_schedule(rng, kRefRate, 0, kClosedOps);
            OpRec* ops = records(ref.size(), closed.size());
            std::vector<uint64_t> cpu0 = node_cpu_ns();
            PhaseStats s = run_phase(rt, ref, ops);
            std::vector<uint64_t> cpu1 = node_cpu_ns();
            PhaseStats c = run_phase(rt, closed, ops, kWindow);
            std::vector<uint64_t> cpu2 = node_cpu_ns();
            for (const PhaseStats* p : {&s, &c}) {
              attempted += p->sent;
              failed += p->failed;
              wrong += p->wrong;
            }
            // The server's CPU per request, over the closed-loop phase, where
            // its workers seldom park.  At the reference rate every request
            // wakes a parked worker, and on a VM the cost of that wake-up
            // follows the host: it read 14 or 21 us per request from one
            // session to the next, so it is a diagnostic only.
            auto server_us = [&](const std::vector<uint64_t>& a,
                                 const std::vector<uint64_t>& b, uint64_t ops_n) {
              return b.size() > 1 ? static_cast<double>(b[1] - a[1]) / 1e3 /
                                        static_cast<double>(std::max<uint64_t>(ops_n, 1))
                                  : 0.0;
            };
            Json j;
            j.raw("reference", phase_json(s, kRefRate))
                .num("closed_ops_s",
                     static_cast<double>(c.completed) /
                         (static_cast<double>(c.end_ns - c.start_ns) / 1e9))
                .num("closed_p50_us", quantile(c.lat_us, 0.5))
                .num("server_cpu_us_per_op", server_us(cpu1, cpu2, c.completed))
                .num("ref_server_cpu_us_per_op", server_us(cpu0, cpu1, s.sent))
                .num("session_mem_mb", session_mem_mb());
            if (last) {
              // Offered-rate ladder, once per untraced run: each rung gets
              // its share of the run, after an idle gap.
              std::string arr = "[";
              for (size_t k = 0; k < std::size(kLadder); ++k) {
                auto rung = make_schedule(
                    rng, kLadder[k],
                    static_cast<uint64_t>(o.seconds * kRungShare * 1e9), 0);
                pm2::pm2_sleep_us(20'000);
                PhaseStats r = run_phase(rt, rung, records(rung.size(), 0));
                attempted += r.sent;
                failed += r.failed;
                wrong += r.wrong;
                arr += (k ? ", " : "") + phase_json(r, kLadder[k]);
              }
              j.raw("ladder", arr + "]");
            }
            *results += (results->empty() ? "" : ", ") + j.render();
            return;
          }
          // Traced run: same fixed-count schedule, untraced then traced.
          size_t count = std::min<size_t>(
              static_cast<size_t>(kRefRate * o.seconds * 0.4), kMaxTracedOps);
          auto sched = make_schedule(rng, kRefRate, 0, count);
          OpRec* ops = records(count, 0);
          PhaseStats u = run_phase(rt, sched, ops);
          pm2::pm2_sleep_us(20'000);
          SpanLog log(count * 6 + 4096);
          pack_probe(log);
          Counters before = snapshot(g_nodes);
          std::vector<uint64_t> cpu_before = node_cpu_ns();
          g_stamp = true;
          PhaseStats t = run_phase(rt, sched, ops);
          g_stamp = false;
          std::vector<uint64_t> cpu_after = node_cpu_ns();
          Counters d = diff(snapshot(g_nodes), before);
          for (size_t n = 0; n < cpu_after.size(); ++n)
            d["n" + std::to_string(n) + ".cpu_ns"] = cpu_after[n] - cpu_before[n];
          log.counters("phase", t.end_ns, d);
          add_op_spans(log, ops, count);
          attempted += u.sent + t.sent;
          failed += u.failed + t.failed;
          wrong += u.wrong + t.wrong;
          Json other;
          other.str("workload", o.workload)
              .integer("seed", o.seed)
              .integer("ops", t.sent)
              .integer("failed", t.failed)
              .num("untraced_p50_us", quantile(u.lat_us, 0.5))
              .integer("server_node", 1)
              .integer("spans_dropped", log.dropped());
          log.write_chrome(o.trace_file, other.render());
          *results = Json().raw("reference", phase_json(u, kRefRate)).render();

        });
  };
  std::string results;
  const int sessions = o.trace ? 1 : kSessions;
  for (int k = 0; k < sessions; ++k) {
    for (int j = 0; j < (o.trace ? 0 : kSetupOnly); ++j) session(false, true, &results);
    session(k == sessions - 1, false, &results);
  }
  results = "[" + results + "]";

  if (!ok) report_failure(o, "warm-up reply mismatch");
  if (wrong > 0)
    report_failure(o, std::to_string(wrong) + " replies with wrong content");
  bool correct = ok && wrong == 0;
  Json j;
  j.str("workload", o.workload)
      .integer("seed", o.seed)
      .boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("machine", machine_json(""))
      .str("fabric", "inproc")
      .raw("workers", "[1, 2]")
      .raw("cpus", cpus_json(sc.cpus))
      .boolean("cpus_kept_busy", sc.keep_cpus_busy)
      .raw("setup_s", json_array(setup_s))
      .num("limit_us", kLimitUs)
      .raw("sessions", results);
  write_file(o.out, j.render() + "\n");
  return correct ? 0 : 1;
}

}  // namespace pb
