// ckpt_cycle: one node, kThreads threads holding seeded iso-heaps, and a
// controller (the node's main thread) running rounds.
//
// Idle threads stay frozen.  Each round thaws a seeded, skewed subset,
// which rewrites part of its heap and is frozen again; then the node
// checkpoints into its slot store (checkpoint_node_to_store).  Every
// kDemoteEvery rounds the coldest threads are demoted to the store file;
// half a period later they are faulted back (unfreeze_thread).  At the end the node takes a final checkpoint, the
// store file is copied aside, and the benchmark re-executes itself in
// recover mode: the fresh process restores the node from the copy
// (restore_node_from_store) and every restored thread checks its heap.
//
// Without kernel soft-dirty tracking the checkpoint falls back to writing
// every live extent, so the dirty subset changes what threads do but not
// what a round writes.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common.hpp"
#include "common/random.hpp"
#include "pm2/api.hpp"
#include "pm2/checkpoint.hpp"
#include "sys/process.hpp"

namespace pb {
namespace {

constexpr uint32_t kThreads = 16;
constexpr uint32_t kBlocks = 4;
constexpr uint32_t kDirty = 4;        // threads dirtied per round
constexpr uint32_t kDemote = 4;       // coldest threads demoted per period
constexpr uint32_t kDemoteEvery = 8;  // rounds
constexpr int kRestores = 3;          // recover processes per run
constexpr double kTracedRoundsPerSecond = 100;
constexpr int kSessions = 6;     // untraced sessions per run (see wl_rpc.cpp)
constexpr int kSetupOnly = 4;    // set-up-only sessions before each one
constexpr double kShare = 0.75;  // of the run, over all sessions

enum Cmd : int { kIdle = 0, kDirtyCmd = 1, kVerifyExit = 2 };

// Command words and counters.  A restored thread reads them at the same
// (non-PIE) addresses in the recover process.
std::atomic<int> g_cmd[kThreads];
std::atomic<uint64_t> g_tid[kThreads];
std::atomic<uint32_t> g_acks{0};
std::atomic<uint64_t> g_bad{0};
uint64_t g_seed = 1;

struct Block {
  unsigned char* p;
  uint32_t size;
  uint64_t sum;
};

struct CkArg {
  uint32_t idx;
};

void ck_thread(void* arg) {
  CkArg a;
  std::memcpy(&a, arg, sizeof(a));
  pm2::pm2_isofree(arg);
  const uint32_t me = a.idx;
  g_tid[me] = pm2::marcel_self()->id;
  pm2::Rng rng(g_seed * 7919u + me);
  Block b[kBlocks] = {};
  for (uint32_t k = 0; k < kBlocks; ++k) {
    b[k].size = block_size(rng, k, kBlocks);
    b[k].p = static_cast<unsigned char*>(pm2::pm2_isomalloc(b[k].size));
    fill_seeded(b[k].p, b[k].size, rng.next());
    b[k].sum = checksum(b[k].p, b[k].size);
  }
  g_acks.fetch_add(1);
  while (true) {
    int c;
    // Busy-yield rather than block: a blocked thread is not checkpointable.
    while ((c = g_cmd[me].load()) == kIdle) pm2::pm2_yield();
    g_cmd[me] = kIdle;
    if (c == kDirtyCmd) {
      for (Block& blk : b) {
        uint32_t off = static_cast<uint32_t>(rng.next_below(blk.size));
        uint32_t len = std::min<uint32_t>(blk.size - off, 4096);
        fill_seeded(blk.p + off, len, rng.next());
        blk.sum = checksum(blk.p, blk.size);
      }
      g_acks.fetch_add(1);
      continue;
    }
    bool ok = pm2::pm2_self() == 0;
    for (Block& blk : b) {
      ok &= checksum(blk.p, blk.size) == blk.sum;
      pm2::pm2_isofree(blk.p);
    }
    if (!ok) g_bad.fetch_add(1);
    pm2::pm2_signal(0);
    return;
  }
}

/// Copy a sparse file, data extents only (the store's data region is
/// indexed by slot, so the file is mostly holes).
bool copy_sparse(const std::string& from, const std::string& to) {
  int in = ::open(from.c_str(), O_RDONLY);
  if (in < 0) return false;
  int out = ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  if (out < 0) {
    ::close(in);
    return false;
  }
  struct stat st;
  ::fstat(in, &st);
  bool ok = ::ftruncate(out, st.st_size) == 0;
  std::vector<char> buf(1 << 20);
  off_t pos = 0;
  while (ok && pos < st.st_size) {
    off_t data = ::lseek(in, pos, SEEK_DATA);
    if (data < 0) break;  // no more data
    off_t hole = ::lseek(in, data, SEEK_HOLE);
    for (off_t p = data; ok && p < hole;) {
      ssize_t n = ::pread(in, buf.data(),
                          static_cast<size_t>(std::min<off_t>(hole - p, buf.size())), p);
      ok = n > 0 && ::pwrite(out, buf.data(), static_cast<size_t>(n), p) == n;
      p += n;
    }
    pos = hole;
  }
  ::close(in);
  ok &= ::close(out) == 0;
  return ok;
}

struct RoundRec {
  uint64_t t0, t1;      // checkpoint_node_to_store
  uint64_t loop0;       // round start (dirtying included)
  uint64_t written, skipped;
};
struct TimedCall {
  uint64_t t0, t1;
};

struct PhaseOut {
  std::vector<RoundRec> rounds;
  std::vector<TimedCall> demotes, faultbacks;
  uint64_t start_ns = 0, end_ns = 0;
  double session_mem_mb = 0;  // at the end of the phase
  Counters counters;
};

/// Drives the rounds from the node's main thread.  Idle threads stay frozen
/// (frozen threads are checkpointable and, unlike busy-yielding ones, cost
/// no CPU), so a round thaws only the threads it dirties.
struct Controller {
  pm2::Runtime& rt;
  pm2::Rng rng;
  std::vector<uint32_t> rank_of;  // skew: thread -> popularity rank
  std::vector<uint64_t> last_dirty = std::vector<uint64_t>(kThreads, 0);
  std::vector<bool> frozen = std::vector<bool>(kThreads, false);
  std::vector<bool> demoted = std::vector<bool>(kThreads, false);
  uint64_t round = 0;

  Controller(pm2::Runtime& r, uint64_t seed) : rt(r), rng(seed * 31 + 5) {
    for (uint32_t i = 0; i < kThreads; ++i) rank_of.push_back(i);
    for (uint32_t i = kThreads - 1; i > 0; --i)
      std::swap(rank_of[i], rank_of[rng.next_below(i + 1)]);
  }

  void check(bool ok) {
    if (!ok) g_bad.fetch_add(1);
  }
  void freeze(uint32_t i) {
    check(rt.freeze_thread(g_tid[i].load()));
    frozen[i] = true;
  }
  /// Thaw thread i; a demoted thread is faulted back in first (timed).
  void thaw(uint32_t i, PhaseOut* out) {
    uint64_t t0 = now_ns();
    check(rt.unfreeze_thread(g_tid[i].load()));
    if (demoted[i] && out != nullptr) out->faultbacks.push_back({t0, now_ns()});
    frozen[i] = false;
    demoted[i] = false;
  }
  void thaw_all() {
    for (uint32_t i = 0; i < kThreads; ++i)
      if (frozen[i]) thaw(i, nullptr);
  }

  /// One round: dirty a skewed subset, checkpoint, demote/fault back on
  /// schedule.
  void run_round(PhaseOut* out) {
    ++round;
    RoundRec rec{};
    rec.loop0 = now_ns();
    std::vector<uint32_t> pick;
    while (pick.size() < kDirty) {
      // Zipf(1) over popularity ranks.
      double total = 0;
      for (uint32_t i = 0; i < kThreads; ++i) total += 1.0 / (rank_of[i] + 1);
      double x = rng.next_double() * total;
      uint32_t i = 0;
      for (; i + 1 < kThreads; ++i) {
        x -= 1.0 / (rank_of[i] + 1);
        if (x < 0) break;
      }
      if (std::find(pick.begin(), pick.end(), i) == pick.end()) pick.push_back(i);
    }
    uint32_t want = g_acks.load() + kDirty;
    for (uint32_t i : pick) {
      if (frozen[i]) thaw(i, out);
      last_dirty[i] = round;
      g_cmd[i] = kDirtyCmd;
    }
    while (g_acks.load() < want) pm2::pm2_yield();
    for (uint32_t i : pick) freeze(i);
    rec.t0 = now_ns();
    pm2::StoreCheckpointStats s = pm2::checkpoint_node_to_store(rt);
    rec.t1 = now_ns();
    rec.written = s.bytes_written;
    rec.skipped = s.bytes_skipped;
    if (out != nullptr) out->rounds.push_back(rec);
    if (round % kDemoteEvery == 0) {
      std::vector<uint32_t> order;
      for (uint32_t i = 0; i < kThreads; ++i)
        if (!demoted[i]) order.push_back(i);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return last_dirty[a] != last_dirty[b] ? last_dirty[a] < last_dirty[b]
                                              : a < b;
      });
      for (uint32_t k = 0; k < kDemote && k < order.size(); ++k) {
        uint32_t i = order[k];
        uint64_t t0 = now_ns();
        check(rt.demote_thread(g_tid[i].load()));
        if (out != nullptr) out->demotes.push_back({t0, now_ns()});
        demoted[i] = true;
      }
    } else if (round % kDemoteEvery == kDemoteEvery / 2) {
      for (uint32_t i = 0; i < kThreads; ++i) {
        if (!demoted[i]) continue;
        thaw(i, out);
        freeze(i);
      }
    }
  }
};

std::string phase_json(const PhaseOut& p) {
  std::vector<double> lat, fb;
  std::vector<std::pair<uint64_t, double>> timed;
  std::vector<uint64_t> done;
  double written = 0, skipped = 0;
  for (const RoundRec& r : p.rounds) {
    double us = static_cast<double>(r.t1 - r.t0) / 1e3;
    lat.push_back(us);
    timed.emplace_back(r.t0, us);
    done.push_back(r.t1);
    written += r.written;
    skipped += r.skipped;
  }
  // Full cycles, start of one round to the start of the next.  The median
  // cycle gives the loop's rate without the host's multi-millisecond stalls,
  // which a count of rounds per window takes in whole.
  std::vector<double> cycle;
  for (size_t i = 1; i < p.rounds.size(); ++i)
    cycle.push_back(static_cast<double>(p.rounds[i].loop0 - p.rounds[i - 1].loop0) / 1e3);
  for (const TimedCall& c : p.faultbacks)
    fb.push_back(static_cast<double>(c.t1 - c.t0) / 1e3);
  std::vector<double> w50, w99;
  windowed(timed, p.start_ns, &w50, &w99);
  double secs = static_cast<double>(p.end_ns - p.start_ns) / 1e9;
  double n = std::max<double>(p.rounds.size(), 1);
  Json j;
  j.integer("rounds", p.rounds.size())
      .num("seconds", secs)
      .num("rounds_s", static_cast<double>(p.rounds.size()) / secs)
      .raw("win_ops_s", json_array(window_rates(done, p.start_ns, p.end_ns)))
      .num("cycle_p50_us", quantile(cycle, 0.5))
      .num("p50_us", quantile(lat, 0.5))
      .num("p99_us", quantile(lat, 0.99))
      .num("faultback_p50_us", quantile(fb, 0.5))
      .num("faultback_p99_us", quantile(fb, 0.99))
      .integer("faultbacks", fb.size())
      .num("session_mem_mb", p.session_mem_mb)
      .num("cpu_us_per_op",
           static_cast<double>(sum_nodes(p.counters, "cpu_ns")) / 1e3 / n)
      .num("bytes_written_per_round", written / n)
      .num("bytes_skipped_per_round", skipped / n)
      .raw("win_p50_us", json_array(w50));
  return j.render();
}

}  // namespace

int run_ckpt_recover(const Options& o, const std::string& store_dir,
                     uint32_t threads) {
  SessionConfig sc;
  sc.nodes = 1;
  sc.workers = {1};
  sc.cpus = assign_cpus(sc.workers);
  sc.rt.slot_store_dir = store_dir;
  sc.rt.slot_store_recover = true;
  double restore_ms = 0;
  uint64_t restored = 0, bytes_in = 0;
  run_session(sc, {}, [&](pm2::Runtime& rt) {
    uint64_t t0 = now_ns();
    std::vector<pm2::marcel::ThreadId> ids = pm2::restore_node_from_store(rt);
    restored = ids.size();
    for (uint32_t i = 0; i < kThreads; ++i) g_cmd[i] = kVerifyExit;
    pm2::pm2_wait_signals(restored);
    restore_ms = static_cast<double>(now_ns() - t0) / 1e6;
    bytes_in = rt.slot_store()->stats().bytes_in;
  });
  bool ok = restored == threads && g_bad.load() == 0;
  if (!ok)
    report_failure(o, "recover: restored " + std::to_string(restored) + " of " +
                          std::to_string(threads) + " threads, " +
                          std::to_string(g_bad.load()) + " heap mismatches");
  Json j;
  j.boolean("correct", ok)
      .num("restore_ms", restore_ms)
      .integer("restored", restored)
      .integer("bytes_in", bytes_in);
  write_file(o.out, j.render() + "\n");
  return ok ? 0 : 1;
}

int run_ckpt_cycle(const Options& o) {
  g_seed = o.seed;
  const std::string store_dir = o.run_dir + "/store";
  ::mkdir(store_dir.c_str(), 0700);
  SessionConfig sc;
  sc.nodes = 1;
  sc.workers = {1};
  sc.cpus = assign_cpus(sc.workers);
  sc.rt.slot_store_dir = store_dir;

  std::vector<double> setup_s;
  std::vector<std::string> sessions;
  std::unique_ptr<SpanLog> log;
  uint64_t attempted = 0, failed = 0;
  std::string traced;
  const int n_sessions = o.trace ? 1 : kSessions * (kSetupOnly + 1);
  for (int k = 0; k < n_sessions; ++k) {
    const bool last = k == n_sessions - 1;
    const bool setup_only = !o.trace && k % (kSetupOnly + 1) != kSetupOnly;
    for (uint32_t i = 0; i < kThreads; ++i) {
      g_cmd[i] = kIdle;
      g_tid[i] = 0;
    }
    g_acks = 0;
    std::vector<PhaseOut> outs;
    run_session(sc, {}, [&](pm2::Runtime& rt) {
      for (uint32_t i = 0; i < kThreads; ++i) {
        CkArg a{i};
        rt.spawn_copy(&ck_thread, &a, sizeof(a), "ckpt");
      }
      while (g_acks.load() < kThreads) pm2::pm2_yield();
      Controller ctl(rt, o.seed);
      for (uint32_t i = 0; i < kThreads; ++i) ctl.freeze(i);
      // Warm-up: first full checkpoint and one demote/fault-back period.
      for (uint32_t r = 0; r < kDemoteEvery; ++r) ctl.run_round(nullptr);
      setup_s.push_back(session_seconds());
      auto phase = [&](uint64_t rounds, double seconds) {
        PhaseOut out;
        out.counters = snapshot(g_nodes);
        std::vector<uint64_t> cpu0 = node_cpu_ns();
        out.start_ns = now_ns();
        uint64_t deadline = out.start_ns + static_cast<uint64_t>(seconds * 1e9);
        // A timed phase ends on a demote round, so every session samples its
        // memory with the same number of threads demoted to the store.
        for (uint64_t r = 0;
             rounds ? r < rounds : now_ns() < deadline || ctl.round % kDemoteEvery != 0; ++r)
          ctl.run_round(&out);
        out.end_ns = now_ns();
        out.session_mem_mb = session_mem_mb();
        out.counters = diff(snapshot(g_nodes), out.counters);
        out.counters["n0.cpu_ns"] = node_cpu_ns().at(0) - cpu0.at(0);
        outs.push_back(std::move(out));
      };
      if (o.trace) {
        uint64_t rounds = static_cast<uint64_t>(kTracedRoundsPerSecond * o.seconds * 0.35);
        phase(rounds, 0);
        phase(rounds, 0);
      } else if (!setup_only) {
        phase(0, o.seconds * kShare / kSessions);
      }
      // Restored threads must be runnable: thaw everything before the
      // final checkpoint.
      ctl.thaw_all();
      if (last) {
        pm2::checkpoint_node_to_store(rt);
        rt.slot_store()->sync();
        if (!copy_sparse(store_dir + "/node0.store", o.run_dir + "/ckpt.snap"))
          g_bad.fetch_add(1);
      }
      for (uint32_t i = 0; i < kThreads; ++i) g_cmd[i] = kVerifyExit;
      pm2::pm2_wait_signals(kThreads);
    });
    if (setup_only) continue;
    for (const PhaseOut& p : outs) attempted += p.rounds.size();
    sessions.push_back(phase_json(outs.at(0)));
    if (o.trace) {
      const PhaseOut& u = outs.at(0);
      const PhaseOut& t = outs.at(1);
      log = std::make_unique<SpanLog>(t.rounds.size() * 3 + t.demotes.size() +
                                      t.faultbacks.size() + 64);
      uint64_t op = 0;
      for (const RoundRec& r : t.rounds) {
        ++op;
        uint64_t root = log->add("ckpt.round", r.loop0, r.t1, op, 0, 0);
        log->add("ckpt.dirty", r.loop0, r.t0, op, root, 0);
        log->add("pm2.checkpoint", r.t0, r.t1, op, root, 0);
      }
      for (const TimedCall& c : t.demotes) log->add("store.demote", c.t0, c.t1, 0, 0, 0);
      for (const TimedCall& c : t.faultbacks)
        log->add("store.faultback", c.t0, c.t1, 0, 0, 0);
      log->counters("phase", t.end_ns, t.counters);
      std::vector<double> ul;
      for (const RoundRec& r : u.rounds) ul.push_back((r.t1 - r.t0) / 1e3);
      traced = Json()
                   .str("workload", o.workload)
                   .integer("seed", o.seed)
                   .integer("ops", t.rounds.size())
                   .num("untraced_p50_us", quantile(ul, 0.5))
                   .raw("traced", phase_json(t))
                   .render();
    }
  }
  // Re-execute this binary in recover mode, each time from a fresh copy of
  // the final store.
  bool ok = g_bad.load() == 0;
  if (!ok)
    report_failure(o, std::to_string(g_bad.load()) +
                          " heap mismatches or failed freeze/demote/fault-back calls");
  const std::string rdir = o.run_dir + "/restore";
  ::mkdir(rdir.c_str(), 0700);
  std::vector<std::string> restores;
  for (int r = 0; r < kRestores && ok; ++r) {
    if (!copy_sparse(o.run_dir + "/ckpt.snap", rdir + "/node0.store")) {
      ok = false;
      report_failure(o, "cannot copy the final store for the recover process");
      break;
    }
    const std::string out = o.run_dir + "/recover.json";
    ::unlink(out.c_str());
    pid_t pid = pm2::sys::spawn(
        pm2::sys::self_exe(),
        {"recover", "--store-dir", rdir, "--threads", std::to_string(kThreads),
         "--out", out, "--run-dir", o.run_dir, "--seed", std::to_string(o.seed),
         "--workload", o.workload},
        {});
    int rc = pm2::sys::wait_child(pid);
    ++attempted;
    std::string text = read_file(out);
    while (!text.empty() && text.back() == '\n') text.pop_back();
    if (rc != 0 || text.empty()) {
      ++failed;
      ok = false;
      report_failure(o, "recover process exited with " + std::to_string(rc));
      break;
    }
    restores.push_back(text);
  }
  std::string rs = "[";
  for (size_t i = 0; i < restores.size(); ++i) rs += (i ? ", " : "") + restores[i];
  rs += "]";
  if (o.trace && log != nullptr) {
    traced.pop_back();
    traced += ", \"restores\": " + rs + ", \"machine\": " + machine_json(store_dir) + "}";
    log->write_chrome(o.trace_file, traced);
  }
  std::string ss = "[";
  for (size_t i = 0; i < sessions.size(); ++i) ss += (i ? ", " : "") + sessions[i];
  Json j;
  j.str("workload", o.workload)
      .integer("seed", o.seed)
      .boolean("correct", ok)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("machine", machine_json(store_dir))
      .str("fabric", "none (one node)")
      .raw("workers", "[1]")
      .raw("cpus", cpus_json(sc.cpus))
      .boolean("cpus_kept_busy", sc.keep_cpus_busy)
      .raw("setup_s", json_array(setup_s))
      .raw("sessions", ss + "]")
      .raw("restores", rs);
  write_file(o.out, j.render() + "\n");
  return ok ? 0 : 1;
}

}  // namespace pb
