#include "common.hpp"

#include <dirent.h>
#include <errno.h>
#include <malloc.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "common/random.hpp"
#include "fabric/inproc.hpp"
#include "fabric/socket_fabric.hpp"
#include "madeleine/buffers.hpp"
#include "marcel/sync.hpp"
#include "sys/vm.hpp"

namespace pb {

std::vector<pm2::Runtime*> g_nodes;
static uint64_t g_session_start_ns = 0;
static double g_session_malloc0_mb = 0;
static const pm2::iso::Area* g_area = nullptr;
std::vector<std::vector<int>> g_node_tids;

std::string replay_command(const Options& o) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "python3 perfbench/run.py --workload %s --seed %llu "
                "--seconds %g --trace %d",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
  return buf;
}

void report_failure(const Options& o, const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED [%s seed %llu]: %s\n  replay: %s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               what.c_str(), replay_command(o).c_str());
}

uint64_t checksum(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0x9E3779B97F4A7C15ull ^ len;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  for (; i < len; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

void fill_seeded(void* data, size_t len, uint64_t seed) {
  pm2::Rng rng(seed);
  auto* p = static_cast<unsigned char*>(data);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w = rng.next();
    std::memcpy(p + i, &w, 8);
  }
  uint64_t w = rng.next();
  for (; i < len; ++i, w >>= 8) p[i] = static_cast<unsigned char>(w);
}

uint32_t block_size(pm2::Rng& rng, uint32_t k, uint32_t strata) {
  const double lo = 4.0, hi = std::log2(static_cast<double>(kMaxBlockBytes));
  const double step = (hi - lo) / strata;
  double lg = lo + step * (k + rng.next_double());
  return static_cast<uint32_t>(std::exp2(lg));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

void windowed(std::vector<std::pair<uint64_t, double>> samples,
              uint64_t origin_ns, std::vector<double>* p50,
              std::vector<double>* p99) {
  std::sort(samples.begin(), samples.end());
  std::vector<double> w;
  uint64_t w_end = origin_ns + kWindowNs;
  for (size_t i = 0; i <= samples.size(); ++i) {
    if (i == samples.size() || samples[i].first >= w_end) {
      if (w.size() >= 100) {
        p50->push_back(quantile(w, 0.5));
        p99->push_back(quantile(w, 0.99));
      }
      w.clear();
      if (i == samples.size()) break;
      while (samples[i].first >= w_end) w_end += kWindowNs;
    }
    w.push_back(samples[i].second);
  }
}

std::vector<double> window_rates(const std::vector<uint64_t>& done_ns,
                                 uint64_t origin_ns, uint64_t end_ns) {
  const size_t n = end_ns > origin_ns ? (end_ns - origin_ns) / kWindowNs : 0;
  std::vector<double> counts(n, 0);
  for (uint64_t t : done_ns)
    if (t >= origin_ns && (t - origin_ns) / kWindowNs < n)
      counts[(t - origin_ns) / kWindowNs] += 1;
  for (double& c : counts) c /= static_cast<double>(kWindowNs) / 1e9;
  return counts;
}

// --- JSON ------------------------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

static std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Json& Json::num(const std::string& k, double v) {
  fields_.emplace_back(k, fmt_num(v));
  return *this;
}
Json& Json::integer(const std::string& k, uint64_t v) {
  fields_.emplace_back(k, std::to_string(v));
  return *this;
}
Json& Json::str(const std::string& k, const std::string& v) {
  fields_.emplace_back(k, json_quote(v));
  return *this;
}
Json& Json::boolean(const std::string& k, bool v) {
  fields_.emplace_back(k, v ? "true" : "false");
  return *this;
}
Json& Json::raw(const std::string& k, const std::string& json) {
  fields_.emplace_back(k, json);
  return *this;
}
std::string Json::render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += fmt_num(v[i]);
  }
  return out + "]";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
  return static_cast<bool>(f.flush());
}

// --- machine -----------------------------------------------------------------------

static std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

static std::string fs_name(const std::string& path) {
  struct statfs s;
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x58465342: return "xfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string machine_json(const std::string& store_dir) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::vector<double> cpus;
  for (int c : allowed_cpus()) cpus.push_back(c);
  Json j;
  j.integer("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", model)
      .str("build_type", PB_BUILD_TYPE)
      .str("compiler", PB_COMPILER)
      .raw("process_affinity", json_array(cpus))
      .boolean("soft_dirty_supported", pm2::sys::soft_dirty_supported())
      .str("store_fs", store_dir.empty() ? "none" : fs_name(store_dir));
  return j.render();
}

// --- session -------------------------------------------------------------------------

std::vector<std::vector<int>> assign_cpus(const std::vector<uint32_t>& workers) {
  std::vector<int> all = allowed_cpus();
  if (all.empty()) all.push_back(0);
  std::vector<std::vector<int>> out;
  // Take the highest CPUs of the mask, so that when it has room the lowest
  // one (where device interrupts often land, and the benchmark's own main
  // thread land) stays free.
  size_t total = 0;
  for (uint32_t w : workers) total += w;
  size_t next = all.size() > total ? all.size() - total : 0;
  for (uint32_t w : workers) {
    std::vector<int> set;
    for (uint32_t k = 0; k < w; ++k) set.push_back(all[next++ % all.size()]);
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    out.push_back(set);
  }
  return out;
}

std::string cpus_json(const std::vector<std::vector<int>>& cpus) {
  std::string out = "[";
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (i) out += ", ";
    std::vector<double> d(cpus[i].begin(), cpus[i].end());
    out += json_array(d);
  }
  return out + "]";
}

static void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  PM2_CHECK(::sched_setaffinity(0, sizeof(set), &set) == 0)
      << "sched_setaffinity: " << std::strerror(errno);
}

static std::vector<std::vector<int>> pin_node_threads(
    const std::vector<std::vector<int>>& cpus, const std::vector<int>& skip);
static double malloc_mb();

namespace {

/// One SCHED_IDLE thread per CPU of the session, spinning until destroyed.
/// It keeps the vCPU from halting: on a VM, waking a halted vCPU is a trip
/// through the hypervisor whose latency follows the host's load, and that
/// wait would otherwise dominate every cross-node wake-up.  Any runnable
/// normal thread preempts a SCHED_IDLE one at once, so the nodes' threads
/// still pay the guest's own wake-up path.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<std::vector<int>>& cpus) {
    std::vector<int> all;
    for (const auto& set : cpus) all.insert(all.end(), set.begin(), set.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    std::atomic<size_t> started{0};
    for (int cpu : all) {
      threads_.emplace_back([this, cpu, &started] {
        pin_self({cpu});
        sched_param p{};
        ::sched_setscheduler(0, SCHED_IDLE, &p);
        {
          std::lock_guard<std::mutex> g(mu_);
          tids_.push_back(static_cast<int>(::gettid()));
        }
        started.fetch_add(1);
        started.notify_all();
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      });
    }
    // Wait blocked: a yield can hand the CPU to a spinner that is not yet
    // SCHED_IDLE for a whole scheduler tick.
    for (size_t n; (n = started.load()) < all.size();) started.wait(n);
  }
  ~IdleSpinners() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  std::vector<int> tids() {
    std::lock_guard<std::mutex> g(mu_);
    return tids_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<int> tids_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace

/// Where the socket fabric puts node `i`'s listening socket.
static std::string socket_path(const SessionConfig& cfg, uint32_t i) {
  return cfg.socket_dir + "/node" + std::to_string(i) + ".sock";
}

void run_session(const SessionConfig& cfg,
                 const std::function<void(pm2::Runtime&)>& setup,
                 const std::function<void(pm2::Runtime&)>& node_main) {
  IdleSpinners spinners(cfg.keep_cpus_busy ? cfg.cpus : std::vector<std::vector<int>>{});
  const std::vector<int> spinner_tids = spinners.tids();
  g_session_start_ns = now_ns();
  g_session_malloc0_mb = malloc_mb();
  pm2::iso::AreaConfig ac;
  // Logical nodes share one address space (see pm2::AppConfig).
  ac.skip_decommit = true;
  pm2::iso::Area area(ac);
  g_area = &area;
  std::shared_ptr<pm2::fabric::InProcHub> hub;
  if (cfg.socket_fabric) {
    PM2_CHECK(::mkdir(cfg.socket_dir.c_str(), 0700) == 0 || errno == EEXIST)
        << "cannot create " << cfg.socket_dir;
  } else {
    hub = std::make_shared<pm2::fabric::InProcHub>(cfg.nodes);
  }
  g_nodes.assign(cfg.nodes, nullptr);
  std::atomic<uint32_t> built{0};
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < cfg.nodes; ++i) {
    threads.emplace_back([&, i] {
      pin_self(cfg.cpus[i]);
      pm2::RuntimeConfig rc = cfg.rt;
      rc.node = i;
      rc.n_nodes = cfg.nodes;
      rc.workers = cfg.workers[i];
      std::unique_ptr<pm2::fabric::Fabric> fab;
      if (cfg.socket_fabric) {
        pm2::fabric::SocketFabricConfig fc;
        fc.node_id = i;
        fc.n_nodes = cfg.nodes;
        fc.dir = cfg.socket_dir;
        // Dial only peers that already listen.  A dial that finds no
        // listener backs off (200 us, doubling), and that sleep, which
        // depends only on which thread the host started first, would
        // dominate setup_s.
        for (uint32_t j = 0; j < i; ++j)
          while (::access(socket_path(cfg, j).c_str(), F_OK) != 0)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        fab = pm2::fabric::make_socket_fabric(fc);
      } else {
        fab = hub->endpoint(i);
      }
      pm2::Runtime rt(rc, area, std::move(fab));
      g_nodes[i] = &rt;
      if (setup) setup(rt);
      // Every node's Runtime is published before any node_main runs.  Wait
      // blocked, not yielding: a yield on a CPU shared with an idle spinner
      // hands it the spinner for a whole scheduler tick.
      if (built.fetch_add(1) + 1 == cfg.nodes) built.notify_all();
      for (uint32_t b; (b = built.load()) < cfg.nodes;) built.wait(b);
      rt.run([&rt, &node_main, &cfg, &spinner_tids] {
        // Every node's workers are running after this barrier.
        rt.barrier();
        if (rt.self() == 0) g_node_tids = pin_node_threads(cfg.cpus, spinner_tids);
        rt.barrier();
        node_main(rt);
        rt.barrier();
        if (rt.self() == 0) rt.halt();
      });
    });
  }
  for (auto& t : threads) t.join();
  g_nodes.clear();
  g_node_tids.clear();
  g_area = nullptr;
  if (cfg.socket_fabric) {
    for (uint32_t i = 0; i < cfg.nodes; ++i) {
      ::unlink(socket_path(cfg, i).c_str());
    }
    ::rmdir(cfg.socket_dir.c_str());
  }
}

double session_mem_mb() {
  // malloc first: the mincore vector is a malloc block of its own.
  const double heap_mb = malloc_mb() - g_session_malloc0_mb;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident(g_area->size() / page);
  PM2_CHECK(::mincore(reinterpret_cast<void*>(g_area->base()), g_area->size(),
                      resident.data()) == 0)
      << "mincore: " << std::strerror(errno);
  size_t pages = 0;
  for (unsigned char r : resident) pages += r & 1;
  return heap_mb + static_cast<double>(pages * page) / (1024.0 * 1024.0);
}

double session_seconds() {
  return static_cast<double>(now_ns() - g_session_start_ns) / 1e9;
}

static std::vector<int> affinity_of(pid_t tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(tid, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Find each node's kernel threads by their affinity mask (every thread of
/// node i inherited cpus[i]) and pin them one CPU each.
static std::vector<std::vector<int>> pin_node_threads(
    const std::vector<std::vector<int>>& cpus, const std::vector<int>& skip) {
  std::vector<std::vector<int>> tids(cpus.size());
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return tids;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    int tid = std::atoi(e->d_name);
    if (std::find(skip.begin(), skip.end(), tid) != skip.end()) continue;
    std::vector<int> mine = affinity_of(tid);
    for (size_t n = 0; n < cpus.size(); ++n)
      if (mine == cpus[n]) tids[n].push_back(tid);
  }
  ::closedir(d);
  for (size_t n = 0; n < cpus.size(); ++n) {
    std::sort(tids[n].begin(), tids[n].end());
    for (size_t k = 0; k < tids[n].size(); ++k) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus[n][k % cpus[n].size()], &set);
      ::sched_setaffinity(tids[n][k], sizeof(set), &set);
    }
  }
  return tids;
}

std::vector<uint64_t> node_cpu_ns() {
  std::vector<uint64_t> out(g_node_tids.size(), 0);
  for (size_t n = 0; n < g_node_tids.size(); ++n) {
    for (int tid : g_node_tids[n]) {
      // Per-thread CPU clock of another thread of this process
      // (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)).
      clockid_t clk = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
      timespec ts;
      if (::clock_gettime(clk, &ts) == 0)
        out[n] += static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
                  static_cast<uint64_t>(ts.tv_nsec);
    }
  }
  return out;
}

/// Bytes malloc has handed out and not had back, over all arenas.
static double malloc_mb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// --- counters ------------------------------------------------------------------------

Counters snapshot(const std::vector<pm2::Runtime*>& nodes) {
  Counters c;
  for (size_t i = 0; i < nodes.size(); ++i) {
    pm2::Runtime* rt = nodes[i];
    if (rt == nullptr) continue;
    const std::string p = "n" + std::to_string(i) + ".";
    c[p + "fabric.msgs"] = rt->fabric().messages_sent();
    c[p + "fabric.bytes"] = rt->fabric().bytes_sent();
    c[p + "fabric.copy_bytes"] = rt->fabric().payload_copy_bytes();
    c[p + "pool.hits"] = rt->pool_hits();
    c[p + "pool.misses"] = rt->pool_misses();
    c[p + "pool.evictions"] = rt->pool_evictions();
    c[p + "rpc.timeouts"] = rt->rpc_timeouts();
    c[p + "rpc.late_replies"] = rt->late_replies_dropped();
    c[p + "rpc.peer_down"] = rt->peer_down_failures();
    c[p + "mig.rollbacks"] = rt->migration_rollbacks();
    c[p + "mig.in"] = rt->migrations_in();
    c[p + "mig.out"] = rt->migrations_out();
    c[p + "nego.initiated"] = rt->negotiations_initiated();
    c[p + "heap.allocs"] = rt->heap_stats().allocs.load();
    c[p + "heap.frees"] = rt->heap_stats().frees.load();
    c[p + "heap.slot_attach"] = rt->heap_stats().slot_attach.load();
    c[p + "heap.slot_detach"] = rt->heap_stats().slot_detach.load();
    const pm2::SlotStats& ss = rt->slots().stats();
    c[p + "slots.acquired"] = ss.slots_acquired;
    c[p + "slots.commits"] = ss.commits;
    c[p + "slots.cache_hits"] = ss.cache_hits;
    c[p + "slots.negotiated"] = ss.negotiated_slots;
    uint64_t disp = 0, steals = 0, steal_fail = 0, handoffs = 0, wakeups = 0;
    for (const auto& w : rt->sched().worker_stats()) {
      disp += w.dispatches;
      steals += w.steals;
      steal_fail += w.steal_failures;
      handoffs += w.handoffs;
      wakeups += w.idle_wakeups;
    }
    c[p + "sched.dispatches"] = disp;
    c[p + "sched.steals"] = steals;
    c[p + "sched.steal_failures"] = steal_fail;
    c[p + "sched.handoffs"] = handoffs;
    c[p + "sched.idle_wakeups"] = wakeups;
    c[p + "store.demotions"] = rt->demotions();
    c[p + "store.fault_backs"] = rt->fault_backs();
    if (pm2::iso::SlotStore* st = rt->slot_store()) {
      pm2::iso::SlotStoreStats s = st->stats();
      c[p + "store.bytes_out"] = s.bytes_out;
      c[p + "store.bytes_in"] = s.bytes_in;
    }
  }
  c["g.chunk_pool.hits"] = pm2::mad::chunk_pool_hits();
  c["g.chunk_pool.misses"] = pm2::mad::chunk_pool_misses();
  c["g.future_pool.hits"] = pm2::marcel::detail::future_pool_hits();
  c["g.future_pool.misses"] = pm2::marcel::detail::future_pool_misses();
  return c;
}

Counters diff(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    uint64_t b = it == before.end() ? 0 : it->second;
    d[k] = v >= b ? v - b : 0;
  }
  return d;
}

uint64_t sum_nodes(const Counters& c, const std::string& suffix) {
  uint64_t s = 0;
  for (const auto& [k, v] : c) {
    if (k.size() > suffix.size() && k[0] == 'n' &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        k[k.size() - suffix.size() - 1] == '.')
      s += v;
  }
  return s;
}

// --- spans ---------------------------------------------------------------------------

SpanLog::SpanLog(size_t capacity) : spans_(capacity) {}

uint64_t SpanLog::add(const char* name, uint64_t start_ns, uint64_t end_ns,
                      uint64_t op, uint64_t parent, uint32_t lane) {
  size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  spans_[i] = Span{name, start_ns, end_ns, op, parent, lane};
  return i + 1;
}

void SpanLog::counters(const std::string& name, uint64_t ts_ns,
                       const Counters& c) {
  counters_.push_back({name, {ts_ns, c}});
}

size_t SpanLog::size() const {
  return std::min(next_.load(), spans_.size());
}

bool SpanLog::write_chrome(const std::string& path,
                           const std::string& other_json) const {
  const size_t n = size();
  uint64_t t0 = UINT64_MAX;
  for (size_t i = 0; i < n; ++i) t0 = std::min(t0, spans_[i].start);
  for (const auto& c : counters_) t0 = std::min(t0, c.second.first);
  if (t0 == UINT64_MAX) t0 = 0;
  auto us = [t0](uint64_t ns) {
    // Signed: a span may start before t0's owner when clocks of two nodes
    // interleave; microseconds with nanosecond digits.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  (static_cast<double>(static_cast<int64_t>(ns - t0))) / 1e3);
    return std::string(buf);
  };
  std::ofstream f(path, std::ios::trunc);
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (!first) f << ",\n";
    first = false;
    char dur[48];
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(static_cast<int64_t>(s.end - s.start)) / 1e3);
    f << "{\"name\": " << json_quote(s.name) << ", \"ph\": \"X\", \"ts\": "
      << us(s.start) << ", \"dur\": " << dur << ", \"pid\": 1, \"tid\": "
      << s.lane << ", \"args\": {\"id\": " << (i + 1)
      << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}}";
  }
  for (const auto& [name, tc] : counters_) {
    if (!first) f << ",\n";
    first = false;
    f << "{\"name\": " << json_quote(name) << ", \"ph\": \"C\", \"ts\": "
      << us(tc.first) << ", \"pid\": 1, \"args\": {";
    bool cf = true;
    for (const auto& [k, v] : tc.second) {
      if (!cf) f << ", ";
      cf = false;
      f << json_quote(k) << ": " << v;
    }
    f << "}}";
  }
  f << "\n], \"otherData\": " << other_json << "}\n";
  return static_cast<bool>(f.flush());
}

}  // namespace pb
