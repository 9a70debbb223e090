// RPC latency & throughput: blocking call() vs pipelined call_async().
//
// The v2 asynchronous API exists to overlap communication with computation:
// a blocking call() holds one thread hostage per outstanding request, so
// the round-trip latency is the throughput ceiling; call_async() keeps any
// number of correlations in flight from a single thread.  This bench
// measures both on the in-process hub and on the socket fabric (real UNIX
// domain sockets inside one process), sweeping the number of outstanding
// requests 1 → N, and reports µs/call with p50/p99 per-request latency,
// calls/s, the transport copy columns and the server's invocation-pool
// counters alongside.  The p50/p99 columns exist to keep the event-driven
// reply wake-up path honest: a return of the poll-bounce bug (blind
// busy-poll windows + fixed recv timeouts) shows up as a p50 in the
// hundreds of µs long before throughput moves.  The pool columns keep the
// pooled-invocation hot path honest the same way: pool_hits collapsing to
// zero means every call is paying the thread-build cold path again.
//
//   ./bench_rpc                 # default: 2000 calls, up to 64 outstanding
//   ./bench_rpc --calls 10000 --payload 256
//   ./bench_rpc --workers 4     # SMP scheduler: 4 workers on every node
//   ./bench_rpc --json out.json # machine-readable rows alongside the table
//   ./bench_rpc --smoke         # short sessions, both fabrics (CI: the
//                               # binary must run, the second call of a
//                               # session must be pool-served, and async
//                               # p99 at window 8 must stay under a very
//                               # generous fixed ceiling)
//   ./bench_rpc --fault "drop=0.01,delay=200us,seed=7" --timeout_ms 100
//                               # deterministic fault injection: the given
//                               # FaultPlan wraps the fabric, lost calls
//                               # time out after --timeout_ms and retry,
//                               # and the latency sample keeps the full
//                               # timeout + retry cost — p99/p999 under
//                               # loss is the number this mode exists for.
//                               # A `timeouts` column counts the retries.
//
// The p999 column and the smoke p99 guard bound the *tail*: a lost wakeup
// (a reply landing while the worker parks) hides in an average but stands
// out three nines deep.  --json rows additionally carry the callee node's
// per-worker scheduler counters (dispatches / steals / handoffs / idle
// wakeups) so a run records how the SMP scheduler actually spread the
// service threads.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "fabric/fault_fabric.hpp"
#include "madeleine/buffers.hpp"
#include "marcel/sync.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

using namespace pm2;

namespace {

std::atomic<uint64_t> g_total_ns{0};
std::atomic<uint64_t> g_wire_bytes{0};
std::atomic<uint64_t> g_copy_bytes{0};
std::atomic<uint64_t> g_p50_ns{0};
std::atomic<uint64_t> g_p99_ns{0};
std::atomic<uint64_t> g_p999_ns{0};
std::atomic<uint64_t> g_pool_hits{0};
std::atomic<uint64_t> g_pool_misses{0};
std::atomic<uint64_t> g_pool_evictions{0};
std::atomic<uint64_t> g_fut_hits{0};
std::atomic<uint64_t> g_fut_misses{0};
std::atomic<uint64_t> g_chunk_hits{0};
std::atomic<uint64_t> g_chunk_misses{0};
std::atomic<uint32_t> g_srv_workers{1};
std::vector<uint64_t> g_wstats;  // callee node, 5 counters per worker

uint64_t g_calls = 2000;
size_t g_payload = 64;
uint32_t g_workers = 0;  // 0 = RuntimeConfig auto (PM2_WORKERS env / 1)
std::string g_fault;          // FaultPlan spec; empty = no injection
uint64_t g_timeout_ms = 0;    // per-call deadline; 0 = unbounded
std::atomic<uint64_t> g_timeouts{0};  // measured calls that retried

// Generous smoke ceiling for async p99 at window >= 8.  Healthy in-process
// round trips sit in the tens of µs even under sanitizers; the failure
// class this guards (blind busy-poll windows, lost reply wakeups bounded
// only by the 100 ms idle park) shows up as 10^2–10^5 µs tails.
constexpr double kSmokeP99CeilingUs = 50000.0;

struct Row {
  std::string fabric;
  std::string mode;
  size_t outstanding;
  uint64_t calls;
  double us_per_call;
  double p50_us;
  double p99_us;
  double p999_us;
  double calls_per_s;
  double wire_mb;
  double copy_mb;
  uint64_t pool_hits;
  uint64_t pool_misses;
  uint64_t pool_evictions;
  uint64_t fut_hits;
  uint64_t fut_misses;
  uint64_t chunk_hits;
  uint64_t chunk_misses;
  uint64_t timeouts;
  uint32_t workers;
  std::vector<uint64_t> wstats;  // dispatches,steals,failed,handoffs,wakeups
};
std::vector<Row> g_rows;

/// Percentile in tenths of a percent (500 = p50, 999 = p99.9).
uint64_t percentile(std::vector<uint64_t>& sorted, int permille) {
  if (sorted.empty()) return 0;
  size_t idx = sorted.size() * static_cast<size_t>(permille) / 1000;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double hit_rate(uint64_t hits, uint64_t misses) {
  uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(hits) /
                          static_cast<double>(total);
}

/// One echo round trip that survives injected loss: a kTimeout failure
/// re-issues the request.  rt.call<R>() is exactly call_async<R>().take(),
/// so the fault-free path measures the same thing the blocking call did.
uint64_t echo_retry(Runtime& rt, const std::vector<uint8_t>& blob) {
  for (;;) {
    RpcFuture<uint64_t> fut = rt.call_async<uint64_t>(1, "echo-len", blob);
    fut.wait();
    if (!fut.failed()) return fut.take();
    PM2_CHECK(fut.code() == RpcErrorCode::kTimeout) << fut.error();
    ++g_timeouts;
  }
}

/// One measured session: node 0 issues `g_calls` echo requests to node 1
/// keeping `outstanding` in flight (outstanding == 0 → the legacy blocking
/// call() path).  Per-request latency is sampled issue → completion; under
/// --fault that includes any timeout + retry laps, which is the tail the
/// fault mode exists to expose.
void run_session(bool socket_fabric, size_t outstanding) {
  g_total_ns = 0;
  g_timeouts = 0;
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.socket_fabric = socket_fabric;
  cfg.rt.workers = g_workers;
  // "seed=1" parses to an inactive plan: an explicit "no faults" that also
  // masks any ambient PM2_FAULT_PLAN, so baseline numbers stay baseline.
  cfg.rt.fault_plan = g_fault.empty() ? "seed=1" : g_fault;
  cfg.rt.rpc_timeout_ns = g_timeout_ms * 1'000'000;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        std::vector<uint8_t> blob(g_payload, 0x5A);
        // Warm-up: fault the path end to end.
        echo_retry(rt, blob);
        g_timeouts = 0;  // count measured-loop retries only

        std::vector<uint64_t> samples;
        samples.reserve(g_calls);
        Stopwatch sw;
        if (outstanding == 0) {
          for (uint64_t i = 0; i < g_calls; ++i) {
            Stopwatch call_sw;
            uint64_t len = echo_retry(rt, blob);
            samples.push_back(call_sw.elapsed_ns());
            PM2_CHECK(len == blob.size());
          }
        } else {
          // Sliding window: top the window up, then reap-and-refill with
          // wait_any so the wire never drains.
          std::vector<RpcFuture<uint64_t>> window;
          std::vector<uint64_t> issued_at;
          uint64_t issued = 0;
          uint64_t done = 0;
          while (done < g_calls) {
            while (window.size() < outstanding && issued < g_calls) {
              issued_at.push_back(now_ns());
              window.push_back(rt.call_async<uint64_t>(1, "echo-len", blob));
              ++issued;
            }
            size_t idx = wait_any(window);
            if (window[idx].failed()) {
              PM2_CHECK(window[idx].code() == RpcErrorCode::kTimeout)
                  << window[idx].error();
              ++g_timeouts;
              // Re-issue under the original issue stamp so the sample
              // carries the full timeout + retry latency.
              window[idx] = rt.call_async<uint64_t>(1, "echo-len", blob);
              continue;
            }
            samples.push_back(now_ns() - issued_at[idx]);
            PM2_CHECK(window[idx].take() == blob.size());
            window.erase(window.begin() + static_cast<long>(idx));
            issued_at.erase(issued_at.begin() + static_cast<long>(idx));
            ++done;
          }
        }
        g_total_ns = sw.elapsed_ns();
        std::sort(samples.begin(), samples.end());
        g_p50_ns = percentile(samples, 500);
        g_p99_ns = percentile(samples, 990);
        g_p999_ns = percentile(samples, 999);
        g_wire_bytes = rt.fabric().bytes_sent();
        g_copy_bytes = rt.fabric().payload_copy_bytes();
        // The service threads (and therefore the invocation pool) live on
        // the callee node: fetch its counters over the same RPC plane.
        // Layout: 3 invocation-pool + 2 future-pool + 2 chunk-pool
        // counters, then n_workers and 5 scheduler counters per worker.
        // The counter fetch sits outside the measured window; retry on
        // injected loss without charging the timeouts column.
        std::vector<uint64_t> pool;
        for (;;) {
          auto f = rt.call_async<std::vector<uint64_t>>(1, "pool-stats");
          f.wait();
          if (!f.failed()) {
            pool = f.take();
            break;
          }
          PM2_CHECK(f.code() == RpcErrorCode::kTimeout) << f.error();
        }
        PM2_CHECK(pool.size() >= 8 && pool.size() == 8 + 5 * pool[7]);
        g_pool_hits = pool[0];
        g_pool_misses = pool[1];
        g_pool_evictions = pool[2];
        g_fut_hits = pool[3];
        g_fut_misses = pool[4];
        g_chunk_hits = pool[5];
        g_chunk_misses = pool[6];
        g_srv_workers = static_cast<uint32_t>(pool[7]);
        g_wstats.assign(pool.begin() + 8, pool.end());
      },
      [](Runtime& rt) {
        rt.service("echo-len",
                   [](RpcContext&, std::vector<uint8_t> v) -> uint64_t {
                     return v.size();
                   });
        rt.service("pool-stats", [](RpcContext&) -> std::vector<uint64_t> {
          Runtime& self = *Runtime::current();
          std::vector<uint64_t> out = {
              self.pool_hits(),    self.pool_misses(),
              self.pool_evictions(),
              // Process-wide pools (both in-process nodes share them):
              // cumulative across the bench's sessions, which is what the
              // hit-rate columns need.
              marcel::detail::future_pool_hits(),
              marcel::detail::future_pool_misses(),
              mad::chunk_pool_hits(), mad::chunk_pool_misses()};
          auto wstats = self.sched().worker_stats();
          out.push_back(wstats.size());
          for (const marcel::WorkerStats& w : wstats) {
            out.push_back(w.dispatches);
            out.push_back(w.steals);
            out.push_back(w.steal_failures);
            out.push_back(w.handoffs);
            out.push_back(w.idle_wakeups);
          }
          return out;
        });
      });
}

void bench_fabric(const char* fabric_name, bool socket_fabric, bool smoke,
                  const std::vector<size_t>& windows, double* sync_us,
                  double* best_async_us) {
  for (size_t outstanding : windows) {
    run_session(socket_fabric, outstanding);
    double us_per_call =
        static_cast<double>(g_total_ns.load()) / 1e3 /
        static_cast<double>(g_calls);
    double calls_per_s = 1e9 * static_cast<double>(g_calls) /
                         static_cast<double>(g_total_ns.load());
    if (outstanding == 0)
      *sync_us = us_per_call;
    else if (us_per_call < *best_async_us)
      *best_async_us = us_per_call;
    Row row;
    row.fabric = fabric_name;
    row.mode = outstanding == 0 ? "sync" : "async";
    row.outstanding = outstanding == 0 ? 1 : outstanding;
    row.calls = g_calls;
    row.us_per_call = us_per_call;
    row.p50_us = static_cast<double>(g_p50_ns.load()) / 1e3;
    row.p99_us = static_cast<double>(g_p99_ns.load()) / 1e3;
    row.p999_us = static_cast<double>(g_p999_ns.load()) / 1e3;
    row.calls_per_s = calls_per_s;
    row.wire_mb = static_cast<double>(g_wire_bytes.load()) / 1e6;
    row.copy_mb = static_cast<double>(g_copy_bytes.load()) / 1e6;
    row.pool_hits = g_pool_hits.load();
    row.pool_misses = g_pool_misses.load();
    row.pool_evictions = g_pool_evictions.load();
    row.fut_hits = g_fut_hits.load();
    row.fut_misses = g_fut_misses.load();
    row.chunk_hits = g_chunk_hits.load();
    row.chunk_misses = g_chunk_misses.load();
    row.timeouts = g_timeouts.load();
    row.workers = g_srv_workers.load();
    row.wstats = g_wstats;
    g_rows.push_back(row);
    // CI smoke assertions.  Even a short session makes warm-up + measured
    // calls + counter fetch — the second invocation onwards must be served
    // by the pool, or the recycling hot path has silently rotted.
    if (smoke) {
      PM2_CHECK(row.pool_hits > 0)
          << fabric_name << " smoke run had pool_hits == 0 — the "
          << "invocation pool is not serving the RPC hot path";
      // Tail guard: a p99 anywhere near the ceiling means replies are
      // crossing a blind poll window or a lost-wakeup park, not a fabric.
      // Injected faults legitimately blow the tail, so the guard only
      // applies to clean runs.
      if (row.mode == "async" && outstanding >= 8 && g_fault.empty()) {
        PM2_CHECK(row.p99_us < kSmokeP99CeilingUs)
            << fabric_name << " async window " << outstanding
            << " smoke p99 " << row.p99_us << " us exceeds the "
            << kSmokeP99CeilingUs << " us ceiling — reply wake-up path "
            << "regressed";
      }
    }
    uint64_t steals = 0;
    for (size_t w = 0; w < row.wstats.size(); w += 5)
      steals += row.wstats[w + 1];
    bench::print_cell(fabric_name);
    bench::print_cell(row.mode.c_str());
    bench::print_cell(static_cast<uint64_t>(row.outstanding));
    bench::print_cell(row.calls);
    bench::print_cell(row.us_per_call);
    bench::print_cell(row.p50_us);
    bench::print_cell(row.p99_us);
    bench::print_cell(row.p999_us);
    bench::print_cell(row.calls_per_s);
    bench::print_cell(row.wire_mb);
    bench::print_cell(row.copy_mb);
    bench::print_cell(row.pool_hits);
    bench::print_cell(row.pool_misses);
    bench::print_cell(hit_rate(row.fut_hits, row.fut_misses));
    bench::print_cell(hit_rate(row.chunk_hits, row.chunk_misses));
    bench::print_cell(row.timeouts);
    bench::print_cell(static_cast<uint64_t>(row.workers));
    bench::print_cell(steals);
    bench::print_row_end();
  }
}

void write_json(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  PM2_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f,
               "{\n  \"bench\": \"bench_rpc\",\n  \"calls\": %llu,\n"
               "  \"payload\": %zu,\n  \"workers_requested\": %u,\n"
               "  \"fault_plan\": \"%s\",\n  \"timeout_ms\": %llu,\n"
               "  \"rows\": [\n",
               static_cast<unsigned long long>(g_calls), g_payload,
               g_workers, g_fault.c_str(),
               static_cast<unsigned long long>(g_timeout_ms));
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(
        f,
        "    {\"fabric\": \"%s\", \"mode\": \"%s\", \"outstanding\": %zu, "
        "\"calls\": %llu, \"us_per_call\": %.3f, \"p50_us\": %.3f, "
        "\"p99_us\": %.3f, \"p999_us\": %.3f, \"calls_per_s\": %.1f, "
        "\"wire_mb\": %.3f, \"copy_mb\": %.3f, \"pool_hits\": %llu, "
        "\"pool_misses\": %llu, \"pool_evictions\": %llu, "
        "\"future_pool_hits\": %llu, \"future_pool_misses\": %llu, "
        "\"chunk_pool_hits\": %llu, \"chunk_pool_misses\": %llu, "
        "\"timeouts\": %llu, \"workers\": %u, \"worker_stats\": [",
        r.fabric.c_str(), r.mode.c_str(), r.outstanding,
        static_cast<unsigned long long>(r.calls), r.us_per_call, r.p50_us,
        r.p99_us, r.p999_us, r.calls_per_s, r.wire_mb, r.copy_mb,
        static_cast<unsigned long long>(r.pool_hits),
        static_cast<unsigned long long>(r.pool_misses),
        static_cast<unsigned long long>(r.pool_evictions),
        static_cast<unsigned long long>(r.fut_hits),
        static_cast<unsigned long long>(r.fut_misses),
        static_cast<unsigned long long>(r.chunk_hits),
        static_cast<unsigned long long>(r.chunk_misses),
        static_cast<unsigned long long>(r.timeouts), r.workers);
    for (size_t w = 0; w * 5 < r.wstats.size(); ++w) {
      std::fprintf(
          f,
          "{\"dispatches\": %llu, \"steals\": %llu, "
          "\"steal_failures\": %llu, \"handoffs\": %llu, "
          "\"idle_wakeups\": %llu}%s",
          static_cast<unsigned long long>(r.wstats[w * 5]),
          static_cast<unsigned long long>(r.wstats[w * 5 + 1]),
          static_cast<unsigned long long>(r.wstats[w * 5 + 2]),
          static_cast<unsigned long long>(r.wstats[w * 5 + 3]),
          static_cast<unsigned long long>(r.wstats[w * 5 + 4]),
          (w + 1) * 5 < r.wstats.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool smoke = flags.has("smoke");
  // Smoke needs enough calls for the window-8 p99 tail guard to sample
  // something beyond the warm-up call, while staying CI-cheap.
  g_calls = static_cast<uint64_t>(flags.i64("calls", smoke ? 64 : 2000));
  g_payload = static_cast<size_t>(flags.i64("payload", 64));
  g_workers = static_cast<uint32_t>(flags.i64("workers", 0));
  std::string json_path = flags.str("json", "");
  g_fault = flags.str("fault", "");
  g_timeout_ms = static_cast<uint64_t>(flags.i64("timeout_ms", 0));
  if (!g_fault.empty()) {
    // Validate the plan grammar loudly before any session runs, and refuse
    // a lossy plan without a deadline — a dropped reply with no timeout
    // parks the caller forever.
    fabric::FaultPlan plan = fabric::FaultPlan::parse(g_fault);
    PM2_CHECK(plan.active()) << "--fault plan injects nothing: " << g_fault;
    if (g_timeout_ms == 0) g_timeout_ms = 100;
  }

  bench::print_header(
      "RPC: blocking call() vs pipelined call_async() (echo round trips)",
      {"fabric", "mode", "outstanding", "calls", "us_per_call", "p50_us",
       "p99_us", "p999_us", "calls_per_s", "wire_MB", "copy_MB",
       "pool_hits", "pool_miss", "fut_hit%", "chk_hit%", "timeouts",
       "workers", "steals"});

  // outstanding == 0 encodes the blocking-call baseline.  Smoke mode runs
  // short sessions of each mode on both fabrics: CI keeps the binary, the
  // session bring-up, and the async tail (window 8) from rotting without
  // paying for a measurement.
  const std::vector<size_t> windows =
      smoke ? std::vector<size_t>{0, 1, 8}
            : std::vector<size_t>{0, 1, 2, 4, 8, 16, 32, 64};

  double sync_us_inproc = 0;
  double best_async_us_inproc = 1e18;
  bench_fabric("inproc", false, smoke, windows, &sync_us_inproc,
               &best_async_us_inproc);
  double sync_us_socket = 0;
  double best_async_us_socket = 1e18;
  bench_fabric("socket", true, smoke, windows, &sync_us_socket,
               &best_async_us_socket);

  if (!json_path.empty()) write_json(json_path);

  if (!smoke) {
    std::printf(
        "\nPipelining speedup (sync us/call over best async us/call):\n"
        "  inproc  %.2fx   socket  %.2fx\n"
        "With pooled invocations the serial cost per call is a context\n"
        "reset + dispatch, so the blocking round trip is near the kernel\n"
        "handoff floor; pipelining pays off once per-call service work\n"
        "exceeds the round trip — widen --payload or add work to see it.\n",
        sync_us_inproc / best_async_us_inproc,
        sync_us_socket / best_async_us_socket);
  }
  return 0;
}
