// Self tests of the benchmark's own machinery (run by `run.py --selftest`):
//
//  * differencing: two back-to-back phases of one session issue different
//    numbers of calls, and each phase's after-minus-before counters must
//    report exactly its own calls, not the cumulative total;
//  * trace writer: a small span log is written as Chrome trace JSON to
//    <run-dir>/selftest_trace.json, which run.py's tests parse back and
//    check for self times.
#include <cstdio>

#include "common.hpp"
#include "pm2/api.hpp"

namespace pb {

int run_selftest(const Options& o) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  SessionConfig sc;
  sc.nodes = 2;
  sc.workers = {1, 1};
  sc.cpus = assign_cpus(sc.workers);
  Counters phase[2];
  const uint32_t calls[2] = {100, 300};
  run_session(
      sc,
      [](pm2::Runtime& rt) {
        rt.service("sq", [](pm2::RpcContext&, uint64_t x) -> uint64_t {
          return x * x;
        });
      },
      [&](pm2::Runtime& rt) {
        if (rt.self() != 0) return;
        for (int p = 0; p < 2; ++p) {
          Counters before = snapshot(g_nodes);
          for (uint32_t i = 0; i < calls[p]; ++i)
            if (rt.call<uint64_t>(1, "sq", uint64_t{i}) != uint64_t{i} * i) ++failures;
          phase[p] = diff(snapshot(g_nodes), before);
        }
      });
  for (int p = 0; p < 2; ++p) {
    const std::string tag = "phase " + std::to_string(p + 1) + ": ";
    expect(phase[p]["n0.fabric.msgs"] == calls[p],
           tag + "node 0 sent " + std::to_string(phase[p]["n0.fabric.msgs"]) +
               " requests, expected " + std::to_string(calls[p]));
    expect(phase[p]["n1.fabric.msgs"] == calls[p],
           tag + "node 1 sent " + std::to_string(phase[p]["n1.fabric.msgs"]) +
               " replies, expected " + std::to_string(calls[p]));
    expect(phase[p]["n1.pool.hits"] + phase[p]["n1.pool.misses"] == calls[p],
           tag + "node 1 dispatched " +
               std::to_string(phase[p]["n1.pool.hits"] + phase[p]["n1.pool.misses"]) +
               " invocations, expected " + std::to_string(calls[p]));
  }
  expect(sum_nodes(phase[1], "fabric.msgs") == 2 * calls[1],
         "sum_nodes adds every node's counter");

  // Trace writer: root [0, 100] us with children [10, 30] and [20, 60]
  // (overlapping: union 50 us, so the root's self time is 50 us), and a
  // counter event.
  SpanLog log(8);
  const uint64_t t0 = 1'000'000'000;
  uint64_t root = log.add("root", t0, t0 + 100'000, 1, 0, 0);
  log.add("child.a", t0 + 10'000, t0 + 30'000, 1, root, 0);
  log.add("child.b", t0 + 20'000, t0 + 60'000, 1, root, 1);
  log.counters("phase", t0 + 100'000, Counters{{"n0.fabric.msgs", 7}});
  const std::string path = o.run_dir + "/selftest_trace.json";
  expect(log.write_chrome(path, "{\"workload\": \"selftest\", \"ops\": 1}"),
         "trace written to " + path);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace pb
