// E4 — Negotiation cost vs. cluster size (paper §5: "This negotiation takes
// 255 us in a 2-node configuration when using BIP/Myrinet.  If the
// underlying architecture provides more than 2 nodes, another 165 us should
// be added per extra node.").
//
// The gather step is sequential per peer, so the cost model is linear in
// the node count; this bench measures the per-allocation negotiation cost
// for 2..8 nodes and fits the slope.
#include <atomic>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "isomalloc/distribution.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"

using namespace pm2;

namespace {

std::atomic<uint64_t> g_iters{0};
double g_local_us = 0;   // single-slot (no negotiation) baseline
double g_nego_us = 0;    // multi-slot (always negotiates under RR)
uint64_t g_negotiations = 0;

void measure(Runtime& rt) {
  const int iters = static_cast<int>(g_iters.load());
  // Baseline: single-slot allocations are purely local.
  std::vector<void*> held;
  double t_local = bench::time_us([&] {
    for (int i = 0; i < iters; ++i) held.push_back(pm2_isomalloc(1024));
  });
  for (void* p : held) pm2_isofree(p);
  held.clear();

  // Multi-slot allocations under round-robin: one negotiation each (blocks
  // are kept so every request needs a fresh contiguous run).
  uint64_t nego_before = rt.negotiations_initiated();
  double t_nego = bench::time_us([&] {
    for (int i = 0; i < iters; ++i) held.push_back(pm2_isomalloc(100 * 1024));
  });
  for (void* p : held) pm2_isofree(p);

  g_local_us = t_local / iters;
  g_nego_us = t_nego / iters;
  g_negotiations = rt.negotiations_initiated() - nego_before;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int iters = static_cast<int>(flags.i64("iters", 30));
  const auto max_nodes = static_cast<uint32_t>(flags.i64("max_nodes", 8));

  bench::print_header(
      "E4: negotiation cost vs node count (paper: 255us at 2 nodes, "
      "+165us per extra node)",
      {"nodes", "local_us", "negotiated_us", "nego_overhead_us",
       "negotiations"});

  std::vector<double> xs, ys;
  for (uint32_t nodes = 2; nodes <= max_nodes; ++nodes) {
    g_iters = static_cast<uint64_t>(iters);
    AppConfig cfg;
    cfg.nodes = nodes;
    cfg.rt.slots.distribution = iso::Distribution::kRoundRobin;
    run_app(cfg, [&](Runtime& rt) {
      if (rt.self() == 0) measure(rt);
    });
    double overhead = g_nego_us - g_local_us;
    bench::print_cell(static_cast<uint64_t>(nodes));
    bench::print_cell(g_local_us);
    bench::print_cell(g_nego_us);
    bench::print_cell(overhead);
    bench::print_cell(g_negotiations);
    bench::print_row_end();
    xs.push_back(nodes);
    ys.push_back(overhead);
  }

  // Least-squares slope: the paper's "+165us per extra node" analogue.
  double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  double intercept = (sy - slope * sx) / n;
  std::printf(
      "\nLinear fit: negotiation overhead ~= %.1f us %+.1f us per node\n",
      intercept, slope);
  // The paper's model (sequential bitmap gather) predicts a positive
  // per-node slope; say it matches only when the fit agrees.
  if (slope > 0) {
    std::printf(
        "Shape check vs paper: matches — the cost grows with the node count "
        "(paper: +165us/node).\n");
  } else {
    std::printf(
        "Shape check vs paper: does not match — the fitted slope is not "
        "positive, so per-node messaging does not dominate here (paper: "
        "+165us/node).\n");
  }
  return 0;
}
