// Slot-store checkpoint & residency-tiering costs.
//
// The slot store turns a node's iso-area into buffer-managed storage: a
// node checkpoint persists every checkpointable thread into the per-node
// store file, writing only the pages that differ from the file (so the
// second and later rounds shrink to what threads changed), and the
// residency tier (demote / fault-back) trades resident bytes for file
// bytes on cold frozen threads.  This bench prices all three on one node:
//
//   * first node checkpoint of N threads (every page written, µs);
//   * delta re-checkpoint after dirtying ~10% of the pages (bytes written
//     vs skipped — the compare-and-write payoff);
//   * demote + fault-back round trip per thread (µs each way), plus the
//     resident-byte count the store absorbed.
//
//   ./bench_checkpoint                    # default: 16 threads x 64 KiB
//   ./bench_checkpoint --threads 64 --kb 256
//   ./bench_checkpoint --json out.json    # machine-readable rows
//   ./bench_checkpoint --smoke            # CI: small run; asserts the
//                                         # delta round writes less than
//                                         # the first and skips bytes, and
//                                         # that demote / fault-back round
//                                         # trips happen
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/time.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"

using namespace pm2;

namespace {

int64_t g_threads = 16;
int64_t g_kb = 64;  // iso-heap per thread

std::atomic<int> g_built{0};
std::atomic<int> g_phase{0};
std::atomic<int> g_done{0};

struct Row {
  const char* phase;
  double us;
  uint64_t threads;
  uint64_t bytes_written;
  uint64_t bytes_skipped;
};
std::vector<Row> g_rows;

void add_row(const char* phase, double us, const StoreCheckpointStats& s) {
  g_rows.push_back(
      Row{phase, us, s.threads, s.bytes_written, s.bytes_skipped});
  bench::print_cell(phase);
  bench::print_cell(us);
  bench::print_cell(s.threads);
  bench::print_cell(s.bytes_written);
  bench::print_cell(s.bytes_skipped);
  bench::print_row_end();
}

void worker(void*) {
  const size_t bytes = static_cast<size_t>(g_kb) * 1024;
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(bytes));
  std::memset(data, 0x5a, bytes);
  g_built.fetch_add(1);
  while (g_phase.load() < 1) pm2_yield();
  // Dirty ~10% of the pages between the first and delta rounds.
  for (size_t p = 0; p * 4096 < bytes; p += 10) data[p * 4096] ^= 0xff;
  g_done.fetch_add(1);
  while (g_phase.load() < 2) pm2_yield();
  pm2_isofree(data);
  pm2_signal(0);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  g_threads = flags.i64("threads", smoke ? 4 : 16);
  g_kb = flags.i64("kb", 64);
  const std::string json_path = flags.str("json", "");

  char dir[] = "/tmp/pm2-bench-ckpt-XXXXXX";
  PM2_CHECK(::mkdtemp(dir) != nullptr);

  AppConfig cfg;
  cfg.nodes = 1;
  cfg.rt.slot_store_dir = dir;

  StoreCheckpointStats full_stats, delta_stats;
  double full_us = 0, delta_us = 0, demote_us = 0, fault_us = 0;
  uint64_t demoted_bytes = 0, residual_bytes = 0;
  uint64_t demotions = 0, fault_backs = 0;

  run_app(cfg, [&](Runtime& rt) {
    std::vector<marcel::ThreadId> ids;
    for (int64_t i = 0; i < g_threads; ++i) {
      ids.push_back(pm2_thread_create(worker, nullptr, "ckpt"));
    }
    while (g_built.load() < g_threads) pm2_yield();

    full_us = bench::time_us([&] { full_stats = checkpoint_node_to_store(rt); });

    g_phase = 1;
    while (g_done.load() < g_threads) pm2_yield();
    delta_us =
        bench::time_us([&] { delta_stats = checkpoint_node_to_store(rt); });

    // Residency tier: freeze everything, page it out, fault it all back.
    for (marcel::ThreadId id : ids) PM2_CHECK(rt.freeze_thread(id));
    demote_us = bench::time_us([&] {
      for (marcel::ThreadId id : ids) PM2_CHECK(rt.demote_thread(id));
    });
    demoted_bytes = rt.residency().demoted_bytes();
    fault_us = bench::time_us([&] {
      for (marcel::ThreadId id : ids) PM2_CHECK(rt.unfreeze_thread(id));
    });
    residual_bytes = rt.residency().demoted_bytes();
    demotions = rt.demotions();
    fault_backs = rt.fault_backs();

    g_phase = 2;
    pm2_wait_signals(static_cast<uint64_t>(g_threads));
  });

  bench::print_header(
      "Node checkpoint through the slot store (PM2STOR1)",
      {"phase", "us", "threads", "written_B", "skipped_B"});
  add_row("full", full_us, full_stats);
  add_row("delta", delta_us, delta_stats);

  bench::print_header(
      "Residency tier: demote / fault-back of all threads",
      {"threads", "demote_us", "fault_us", "bytes", "demotions",
       "fault_backs"});
  bench::print_cell(static_cast<uint64_t>(g_threads));
  bench::print_cell(demote_us);
  bench::print_cell(fault_us);
  bench::print_cell(demoted_bytes);
  bench::print_cell(demotions);
  bench::print_cell(fault_backs);
  bench::print_row_end();

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    PM2_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_checkpoint\",\n"
                 "  \"threads\": %lld,\n  \"kb_per_thread\": %lld,\n"
                 "  \"rows\": [\n",
                 static_cast<long long>(g_threads),
                 static_cast<long long>(g_kb));
    for (const Row& r : g_rows) {
      std::fprintf(f,
                   "    {\"phase\": \"%s\", \"us\": %.1f, \"threads\": %llu, "
                   "\"bytes_written\": %llu, \"bytes_skipped\": %llu},\n",
                   r.phase, r.us, static_cast<unsigned long long>(r.threads),
                   static_cast<unsigned long long>(r.bytes_written),
                   static_cast<unsigned long long>(r.bytes_skipped));
    }
    std::fprintf(f,
                 "    {\"phase\": \"tier\", \"demote_us\": %.1f, "
                 "\"fault_us\": %.1f, \"demoted_bytes\": %llu, "
                 "\"demotions\": %llu, \"fault_backs\": %llu}\n  ]\n}\n",
                 demote_us, fault_us,
                 static_cast<unsigned long long>(demoted_bytes),
                 static_cast<unsigned long long>(demotions),
                 static_cast<unsigned long long>(fault_backs));
    std::fclose(f);
  }

  if (smoke) {
    PM2_CHECK(full_stats.threads == static_cast<uint64_t>(g_threads));
    PM2_CHECK(full_stats.bytes_written > 0);
    PM2_CHECK(delta_stats.bytes_written < full_stats.bytes_written)
        << "smoke: delta round (" << delta_stats.bytes_written
        << " bytes) did not write less than the first round ("
        << full_stats.bytes_written << " bytes)";
    PM2_CHECK(delta_stats.bytes_skipped > 0);
    PM2_CHECK(demotions == static_cast<uint64_t>(g_threads));
    PM2_CHECK(fault_backs == static_cast<uint64_t>(g_threads));
    PM2_CHECK(demoted_bytes > 0) << "demote paged nothing out";
    PM2_CHECK(residual_bytes == 0) << "fault-back left bytes demoted";
    std::printf("\nsmoke OK\n");
  }
  return 0;
}
