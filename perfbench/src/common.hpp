// Shared pieces of pm2bench: options, the in-process session
// harness, counter snapshots, the span log and the result writer.
//
// Every workload runs its nodes as in-process logical nodes (one kernel
// thread per scheduler worker, one CPU set per node), so all nodes read the
// same CLOCK_MONOTONIC and a span that starts on one node and ends on another
// is a plain subtraction.  Nothing here reaches into src/: spans are recorded
// around calls into the public pm2:: surface, and counters are the getters
// the layers already expose.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "common/time.hpp"
#include "pm2/runtime.hpp"

namespace pb {

using pm2::now_ns;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".bench_run";  // relative to the working directory
  std::string out;                     // result JSON path
  std::string trace_file;              // Chrome trace path (--trace)
};

/// One line to re-run exactly this measurement.
std::string replay_command(const Options& o);

/// 64-bit checksum over words (fast enough for the generator's hot loop).
uint64_t checksum(const void* data, size_t len);

/// Fill `len` bytes with a stream derived from `seed`.
void fill_seeded(void* data, size_t len, uint64_t seed);

/// Largest iso-heap block the workloads allocate.  Blocks stay within one
/// 64 KiB slot: multi-slot blocks under concurrent self-migration corrupt
/// slot ownership in this runtime (rebuild with this set to 262144 and run
/// migrate_tour to reproduce), so they are left out until that is fixed.
constexpr uint32_t kMaxBlockBytes = 60000;

/// Seeded block size for stratum `k` of `strata`: log-uniform within the
/// k-th equal share of [16 B, kMaxBlockBytes] on a log scale, so every seed
/// gets the same spread of small and large blocks.
uint32_t block_size(pm2::Rng& rng, uint32_t k, uint32_t strata);

/// Whole file as a string ("" when unreadable).
std::string read_file(const std::string& path);

/// Quantile of an unsorted sample (nearest rank on a sorted copy).
double quantile(std::vector<double> v, double q);

/// Window length for the per-window latency quantiles.
constexpr uint64_t kWindowNs = 250'000'000;
/// Split (start time, latency) samples into kWindowNs windows from
/// `origin_ns` and append each window's p50 and p99.  Windows with fewer
/// than 100 samples (too few for a p99) are skipped.
void windowed(std::vector<std::pair<uint64_t, double>> samples,
              uint64_t origin_ns, std::vector<double>* p50,
              std::vector<double>* p99);

/// Completions per second in each whole kWindowNs window of
/// [origin_ns, end_ns), from the completion times.  The median over windows
/// is a throughput that one stalled window cannot drag down.
std::vector<double> window_rates(const std::vector<uint64_t>& done_ns,
                                 uint64_t origin_ns, uint64_t end_ns);

// --- result document ---------------------------------------------------------

/// Flat JSON object builder (numbers, strings, bools, nested objects/arrays
/// pre-rendered as raw JSON).
class Json {
 public:
  Json& num(const std::string& k, double v);
  Json& integer(const std::string& k, uint64_t v);
  Json& str(const std::string& k, const std::string& v);
  Json& boolean(const std::string& k, bool v);
  Json& raw(const std::string& k, const std::string& json);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};
std::string json_array(const std::vector<double>& v);
std::string json_quote(const std::string& s);
bool write_file(const std::string& path, const std::string& text);

// --- machine record ------------------------------------------------------------

/// nproc, CPU model, build type, compiler, affinity, soft-dirty support and
/// the filesystem holding `store_dir`, as a JSON object.
std::string machine_json(const std::string& store_dir);

// --- session harness -----------------------------------------------------------

struct SessionConfig {
  uint32_t nodes = 2;
  bool socket_fabric = false;
  std::string socket_dir;               // socket fabric only (relative path)
  std::vector<uint32_t> workers;        // per node
  std::vector<std::vector<int>> cpus;   // per node CPU set
  /// Keep the session's CPUs from halting while it runs (a SCHED_IDLE
  /// spinner per CPU; see run_session).  Multi-node workloads set it: their
  /// cross-node wake-ups otherwise wait on the hypervisor waking a halted
  /// vCPU, which on a shared 4-vCPU Xeon VM moved the rpc_open p50 from 18 us to
  /// 35-100 us with the host's load.  ckpt_cycle (one node) measured slower
  /// with it and leaves it off.
  bool keep_cpus_busy = false;
  pm2::RuntimeConfig rt;
};

/// CPU sets for `nodes` nodes with `workers[i]` workers each: consecutive
/// CPUs out of the process affinity mask, one per worker, the highest ones
/// first, wrapping around when the mask is smaller than the total.
std::vector<std::vector<int>> assign_cpus(const std::vector<uint32_t>& workers);
std::string cpus_json(const std::vector<std::vector<int>>& cpus);

/// Run one in-process session, like pm2::run_app's logical-node mode but
/// with per-node CPU placement, optionally non-halting CPUs, a
/// caller-chosen socket directory, and socket nodes that dial in id order.
/// Each node's kernel thread is pinned to its CPU set before the Runtime is
/// built, so the node's extra scheduler workers inherit the same set.
/// `setup` runs per node before the scheduler starts; `node_main` is each
/// node's main thread; the session ends with a barrier and node 0's halt.
void run_session(const SessionConfig& cfg,
                 const std::function<void(pm2::Runtime&)>& setup,
                 const std::function<void(pm2::Runtime&)>& node_main);

/// The Runtime of each node of the running session (filled before any
/// node_main starts, cleared when the session ends).
extern std::vector<pm2::Runtime*> g_nodes;

/// Seconds since the running session started: once its CPUs are held busy
/// (keep_cpus_busy), before the iso area, fabrics and Runtimes are built.
/// A workload's setup_s is this at the end of its warm-up; starting the
/// spinners is the benchmark's machine set-up, not the program's.
double session_seconds();

/// Kernel threads (tids) of each node of the running session.  Once every
/// node runs, run_session re-pins each node's scheduler workers one CPU
/// each (round-robin over the node's set), so a node's two workers never
/// share a core and cross-core wake-ups stay in the numbers.
extern std::vector<std::vector<int>> g_node_tids;
/// Kernel-thread CPU time of each node's threads, summed per node.
std::vector<uint64_t> node_cpu_ns();

// --- counters ------------------------------------------------------------------

/// Named counter values.  snapshot() reads every counter the layers expose:
/// the per-node Runtime getters, fabric, scheduler worker_stats(), heap and
/// slot stats, slot store stats, and the process-global madeleine chunk pool
/// and marcel future pool.  diff() is after-minus-before, so a phase reports
/// its own counts whatever ran before it.
using Counters = std::map<std::string, uint64_t>;
Counters snapshot(const std::vector<pm2::Runtime*>& nodes);
Counters diff(const Counters& after, const Counters& before);
/// Sum of `suffix` over every node ("n0.fabric.msgs" + "n1.fabric.msgs"...).
uint64_t sum_nodes(const Counters& c, const std::string& suffix);

// --- spans ---------------------------------------------------------------------

/// In-memory span log: fixed capacity, lock-free append from any node.
/// Each span has a name, start, end, parent span id and a per-operation id;
/// write_chrome() renders Chrome trace-event JSON ("X" events, "C" counter
/// events, and an otherData object).
class SpanLog {
 public:
  explicit SpanLog(size_t capacity);
  /// Returns the span id (>= 1), or 0 when the log is full.
  uint64_t add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t op, uint64_t parent, uint32_t lane);
  void counters(const std::string& name, uint64_t ts_ns, const Counters& c);
  size_t size() const;
  uint64_t dropped() const { return dropped_.load(); }
  bool write_chrome(const std::string& path, const std::string& other_json) const;

 private:
  struct Span {
    const char* name;
    uint64_t start, end, op, parent;
    uint32_t lane;
  };
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::vector<std::pair<std::string, std::pair<uint64_t, Counters>>> counters_;
};

// --- workloads -----------------------------------------------------------------

/// Each workload writes its result object to o.out (and the trace file when
/// o.trace) and returns the process exit code: 0, or 1 when a correctness
/// check failed.
int run_rpc_open(const Options& o);
int run_migrate_tour(const Options& o);
int run_ckpt_cycle(const Options& o);
/// ckpt_cycle's re-executed recover process.
int run_ckpt_recover(const Options& o, const std::string& store_dir,
                     uint32_t threads);
/// Differencing and trace-writer self tests.
int run_selftest(const Options& o);

/// Resident memory the running session added to the process, in MiB: the
/// Memory the session holds: resident pages of its iso area plus the bytes
/// malloc has handed out since the session started.  Not the RSS: what
/// glibc keeps cached in its arenas follows which arena each new thread
/// picked and the arenas' history, and moved the RSS a migrate_tour session
/// added by 0.5-1.4 MB while these two stayed within 1 %.  The workloads
/// take it at a fixed point of each session: the process-lifetime peak
/// follows the worst transient burst (backlogs during host stalls), a
/// sample at a fixed point does not.
double session_mem_mb();
/// Report a failed check: prints it with the seed and the replay command.
void report_failure(const Options& o, const std::string& what);

}  // namespace pb
