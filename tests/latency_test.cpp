// Regression guards for the event-driven comm path (PR 3).
//
// The blocking-RPC latency bug: the reply wake-up used to bounce through a
// blind busy-poll window (starving the peer node of the core), a fixed 1 ms
// recv timeout and a round-robin lap before the caller ran — ~400 µs per
// blocking call on the in-process hub, and marcel sleeps overslept by the
// poll interval on idle nodes.  These tests fail loudly if that shape of
// bug returns; the bounds are generous multiples of the event-driven
// path's cost so they stay green on slow shared CI runners.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"
#include "sys/sanitizer.hpp"

namespace pm2 {
namespace {

// Wall-clock ceilings are meaningless under ASan/UBSan/TSan and in -O0
// debug builds: instrumentation (or the absence of the optimizer)
// multiplies every path by a hardware-dependent factor, and a flaky
// instrumented job would push the suite back onto an exclusion list.
// Those runs still execute every call and sleep — asserting behaviour
// (results, ordering, lower bounds) — and only the timing ceilings are
// waived.  The optimized tier-1 leg keeps the guard.
#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif
constexpr bool kCheckCeilings = kOptimizedBuild && !sys::kAsan && !sys::kTsan;

// A blocking call on the in-process hub completes in single-digit µs when
// the comm daemons park on the fabric's readiness handle, the reply hands
// off directly to the caller, and the service thread is re-armed from the
// invocation pool (PR 4) instead of built per call.  The old poll-bounce
// path cost ~400 µs per call and the pre-pool path ~4.3 µs; the ceiling
// sits far above the fixed path (~3 µs on the 1-core dev box) and far
// below either regression shape, with slack for slow shared CI runners.
TEST(Latency, InprocBlockingCallStaysMicroseconds) {
  constexpr int kCalls = 300;
  constexpr double kCeilingUsPerCall = 50.0;
  std::atomic<uint64_t> total_ns{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (rt.self() != 0) return;
        rt.call<uint64_t>(1, "echo", uint64_t{0});  // warm the path
        Stopwatch sw;
        for (int i = 0; i < kCalls; ++i) {
          uint64_t r = rt.call<uint64_t>(1, "echo", static_cast<uint64_t>(i));
          ASSERT_EQ(r, static_cast<uint64_t>(i) + 1);
        }
        total_ns = sw.elapsed_ns();
      },
      [](Runtime& rt) {
        rt.service("echo",
                   [](RpcContext&, uint64_t v) -> uint64_t { return v + 1; });
      });
  double us_per_call = static_cast<double>(total_ns.load()) / 1e3 / kCalls;
  if (kCheckCeilings) {
    EXPECT_LT(us_per_call, kCeilingUsPerCall)
        << "blocking-call latency regressed: " << us_per_call
        << " us/call — the reply wake-up path is bouncing through poll "
           "windows again";
  }
}

// Sub-millisecond sleeps on an otherwise idle node must wake near their
// deadline: the comm daemon bounds its fabric wait by the scheduler's next
// timer.  The old path only fired timers between 1 ms recv timeouts, so
// twenty 500 µs sleeps took >25 ms; event-driven they take ~10-12 ms.
TEST(Latency, SleepAccurateOnIdleNode) {
  constexpr int kSleeps = 20;
  constexpr uint64_t kSleepUs = 500;
  std::atomic<uint64_t> total_ns{0};
  AppConfig cfg;
  cfg.nodes = 2;  // node 1 idles: both daemons must park, not poll
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() != 0) return;
    Stopwatch sw;
    for (int i = 0; i < kSleeps; ++i) pm2_sleep_us(kSleepUs);
    total_ns = sw.elapsed_ns();
  });
  uint64_t floor_ns = uint64_t{kSleeps} * kSleepUs * 1000;
  EXPECT_GE(total_ns.load(), floor_ns) << "sleeps returned early";
  if (kCheckCeilings) {
    EXPECT_LT(total_ns.load(), 2 * floor_ns)
        << "idle-node sleeps overslept: " << total_ns.load() / 1000
        << " us for " << kSleeps << " x " << kSleepUs
        << " us — expired timers are waiting on a fixed recv timeout again";
  }
}

// Under load the deadline still holds: a second thread keeps the node busy
// while the sleeper's timer must fire between dispatches.
TEST(Latency, SleepUnderLoadStillBounded) {
  std::atomic<uint64_t> elapsed_us{0};
  std::atomic<bool> stop{false};
  AppConfig cfg;
  cfg.nodes = 1;
  run_app(cfg, [&](Runtime& rt) {
    rt.spawn_local([&] {
      while (!stop.load()) pm2_yield();
    });
    Stopwatch sw;
    pm2_sleep_us(5000);
    elapsed_us = static_cast<uint64_t>(sw.elapsed_us());
    stop = true;
  });
  EXPECT_GE(elapsed_us.load(), 5000u);
  if (kCheckCeilings) {
    EXPECT_LT(elapsed_us.load(), 100000u);
  }
}

// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_calling_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ASSERT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
}

// A SCHED_IDLE thread spinning on `cpu` until destroyed.  idle_class() is
// false when the kernel refused the policy; the thread then exits at once,
// since a normal-class spinner would take half the core.
class IdleSpinner {
 public:
  explicit IdleSpinner(int cpu) {
    std::promise<bool> started;
    std::future<bool> got_idle_class = started.get_future();
    thread_ = std::thread([this, cpu, started = std::move(started)]() mutable {
      pin_calling_thread(cpu);
      sched_param param{};
      bool ok = pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
      started.set_value(ok);
      if (!ok) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
    idle_class_ = got_idle_class.get();
  }
  ~IdleSpinner() {
    stop_ = true;
    thread_.join();
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;
  bool idle_class() const { return idle_class_; }

 private:
  std::atomic<bool> stop_{false};
  bool idle_class_ = false;
  std::thread thread_;
};

// A caller that idles with a reply outstanding must not give its core away.
// The comm daemon used to yield-spin (sched_yield) for up to 200 us before
// blocking on the fabric, and a yield hands the CPU to any other runnable
// task on that core for a whole scheduler slice.  Here that task is a
// SCHED_IDLE spinner sharing the caller node's CPU, standing in for a
// co-located process: calls to a 50 us service took milliseconds.  A
// daemon that blocks instead is woken by the reply and preempts the
// idle-class spinner at once.  On 4 vCPUs the yield-spin made 137-175 of
// the 200 calls slower than 1 ms, the blocking daemon none; the bound
// leaves room for other processes time-slicing the two pinned CPUs (up to
// 15 slow calls alongside a parallel ctest run).
TEST(Latency, IdleCallerKeepsItsCoreNextToASpinner) {
  constexpr int kCalls = 200;
  constexpr uint64_t kCeilingNs = 1'000'000;
  const std::vector<int> cpus = allowed_cpus();
  // With one CPU the two nodes share it: the calls still run, unasserted.
  bool isolated = cpus.size() >= 2;
  std::optional<IdleSpinner> spinner;
  if (isolated) {
    spinner.emplace(cpus[0]);
    isolated = spinner->idle_class();
  }
  std::atomic<uint64_t> worst_ns{0};
  std::atomic<int> slow_calls{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.workers = 1;  // each node is one kernel thread, pinned below
  run_app(
      cfg,
      [&](Runtime& rt) {
        if (isolated) pin_calling_thread(cpus[rt.self() == 0 ? 0 : 1]);
        if (rt.self() != 0) return;
        rt.call<void>(1, "nap");  // warm the path
        uint64_t worst = 0;
        for (int i = 0; i < kCalls; ++i) {
          Stopwatch sw;
          rt.call<void>(1, "nap");
          uint64_t ns = sw.elapsed_ns();
          worst = std::max(worst, ns);
          if (ns > kCeilingNs) slow_calls.fetch_add(1);
        }
        worst_ns = worst;
      },
      [](Runtime& rt) {
        rt.service("nap", [](RpcContext&) { pm2_sleep_us(50); });
      });
  spinner.reset();
  EXPECT_GT(worst_ns.load(), 0u);
  if (isolated && kCheckCeilings) {
    EXPECT_LT(slow_calls.load(), kCalls / 4)
        << slow_calls.load() << " of " << kCalls << " calls took over "
        << kCeilingNs / 1000 << " us (worst " << worst_ns.load() / 1000
        << " us): the idle caller hands its core to the spinner";
  }
}

}  // namespace
}  // namespace pm2
