// Cooperative scheduler tests (thread lifecycle, freeze/adopt, join).
#include "marcel/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/time.hpp"

namespace pm2::marcel {
namespace {

constexpr size_t kRegion = 64 * 1024;

/// Region pool so tests do not leak thread memory (reapers are no-ops; the
/// pool frees everything at the end of the test).
struct Pool {
  std::vector<void*> regions;
  void* take() {
    void* p = std::aligned_alloc(64, kRegion);
    regions.push_back(p);
    return p;
  }
  ~Pool() {
    for (void* p : regions) std::free(p);
  }
};

void exit_now() {
  Scheduler::current_scheduler()->exit_current([](Thread*) {});
}

struct TraceCtx {
  std::vector<int>* trace;
  int id;
  int yields;
};

void tracing_entry(void* arg) {
  auto* ctx = static_cast<TraceCtx*>(arg);
  for (int i = 0; i < ctx->yields; ++i) {
    ctx->trace->push_back(ctx->id);
    Scheduler::current_scheduler()->yield();
  }
  ctx->trace->push_back(ctx->id * 100);
  exit_now();
}

TEST(Scheduler, RoundRobinInterleaving) {
  Pool pool;
  Scheduler sched;
  std::vector<int> trace;
  TraceCtx a{&trace, 1, 2}, b{&trace, 2, 2};
  sched.create(pool.take(), kRegion, &tracing_entry, &a, 1, "a");
  sched.create(pool.take(), kRegion, &tracing_entry, &b, 2, "b");
  sched.stop();
  sched.run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 1, 2, 100, 200}));
}

TEST(Scheduler, LiveAndReadyCounts) {
  Pool pool;
  Scheduler sched;
  TraceCtx a{nullptr, 0, 0};
  std::vector<int> trace;
  a.trace = &trace;
  sched.create(pool.take(), kRegion, &tracing_entry, &a, 1, "a");
  EXPECT_EQ(sched.live_count(), 1u);
  EXPECT_EQ(sched.ready_count(), 1u);
  sched.stop();
  sched.run();
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.ready_count(), 0u);
}

TEST(Scheduler, DaemonNotCountedLive) {
  Pool pool;
  Scheduler sched;
  std::vector<int> trace;
  TraceCtx a{&trace, 1, 0};
  sched.create(pool.take(), kRegion, &tracing_entry, &a, 1, "d",
               Thread::kFlagDaemon);
  EXPECT_EQ(sched.live_count(), 0u);
  sched.stop();
  sched.run();
}

TEST(Scheduler, ReaperRunsAfterExit) {
  Pool pool;
  Scheduler sched;
  bool reaped = false;
  ThreadId reaped_id = 0;
  // exit_current via a custom path: thread body calls exit with a reaper
  // that records the thread identity.
  struct Ctx {
    bool* reaped;
    ThreadId* id;
  } ctx{&reaped, &reaped_id};
  auto entry = [](void* p) {
    auto* c = static_cast<Ctx*>(p);
    Scheduler::current_scheduler()->exit_current([c](Thread* t) {
      *c->reaped = true;
      *c->id = t->id;
    });
  };
  sched.create(pool.take(), kRegion, entry, &ctx, 77, "x");
  sched.stop();
  sched.run();
  EXPECT_TRUE(reaped);
  EXPECT_EQ(reaped_id, 77u);
}

struct JoinCtx {
  std::vector<int>* trace;
  ThreadId target;
};

void joiner_entry(void* arg) {
  auto* ctx = static_cast<JoinCtx*>(arg);
  ctx->trace->push_back(1);
  Scheduler::current_scheduler()->join(ctx->target);
  ctx->trace->push_back(3);
  exit_now();
}

void joinee_entry(void* arg) {
  auto* ctx = static_cast<JoinCtx*>(arg);
  Scheduler::current_scheduler()->yield();
  ctx->trace->push_back(2);
  exit_now();
}

TEST(Scheduler, JoinBlocksUntilExit) {
  Pool pool;
  Scheduler sched;
  std::vector<int> trace;
  JoinCtx jc{&trace, 2};
  sched.create(pool.take(), kRegion, &joiner_entry, &jc, 1, "joiner");
  sched.create(pool.take(), kRegion, &joinee_entry, &jc, 2, "joinee");
  sched.stop();
  sched.run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, JoinOnMissingThreadReturnsFalse) {
  Pool pool;
  Scheduler sched;
  bool result = true;
  auto entry = [](void* p) {
    *static_cast<bool*>(p) = Scheduler::current_scheduler()->join(12345);
    exit_now();
  };
  sched.create(pool.take(), kRegion, entry, &result, 1, "x");
  sched.stop();
  sched.run();
  EXPECT_FALSE(result);
}

// Freeze a READY thread, then adopt it back: it must resume where it was.
TEST(Scheduler, FreezeAndReadopt) {
  Pool pool;
  Scheduler sched;
  std::vector<int> trace;
  TraceCtx a{&trace, 1, 1};
  Thread* victim = nullptr;
  struct FCtx {
    Thread** victim;
    Scheduler* sched;
    std::vector<int>* trace;
  } fctx{&victim, &sched, &trace};

  // Controller thread: freezes the victim after its first yield, then
  // re-adopts it (a degenerate "migration to self").
  auto controller = [](void* p) {
    auto* c = static_cast<FCtx*>(p);
    Scheduler* s = Scheduler::current_scheduler();
    ASSERT_TRUE(s->freeze(*c->victim));
    EXPECT_EQ((*c->victim)->state, ThreadState::kFrozen);
    c->trace->push_back(42);
    s->forget(*c->victim);
    s->adopt(*c->victim);
    exit_now();
  };

  victim = sched.create(pool.take(), kRegion, &tracing_entry, &a, 1, "victim");
  sched.create(pool.take(), kRegion, controller, &fctx, 2, "controller");
  sched.stop();
  sched.run();
  // victim prints 1, yields; controller freezes+readopts, prints 42;
  // victim resumes and prints 100.
  EXPECT_EQ(trace, (std::vector<int>{1, 42, 100}));
}

TEST(Scheduler, FreezeRefusesCurrentAndBlocked) {
  Pool pool;
  Scheduler sched;
  struct Ctx {
    bool self_result = true;
  } ctx;
  auto entry = [](void* p) {
    auto* c = static_cast<Ctx*>(p);
    Scheduler* s = Scheduler::current_scheduler();
    c->self_result = s->freeze(Scheduler::self());
    exit_now();
  };
  sched.create(pool.take(), kRegion, entry, &ctx, 1, "x");
  sched.stop();
  sched.run();
  EXPECT_FALSE(ctx.self_result);
}

void counting_entry(void* arg) {
  auto* n = static_cast<int*>(arg);
  for (int i = 0; i < 10; ++i) {
    ++*n;
    Scheduler::current_scheduler()->yield();
  }
  exit_now();
}

TEST(Scheduler, ManyThreads) {
  Pool pool;
  Scheduler sched;
  constexpr int kThreads = 100;
  int counters[kThreads] = {};
  for (int i = 0; i < kThreads; ++i) {
    sched.create(pool.take(), kRegion, &counting_entry, &counters[i],
                 static_cast<ThreadId>(i + 1), "n");
  }
  EXPECT_EQ(sched.live_count(), static_cast<size_t>(kThreads));
  sched.stop();
  sched.run();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(counters[i], 10);
  EXPECT_GE(sched.context_switches(), 1000u);
}

TEST(Scheduler, FindAndForEach) {
  Pool pool;
  Scheduler sched;
  std::vector<int> trace;
  TraceCtx a{&trace, 1, 0};
  Thread* t = sched.create(pool.take(), kRegion, &tracing_entry, &a, 9, "f");
  EXPECT_EQ(sched.find(9), t);
  EXPECT_EQ(sched.find(10), nullptr);
  size_t seen = 0;
  sched.for_each([&](Thread*) { ++seen; });
  EXPECT_EQ(seen, 1u);
  sched.stop();
  sched.run();
}

// ---------------------------------------------------------------------------
// Multi-worker (SMP) scheduling
// ---------------------------------------------------------------------------

struct SmpCtx {
  std::atomic<uint32_t>* worker_mask;  // bit per worker this thread ran on
  std::atomic<bool>* bad_worker;       // pinned thread saw a foreign worker
  std::atomic<bool>* done;             // churn threads spin until set
  std::atomic<int>* runs;              // rearm bodies executed
  std::atomic<int>* left = nullptr;    // live mask threads; the last stops
};

/// Yield until this thread has been observed on two distinct workers (i.e.
/// it was stolen at least once) or the iteration cap trips.  The cap keeps
/// the test terminating even if stealing were broken — the assertion below
/// then fails loudly instead of hanging.
void mask_entry(void* arg) {
  auto* ctx = static_cast<SmpCtx*>(arg);
  for (int i = 0; i < 100000; ++i) {
    uint32_t w = Scheduler::current_worker();
    uint32_t mask =
        ctx->worker_mask->fetch_or(1u << w, std::memory_order_relaxed) |
        (1u << w);
    if (__builtin_popcount(mask) >= 2 && i >= 100) break;
    Scheduler::current_scheduler()->yield();
  }
  if (ctx->left != nullptr && ctx->left->fetch_sub(1) == 1)
    Scheduler::current_scheduler()->stop();
  exit_now();
}

TEST(SchedulerSmp, StealSpreadsImbalancedLoad) {
  // Stopped up front, idle workers never park (the park predicate is true
  // while a stop is requested): they spin on try_steal.  Stopped by the
  // last thread, an idle worker parks and reaches the work through a
  // surplus wake.
  for (bool stop_up_front : {true, false}) {
    SCOPED_TRACE(stop_up_front ? "stop() before run()" : "stop() at the end");
    Pool pool;
    Scheduler sched(4);
    EXPECT_EQ(sched.workers(), 4u);
    std::atomic<uint32_t> worker_mask{0};
    std::atomic<int> left{32};
    SmpCtx ctx{&worker_mask, nullptr, nullptr, nullptr,
               stop_up_front ? nullptr : &left};
    // All 32 threads enter worker 0's deque (created from bootstrap); the
    // other three workers start empty and can only obtain work by stealing.
    for (int i = 0; i < 32; ++i)
      sched.create(pool.take(), kRegion, &mask_entry, &ctx,
                   static_cast<ThreadId>(i + 1), "m");
    if (stop_up_front) sched.stop();
    sched.run();
    EXPECT_GE(__builtin_popcount(worker_mask.load()), 2)
        << "no thread ever ran off worker 0";
    auto stats = sched.worker_stats();
    ASSERT_EQ(stats.size(), 4u);
    uint64_t steals = 0, dispatches = 0;
    for (const WorkerStats& s : stats) {
      steals += s.steals;
      dispatches += s.dispatches;
    }
    EXPECT_GT(steals, 0u);
    EXPECT_GE(dispatches, 32u);
  }
}

void pinned_entry(void* arg) {
  auto* ctx = static_cast<SmpCtx*>(arg);
  // Created from bootstrap with kFlagPinned: hard affinity to worker 0.
  for (int i = 0; i < 500; ++i) {
    if (Scheduler::current_worker() != 0) ctx->bad_worker->store(true);
    Scheduler::current_scheduler()->yield();
  }
  exit_now();
}

TEST(SchedulerSmp, PinnedThreadsNeverChangeWorker) {
  Pool pool;
  Scheduler sched(4);
  std::atomic<bool> bad_worker{false};
  std::atomic<uint32_t> worker_mask{0};
  SmpCtx ctx{&worker_mask, &bad_worker, nullptr, nullptr};
  for (int i = 0; i < 4; ++i)
    sched.create(pool.take(), kRegion, &pinned_entry, &ctx,
                 static_cast<ThreadId>(i + 1), "p", Thread::kFlagPinned);
  // Unpinned churn alongside, so thieves are active and would take the
  // pinned threads if the affinity check in try_steal were missing.
  for (int i = 0; i < 16; ++i)
    sched.create(pool.take(), kRegion, &mask_entry, &ctx,
                 static_cast<ThreadId>(i + 100), "c");
  sched.stop();
  sched.run();
  EXPECT_FALSE(bad_worker.load())
      << "a kFlagPinned thread was dispatched off its affinity worker";
}

void churn_entry(void* arg) {
  auto* ctx = static_cast<SmpCtx*>(arg);
  while (!ctx->done->load(std::memory_order_relaxed))
    Scheduler::current_scheduler()->yield();
  exit_now();
}

struct FreezeCtx {
  std::atomic<bool> done{false};
  int freezes = 0;
};

void freeze_controller(void* arg) {
  auto* c = static_cast<FreezeCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  for (int round = 0; round < 50; ++round) {
    // Gate the other workers: no victim can be mid-dispatch, so freeze()
    // must succeed on every still-registered yielding victim.
    s->pause_workers();
    Thread* t = s->find(static_cast<ThreadId>(round % 8 + 1));
    if (t != nullptr && s->freeze(t)) {
      ++c->freezes;
      s->unfreeze(t);
    }
    s->resume_workers();
    s->yield();
  }
  c->done.store(true);
  exit_now();
}

TEST(SchedulerSmp, FreezeWhileWorkersDispatchConcurrently) {
  Pool pool;
  Scheduler sched(4);
  FreezeCtx fc;
  SmpCtx ctx{nullptr, nullptr, &fc.done, nullptr};
  for (int i = 0; i < 8; ++i)
    sched.create(pool.take(), kRegion, &churn_entry, &ctx,
                 static_cast<ThreadId>(i + 1), "v");
  sched.create(pool.take(), kRegion, &freeze_controller, &fc, 99, "ctl");
  sched.stop();
  sched.run();
  // Victims only yield (never block, never exit before `done`), so under
  // the pause gate every round's freeze must have landed.
  EXPECT_EQ(fc.freezes, 50);
}

struct RearmCtx {
  std::mutex mu;
  std::vector<Thread*> parked;
  std::atomic<int> runs{0};
  std::atomic<bool> done{false};
};

void rearm_body(void* arg) {
  auto* c = static_cast<RearmCtx*>(arg);
  c->runs.fetch_add(1, std::memory_order_relaxed);
  Scheduler::current_scheduler()->exit_current([c](Thread* t) {
    std::lock_guard<std::mutex> g(c->mu);
    c->parked.push_back(t);
  });
}

void rearm_controller(void* arg) {
  auto* c = static_cast<RearmCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  ThreadId next_id = 1000;
  int rearmed = 0;
  while (rearmed < 200) {
    Thread* t = nullptr;
    {
      std::lock_guard<std::mutex> g(c->mu);
      if (!c->parked.empty()) {
        t = c->parked.back();
        c->parked.pop_back();
      }
    }
    if (t == nullptr) {
      s->yield();
      continue;
    }
    // The rearmed thread re-enters scheduling immediately and may be
    // stolen and dispatched by another worker while this thread keeps
    // rearming — the race under test.
    s->rearm(t, &rearm_body, c, next_id++, "r");
    ++rearmed;
  }
  while (c->runs.load(std::memory_order_relaxed) < 204) s->yield();
  c->done.store(true);
  exit_now();
}

TEST(SchedulerSmp, RearmRacesWithStealingWorkers) {
  Pool pool;
  Scheduler sched(4);
  RearmCtx rc;
  SmpCtx churn{nullptr, nullptr, &rc.done, nullptr};
  // 4 seed threads run once and park their descriptors via the reaper.
  for (int i = 0; i < 4; ++i)
    sched.create(pool.take(), kRegion, &rearm_body, &rc,
                 static_cast<ThreadId>(i + 1), "seed");
  for (int i = 0; i < 8; ++i)
    sched.create(pool.take(), kRegion, &churn_entry, &churn,
                 static_cast<ThreadId>(i + 500), "churn");
  sched.create(pool.take(), kRegion, &rearm_controller, &rc, 999, "ctl");
  sched.stop();
  sched.run();
  // 4 seed runs + 200 rearms, each body executing exactly once.
  EXPECT_EQ(rc.runs.load(), 204);
  // Every descriptor of the final generation ends up parked again.
  EXPECT_EQ(rc.parked.size(), 4u);
}

// --- handoff mailbox -------------------------------------------------------

struct FrontCtx {
  std::vector<int>* trace;
};

void front_blocker(void* arg) {
  auto* c = static_cast<FrontCtx*>(arg);
  c->trace->push_back(1);
  Scheduler::current_scheduler()->block();
  c->trace->push_back(200);
  exit_now();
}

void front_filler(void* arg) {
  auto* c = static_cast<FrontCtx*>(arg);
  c->trace->push_back(10);
  Scheduler::current_scheduler()->yield();
  c->trace->push_back(11);
  exit_now();
}

void front_controller(void* arg) {
  auto* c = static_cast<FrontCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  Thread* a = s->find(1);
  while (a->state != ThreadState::kBlocked) s->yield();
  s->unblock(a, /*front=*/true);
  c->trace->push_back(3);
  s->yield();
  exit_now();
}

TEST(Scheduler, FrontUnblockDispatchesBeforeFifoPeers) {
  // unblock(front=true) lands in the handoff mailbox, which pop_local
  // consults before the deque: the woken thread must run at the next
  // dispatch even though the filler was queued ahead of it in FIFO order.
  Pool pool;
  Scheduler sched;
  std::vector<int> trace;
  FrontCtx ctx{&trace};
  sched.create(pool.take(), kRegion, &front_blocker, &ctx, 1, "blk");
  sched.create(pool.take(), kRegion, &front_filler, &ctx, 2, "fill");
  sched.create(pool.take(), kRegion, &front_controller, &ctx, 3, "ctl");
  sched.stop();
  sched.run();
  // blocker parks; filler marks 10 and yields; controller hands the blocker
  // off front and yields — the very next dispatch must be the blocker's
  // wakeup (200), ahead of the filler's second lap (11).
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ((std::vector<int>{trace[0], trace[1], trace[2], trace[3]}),
            (std::vector<int>{1, 10, 3, 200}));
}

// --- unfreeze publication --------------------------------------------------

struct PubPayload {
  uint64_t a = 0;
  uint64_t b = 0;
  std::atomic<int>* bad;
  std::atomic<int>* runs;
};

void pub_entry(void* arg) {
  auto* p = static_cast<PubPayload*>(arg);
  // Filled by the creator AFTER create(..., start_frozen=true) returned;
  // only unfreeze()'s release publication makes these reads well-defined on
  // the (possibly stealing) worker that dispatches us.
  if (p->a == 0 || p->b != p->a * 7)
    p->bad->fetch_add(1, std::memory_order_relaxed);
  p->runs->fetch_add(1, std::memory_order_relaxed);
  exit_now();
}

struct PubCtx {
  Pool* pool;
  std::vector<PubPayload> payloads;
  std::atomic<int> bad{0};
  std::atomic<int> runs{0};
  std::atomic<bool> done{false};
};

void pub_controller(void* arg) {
  auto* c = static_cast<PubCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  const int n = static_cast<int>(c->payloads.size());
  for (int i = 0; i < n; ++i) {
    PubPayload& p = c->payloads[static_cast<size_t>(i)];
    p.bad = &c->bad;
    p.runs = &c->runs;
    Thread* t = s->create(c->pool->take(), kRegion, &pub_entry, &p,
                          static_cast<ThreadId>(2000 + i), "pub", 0,
                          /*start_frozen=*/true);
    // The race under test: at workers > 1 a ready newborn could already be
    // stolen — frozen creation holds it back until the payload is complete.
    p.a = 0x1234567890abcdefULL + static_cast<uint64_t>(i);
    p.b = p.a * 7;
    s->unfreeze(t);
    s->yield();
  }
  while (c->runs.load(std::memory_order_relaxed) < n) s->yield();
  c->done.store(true);
  exit_now();
}

TEST(SchedulerSmp, UnfreezePublishesPreparedDescriptor) {
  Pool pool;
  Scheduler sched(4);
  PubCtx pc;
  pc.pool = &pool;
  pc.payloads.resize(100);
  SmpCtx churn{nullptr, nullptr, &pc.done, nullptr};
  // Churners keep the other workers actively stealing, so freshly
  // unfrozen threads really do get picked up by foreign workers.
  for (int i = 0; i < 8; ++i)
    sched.create(pool.take(), kRegion, &churn_entry, &churn,
                 static_cast<ThreadId>(i + 500), "churn");
  sched.create(pool.take(), kRegion, &pub_controller, &pc, 999, "ctl");
  sched.stop();
  sched.run();
  EXPECT_EQ(pc.runs.load(), 100);
  EXPECT_EQ(pc.bad.load(), 0)
      << "a stolen thread observed a half-prepared descriptor";
}

// --- surplus wake ----------------------------------------------------------

constexpr int kSurplusThreads = 16;

struct SurplusCtx {
  Pool* pool;
  uint64_t t0_ns = 0;                       // just before the first create
  std::atomic<uint64_t> first_steal_ns{0};  // first run on worker 1
  std::atomic<int> exited{0};
};

void surplus_yielder(void* arg) {
  auto* c = static_cast<SurplusCtx*>(arg);
  // Bounded either way: a broken hand-off fails the latency assertion
  // instead of hanging the test.
  while (c->first_steal_ns.load() == 0 &&
         now_ns() - c->t0_ns < 1'000'000'000) {
    if (Scheduler::current_worker() == 1) {
      uint64_t zero = 0;
      c->first_steal_ns.compare_exchange_strong(zero, now_ns());
    }
    Scheduler::current_scheduler()->yield();
  }
  // Not before: a stop request makes parked workers spin instead of park.
  if (c->exited.fetch_add(1) + 1 == kSurplusThreads)
    Scheduler::current_scheduler()->stop();
  exit_now();
}

void surplus_controller(void* arg) {
  auto* c = static_cast<SurplusCtx*>(arg);
  // Pinned to worker 0 and holding its kernel thread: worker 1 finds
  // nothing to run or steal and parks on its backstop clock.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  c->t0_ns = now_ns();
  Scheduler* s = Scheduler::current_scheduler();
  for (int i = 0; i < kSurplusThreads; ++i)
    s->create(c->pool->take(), kRegion, &surplus_yielder, c,
              static_cast<ThreadId>(3000 + i), "y");
  exit_now();
}

// Local surplus on worker 0's deque must reach the parked worker 1 as a
// steal, not as a wake it sleeps through until the 100 ms backstop.
TEST(SchedulerSmp, SurplusWakeReachesParkedThief) {
  Pool pool;
  Scheduler sched(2);
  SurplusCtx c;
  c.pool = &pool;
  sched.create(pool.take(), kRegion, &surplus_controller, &c, 1, "ctl",
               Thread::kFlagPinned);
  sched.run();
  uint64_t stolen = c.first_steal_ns.load();
  ASSERT_NE(stolen, 0u) << "worker 1 never ran a yielder";
  EXPECT_LT(stolen - c.t0_ns, 20'000'000u)
      << "worker 1 stole only after " << (stolen - c.t0_ns) / 1000 << " us";
  EXPECT_GT(sched.worker_stats()[1].steals, 0u);
}

TEST(SchedulerDeath, StackOverflowCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Pool pool;
  auto entry = [](void*) {
    // Smash the canary the way a runaway stack would.
    Thread* self = Scheduler::self();
    *reinterpret_cast<uint64_t*>(self->stack_base) = 0;
    Scheduler::current_scheduler()->yield();
    exit_now();
  };
  EXPECT_DEATH(
      {
        Scheduler sched;
        sched.create(pool.take(), kRegion, entry, nullptr, 1, "smash");
        sched.stop();
        sched.run();
      },
      "stack overflow");
}

}  // namespace
}  // namespace pm2::marcel
