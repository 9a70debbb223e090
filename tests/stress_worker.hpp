// The randomized migration stress worker shared by the in-process stress
// suite and the multiprocess suite: each worker keeps a private table of
// (pointer, size, fill) in iso-memory and randomly allocates / frees /
// rewrites / verifies / migrates.  Failures clear g_ok (and print) instead
// of asserting, so a worker that fails on another node still reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/random.hpp"
#include "isomalloc/heap.hpp"
#include "pm2/api.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

inline std::atomic<bool> g_ok{true};
inline std::atomic<uint64_t> g_hops{0};

#define ST_EXPECT(cond)                                                \
  do {                                                                 \
    if (!(cond)) {                                                     \
      g_ok = false;                                                    \
      pm2_printf("stress failure: %s line %d (node %u)\n", #cond,      \
                 __LINE__, pm2_self());                                \
    }                                                                  \
  } while (0)

struct StressState {
  static constexpr int kMaxLive = 24;
  void* ptr[kMaxLive];
  uint32_t size[kMaxLive];
  uint8_t fill[kMaxLive];
  int live;
  uint64_t seed;
  int steps;
};

inline void stress_worker(void* arg) {
  auto seed = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(arg));
  // The state table itself must migrate too: put it in iso-memory.
  auto* st = static_cast<StressState*>(pm2_isomalloc(sizeof(StressState)));
  std::memset(st, 0, sizeof(*st));
  st->seed = seed;
  st->steps = 300;

  Rng rng(seed);
  uint32_t nodes = pm2_nodes();
  for (int step = 0; step < st->steps; ++step) {
    double dice = rng.next_double();
    if (dice < 0.30 && st->live < StressState::kMaxLive) {
      int i = st->live++;
      st->size[i] = static_cast<uint32_t>(rng.next_range(1, 20000));
      st->fill[i] = static_cast<uint8_t>(rng.next() | 1);
      st->ptr[i] = pm2_isomalloc(st->size[i]);
      std::memset(st->ptr[i], st->fill[i], st->size[i]);
    } else if (dice < 0.45 && st->live > 0) {
      int i = static_cast<int>(rng.next_below(st->live));
      pm2_isofree(st->ptr[i]);
      st->ptr[i] = st->ptr[st->live - 1];
      st->size[i] = st->size[st->live - 1];
      st->fill[i] = st->fill[st->live - 1];
      --st->live;
    } else if (dice < 0.65 && st->live > 0) {
      // Verify a random block end-to-end.
      int i = static_cast<int>(rng.next_below(st->live));
      auto* p = static_cast<uint8_t*>(st->ptr[i]);
      for (uint32_t k = 0; k < st->size[i]; k += 97)
        ST_EXPECT(p[k] == st->fill[i]);
    } else if (dice < 0.80 && st->live > 0) {
      // Rewrite with a new fill byte.
      int i = static_cast<int>(rng.next_below(st->live));
      st->fill[i] = static_cast<uint8_t>(rng.next() | 1);
      std::memset(st->ptr[i], st->fill[i], st->size[i]);
    } else if (nodes > 1) {
      auto dest = static_cast<uint32_t>(rng.next_below(nodes));
      pm2_migrate(marcel_self(), dest);
      ++g_hops;
    } else {
      pm2_yield();
    }
  }
  // Final verification + drain on whatever node we ended at.
  for (int i = 0; i < st->live; ++i) {
    auto* p = static_cast<uint8_t*>(st->ptr[i]);
    for (uint32_t k = 0; k < st->size[i]; k += 61) {
      ST_EXPECT(p[k] == st->fill[i]);
    }
    pm2_isofree(st->ptr[i]);
  }
  iso::ThreadHeap::check_invariants(marcel_self()->slot_list,
                                    Runtime::current()->area().slot_size());
  pm2_isofree(st);
  pm2_signal(0);
}

}  // namespace pm2
