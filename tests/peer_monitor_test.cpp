// PeerMonitor, the heartbeat failure detector, on a fake clock: the
// up → suspect → down → up transitions, the heartbeat cadence, the disabled
// configurations, and one reader polling verdicts while the writer drives
// the clock (the comm-daemon-writer / worker-reader pair).
#include "pm2/peer_monitor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pm2 {
namespace {

using State = PeerMonitor::State;

constexpr uint64_t kPeriod = 1000;

TEST(PeerMonitor, SuspectAfterOneMissedPeriod) {
  PeerMonitor m(0, 3, kPeriod, 5);
  m.start(0);
  EXPECT_TRUE(m.tick(kPeriod / 2).down.empty());
  EXPECT_EQ(m.state(1), State::kUp);
  EXPECT_TRUE(m.tick(kPeriod).down.empty());
  EXPECT_EQ(m.state(1), State::kSuspect);
  EXPECT_EQ(m.state(2), State::kSuspect);
  EXPECT_EQ(m.state(0), State::kUp);  // self
}

TEST(PeerMonitor, DownAfterMissLimitPeriods) {
  PeerMonitor m(1, 3, kPeriod, 3);
  m.start(0);
  m.seen(2, 500);  // node 2 stays half a period ahead of node 0
  // Scans are a quarter period apart at the least, so the ticks below are.
  EXPECT_TRUE(m.tick(3 * kPeriod - 300).down.empty());
  EXPECT_EQ(m.state(0), State::kSuspect);
  PeerMonitor::Tick t = m.tick(3 * kPeriod);
  EXPECT_EQ(t.down, std::vector<uint32_t>{0});
  EXPECT_EQ(m.state(0), State::kDown);
  EXPECT_EQ(m.state(2), State::kSuspect);
  t = m.tick(3 * kPeriod + 500);
  EXPECT_EQ(t.down, std::vector<uint32_t>{2});
  // A verdict is reported once.
  EXPECT_TRUE(m.tick(10 * kPeriod).down.empty());
  EXPECT_EQ(m.state(0), State::kDown);
}

TEST(PeerMonitor, AnyFrameBringsAPeerBackUp) {
  PeerMonitor m(0, 2, kPeriod, 2);
  m.start(0);
  m.tick(kPeriod);
  EXPECT_EQ(m.state(1), State::kSuspect);
  m.seen(1, kPeriod + 1);
  EXPECT_EQ(m.state(1), State::kUp);
  EXPECT_EQ(m.tick(4 * kPeriod).down, std::vector<uint32_t>{1});
  m.seen(1, 4 * kPeriod + 1);
  EXPECT_EQ(m.state(1), State::kUp);
  // The clock restarts from that frame: one more silent period is a
  // suspicion again, not a second down verdict.
  EXPECT_TRUE(m.tick(5 * kPeriod + 1).down.empty());
  EXPECT_EQ(m.state(1), State::kSuspect);
}

TEST(PeerMonitor, DisabledAtOneNodeAndAtPeriodZero) {
  PeerMonitor single(0, 1, kPeriod, 5);
  PeerMonitor off(0, 3, 0, 5);
  for (PeerMonitor* m : {&single, &off}) {
    EXPECT_FALSE(m->enabled());
    m->start(0);
    m->seen(1, 1);
    PeerMonitor::Tick t = m->tick(100 * kPeriod);
    EXPECT_FALSE(t.heartbeat);
    EXPECT_TRUE(t.down.empty());
    EXPECT_EQ(m->state(1), State::kUp);
    EXPECT_EQ(m->next_heartbeat(), UINT64_MAX);
    EXPECT_EQ(m->heartbeats_sent(), 0u);
  }
  EXPECT_TRUE(PeerMonitor(0, 2, kPeriod, 5).enabled());
}

TEST(PeerMonitor, HeartbeatCadence) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kStep = 100;
  PeerMonitor m(2, kNodes, kPeriod, 5);
  m.start(0);
  EXPECT_EQ(m.next_heartbeat(), kPeriod);
  std::vector<uint64_t> beats;
  for (uint64_t now = 0; now <= 20 * kPeriod; now += kStep) {
    for (uint32_t n = 0; n < kNodes; ++n) m.seen(n, now);
    PeerMonitor::Tick t = m.tick(now);
    EXPECT_TRUE(t.down.empty());
    if (t.heartbeat) {
      beats.push_back(now);
      EXPECT_EQ(m.next_heartbeat(), now + kPeriod);
    }
  }
  ASSERT_GE(beats.size(), 15u);
  EXPECT_GE(beats.front(), kPeriod);
  // One round per period, each due no later than the next quarter-period
  // scan after its time.
  for (size_t i = 1; i < beats.size(); ++i) {
    EXPECT_GE(beats[i] - beats[i - 1], kPeriod);
    EXPECT_LE(beats[i] - beats[i - 1], kPeriod + kPeriod / 4 + 1 + kStep);
  }
  EXPECT_EQ(m.heartbeats_sent(), beats.size() * (kNodes - 1));
  for (uint32_t n = 0; n < kNodes; ++n) EXPECT_EQ(m.state(n), State::kUp);
}

TEST(PeerMonitor, ReaderPollsVerdictsWhileTheClockAdvances) {
  PeerMonitor m(0, 2, kPeriod, 3);
  m.start(0);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire) || reads.load() == 0) {
      ASSERT_LE(static_cast<uint8_t>(m.state(1)), 2);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Cycle the peer up → suspect → down → up many times.
  uint64_t now = 0;
  size_t downs = 0;
  for (int round = 0; round < 500; ++round) {
    m.seen(1, now);
    for (int i = 0; i < 4; ++i) {
      now += kPeriod;
      downs += m.tick(now).down.size();
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(downs, 500u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace pm2
