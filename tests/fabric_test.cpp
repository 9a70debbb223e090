// Message basics and the in-process fabric (framing over real sockets is
// covered by socket_fabric_test).
#include "fabric/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "fabric/inproc.hpp"

namespace pm2::fabric {
namespace {

TEST(InProc, SendReceive) {
  auto hub = std::make_shared<InProcHub>(2);
  auto a = hub->endpoint(0);
  auto b = hub->endpoint(1);

  Message msg;
  msg.type = 42;
  msg.dst = 1;
  msg.payload = {9, 8, 7};
  a->send(std::move(msg));

  auto got = b->recv(1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 42);
  EXPECT_EQ(got->src, 0u);
  EXPECT_EQ(got->payload, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(InProc, TryRecvEmpty) {
  auto hub = std::make_shared<InProcHub>(1);
  auto a = hub->endpoint(0);
  EXPECT_FALSE(a->try_recv().has_value());
}

TEST(InProc, RecvTimeout) {
  auto hub = std::make_shared<InProcHub>(2);
  auto a = hub->endpoint(0);
  EXPECT_FALSE(a->recv(10).has_value());
}

TEST(InProc, FifoPerDestination) {
  auto hub = std::make_shared<InProcHub>(2);
  auto a = hub->endpoint(0);
  auto b = hub->endpoint(1);
  for (uint16_t i = 0; i < 100; ++i) {
    Message m;
    m.type = i;
    m.dst = 1;
    a->send(std::move(m));
  }
  for (uint16_t i = 0; i < 100; ++i) {
    auto got = b->try_recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, i);
  }
}

TEST(InProc, CrossThreadWakeup) {
  auto hub = std::make_shared<InProcHub>(2);
  auto a = hub->endpoint(0);
  auto b = hub->endpoint(1);

  std::thread sender([&] {
    Message m;
    m.type = 5;
    m.dst = 1;
    a->send(std::move(m));
  });
  auto got = b->recv(-1);
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 5);
}

TEST(InProc, WakeInterruptsBlockedRecv) {
  // The waitable-readiness contract: wake() from another thread makes an
  // indefinitely blocked recv_until return promptly without a frame.
  auto hub = std::make_shared<InProcHub>(1);
  auto a = hub->endpoint(0);
  std::thread waker([&] { a->wake(); });
  Stopwatch sw;
  auto got = a->recv_until(now_ns() + 5'000'000'000ull);
  waker.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(sw.elapsed_ms(), 1000.0) << "wake() did not interrupt recv_until";
  // The wake latch is consumed: the next bounded recv times out normally.
  EXPECT_FALSE(a->recv(1).has_value());
}

TEST(InProc, RecvUntilDeadlineExpires) {
  auto hub = std::make_shared<InProcHub>(1);
  auto a = hub->endpoint(0);
  Stopwatch sw;
  EXPECT_FALSE(a->recv_until(now_ns() + 20'000'000).has_value());
  EXPECT_GE(sw.elapsed_ms(), 15.0);
}

TEST(InProc, SelfSend) {
  auto hub = std::make_shared<InProcHub>(1);
  auto a = hub->endpoint(0);
  Message m;
  m.type = 3;
  m.dst = 0;
  a->send(std::move(m));
  auto got = a->try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 3);
}

TEST(Message, ChainedPayloadMatchesFlatPayload) {
  std::vector<uint8_t> bulk(4096);
  for (size_t i = 0; i < bulk.size(); ++i) bulk[i] = static_cast<uint8_t>(i);

  Message chained;
  chained.type = 9;
  chained.dst = 1;
  chained.corr = 42;
  chained.chain.append_copy("meta", 4);
  chained.chain.append_borrow(bulk.data(), bulk.size());
  chained.chain.append_copy("tail", 4);

  Message flat;
  flat.type = 9;
  flat.dst = 1;
  flat.corr = 42;
  flat.payload.insert(flat.payload.end(), {'m', 'e', 't', 'a'});
  flat.payload.insert(flat.payload.end(), bulk.begin(), bulk.end());
  flat.payload.insert(flat.payload.end(), {'t', 'a', 'i', 'l'});

  EXPECT_EQ(chained.wire_size(), flat.wire_size());
  WireHeader hc = wire_header(chained), hf = wire_header(flat);
  EXPECT_EQ(std::memcmp(&hc, &hf, sizeof(WireHeader)), 0);
  EXPECT_EQ(chained.flat(), flat.payload);
}

TEST(InProc, ChainedSendSealsBorrowedMemory) {
  auto hub = std::make_shared<InProcHub>(2);
  auto a = hub->endpoint(0);
  auto b = hub->endpoint(1);

  std::vector<uint8_t> bulk(5000, 0xAB);
  Message m;
  m.type = 1;
  m.dst = 1;
  m.chain.append_copy("hdr", 3);
  m.chain.append_borrow(bulk.data(), bulk.size());
  size_t total = m.chain.size();
  a->send(std::move(m));
  // The hub took ownership: mutating the source must not affect delivery.
  std::fill(bulk.begin(), bulk.end(), uint8_t{0});
  // Only the transport's unavoidable ownership copy was paid.
  EXPECT_EQ(a->payload_copy_bytes(), total);

  auto got = b->recv(1000);
  ASSERT_TRUE(got.has_value());
  auto& flat = got->flat();
  EXPECT_EQ(flat.size(), total);
  EXPECT_EQ(std::memcmp(flat.data(), "hdr", 3), 0);
  EXPECT_TRUE(std::all_of(flat.begin() + 3, flat.end(),
                          [](uint8_t v) { return v == 0xAB; }));
}

TEST(InProc, OwnedChainMovesWithZeroCopies) {
  auto hub = std::make_shared<InProcHub>(1);
  auto a = hub->endpoint(0);
  Message m;
  m.dst = 0;
  m.chain.append_copy("fully owned payload", 19);
  a->send(std::move(m));
  // No borrowed segments: nothing to seal, nothing copied in transit.
  EXPECT_EQ(a->payload_copy_bytes(), 0u);
  auto got = a->try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->flat().size(), 19u);
}

TEST(InProc, CountsBytes) {
  auto hub = std::make_shared<InProcHub>(2);
  auto a = hub->endpoint(0);
  Message m;
  m.dst = 1;
  m.payload.assign(100, 1);
  a->send(std::move(m));
  EXPECT_EQ(a->messages_sent(), 1u);
  EXPECT_EQ(a->bytes_sent(), sizeof(WireHeader) + 100);
}

// Three senders share one mailbox with a receiver that alternates
// non-blocking polls (answered from the queue count while it reads empty)
// and blocking receives, which a fourth thread keeps interrupting with
// wake().  Every frame arrives exactly once and in its sender's order.
TEST(InProc, ConcurrentSendersArriveOnceInOrderUnderWakes) {
  constexpr NodeId kSenders = 3;
  constexpr uint64_t kPerSender = 5000;
  auto hub = std::make_shared<InProcHub>(kSenders + 1);
  auto rx = hub->endpoint(0);
  std::vector<std::unique_ptr<Fabric>> tx;
  for (NodeId s = 1; s <= kSenders; ++s) tx.push_back(hub->endpoint(s));
  std::vector<std::thread> senders;
  for (NodeId s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (uint64_t i = 0; i < kPerSender; ++i) {
        Message m;
        m.dst = 0;
        m.corr = i;
        tx[s]->send(std::move(m));
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread waker([&] {
    while (!done.load()) {
      rx->wake();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::vector<uint64_t> next(kSenders + 1, 0);
  uint64_t received = 0, out_of_order = 0;
  for (uint64_t lap = 0; received < kSenders * kPerSender; ++lap) {
    std::optional<Message> m =
        lap % 2 == 0 ? rx->try_recv() : rx->recv_until(now_ns() + 1'000'000);
    if (!m) continue;
    if (m->corr != next[m->src]) ++out_of_order;
    next[m->src] = m->corr + 1;
    ++received;
  }
  done = true;
  waker.join();
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(out_of_order, 0u);
  for (NodeId s = 1; s <= kSenders; ++s) EXPECT_EQ(next[s], kPerSender);
  // Nothing left over: no frame was delivered twice.
  EXPECT_FALSE(rx->try_recv().has_value());
  EXPECT_FALSE(rx->recv_until(now_ns() + 1'000'000).has_value());
}

}  // namespace
}  // namespace pm2::fabric
