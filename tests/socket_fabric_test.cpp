// Socket fabric unit tests: mesh setup, framing over stream sockets,
// large-message handling, the anti-deadlock send path and receive-side
// placement (Placer) — exercised with real UNIX sockets between kernel
// threads in this process.
#include "fabric/socket_fabric.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/random.hpp"
#include "common/time.hpp"
#include "sys/socket.hpp"

namespace pm2::fabric {
namespace {

std::string fresh_dir() {
  static int counter = 0;
  std::string dir = "/tmp/pm2-socktest-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter++);
  ::mkdir(dir.c_str(), 0700);
  return dir;
}

SocketFabricConfig config_for(NodeId node, NodeId nodes,
                              const std::string& dir) {
  SocketFabricConfig cfg;
  cfg.node_id = node;
  cfg.n_nodes = nodes;
  cfg.dir = dir;
  return cfg;
}

TEST(SocketFabric, PairSendReceive) {
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  Message m;
  m.type = 9;
  m.dst = 1;
  m.corr = 1234;
  m.payload = {5, 6, 7};
  f0->send(std::move(m));

  auto got = f1->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 9);
  EXPECT_EQ(got->src, 0u);
  EXPECT_EQ(got->corr, 1234u);
  EXPECT_EQ(got->payload, (std::vector<uint8_t>{5, 6, 7}));
}

TEST(SocketFabric, LargeMessageSurvivesFraming) {
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  // Bigger than both the socket buffers and the fabric's 64 KB read chunk.
  Message m;
  m.type = 1;
  m.dst = 1;
  m.payload.resize(5 * 1024 * 1024);
  for (size_t i = 0; i < m.payload.size(); ++i)
    m.payload[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  auto expect = m.payload;

  std::thread sender([&] { f0->send(std::move(m)); });
  std::optional<Message> got;
  while (!got) got = f1->recv(100);
  sender.join();
  EXPECT_EQ(got->payload, expect);
}

// A large frame from `sender` whose every byte encodes (sender, seq).
Message tagged_frame(NodeId dst, uint8_t sender, uint8_t seq, size_t len) {
  Message m;
  m.type = 2;
  m.dst = dst;
  m.payload.assign(len, static_cast<uint8_t>(sender * 16 + seq));
  m.payload[0] = sender;
  m.payload[1] = seq;
  return m;
}

TEST(SocketFabric, SimultaneousLargeSendsDoNotDeadlock) {
  // Both sides fire multi-megabyte frames at each other at once, and on
  // node 0 a second kernel thread sends on the same link as its receive
  // owner.  Each owner must drain incoming traffic while its own pipe is
  // full (or while the other sender holds the link); the non-owner waits
  // for the peer to drain.  Each sender's frames arrive whole and in order.
  constexpr size_t kLen = 4 * 1024 * 1024;
  constexpr int kFrames = 2;
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1;
  std::atomic<bool> f0_up{false};
  // Sender tags: 0 = node 0's owner, 1 = node 1's owner, 2 = node 0's
  // second thread.  Each node's owner receives until it has every frame
  // addressed to it, then checks per-sender order.
  auto own = [&](std::unique_ptr<Fabric>& f, NodeId self, uint8_t tag,
                 size_t expect) {
    f = make_socket_fabric(config_for(self, 2, dir));
    if (self == 0) f0_up.store(true);
    for (int i = 0; i < kFrames; ++i)
      f->send(tagged_frame(1 - self, tag, static_cast<uint8_t>(i), kLen));
    std::vector<int> next(3, 0);
    for (size_t got = 0; got < expect;) {
      std::optional<Message> m = f->recv(100);
      if (!m) continue;
      ++got;
      ASSERT_EQ(m->payload.size(), kLen);
      const uint8_t sender = m->payload[0];
      ASSERT_LT(sender, 3);
      EXPECT_EQ(m->payload[1], next[sender]++) << "sender " << int{sender};
      const uint8_t fill = static_cast<uint8_t>(sender * 16 + m->payload[1]);
      EXPECT_TRUE(std::all_of(m->payload.begin() + 2, m->payload.end(),
                              [&](uint8_t b) { return b == fill; }));
    }
  };
  std::thread a([&] { own(f0, 0, 0, kFrames); });
  std::thread b([&] { own(f1, 1, 1, 2 * kFrames); });
  std::thread c([&] {
    while (!f0_up.load()) std::this_thread::yield();
    for (int i = 0; i < kFrames; ++i)
      f0->send(tagged_frame(1, 2, static_cast<uint8_t>(i), kLen));
  });
  a.join();
  b.join();
  c.join();
}

TEST(SocketFabric, NonOwnerSendWaitsForTheOwnerToReplaceADeadLink) {
  // Crash-restart session: node 1 dies and comes back.  A thread that is
  // not node 0's receive owner finds the old link dead; it asks the owner
  // to replace it and resends once the owner has, and the restarted node
  // gets the frame exactly once.
  std::string dir = fresh_dir();
  SocketFabricConfig c0 = config_for(0, 2, dir);
  SocketFabricConfig c1 = config_for(1, 2, dir);
  c0.allow_reconnect = c1.allow_reconnect = true;
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(c1); });
  f0 = make_socket_fabric(c0);  // the main thread owns node 0's receives
  t1.join();

  f1.reset();  // node 1 dies...
  std::thread restart([&] { f1 = make_socket_fabric(c1); });
  restart.join();  // ...and dials back in; node 0 has not accepted it yet
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    Message m;
    m.type = 12;
    m.dst = 1;
    m.payload = {4, 2};
    f0->send(std::move(m));
    sent.store(true);
  });
  // Let the sender hit the dead link before the owner pumps at all.
  ::usleep(50'000);
  EXPECT_FALSE(sent.load()) << "a send to a dead link returned";
  Stopwatch sw;
  while (!sent.load() && sw.elapsed_ms() < 5000) f0->recv(10);
  sender.join();
  auto got = f1->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 12);
  EXPECT_EQ(got->payload, (std::vector<uint8_t>{4, 2}));
  EXPECT_FALSE(f1->recv(50).has_value());
}

TEST(SocketFabric, WakeEventfdInterruptsBlockedRecv) {
  // The readiness handle's cross-thread wake: a write to the fabric's
  // eventfd (registered in its epoll set) pops an indefinitely blocked
  // recv_until without a frame.
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  std::thread waker([&] {
    ::usleep(10'000);  // land the wake inside the epoll wait
    f0->wake();
  });
  Stopwatch sw;
  auto got = f0->recv_until(now_ns() + 5'000'000'000ull);
  waker.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(sw.elapsed_ms(), 1000.0) << "wake() did not interrupt recv_until";
  // The wake is consumed; frames still flow afterwards.
  Message m;
  m.type = 11;
  m.dst = 0;
  f1->send(std::move(m));
  auto after = f0->recv(2000);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->type, 11);
}

TEST(SocketFabric, ThreeNodeMeshRoutes) {
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1, f2;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 3, dir)); });
  std::thread t2([&] { f2 = make_socket_fabric(config_for(2, 3, dir)); });
  f0 = make_socket_fabric(config_for(0, 3, dir));
  t1.join();
  t2.join();

  // 2 -> 1 directly (not through 0): the mesh is full.
  Message m;
  m.type = 77;
  m.dst = 1;
  f2->send(std::move(m));
  auto got = f1->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 2u);
  EXPECT_FALSE(f0->try_recv().has_value());
}

TEST(SocketFabric, ManySmallMessagesInOrder) {
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  for (uint16_t i = 0; i < 500; ++i) {
    Message m;
    m.type = i;
    m.dst = 1;
    f0->send(std::move(m));
  }
  for (uint16_t i = 0; i < 500; ++i) {
    std::optional<Message> got;
    while (!got) got = f1->recv(100);
    EXPECT_EQ(got->type, i);
  }
}

TEST(SocketFabric, ChainedSendGathersWithZeroCopies) {
  std::string dir = fresh_dir();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  // A many-segment chain of borrowed extents (the migration payload shape),
  // big enough to exercise partial sendmsg and the direct scatter-read path.
  std::vector<uint8_t> slab(3 * 1024 * 1024);
  for (size_t i = 0; i < slab.size(); ++i)
    slab[i] = static_cast<uint8_t>(i * 2654435761u >> 16);

  Message m;
  m.type = 5;
  m.dst = 1;
  m.chain.append_copy("extent-table", 12);
  size_t off = 0;
  while (off < slab.size()) {
    size_t len = std::min<size_t>(37 * 1024 + off % 4096, slab.size() - off);
    m.chain.append_borrow(slab.data() + off, len);
    off += len;
  }
  std::vector<uint8_t> expect = m.chain.flatten();

  std::thread sender([&] { f0->send(std::move(m)); });
  std::optional<Message> got;
  while (!got) got = f1->recv(100);
  sender.join();

  EXPECT_EQ(got->flat(), expect);
  // The tentpole claim: payload segments went borrowed memory -> writev
  // with no intermediate flatten on the send path.
  EXPECT_EQ(f0->payload_copy_bytes(), 0u);
  EXPECT_EQ(f0->bytes_sent(), sizeof(WireHeader) + expect.size());
}

// --- receive-side placement --------------------------------------------------

constexpr uint16_t kPlacedType = 40;
// The socket fabric's staging window: one bulk recv() reads at most this.
constexpr size_t kStageWindow = 4 * 1024;

// Test placer: a placed payload's table is [u32 n][u32 len]*n, and each
// extent lands in a fresh vector of its own, so a test can see where the
// body went.
struct VectorPlacer final : Placer {
  std::vector<std::vector<std::vector<uint8_t>>> frames;  // per place()
  std::vector<std::vector<uint8_t>> abandoned_heads;

  void place(const uint8_t* head, size_t len,
             std::vector<struct iovec>& body) override {
    uint32_t n;
    std::memcpy(&n, head + 4, sizeof(n));
    EXPECT_EQ(len, 8 + 4 * size_t{n});
    frames.emplace_back(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t elen;
      std::memcpy(&elen, head + 8 + 4 * i, sizeof(elen));
      frames.back()[i].resize(elen);
      body.push_back({frames.back()[i].data(), elen});
    }
  }
  void abandon(const uint8_t* head, size_t len) override {
    abandoned_heads.emplace_back(head, head + len);
  }

  std::vector<uint8_t> body(size_t frame) const {
    std::vector<uint8_t> out;
    for (const auto& e : frames[frame]) out.insert(out.end(), e.begin(), e.end());
    return out;
  }
};

std::vector<uint8_t> placed_head(const std::vector<uint32_t>& extents) {
  std::vector<uint8_t> head(8 + 4 * extents.size());
  auto table_len = static_cast<uint32_t>(head.size() - 4);
  auto n = static_cast<uint32_t>(extents.size());
  std::memcpy(head.data(), &table_len, 4);
  std::memcpy(head.data() + 4, &n, 4);
  std::memcpy(head.data() + 8, extents.data(), 4 * extents.size());
  return head;
}

std::vector<uint8_t> pattern(size_t len, uint64_t seed) {
  std::vector<uint8_t> v(len);
  for (size_t i = 0; i < len; ++i)
    v[i] = static_cast<uint8_t>((i + seed) * 2654435761u >> 13);
  return v;
}

// One placed frame: the head, then the body as borrowed segments (the way
// a migration chain borrows its slots).
Message placed_frame(NodeId dst, const std::vector<uint8_t>& head,
                     const std::vector<uint8_t>& body) {
  Message m;
  m.type = kPlacedType;
  m.dst = dst;
  m.chain.append_copy(head.data(), head.size());
  size_t off = 0;
  while (off < body.size()) {  // several segments per extent, unaligned
    size_t len = std::min<size_t>(5000 + off % 777, body.size() - off);
    m.chain.append_borrow(body.data() + off, len);
    off += len;
  }
  return m;
}

struct Pair {
  std::unique_ptr<Fabric> f0, f1;
  explicit Pair(bool reconnect = false) {
    std::string dir = fresh_dir();
    SocketFabricConfig c0 = config_for(0, 2, dir), c1 = config_for(1, 2, dir);
    c0.allow_reconnect = c1.allow_reconnect = reconnect;
    std::thread t1([&] { f1 = make_socket_fabric(c1); });
    f0 = make_socket_fabric(c0);
    t1.join();
  }
};

TEST(SocketPlacement, LargeBodyIsReadStraightIntoItsDestinations) {
  Pair p;
  VectorPlacer placer;
  p.f1->set_placer(kPlacedType, &placer);
  // 3 MB in extents of every size: far more than the 4 KiB staging window,
  // so all but the first and last window must go socket -> destination.
  std::vector<uint32_t> extents = {1, 4096, 65536, 7, 1 << 20, 333333,
                                   1 << 20, 12345};
  size_t total = 0;
  for (uint32_t e : extents) total += e;
  const std::vector<uint8_t> head = placed_head(extents);
  const std::vector<uint8_t> body = pattern(total, 7);

  std::thread sender([&] { p.f0->send(placed_frame(1, head, body)); });
  std::optional<Message> got;
  while (!got) got = p.f1->recv(100);
  sender.join();

  EXPECT_TRUE(got->placed);
  EXPECT_EQ(got->type, kPlacedType);
  EXPECT_EQ(got->payload, head);  // the delivered message keeps the head
  ASSERT_EQ(placer.frames.size(), 1u);
  EXPECT_EQ(placer.body(0), body);
  // Copied at most once, and only what a staged read picked up with the
  // head or the tail; everything between went straight into place.
  EXPECT_LE(p.f1->recv_copy_bytes(), head.size() + 2 * kStageWindow);
  EXPECT_EQ(p.f0->recv_copy_bytes(), 0u);
}

// A migration-sized frame already whole in the socket when the receiver
// reads: only the first staging window is copied, the rest of the body is
// read straight into its destinations.
TEST(SocketPlacement, WholeArrivedFrameCopiesOneWindow) {
  Pair p;
  VectorPlacer placer;
  p.f1->set_placer(kPlacedType, &placer);
  const std::vector<uint8_t> head = placed_head({4096, 30'000, 9'000});
  const std::vector<uint8_t> body = pattern(43'096, 9);
  p.f0->send(placed_frame(1, head, body));  // fits the socket buffer
  std::optional<Message> got;
  while (!got) got = p.f1->recv(100);
  EXPECT_TRUE(got->placed);
  ASSERT_EQ(placer.frames.size(), 1u);
  EXPECT_EQ(placer.body(0), body);
  EXPECT_LE(p.f1->recv_copy_bytes(), kStageWindow);
}

TEST(SocketPlacement, SmallStagedFrameIsCopiedOnce) {
  Pair p;
  VectorPlacer placer;
  p.f1->set_placer(kPlacedType, &placer);
  const std::vector<uint8_t> head = placed_head({100, 200, 300});
  const std::vector<uint8_t> body = pattern(600, 3);
  p.f0->send(placed_frame(1, head, body));
  std::optional<Message> got;
  while (!got) got = p.f1->recv(100);
  EXPECT_TRUE(got->placed);
  EXPECT_EQ(placer.body(0), body);
  // Staged whole: head and body are each copied exactly once.
  EXPECT_EQ(p.f1->recv_copy_bytes(), head.size() + body.size());
}

// Placed and unplaced frames of every size interleaved on one link, sent
// once with ordinary writes and once fragmented into 1-byte writes (the
// fault hooks' forced short writes): order, contents and placement hold.
void interleaved_round(bool one_byte_writes) {
  Pair p;
  VectorPlacer placer;
  p.f1->set_placer(kPlacedType, &placer);
  Rng rng(one_byte_writes ? 11 : 12);
  struct Sent {
    bool placed;
    std::vector<uint8_t> head, body;
  };
  std::vector<Sent> sent;
  size_t stream_bytes = 0;
  for (int i = 0; i < 40; ++i) {
    Sent s;
    s.placed = i % 2 == 1;
    size_t big = one_byte_writes ? 9000 : 200'000;
    size_t len = rng.next_below(4) == 0 ? big + rng.next_below(big)
                                        : rng.next_below(3000);
    if (s.placed) {
      std::vector<uint32_t> extents;
      size_t left = len;
      while (left > 0) {
        auto e = static_cast<uint32_t>(std::min<size_t>(
            left, 1 + rng.next_below(40'000)));
        extents.push_back(e);
        left -= e;
      }
      s.head = placed_head(extents);
    }
    s.body = pattern(len, static_cast<uint64_t>(i));
    stream_bytes += sizeof(WireHeader) + s.head.size() + len;
    sent.push_back(std::move(s));
  }
  if (one_byte_writes) sys::fault_arm_short_writes(stream_bytes);
  const uint64_t fired_before = sys::fault_short_writes_fired();

  std::thread sender([&] {
    for (size_t i = 0; i < sent.size(); ++i) {
      Message m;
      if (sent[i].placed) {
        m = placed_frame(1, sent[i].head, sent[i].body);
      } else {
        m.type = 1;
        m.dst = 1;
        m.corr = i;
        m.payload = sent[i].body;
      }
      p.f0->send(std::move(m));
    }
  });
  size_t placed_seen = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    std::optional<Message> got;
    while (!got) got = p.f1->recv(100);
    // Keep receiving after a mismatch: the sender must be able to finish.
    EXPECT_EQ(got->placed, sent[i].placed) << "frame " << i;
    if (got->placed) {
      EXPECT_EQ(got->payload, sent[i].head) << "frame " << i;
      if (placed_seen < placer.frames.size()) {
        EXPECT_EQ(placer.body(placed_seen), sent[i].body) << "frame " << i;
      }
      ++placed_seen;
    } else {
      EXPECT_EQ(got->corr, i);
      EXPECT_EQ(got->payload, sent[i].body) << "frame " << i;
    }
  }
  sender.join();
  // However the stream was cut, no payload byte was copied twice.
  EXPECT_LE(p.f1->recv_copy_bytes(),
            stream_bytes - sent.size() * sizeof(WireHeader));
  if (one_byte_writes) {
    EXPECT_EQ(sys::fault_short_writes_fired() - fired_before, stream_bytes);
  }
}

TEST(SocketPlacement, InterleavedFramesKeepTheirOrder) {
  interleaved_round(false);
}

TEST(SocketPlacement, OneByteWritesFragmentEveryStage) {
  interleaved_round(true);
}

TEST(SocketPlacement, LinkDyingMidBodyAbandonsThePlacement) {
  // Node 1 is a raw socket here, so the frame can stop mid-body the way a
  // killed peer's would.
  std::string dir = fresh_dir();
  SocketFabricConfig c0 = config_for(0, 2, dir);
  c0.allow_reconnect = true;
  std::unique_ptr<Fabric> f0;
  std::thread t0([&] { f0 = make_socket_fabric(c0); });
  sys::Fd peer = sys::uds_connect(dir + "/node0.sock", 5000);
  uint32_t hello = 1;
  sys::send_all(peer, &hello, sizeof(hello));
  t0.join();
  VectorPlacer placer;
  f0->set_placer(kPlacedType, &placer);

  const std::vector<uint8_t> head = placed_head({50'000, 50'000});
  const std::vector<uint8_t> body = pattern(100'000, 5);
  WireHeader h{};
  h.magic = kWireMagic;
  h.type = kPlacedType;
  h.src = 1;
  h.dst = 0;
  h.payload_len = head.size() + body.size();
  sys::send_all(peer, &h, sizeof(h));
  sys::send_all(peer, head.data(), head.size());
  sys::send_all(peer, body.data(), 60'000);  // then the peer dies
  peer.reset();

  EXPECT_FALSE(f0->recv(300).has_value());
  ASSERT_EQ(placer.frames.size(), 1u);
  ASSERT_EQ(placer.abandoned_heads.size(), 1u);
  EXPECT_EQ(placer.abandoned_heads[0], head);
}

TEST(SocketFabric, TcpVariant) {
  std::unique_ptr<Fabric> f0, f1;
  SocketFabricConfig c0, c1;
  c0.node_id = 0;
  c0.n_nodes = 2;
  c0.use_tcp = true;
  c0.base_port = static_cast<uint16_t>(24000 + (::getpid() % 10000));
  c1 = c0;
  c1.node_id = 1;
  std::thread t1([&] { f1 = make_socket_fabric(c1); });
  f0 = make_socket_fabric(c0);
  t1.join();

  Message m;
  m.type = 4;
  m.dst = 0;
  m.payload = {1};
  f1->send(std::move(m));
  auto got = f0->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 4);
}

}  // namespace
}  // namespace pm2::fabric
