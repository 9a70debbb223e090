#include "fabric/socket_fabric.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "sys/socket.hpp"

namespace pm2::fabric {

namespace {

// Frames are parsed in place from the shared staging window (rxbuf_), which
// one bulk recv() fills with at most this many bytes: a frame that fits is
// copied once, straight into its Message.  A frame that straddles the
// window is finished into its own destinations — the header struct, the
// payload vector, or the slots a Placer chose — and once at least a window
// of its bytes is still to come, they are read from the socket straight
// into those destinations (readv) with no staging copy at all.  So a frame
// copies at most a window at each end, even when it arrived whole; below a
// window, bulk recv() wins: one call picks up the frame's tail and dozens of
// small frames behind it.
constexpr size_t kStageBytes = 4 * 1024;

// sendmsg()/readv() reject iov counts above IOV_MAX (1024 on Linux); long
// chains (one segment per live heap extent) are moved in slices.
constexpr size_t kMaxIov = 1024;

// A received frame's Message, routing fields filled, payload still empty.
Message message_for(const WireHeader& h) {
  Message msg;
  msg.type = h.type;
  msg.src = h.src;
  msg.dst = h.dst;
  msg.corr = h.corr;
  return msg;
}

// Poller tag of the wake eventfd (peer links are tagged by NodeId).
constexpr uint64_t kWakeTag = UINT64_MAX;
// Poller tag of the session-lifetime listener (allow_reconnect only).
constexpr uint64_t kListenTag = UINT64_MAX - 1;
// Tag base of accepted sockets whose reconnect hello has not fully arrived
// yet: tag = kPendingTagBase + fd.  Disjoint from NodeId tags (32-bit) and
// from the two sentinels above (fds are nowhere near 2^63).
constexpr uint64_t kPendingTagBase = uint64_t{1} << 32;

class SocketFabric final : public Fabric {
 public:
  explicit SocketFabric(const SocketFabricConfig& config);

  NodeId node_id() const override { return config_.node_id; }
  NodeId n_nodes() const override { return config_.n_nodes; }
  void send(Message msg) override;
  std::optional<Message> try_recv() override;
  std::optional<Message> recv_until(uint64_t deadline_ns) override;
  void wake() override;
  uint64_t bytes_sent() const override { return bytes_sent_; }
  uint64_t messages_sent() const override { return messages_sent_; }
  uint64_t payload_copy_bytes() const override { return 0; }  // gathers
  uint64_t recv_copy_bytes() const override { return recv_copy_bytes_; }
  void set_teardown(bool teardown) override { teardown_ = teardown; }
  void set_placer(uint16_t type, Placer* placer) override {
    placers_.emplace_back(type, placer);
  }

 private:
  // What the open frame of a link is waiting for: the rest of its header,
  // a placed frame's u32 table length, the table, or the body.
  enum class Stage : uint8_t { kHeader, kHeadLen, kHead, kBody };

  struct Conn {
    // Held for one whole frame (never across a thread switch); only the
    // receive owner replaces `fd`, and only under it.
    std::mutex send_lock;
    sys::Fd fd;
    // Bumped whenever `fd` changes.  A non-owner that found generation g
    // dead stores it in dead_gen, for the owner to reconnect.
    std::atomic<uint32_t> gen{0};
    std::atomic<uint32_t> dead_gen{UINT32_MAX};
    // The frame being received, once any of its bytes arrived without the
    // whole frame.  The rest of the current stage lands in dst[next..]
    // (`left` bytes), from the staging buffer or straight off the socket.
    bool open = false;
    Stage stage = Stage::kHeader;
    WireHeader hdr{};
    Message msg;  // payload: the flat body, or a placed frame's head
    // Set once the body was placed: a link dying before the body completes
    // hands the reservation back through it.
    Placer* placer = nullptr;
    std::vector<struct iovec> dst;
    size_t next = 0;
    size_t left = 0;
  };

  void connect_mesh();
  /// Register a (fresh or replacement) peer link, its hello done: socket
  /// buffers, non-blocking mode, poller membership.
  void attach_conn(NodeId peer, sys::Fd fd);
  /// Accept a restarted peer's replacement connection (allow_reconnect):
  /// park it as a pending handshake, never blocking the pump loop.
  void accept_reconnect();
  /// Drive a pending handshake whose fd turned readable; attaches the link
  /// once the 4-byte hello is complete, drops it on EOF or a bad id.
  void pump_pending_hello(int raw_fd);
  /// Drop a dead peer's link so a replacement can take its place.
  void detach_conn(NodeId peer);
  /// Owner: retire `peer`'s dead link (if still attached) and block
  /// (bounded) until it is connected again: higher peers dial us (wait on
  /// the listener), lower peers are redialed.
  void await_reconnect(NodeId peer);
  /// Non-owner: have the owner replace `peer`'s link, found dead at
  /// generation `gen`, and wait (bounded) until it has.
  void await_replacement(NodeId peer, uint32_t gen);
  /// Owner: install `fd` under `c`'s send lock; the old fd closes here.
  void swap_fd(Conn& c, sys::Fd fd);
  /// One sendmsg pass over a frame, under the link lock.  Returns false
  /// when the link died (or was replaced) mid-frame.
  bool send_frame(Conn& c, uint32_t gen, std::vector<struct iovec>& iov,
                  bool owner);
  /// Drain every readable peer; parse complete frames into the inbox.
  void pump(int timeout_ms);
  void pump_ns(uint64_t timeout_ns);
  void drain_fd(size_t peer);
  void dispatch_tags(const std::vector<uint64_t>& tags);
  Placer* placer_for(uint16_t type) const;
  /// Parse `n` staged bytes of link `c`: whole frames go to the inbox, the
  /// rest goes to the open frame's destinations.
  void feed(Conn& c, const uint8_t* p, size_t n);
  /// Expect the current stage's bytes in one destination.
  static void expect(Conn& c, void* data, size_t len);
  /// `n` bytes landed in dst[next..]; enter the next stage(s) when full.
  void advance(Conn& c, size_t n);
  void next_stage(Conn& c);
  /// Drop a partial frame (its link died); a placed one is abandoned.
  static void drop_frame(Conn& c);

  /// Reconnect handshake in flight: an accepted socket is nonblocking from
  /// the start and polled (kPendingTagBase + fd) until its hello arrives —
  /// a peer that connects and stalls can never wedge the node.
  struct PendingHello {
    sys::Fd fd;
    uint32_t hello = 0;
    size_t fill = 0;
  };

  SocketFabricConfig config_;
  std::vector<Conn> conns_;  // indexed by peer node id (self unused)
  // The receive owner (see the header); until the first receive, the
  // builder.  owner_sending_: the link whose lock the owner holds.
  std::atomic<std::thread::id> owner_{std::this_thread::get_id()};
  Conn* owner_sending_ = nullptr;
  std::atomic<bool> redial_{false};  // some link has dead_gen == gen
  std::unordered_map<int, PendingHello> pending_;  // keyed by raw fd
  // Kept open for the whole session under allow_reconnect (polled with
  // kListenTag); otherwise closed once the mesh is up.
  sys::Fd listener_;
  sys::Poller poller_;
  // Waitable readiness handle: wake() (from any thread) makes a blocked
  // recv_until return early by tripping this eventfd in the epoll set.
  sys::Fd wake_fd_;
  bool wake_pending_ = false;
  std::deque<Message> inbox_;
  // Placement hooks by message type (set_placer; one entry per type).
  std::vector<std::pair<uint16_t, Placer*>> placers_;
  // Receive staging shared by all connections, heap-allocated: fabric
  // calls run on PM2 threads whose whole stack is one 64 KB slot, so large
  // stack buffers are forbidden.  It holds no state between reads: every
  // recv() is parsed in place at once, and the tail of a frame that
  // straddles reads is copied to that frame's own destinations — so each
  // payload byte is copied at most once, and not at all when it is read
  // straight into place.
  std::vector<uint8_t> rxbuf_ = std::vector<uint8_t>(kStageBytes);
  std::atomic<bool> teardown_{false};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> messages_sent_{0};
  uint64_t recv_copy_bytes_ = 0;
};

SocketFabric::SocketFabric(const SocketFabricConfig& config)
    : config_(config), conns_(config.n_nodes) {
  PM2_CHECK(config_.node_id < config_.n_nodes);
  wake_fd_ = sys::Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  PM2_CHECK(wake_fd_.valid()) << "eventfd: " << std::strerror(errno);
  poller_.add(wake_fd_.get(), kWakeTag);
  connect_mesh();
}

std::string sock_path(const SocketFabricConfig& c, NodeId node) {
  return c.dir + "/node" + std::to_string(node) + ".sock";
}

void SocketFabric::connect_mesh() {
  const NodeId self = config_.node_id;
  const NodeId n = config_.n_nodes;

  // Listen first so lower-id peers can find us.
  uint16_t port = static_cast<uint16_t>(config_.base_port + self);
  if (n > 1) {
    listener_ = config_.use_tcp ? sys::tcp_listen(port)
                                : sys::uds_listen(sock_path(config_, self));
  }

  // Connect to all lower-numbered nodes, sending a hello with our id.
  for (NodeId peer = 0; peer < self; ++peer) {
    sys::Fd fd =
        config_.use_tcp
            ? sys::tcp_connect(static_cast<uint16_t>(config_.base_port + peer),
                               config_.connect_timeout_ms)
            : sys::uds_connect(sock_path(config_, peer),
                               config_.connect_timeout_ms);
    uint32_t hello = self;
    sys::send_all(fd, &hello, sizeof(hello));
    attach_conn(peer, std::move(fd));
  }

  // Accept from all higher-numbered nodes.
  for (NodeId k = self + 1; k < n; ++k) {
    sys::Fd fd = sys::accept_one(listener_);
    uint32_t hello = 0;
    PM2_CHECK(sys::recv_all(fd, &hello, sizeof(hello)))
        << "peer hung up during hello";
    PM2_CHECK(hello > self && hello < n) << "bad hello id " << hello;
    PM2_CHECK(!conns_[hello].fd.valid()) << "duplicate connection from " << hello;
    attach_conn(hello, std::move(fd));
  }
  if (config_.allow_reconnect && n > 1) {
    // The listener lives as long as the fabric: a peer that crashed and
    // restarted dials the same path and replaces its link.
    poller_.add(listener_.get(), kListenTag);
  } else {
    listener_.reset();
  }
  PM2_DEBUG << "socket mesh up (" << n << " nodes)";
}

void SocketFabric::attach_conn(NodeId peer, sys::Fd fd) {
  if (config_.use_tcp) sys::set_nodelay(fd);
  // Migration payloads are slot-sized (64 KB+): grow the socket buffers.
  int sz = 1 << 20;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
  sys::set_nonblocking(fd, true);
  poller_.add(fd.get(), peer);
  swap_fd(conns_[peer], std::move(fd));
}

void SocketFabric::detach_conn(NodeId peer) {
  Conn& c = conns_[peer];
  swap_fd(c, sys::Fd());
  // A partial frame from the dead incarnation is void; frames that fully
  // arrived are already in the inbox and stay deliverable.
  drop_frame(c);
}

void SocketFabric::swap_fd(Conn& c, sys::Fd fd) {
  std::unique_lock<std::mutex> g(c.send_lock, std::defer_lock);
  if (&c != owner_sending_) g.lock();
  c.fd = std::move(fd);
  ++c.gen;
}

void SocketFabric::drop_frame(Conn& c) {
  if (c.open && c.placer != nullptr)
    c.placer->abandon(c.msg.payload.data(), c.msg.payload.size());
  c.open = false;
  c.placer = nullptr;
  c.msg = Message();
  c.dst.clear();
}

void SocketFabric::accept_reconnect() {
  sys::Fd fd = sys::accept_one(listener_);
  sys::set_nonblocking(fd, true);
  const int raw = fd.get();
  poller_.add(raw, kPendingTagBase + static_cast<uint64_t>(raw));
  pending_[raw].fd = std::move(fd);
  // The hello is read by pump_pending_hello as its bytes arrive.
}

void SocketFabric::pump_pending_hello(int raw_fd) {
  auto it = pending_.find(raw_fd);
  if (it == pending_.end()) return;  // stale event after a drop
  PendingHello& p = it->second;
  while (p.fill < sizeof(p.hello)) {
    ssize_t n = ::recv(p.fd.get(), reinterpret_cast<char*>(&p.hello) + p.fill,
                       sizeof(p.hello) - p.fill, 0);
    if (n > 0) {
      p.fill += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    PM2_WARN << "reconnecting peer hung up during hello";
    poller_.remove(p.fd.get());
    pending_.erase(it);
    return;
  }
  const uint32_t hello = p.hello;
  sys::Fd fd = std::move(p.fd);
  poller_.remove(fd.get());
  pending_.erase(it);
  if (hello >= config_.n_nodes || hello == config_.node_id) {
    // A stray connection must not take the node down with it.
    PM2_WARN << "dropping reconnect with bad hello id " << hello;
    return;
  }
  if (conns_[hello].fd.valid()) {
    // The old link died but we have not read its EOF yet (the peer was
    // killed and restarted between two pumps): retire it first.
    poller_.remove(conns_[hello].fd.get());
    detach_conn(static_cast<NodeId>(hello));
  }
  PM2_DEBUG << "node " << hello << " reconnected";
  attach_conn(static_cast<NodeId>(hello), std::move(fd));
}

void SocketFabric::await_reconnect(NodeId peer) {
  if (conns_[peer].fd.valid()) {
    // sendmsg saw the break before recv did: retire the dead link.
    poller_.remove(conns_[peer].fd.get());
    detach_conn(peer);
  }
  PM2_DEBUG << "waiting for node " << peer << " to come back";
  const uint64_t deadline =
      now_ns() + uint64_t{static_cast<uint64_t>(config_.connect_timeout_ms)} *
                     1'000'000ull;
  if (peer > config_.node_id) {
    // The restarted peer dials us (it connects to all lower ids): pump the
    // poller until accept_reconnect restored the link.
    while (!conns_[peer].fd.valid()) {
      PM2_CHECK(now_ns() < deadline)
          << "node " << peer << " did not reconnect";
      pump(10);
    }
    return;
  }
  // We dial lower-numbered peers.  uds/tcp_connect retry internally until
  // their own timeout; the restarted peer's accept loop picks us up.
  sys::Fd fd =
      config_.use_tcp
          ? sys::tcp_connect(static_cast<uint16_t>(config_.base_port + peer),
                             config_.connect_timeout_ms)
          : sys::uds_connect(sock_path(config_, peer),
                             config_.connect_timeout_ms);
  uint32_t hello = config_.node_id;
  sys::send_all(fd, &hello, sizeof(hello));
  attach_conn(peer, std::move(fd));
}

bool SocketFabric::send_frame(Conn& c, uint32_t gen,
                              std::vector<struct iovec>& iov, bool owner) {
  size_t idx = 0;
  while (idx < iov.size()) {
    const sys::Fd& fd = c.fd;
    // A pump() below may retire the link or take a replacement.
    if (c.gen != gen || !fd.valid()) return false;
    struct msghdr mh {};
    mh.msg_iov = iov.data() + idx;
    mh.msg_iovlen = std::min(iov.size() - idx, kMaxIov);
    ssize_t n;
    if (sys::fault_take_eintr()) {
      // Injected signal-interrupt: exercise the EINTR retry below.
      n = -1;
      errno = EINTR;
    } else if (sys::fault_take_short_write()) {
      // Injected short write: push one byte so the partial-write resume
      // logic (iov advance across segment boundaries) runs for real.
      struct iovec one = iov[idx];
      one.iov_len = 1;
      struct msghdr mh1 {};
      mh1.msg_iov = &one;
      mh1.msg_iovlen = 1;
      n = ::sendmsg(fd.get(), &mh1, MSG_NOSIGNAL);
    } else {
      n = ::sendmsg(fd.get(), &mh, MSG_NOSIGNAL);
    }
    if (n > 0) {
      auto left = static_cast<size_t>(n);
      while (left > 0) {
        if (left >= iov[idx].iov_len) {
          left -= iov[idx].iov_len;
          ++idx;
        } else {
          iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
          iov[idx].iov_len -= left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (owner) {
        // The pipe to the peer is full, and the peer may itself be blocked
        // sending to us: drain incoming traffic so both sides make progress
        // (classic anti-deadlock for synchronous meshes).
        pump(1);
      } else {  // a dead peer reports POLLHUP/POLLERR
        struct pollfd p {fd.get(), POLLOUT, 0};
        ::poll(&p, 1, -1);
      }
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
    PM2_CHECK(n >= 0 || errno == EINTR) << "sendmsg: " << std::strerror(errno);
  }
  return true;
}

void SocketFabric::send(Message msg) {
  PM2_CHECK(msg.dst < config_.n_nodes && msg.dst != config_.node_id)
      << "bad destination " << msg.dst;
  msg.src = config_.node_id;
  WireHeader h = wire_header(msg);
  bytes_sent_ += msg.wire_size();
  ++messages_sent_;
  PM2_CHECK(msg.chain.empty() || msg.payload.empty())
      << "message with both flat and chained payload";
  const bool owner = owner_.load() == std::this_thread::get_id();
  Conn& c = conns_[msg.dst];
  std::vector<struct iovec> iov;

  while (true) {
    // Gather list: header + payload segments, straight from the sender's
    // memory (slot images included) — no flatten, no staging copy.  Built
    // fresh per attempt: a reconnect resends the frame from byte zero.
    iov.clear();
    iov.push_back({&h, sizeof(h)});
    for (const mad::BufferChain::Segment& seg : msg.chain.segments())
      iov.push_back({const_cast<uint8_t*>(seg.data), seg.len});
    if (!msg.payload.empty())
      iov.push_back({msg.payload.data(), msg.payload.size()});

    // The owner never blocks on a link lock: the holder may be waiting for
    // the peer to drain, and the peer's owner for us.
    std::unique_lock<std::mutex> link(c.send_lock, std::defer_lock);
    if (!owner) link.lock();
    while (owner && !link.try_lock()) pump(1);
    if (owner) owner_sending_ = &c;
    const uint32_t gen = c.gen;
    const bool sent = send_frame(c, gen, iov, owner);
    if (owner) owner_sending_ = nullptr;
    link.unlock();
    if (sent) return;
    if (c.gen != gen) continue;  // retry on whatever the owner installed

    // The link died mid-frame.
    if (teardown_ || msg.best_effort) {
      // Session teardown: the peer legitimately exited, and this is a late
      // message (load gossip, a reply racing the halt drain) losing the
      // race — drop it rather than kill a node that is itself about to
      // exit.  Best-effort frames (heartbeats, gossip) get the same
      // treatment at any time: the failure detector handles dead peers,
      // and its probes must not block on reconnect or abort the prober.
      // Undo the top-of-send accounting: this frame never went out.
      bytes_sent_ -= msg.wire_size();
      --messages_sent_;
      PM2_DEBUG << "dropping frame to " << (teardown_ ? "exited" : "dead")
                << " node " << msg.dst;
      return;
    }
    // Outside teardown a dead peer is fatal unless the session runs in
    // crash-restart mode: dropping would turn a peer crash into a silent
    // hang of every pending caller.
    PM2_CHECK(config_.allow_reconnect)
        << "node " << msg.dst << " died mid-session";
    if (owner)
      await_reconnect(msg.dst);
    else
      await_replacement(msg.dst, gen);
    // The restarted peer never saw any byte of this frame (its old socket
    // died with the old process); resend it whole.
  }
}

void SocketFabric::await_replacement(NodeId peer, uint32_t gen) {
  Conn& c = conns_[peer];
  c.dead_gen = gen;
  redial_ = true;
  wake();
  for (int waited_ms = 0; c.gen == gen; ++waited_ms) {
    PM2_CHECK(waited_ms < config_.connect_timeout_ms)
        << "node " << peer << " did not reconnect";
    ::usleep(1000);
  }
}

Placer* SocketFabric::placer_for(uint16_t type) const {
  for (const auto& [t, placer] : placers_) {
    if (t == type) return placer;
  }
  return nullptr;
}

void SocketFabric::expect(Conn& c, void* data, size_t len) {
  c.dst.assign(1, {data, len});
  c.next = 0;
  c.left = len;
}

void SocketFabric::advance(Conn& c, size_t n) {
  c.left -= n;
  while (n > 0) {
    struct iovec& v = c.dst[c.next];
    if (n < v.iov_len) {
      v.iov_base = static_cast<char*>(v.iov_base) + n;
      v.iov_len -= n;
      break;
    }
    n -= v.iov_len;
    ++c.next;
  }
  while (c.open && c.left == 0) next_stage(c);
}

void SocketFabric::next_stage(Conn& c) {
  switch (c.stage) {
    case Stage::kHeader: {
      PM2_CHECK(c.hdr.magic == kWireMagic) << "corrupt frame on fabric stream";
      c.msg = message_for(c.hdr);
      if (placer_for(c.hdr.type) != nullptr) {
        PM2_CHECK(c.hdr.payload_len >= sizeof(uint32_t))
            << "placed frame without a head";
        c.msg.payload.resize(sizeof(uint32_t));
        expect(c, c.msg.payload.data(), sizeof(uint32_t));
        c.stage = Stage::kHeadLen;
        return;
      }
      // An unplaced frame that straddles reads: its payload vector is the
      // destination (value-initialised once, then filled in place).
      c.msg.payload.resize(c.hdr.payload_len);
      expect(c, c.msg.payload.data(), c.hdr.payload_len);
      c.stage = Stage::kBody;
      return;
    }
    case Stage::kHeadLen: {
      uint32_t table_len;
      std::memcpy(&table_len, c.msg.payload.data(), sizeof(table_len));
      const size_t head = sizeof(uint32_t) + table_len;
      PM2_CHECK(head <= c.hdr.payload_len) << "placed head overruns its frame";
      c.msg.payload.resize(head);
      expect(c, c.msg.payload.data() + sizeof(uint32_t), table_len);
      c.stage = Stage::kHead;
      return;
    }
    case Stage::kHead: {
      // The head is complete: the placer reserves the body's destinations
      // (a migrating thread's slots) before any body byte is read.
      Placer* placer = placer_for(c.hdr.type);
      c.dst.clear();
      placer->place(c.msg.payload.data(), c.msg.payload.size(), c.dst);
      c.placer = placer;
      c.next = 0;
      c.left = 0;
      for (const struct iovec& v : c.dst) c.left += v.iov_len;
      PM2_CHECK(c.left == c.hdr.payload_len - c.msg.payload.size())
          << "placed body does not match its frame";
      c.stage = Stage::kBody;
      return;
    }
    case Stage::kBody:
      c.msg.placed = c.placer != nullptr;
      inbox_.push_back(std::move(c.msg));
      c.msg = Message();
      c.placer = nullptr;
      c.open = false;
      return;
  }
}

void SocketFabric::feed(Conn& c, const uint8_t* p, size_t n) {
  while (n > 0) {
    if (!c.open) {
      if (n >= sizeof(WireHeader)) {
        WireHeader h;
        std::memcpy(&h, p, sizeof(h));
        PM2_CHECK(h.magic == kWireMagic) << "corrupt frame on fabric stream";
        const size_t total = sizeof(WireHeader) + h.payload_len;
        if (n >= total && placer_for(h.type) == nullptr) {
          // Whole frame staged: its payload is copied once, from here.
          Message msg = message_for(h);
          msg.payload.assign(p + sizeof(WireHeader), p + total);
          recv_copy_bytes_ += h.payload_len;
          inbox_.push_back(std::move(msg));
          p += total;
          n -= total;
          continue;
        }
      }
      c.open = true;
      c.stage = Stage::kHeader;
      expect(c, &c.hdr, sizeof(WireHeader));
    }
    // Scatter into the open frame's destinations, one stage at a time.
    size_t k = 0;
    for (size_t i = c.next; i < c.dst.size() && k < n; ++i) {
      size_t len = std::min(c.dst[i].iov_len, n - k);
      std::memcpy(c.dst[i].iov_base, p + k, len);
      k += len;
    }
    if (c.stage != Stage::kHeader) recv_copy_bytes_ += k;
    p += k;
    n -= k;
    advance(c, k);
  }
}

void SocketFabric::drain_fd(size_t peer) {
  Conn& c = conns_[peer];
  while (true) {
    ssize_t n;
    if (c.open && c.left >= kStageBytes) {
      // Most of the open frame is still to come: read it straight into its
      // destinations (the placed slots, or the payload vector).
      n = ::readv(c.fd.get(), c.dst.data() + c.next,
                  static_cast<int>(std::min(c.dst.size() - c.next, kMaxIov)));
      if (n > 0) {
        advance(c, static_cast<size_t>(n));
        continue;
      }
    } else {
      n = ::recv(c.fd.get(), rxbuf_.data(), rxbuf_.size(), 0);
      if (n > 0) {
        // Parse immediately: frames must reach the inbox even if the very
        // next read reports the peer's EOF.
        feed(c, rxbuf_.data(), static_cast<size_t>(n));
        continue;
      }
    }
    if (n == 0 || (n < 0 && errno == ECONNRESET)) {
      // Peer exited.  Complete frames were already parsed above; a partial
      // frame means the peer died mid-send, which PM2's explicit-HALT
      // shutdown protocol rules out — except in crash-restart sessions,
      // where the link is fully retired so a restarted peer can replace it.
      // Either way the partial frame is void, and a placed one hands its
      // reservation back.
      poller_.remove(c.fd.get());
      drop_frame(c);
      if (config_.allow_reconnect && !teardown_) {
        PM2_DEBUG << "node " << peer << " disconnected";
        detach_conn(static_cast<NodeId>(peer));
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    PM2_CHECK(errno == EINTR) << "recv: " << std::strerror(errno);
  }
}

void SocketFabric::dispatch_tags(const std::vector<uint64_t>& tags) {
  for (uint64_t tag : tags) {
    if (tag == kWakeTag) {
      uint64_t counter;
      while (::read(wake_fd_.get(), &counter, sizeof(counter)) > 0) {
      }
      wake_pending_ = true;
      continue;
    }
    if (tag == kListenTag) {
      accept_reconnect();
      continue;
    }
    if (tag >= kPendingTagBase) {
      pump_pending_hello(static_cast<int>(tag - kPendingTagBase));
      continue;
    }
    drain_fd(tag);
  }
}

void SocketFabric::pump(int timeout_ms) {
  dispatch_tags(poller_.wait(timeout_ms));
}

void SocketFabric::pump_ns(uint64_t timeout_ns) {
  dispatch_tags(poller_.wait_ns(timeout_ns));
}

std::optional<Message> SocketFabric::try_recv() {
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  if (redial_ && redial_.exchange(false)) {  // links non-owners found dead
    for (NodeId peer = 0; peer < config_.n_nodes; ++peer) {
      if (conns_[peer].dead_gen == conns_[peer].gen) await_reconnect(peer);
    }
  }
  if (inbox_.empty()) pump(0);
  if (inbox_.empty()) return std::nullopt;
  Message msg = std::move(inbox_.front());
  inbox_.pop_front();
  return msg;
}

std::optional<Message> SocketFabric::recv_until(uint64_t deadline_ns) {
  while (true) {
    if (auto msg = try_recv()) return msg;
    if (wake_pending_) {  // interrupted by wake(): report "no frame"
      wake_pending_ = false;
      return std::nullopt;
    }
    uint64_t now = now_ns();
    if (now >= deadline_ns) return std::nullopt;
    pump_ns(deadline_ns == UINT64_MAX ? UINT64_MAX : deadline_ns - now);
  }
}

void SocketFabric::wake() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t ignored =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

}  // namespace

std::unique_ptr<Fabric> make_socket_fabric(const SocketFabricConfig& config) {
  return std::make_unique<SocketFabric>(config);
}

}  // namespace pm2::fabric
