// Node-to-node message abstraction.
//
// The fabric plays the role of BIP/Myrinet in the paper's testbed: it moves
// byte payloads between "nodes" (container processes, or logical in-process
// nodes for deterministic tests).  Semantics of `type` belong to the layers
// above (pm2 runtime, negotiation protocol); the fabric only routes.
//
// A message carries its payload in exactly one of two forms:
//  * `payload` — a flat byte vector (legacy senders; every received frame);
//  * `chain`   — a mad::BufferChain of scatter-gather segments, possibly
//    borrowing the sender's memory (slot images, large pack regions).
// Transports gather the chain straight to the wire; receivers that need
// contiguous bytes call flat(), which flattens lazily (and moves rather
// than copies when the chain is a single owned chunk).  On the receive
// side a message type may also register a Placer, which picks where a
// frame's body lands before it is read (migration frames go straight into
// the thread's iso-address slots).
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "madeleine/buffers.hpp"

namespace pm2::fabric {

using NodeId = uint32_t;

struct Message {
  uint16_t type = 0;     // protocol-defined discriminator
  NodeId src = 0;        // filled by the fabric on send
  NodeId dst = 0;        // destination node
  uint64_t corr = 0;     // request/reply correlation id (0 = none)
  // Not on the wire: a best-effort frame (heartbeat, load gossip) may be
  // silently dropped if the peer is unreachable, instead of blocking on
  // reconnect or treating the dead link as fatal.  The failure detector is
  // the layer that reacts to an unreachable peer; its own probes must not
  // wedge the daemon that runs it.
  bool best_effort = false;
  // Not on the wire: the receiving fabric already wrote this frame's body
  // into the destinations its type's Placer chose; `payload` holds only
  // the head (length-prefixed table) the placer read.
  bool placed = false;
  std::vector<uint8_t> payload;  // flat form (mutually exclusive with chain)
  mad::BufferChain chain;        // scatter-gather form

  size_t payload_size() const {
    return chain.empty() ? payload.size() : chain.size();
  }
  size_t wire_size() const;

  /// Contiguous view of the payload; flattens `chain` into `payload` on
  /// first use (single-owned-chunk chains are moved, not copied).
  std::vector<uint8_t>& flat();
};

/// Frame header as it travels on stream sockets.
struct WireHeader {
  uint32_t magic;
  uint16_t type;
  uint16_t reserved;
  uint32_t src;
  uint32_t dst;
  uint64_t corr;
  uint64_t payload_len;
};
static_assert(sizeof(WireHeader) == 32);

inline constexpr uint32_t kWireMagic = 0x504D3247;  // "PM2G"

/// Header for `msg` as it would travel on the wire.
WireHeader wire_header(const Message& msg);

/// Receive-side placement hook for one message type (Fabric::set_placer).
///
/// A placed type's payload is laid out head first: a u32 table length, the
/// table, then the body.  Once a transport has a frame's head it may ask
/// the placer where the body goes and read the body straight there — the
/// migration path uses this to land a thread's bytes in its iso-address
/// slots with no intermediate payload buffer.  Both calls run on the
/// receive owner's kernel thread (see Fabric's threading contract).
class Placer {
 public:
  virtual ~Placer() = default;
  /// Reserve the body's destinations named by `head` (u32 length + table)
  /// and append them to `body` in wire order; their lengths must add up to
  /// the frame's payload length minus the head.
  virtual void place(const uint8_t* head, size_t len,
                     std::vector<struct iovec>& body) = 0;
  /// The link died after place() and before the body completed: release
  /// what place() reserved.  The frame is never delivered.
  virtual void abandon(const uint8_t* head, size_t len) = 0;
};

/// Abstract point-to-point transport endpoint bound to one node.
///
/// Threading contract: receive-side calls (try_recv/recv_until) on a given
/// Fabric instance are made from one kernel thread, the receive owner — the
/// node's comm-daemon worker.  send() is callable from any kernel thread,
/// concurrently with other sends and with the owner's receives: each link
/// serialises whole frames, so one sender's frames to one peer arrive in
/// the order it sent them.  wake() is callable from any thread.
class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual NodeId node_id() const = 0;
  virtual NodeId n_nodes() const = 0;

  /// Send to msg.dst.  Must not deadlock even if the peer is concurrently
  /// sending a large message back (the receive owner drains incoming
  /// traffic while blocked on a full pipe).
  ///
  /// Borrowed chain segments only need to stay valid until send() returns:
  /// implementations either gather them to the wire synchronously (socket
  /// fabric) or take ownership of the bytes (in-process hub).
  virtual void send(Message msg) = 0;

  /// Session teardown notice (the runtime calls this when halt is
  /// initiated or received): peers may now exit at any moment, so a send
  /// hitting a closed connection is a droppable late message — gossip or
  /// a reply racing the halt drain — not a fatal transport error.
  virtual void set_teardown(bool) {}

  /// Route the bodies of `type` frames through `placer` (once per type;
  /// it must outlive the endpoint's receives).  Every node registers the
  /// same placers.  Transports that hand over
  /// whole payloads anyway (the in-process hub) ignore the hook; their
  /// frames arrive with `placed` false and the receiver scatters the flat
  /// payload itself.  Call before the first receive.
  virtual void set_placer(uint16_t /*type*/, Placer* /*placer*/) {}

  /// Non-blocking receive.
  virtual std::optional<Message> try_recv() = 0;

  /// Event-driven receive: park the calling kernel thread until a frame
  /// arrives, wake() is called, or now_ns() reaches `deadline_ns`
  /// (UINT64_MAX = wait until a frame or wake).  This is the waitable
  /// readiness handle of the transport — the in-process hub waits on the
  /// destination mailbox's condition variable, the socket fabric on
  /// epoll over the peer links plus its wake eventfd — so an idle comm
  /// daemon consumes no CPU and resumes within the transport's wake
  /// latency of the event, not at the end of a poll interval.
  /// Returns nullopt on deadline expiry or wake-up without a frame.
  virtual std::optional<Message> recv_until(uint64_t deadline_ns) = 0;

  /// Interrupt a concurrent or subsequent recv_until from any kernel
  /// thread (the one cross-thread-safe entry point): the blocked receiver
  /// returns early (possibly nullopt).  Socket fabric: a write to its
  /// eventfd registered in the epoll set; in-process hub: a flagged
  /// notify on the mailbox condvar.
  virtual void wake() = 0;

  /// Receive with timeout in milliseconds (-1 = wait forever), layered on
  /// recv_until for callers that think in intervals (tests, tools).
  std::optional<Message> recv(int timeout_ms);

  /// Bytes/messages moved (for benches).  Both fabrics count
  /// Message::wire_size() at the top of send(), before delivery.
  virtual uint64_t bytes_sent() const = 0;
  virtual uint64_t messages_sent() const = 0;

  /// Payload bytes this endpoint memcpy'd on the send path before the wire
  /// (flatten/seal).  The zero-copy pipeline's scorecard: 0 on the socket
  /// fabric, where chained payloads gather straight from the sender's
  /// memory (slot images included) into writev.
  virtual uint64_t payload_copy_bytes() const = 0;

  /// Payload bytes this endpoint memcpy'd on the receive path, from its
  /// staging buffer into a payload or a placed destination.  Bytes read
  /// straight from the socket into their destination are not counted, so
  /// a placed migration frame shows at most one copy per byte.  The
  /// in-process hub moves whole payloads and reports 0.
  virtual uint64_t recv_copy_bytes() const { return 0; }
};

}  // namespace pm2::fabric
