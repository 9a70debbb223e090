// Socket fabric: full mesh of stream connections between node *processes*
// on one host (UNIX domain sockets by default, TCP loopback optional).
//
// Stands in for the paper's BIP/Myrinet interconnect.  Topology setup is
// rendezvous-free: node i listens at <dir>/node<i>.sock; every node j
// connects to all i < j and accepts from all k > j, identifying itself with
// a hello byte carrying its node id.
// Any kernel thread may send.  The receive owner (the last caller of
// try_recv/recv_until, else the builder) pumps while its send waits on a
// full pipe and alone replaces links; other senders poll(POLLOUT).
#pragma once

#include <memory>
#include <string>

#include "fabric/message.hpp"

namespace pm2::fabric {

struct SocketFabricConfig {
  NodeId node_id = 0;
  NodeId n_nodes = 1;
  /// Directory for the UNIX socket files; every node of the session must use
  /// the same value (the launcher passes it through the environment).
  std::string dir = "/tmp/pm2";
  bool use_tcp = false;
  /// Base TCP port; node i listens on base_port + i (TCP mode only).
  uint16_t base_port = 29000;
  int connect_timeout_ms = 10000;
  /// Survive a peer process dying and coming back (crash-restart
  /// sessions): the listener stays open for the session's lifetime and a
  /// restarted peer's hello *replaces* its old link; send() to a dead peer
  /// blocks (bounded by connect_timeout_ms) until the receive owner has
  /// reconnected it, then resends the frame on the fresh connection.  Off (default), a dead
  /// peer outside teardown is fatal — crashing silently would hang every
  /// pending caller.
  bool allow_reconnect = false;
};

/// Build the mesh (blocks until all peers are connected).
std::unique_ptr<Fabric> make_socket_fabric(const SocketFabricConfig& config);

}  // namespace pm2::fabric
