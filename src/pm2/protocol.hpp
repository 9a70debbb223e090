// PM2 control-plane message types carried by the fabric, and the service-id
// hash that keys RPC dispatch on the wire.
#pragma once

#include <cstdint>
#include <string_view>

namespace pm2 {

enum MsgType : uint16_t {
  // Shutdown / collectives
  kHalt = 1,
  kBarrierArrive,   // node -> 0           {u32 seq}
  kBarrierRelease,  // 0 -> all            {u32 seq}
  kSignal,          // point-to-point completion token

  // Remote thread creation (LRPC) and replies.  The service field is the
  // FNV-1a hash of the service *name* (see service_id below): any node may
  // register any subset of services in any order, and dispatch still
  // agrees across heterogeneous binaries/roles.
  kRpc,    // {u32 service-name hash; args...}  corr!=0 => reply expected
  kReply,  // {result...}             corr = matching request

  // Iso-address thread migration.  corr != 0 requests a kMigrateAck from
  // the installing node once the thread is adopted (migrate_async).
  kMigrate,  // {u32 table len; run/extent table; extent bytes} — placed

  // Global negotiation (paper §4.4): system-wide critical section on the
  // slot bitmaps, hosted by node 0.
  kLockReq,    // node -> 0
  kLockGrant,  // 0 -> node
  kUnlock,     // node -> 0
  kGatherReq,  // initiator -> node    (freezes the peer's bitmap)
  kGatherResp, // node -> initiator    {bitmap words}
  kNegoUpdate, // initiator -> node    {bitmap words} (unfreezes the peer)

  // Load balancer gossip
  kLoadInfo,  // {u32 node; u64 load}

  // Distributed invariant audit (pm2/audit.hpp)
  kAuditReq,   // initiator -> node
  kAuditResp,  // node -> initiator  {thread-held slot runs}

  // v2 asynchronous RPC / migration completions
  kReplyError,  // {string why}       corr = matching request (fails the future)
  kMigrateAck,  // {MigrateResult}    corr = matching migrate_async

  // Failure detection: periodic liveness beacon from each comm daemon.
  // Empty payload; best-effort (a heartbeat to a dead peer is dropped, not
  // retried).  Any received frame counts as liveness, so heartbeats only
  // carry information on otherwise-quiet links.
  kHeartbeat,

  kUserBase = 100,
};

/// FNV-1a 32-bit hash of a service name — the wire-level service id.
/// Name-keyed dispatch replaces the old registration-order ids: nodes no
/// longer need to register the same services in the same order (or at
/// all).  Collisions between *registered* names are CHECK-failed at
/// registration time; see Runtime::service / Runtime::service_raw.
constexpr uint32_t service_id(std::string_view name) {
  uint32_t h = 2166136261u;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace pm2
