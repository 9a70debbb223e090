// The PM2 node runtime: one instance per node (container process, or
// logical in-process node).  Composes the substrates:
//
//   marcel     — user-level threads on this node's kernel thread
//   isomalloc  — slot manager over the shared iso-address area
//   fabric     — messaging to the other nodes
//
// and implements the distributed pieces of the paper: remote thread
// creation (LRPC), iso-address thread migration, barriers and shutdown.
// Parts own the rest: the Negotiator the slot bitmap and every idle
// committed slot (pm2/negotiator.hpp), the InvocationPool the parked
// service threads (pm2/invocation_pool.hpp), Residency the slot store and
// demotion (pm2/residency.hpp), and the PeerMonitor the liveness verdicts
// (pm2/peer_monitor.hpp).  The runtime wires them to its comm daemon and
// thread lifecycle.
//
// Threading model: a node's PM2 threads run on RuntimeConfig::workers
// scheduler kernel threads (1 = the original single-kernel-thread node).
// The comm daemon is a PM2 daemon thread pinned to worker 0; it owns the
// fabric's receive side and dispatches control messages inline.  Runtime
// state that multiple workers touch on the hot path (services, the
// invocation freelist) is guarded by short sys::SpinLocks.  Every
// worker sends on the fabric directly: the fabric serialises frames per
// link, and a borrowed chain (a migrating thread's slots) goes to the wire
// with no copy.
//
// Every reply the node awaits — RPC calls, migration install acks,
// negotiation gathers, audits — is one entry of the CorrelationTable
// (pm2/correlation.hpp), and fail() is the one place a failed entry is
// resolved (rolling a migration back when the entry carries a rollback
// record).
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "fabric/message.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/heap.hpp"
#include "isomalloc/slot_manager.hpp"
#include "madeleine/buffers.hpp"
#include "madeleine/channel.hpp"
#include "madeleine/typed.hpp"
#include "marcel/scheduler.hpp"
#include "marcel/sync.hpp"
#include "pm2/correlation.hpp"
#include "pm2/invocation_pool.hpp"
#include "pm2/negotiator.hpp"
#include "pm2/peer_monitor.hpp"
#include "pm2/protocol.hpp"
#include "pm2/residency.hpp"
#include "sys/spinlock.hpp"
#include "sys/striped_map.hpp"
#include "sys/thread_safety.hpp"

namespace pm2 {

namespace fabric {
class FaultFabric;
}

class Runtime;

/// Coarse classification of an RPC/migration failure, carried as the
/// failed future's error_code() next to its message:
///   kTimeout  — the request's deadline elapsed with no reply.
///   kPeerDown — the failure detector declared the destination dead.
///   kOther    — everything else (unknown service, session halting, the
///               remote handler threw).
enum class RpcErrorCode : uint8_t { kOther, kTimeout, kPeerDown };

/// Thrown by the blocking request paths (call / typed call<R> /
/// RpcFuture::take) when the request cannot complete: the session halted
/// while the reply was pending, or the destination had no such service.
/// Asynchronous callers observe the same conditions non-throwing via
/// Future::failed()/error()/error_code().
struct RpcError : std::runtime_error {
  explicit RpcError(const std::string& why,
                    RpcErrorCode code = RpcErrorCode::kOther)
      : std::runtime_error(why), code_(code) {}
  RpcErrorCode code() const { return code_; }

 private:
  RpcErrorCode code_;
};

/// Completion value of migrate_async: the ack sent by the installing node
/// once the thread is adopted there.
struct MigrateResult {
  marcel::ThreadId thread = 0;
  uint32_t dest = 0;
};

/// Per-node migration observer (pm2_set_pre/post_migration_func).  The pre
/// hook runs on the source node right before the thread is packed; the
/// post hook runs on the destination right after it is adopted.  Both run
/// on the node's service context (scheduler stack or comm daemon), never
/// on the migrating thread itself.
using MigrationHook = std::function<void(marcel::Thread*)>;

/// Context handed to an RPC service running in its own fresh thread.
class RpcContext {
 public:
  /// `args_offset` skips transport framing at the front of `args` (the
  /// service id of a remote invocation), letting the whole received
  /// payload move in without a trim copy.
  RpcContext(Runtime& rt, uint32_t src, uint64_t corr,
             std::vector<uint8_t> args, size_t args_offset = 0)
      : rt_(rt), src_(src), corr_(corr), args_(std::move(args)),
        unpacker_(args_.data() + args_offset, args_.size() - args_offset) {}
  /// The handler is done with its arguments: their storage goes back to
  /// this kernel thread's chunk cache.
  ~RpcContext() { mad::recycle(std::move(args_)); }

  uint32_t source_node() const { return src_; }
  mad::UnpackBuffer& args() { return unpacker_; }
  /// True when the caller used call()/call_async() and waits for reply().
  bool reply_expected() const { return corr_ != 0; }
  /// Send the reply (allowed once; only if the caller used call()).
  void reply(mad::PackBuffer&& result);
  /// Fail the caller's future with `why` instead of replying (no-op if no
  /// reply is expected or one was already sent).  The RPC trampoline calls
  /// this when a service handler throws, so errors propagate up recursive
  /// call chains instead of terminating the node or hanging the caller.
  /// Routes through Runtime::current(), so it is safe even after the
  /// service migrated.
  void fail(const std::string& why);

 private:
  Runtime& rt_;
  uint32_t src_;
  uint64_t corr_;
  std::vector<uint8_t> args_;
  mad::UnpackBuffer unpacker_;
  bool replied_ = false;
};

using ServiceHandler = std::function<void(RpcContext&)>;

/// Typed view over a raw reply future: take() unpacks the service's return
/// value (throwing RpcError if the call failed).  Same then-free surface
/// as marcel::Future, so wait_all/wait_any work on either.
template <typename R>
class RpcFuture {
 public:
  RpcFuture() = default;
  explicit RpcFuture(marcel::Future<std::vector<uint8_t>> raw)
      : raw_(std::move(raw)) {}

  bool valid() const { return raw_.valid(); }
  bool ready() const { return raw_.ready(); }
  void wait() { raw_.wait(); }
  bool failed() const { return raw_.failed(); }
  const std::string& error() const { return raw_.error(); }
  RpcErrorCode code() const { return RpcErrorCode(raw_.error_code()); }

  R take() {
    wait();
    if (raw_.failed()) throw RpcError(raw_.error(), code());
    std::vector<uint8_t> bytes = raw_.take();
    if constexpr (std::is_void_v<R>) {
      mad::recycle(std::move(bytes));
    } else {
      mad::UnpackBuffer u(bytes.data(), bytes.size());
      R value = mad::unpack_value<R>(u);
      mad::recycle(std::move(bytes));
      return value;
    }
  }

 private:
  marcel::Future<std::vector<uint8_t>> raw_;
};

namespace detail {

/// Deduce a typed service handler's signature `R(RpcContext&, Args...)`
/// and bridge it to the untyped ServiceHandler: unpack the arguments left
/// to right, invoke, and auto-reply the packed result when the caller
/// expects one.  A void service auto-acks with an empty reply, so
/// call<void> has completion-barrier semantics; fire-and-forget
/// invocations send nothing.  (Only untyped service_raw handlers control
/// reply() manually.)
template <typename R, typename... Args>
struct RpcInvoker {
  template <typename F>
  static void run(F& fn, RpcContext& ctx) {
    // Braced init: unpack order is the parameter order.  The unpacked
    // values move into by-value parameters instead of being copied again.
    std::tuple<std::decay_t<Args>...> args{
        mad::unpack_value<std::decay_t<Args>>(ctx.args())...};
    auto call = [&](auto&... a) { return fn(ctx, std::forward<Args>(a)...); };
    if constexpr (std::is_void_v<R>) {
      std::apply(call, args);
      if (ctx.reply_expected()) ctx.reply(mad::PackBuffer());
    } else {
      R result = std::apply(call, args);
      if (ctx.reply_expected()) ctx.reply(mad::pack_exact(result));
    }
  }
};

template <typename T>
struct RpcHandlerTraits : RpcHandlerTraits<decltype(&T::operator())> {};
template <typename R, typename... Args>
struct RpcHandlerTraits<R (*)(RpcContext&, Args...)> : RpcInvoker<R, Args...> {};
template <typename C, typename R, typename... Args>
struct RpcHandlerTraits<R (C::*)(RpcContext&, Args...)>
    : RpcInvoker<R, Args...> {};
template <typename C, typename R, typename... Args>
struct RpcHandlerTraits<R (C::*)(RpcContext&, Args...) const>
    : RpcInvoker<R, Args...> {};

}  // namespace detail

struct RuntimeConfig {
  uint32_t node = 0;
  uint32_t n_nodes = 1;
  iso::SlotManagerConfig slots;  // node/n_nodes are overwritten
  iso::HeapConfig heap;
  /// Contiguous slots per thread stack (1 = the paper's design point:
  /// "the slot size was chosen so as to fit a thread stack").
  size_t stack_slots = 1;
  /// Deferred-preemption quantum for the scheduler (0 = cooperative only).
  uint64_t preemption_quantum_us = 0;
  /// Migration payload: ship only slot headers + live blocks/stack instead
  /// of whole slots (paper §6 optimization).  Ablation A4 toggles this.
  bool migrate_blocks_only = true;
  /// Pre-buy (paper §4.4: "possible for the local node to take advantage
  /// of a negotiation phase to pre-buy slots in prevision of foreseeable
  /// large allocation requests"): each negotiation first tries to win this
  /// many extra contiguous slots beyond the request, so the next multi-slot
  /// allocations are satisfied locally.  0 disables.
  size_t nego_prebuy_slots = 0;
  /// Invocation pool (pm2/invocation_pool.hpp): exited service threads
  /// park instead of releasing, and the next service dispatch re-arms a
  /// parked one.  Value = max parked threads per node, in one list; 0
  /// disables (every invocation builds a thread).
  /// Sized to absorb a deep pipelining window (bench_rpc sweeps to 64
  /// outstanding) — idle decay returns the slots afterwards.
  size_t invocation_pool = 64;
  /// Parked service threads idle longer than this are evicted by the comm
  /// daemon (their slot run returns to the node's distribution), so a
  /// burst does not pin stack slots forever.  0 = decay only at halt.
  uint64_t invocation_pool_decay_us = 200'000;
  /// Scheduler worker kernel threads per node.  0 = auto: the PM2_WORKERS
  /// environment variable if set, else 1 (the historical single-loop
  /// scheduler).  Capped at 64.
  uint32_t workers = 0;
  /// Slot store (iso::SlotStore): directory holding this node's backing
  /// file ("" disables the store entirely — no demotion, no
  /// checkpoint_node_to_store, no crash restart).
  std::string slot_store_dir;
  /// Resident-byte budget for *frozen* threads: when their committed slot
  /// bytes exceed this, the comm daemon's idle decay demotes the coldest
  /// ones to the backing file until back under budget.  Parked
  /// invocation-pool shells are never demoted (invocation_pool bounds
  /// them).
  /// SIZE_MAX (default) never demotes by decay — explicit demote_thread()
  /// and the checkpoint/restart paths still work.  A demoted thread keeps
  /// the first page of each slot run resident (slot header, descriptor);
  /// those pages do not count against the budget.
  size_t slot_store_budget = SIZE_MAX;
  /// Only threads frozen at least this long are demotion candidates.
  uint64_t slot_store_decay_us = 500'000;
  /// Re-open an existing store file and validate its header instead of
  /// truncating it — the crash-restart path (restore_node_from_store then
  /// adopts the recorded threads).
  bool slot_store_recover = false;
  /// Default request deadline: call_async / call<R> / migrate_async fail
  /// with a kTimeout error when no reply arrived within this window (the
  /// late reply is dropped instead of double-resolving).  0 (default)
  /// keeps the legacy unbounded behavior bit-for-bit; the
  /// PM2_RPC_TIMEOUT_MS environment variable fills a zero value, so chaos
  /// runs can arm deadlines in spawned node processes without code
  /// changes.  Per-call deadlines override both.
  uint64_t rpc_timeout_ns = 0;
  /// Deterministic fault injection: when non-empty, the runtime wraps its
  /// fabric in a fabric::FaultFabric driven by this plan spec (grammar in
  /// fabric/fault_fabric.hpp).  Empty (default) consults the
  /// PM2_FAULT_PLAN environment variable instead — again so multiprocess
  /// tests inject into spawned nodes.  An inactive plan leaves the fabric
  /// untouched (zero overhead).
  std::string fault_plan;
  /// Heartbeat-based failure detection: the comm daemon sends a
  /// best-effort kHeartbeat to every peer each period, and declares a peer
  /// down after heartbeat_miss_limit periods without *any* frame from it
  /// (every received frame counts as liveness).  A down peer's pending
  /// calls and migration acks fail immediately with kPeerDown, new
  /// requests to it fail fast, the load balancer steers away from it, and
  /// barriers error out instead of hanging.  Any subsequent frame from the
  /// peer (e.g. after a crash-restart reconnect) marks it up again.
  /// 0 (default) disables detection entirely — the legacy behavior.
  uint64_t heartbeat_period_ns = 0;
  /// Consecutive missed heartbeat periods before a peer is declared down;
  /// the first miss already marks it suspect (observable, no action).
  uint32_t heartbeat_miss_limit = 5;
  // The Runtime constructor resolves workers, rpc_timeout_ns and
  // fault_plan against the environment once; Runtime::config() reports
  // the values in use.
};

class Runtime {
 public:
  /// `area` must be the same reservation in every node of the session (the
  /// same object for in-process nodes; same AreaConfig across processes).
  Runtime(const RuntimeConfig& config, iso::Area& area,
          std::unique_ptr<fabric::Fabric> fabric);
  /// As above, with the write watch the node's slot store narrows its
  /// compares with injected (the form above passes the area's).  nullptr
  /// opens a store that compares every page.
  Runtime(const RuntimeConfig& config, iso::Area& area,
          std::unique_ptr<fabric::Fabric> fabric, sys::WriteWatch* watch);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runtime of the calling kernel thread (valid inside run()).
  static Runtime* current();

  uint32_t self() const { return config_.node; }
  uint32_t n_nodes() const { return config_.n_nodes; }

  marcel::Scheduler& sched() { return sched_; }
  iso::SlotManager& slots() { return nego_.slots(); }
  /// The slot bitmap's owner: the system-wide critical section (audits).
  Negotiator& negotiator() { return nego_; }
  /// Negotiation-aware slot provisioning (what thread heaps should use).
  iso::SlotOps& slot_ops() { return slot_ops_; }
  iso::Area& area() { return area_; }
  fabric::Fabric& fabric() { return *fabric_; }
  /// The fault-injection decorator wrapping the transport, or nullptr when
  /// no fault plan is active (tests read its FaultStats through this).
  fabric::FaultFabric* fault_fabric();
  const RuntimeConfig& config() const { return config_; }

  /// Sentinel for per-request timeout parameters: "use the configured
  /// default" (RuntimeConfig::rpc_timeout_ns / PM2_RPC_TIMEOUT_MS).  An
  /// explicit 0 means "wait forever" regardless of the configured default.
  static constexpr uint64_t kTimeoutFromConfig = UINT64_MAX;

  // --- main loop -----------------------------------------------------------

  /// Start the comm daemon, run `node_main` as the first PM2 thread, then
  /// schedule until halt.  SPMD: every node calls run() with its own main.
  void run(std::function<void()> node_main);

  /// Broadcast shutdown; every node's run() returns once drained.
  void halt();
  /// True once halt was initiated or received (daemons poll this).
  bool halting() const { return halting_.load(std::memory_order_relaxed); }

  // --- threads -------------------------------------------------------------

  /// Create a migratable PM2 thread.  `fn` must be a plain function (code
  /// is SPMD-replicated so the pointer is valid on every node); `arg` must
  /// be either a value smuggled in the pointer or a pointer into
  /// iso-address memory — never into the libc heap, which is node-local.
  marcel::ThreadId spawn(marcel::EntryFn fn, void* arg,
                         const char* name = "thread");

  /// Convenience thread for node-local work (closures may capture
  /// anything).  Pinned: refuses to migrate.
  marcel::ThreadId spawn_local(std::function<void()> fn,
                               const char* name = "local");

  /// spawn() with argument hand-off: copies [data, data+len) into the NEW
  /// thread's own iso-heap and passes that pointer as arg.  This is the
  /// migration-safe way to give a child thread its inputs — blocks always
  /// belong to exactly one thread and move with it, so passing a pointer
  /// into the *parent's* heap would dangle as soon as either thread
  /// migrates (and the child must never isofree the parent's block).  The
  /// child owns the copy and should pm2_isofree it when done.
  marcel::ThreadId spawn_copy(marcel::EntryFn fn, const void* data,
                              size_t len, const char* name = "thread");

  /// Block until thread `id` (living on this node) exits.
  bool join(marcel::ThreadId id);

  /// Terminate the calling thread, releasing all its slots here.
  [[noreturn]] void thread_exit();

  // --- iso-address allocation (pm2_isomalloc / pm2_isofree) ----------------

  /// Allocate migratable memory for the calling thread.  Runs the global
  /// negotiation transparently when the local node lacks contiguous slots.
  /// Throws std::bad_alloc if the whole system is out of contiguous slots.
  void* isomalloc(size_t size);
  void isofree(void* p);
  void* isorealloc(void* p, size_t size);
  /// Extensions with malloc-family semantics.
  void* isocalloc(size_t n, size_t elem_size);
  void* isomemalign(size_t align, size_t size);

  // --- migration -----------------------------------------------------------

  /// Migrate the calling thread to `dest`; returns executing on `dest`.
  void migrate_self(uint32_t dest);

  /// Preemptively migrate thread `id` (must be READY on this node and not
  /// pinned).  "The threads are unaware of their being migrated" (§2).
  bool migrate(marcel::ThreadId id, uint32_t dest);

  /// Preemptive migration with a completion future: the destination node
  /// sends a kMigrateAck (an ordinary reply carrying the MigrateResult)
  /// once the thread is installed there, completing the future *after*
  /// the destination's migrations_in() already counts the arrival.  Fails
  /// the future (never CHECKs) when the thread is unknown, pinned,
  /// running, blocked, or the session is halting.
  ///
  /// `timeout_ns` bounds the wait for the install ack (default: the
  /// configured rpc_timeout_ns; 0 = unbounded).  On expiry — or when the
  /// destination is declared down first — the migration *rolls back*: the
  /// shipped thread is adopted back onto this node's scheduler (its slots
  /// stayed committed in the away cache) and the future fails with
  /// kTimeout / kPeerDown.  Rollback assumes the timeout means the payload
  /// was lost (dead or partitioned peer): a payload merely *delayed* past
  /// the deadline would install a second copy at the destination.  At most
  /// iso::SlotManager::kAwayRunCapacity runs may leave this node within
  /// one deadline window, or the cache evicts a rollback's runs.
  RpcFuture<MigrateResult> migrate_async(
      marcel::ThreadId id, uint32_t dest,
      uint64_t timeout_ns = kTimeoutFromConfig);

  /// Install per-node migration observers (PM2's
  /// pm2_set_pre/post_migration_func).  Either hook may be null.
  void on_migration(MigrationHook pre, MigrationHook post) {
    pre_migration_ = std::move(pre);
    post_migration_ = std::move(post);
  }
  const MigrationHook& pre_migration_hook() const { return pre_migration_; }
  const MigrationHook& post_migration_hook() const { return post_migration_; }

  // --- RPC (LRPC: remote thread creation) -----------------------------------
  //
  // Services are keyed by the FNV-1a hash of their *name* (protocol.hpp's
  // service_id); the wire carries the hash, and every entry point below
  // takes the name — the PR-2-deprecated numeric-id overloads are gone.
  // Nodes may register any subset of services in any order.  A name
  // collision between two registered services CHECK-fails at registration;
  // a fire-and-forget rpc() to an unknown remote service is dropped with a
  // warning; a call()/call_async() to an unknown service fails the
  // caller's future with an error instead.

  /// Register an untyped service under `name`: the handler drives
  /// ctx.args()/ctx.reply() manually (no typed unpacking, no auto-reply —
  /// for region-view payloads and protocol tests).  Returns
  /// service_id(name).
  uint32_t service_raw(const char* name, ServiceHandler fn);

  /// Typed service registration: `handler` is any callable
  /// `R(RpcContext&, Args...)`.  Arguments are unpacked left to right with
  /// mad::unpack_value; a non-void R is auto-packed and replied when the
  /// caller expects a reply.  Returns service_id(name).
  ///
  /// Service threads are ordinary migratable threads (the paper's LRPC +
  /// migration composition) — but their invocation state (args buffer,
  /// reply route) is node-local, so migrating one is only sound between
  /// in-process logical nodes.  Multiprocess sessions running a load
  /// balancer must register with service_local() instead.
  template <typename F>
  uint32_t service(const char* name, F&& handler) {
    return service_with_flags(name, std::forward<F>(handler), 0);
  }

  /// service() whose threads are pinned (refuse to migrate), like
  /// spawn_local vs spawn: for handlers touching node-local state, and for
  /// any service of a multiprocess session with preemptive migration on.
  template <typename F>
  uint32_t service_local(const char* name, F&& handler) {
    return service_with_flags(name, std::forward<F>(handler),
                              marcel::Thread::kFlagPinned);
  }

  /// Fire-and-forget by name, pre-packed args: create a thread running the
  /// service on `node`.
  void rpc(uint32_t node, const char* service_name, mad::PackBuffer&& args);

  /// Fire-and-forget by name, typed args.  Typed entry points frame the
  /// service hash into the same exactly sized pack buffer as the
  /// arguments: one owned chunk, no head splice.
  template <typename... Args>
  void rpc(uint32_t node, const char* service_name, const Args&... args) {
    uint32_t sid = service_id(service_name);
    send_request(node, sid, mad::pack_exact(sid, args...).take_chain(), 0);
  }

  /// Blocking request/response by name, pre-packed args: like rpc() but
  /// parks the calling thread until the service calls ctx.reply().
  /// Throws RpcError if the session halts while waiting or the
  /// destination has no such service.
  std::vector<uint8_t> call(uint32_t node, const char* service_name,
                            mad::PackBuffer&& args);

  /// Asynchronous request by name: returns immediately with a completion
  /// future for the raw reply bytes.  Unlimited outstanding requests per
  /// thread — this is the pipelined-RPC primitive.  The future fails
  /// (instead of hanging) on session shutdown, unknown destination
  /// service, deadline expiry (kTimeout) or a destination declared down
  /// (kPeerDown).  `timeout_ns` bounds the wait for the reply (default:
  /// the configured rpc_timeout_ns; explicit 0 = wait forever).
  marcel::Future<std::vector<uint8_t>> call_async(
      uint32_t node, const char* service_name, mad::PackBuffer&& args,
      uint64_t timeout_ns = kTimeoutFromConfig);

  /// Typed asynchronous call: packs `args` with mad::pack_values, returns
  /// a future whose take() unpacks the service's R.
  template <typename R, typename... Args>
  RpcFuture<R> call_async(uint32_t node, const char* service_name,
                          const Args&... args) {
    return call_async_within<R>(kTimeoutFromConfig, node, service_name,
                                args...);
  }

  /// Typed asynchronous call with an explicit deadline (`timeout_ns` from
  /// now; 0 = wait forever regardless of the configured default).  The
  /// deadline leads the argument list because the trailing pack is
  /// variadic.
  template <typename R, typename... Args>
  RpcFuture<R> call_async_within(uint64_t timeout_ns, uint32_t node,
                                 const char* service_name,
                                 const Args&... args) {
    uint32_t sid = service_id(service_name);
    mad::PackBuffer pb = mad::pack_exact(sid, args...);
    CorrelationTable::Opened req = open_request(node, timeout_ns);
    if (req.corr != 0) send_request(node, sid, pb.take_chain(), req.corr);
    return RpcFuture<R>(std::move(req.future));
  }

  /// Typed blocking call: call<R>(node, "name", args...) -> R.
  template <typename R, typename... Args>
  R call(uint32_t node, const char* service_name, const Args&... args) {
    return call_async<R>(node, service_name, args...).take();
  }

  /// Typed blocking call with an explicit deadline; throws RpcError whose
  /// code() is kTimeout on expiry.
  template <typename R, typename... Args>
  R call_within(uint64_t timeout_ns, uint32_t node, const char* service_name,
                const Args&... args) {
    return call_async_within<R>(timeout_ns, node, service_name, args...)
        .take();
  }

  /// Madeleine channels multiplexed over this node's fabric (message types
  /// kUserBase and up).  Open channels in the same order on every node
  /// (SPMD), before traffic starts; incoming channel messages are fed by
  /// the comm daemon.
  mad::ChannelMux& channels() { return channels_; }

  // --- collectives & signals -------------------------------------------------

  /// All-node barrier (each node's threads may call it, one at a time).
  /// When failure detection is on, throws RpcError (kPeerDown) instead of
  /// hanging if a peer is — or while waiting becomes — declared down.
  void barrier();

  /// Completion tokens: wait_signals(n) blocks until n kSignal messages
  /// arrived (from any node, including self).
  void send_signal(uint32_t node);
  void wait_signals(uint64_t count);

  // --- slot runs by position (checkpoint restore) --------------------------

  /// Release slots, deferring while a negotiation freezes the bitmap.
  void release_slots(size_t first, size_t count);

  /// Paper-trace printf: prefixes "[node<i>] " (Fig. 8).
  void printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // --- stats -----------------------------------------------------------------

  HeapStats& heap_stats() { return heap_stats_; }
  uint64_t negotiations_initiated() const {
    return nego_.negotiations_initiated();
  }
  uint64_t migrations_in() const {
    return migrations_in_.load(std::memory_order_relaxed);
  }
  uint64_t migrations_out() const {
    return migrations_out_.load(std::memory_order_relaxed);
  }

  // --- invocation pool (see RuntimeConfig::invocation_pool) ------------------

  InvocationPool& pool() { return pool_; }
  uint64_t pool_hits() const { return pool_.hits(); }
  uint64_t pool_misses() const { return pool_.misses(); }
  uint64_t pool_evictions() const { return pool_.evictions(); }

  /// Load metric used by the balancer: runnable, non-daemon threads.
  uint64_t load() const;

  /// Observed load table (filled by kLoadInfo gossip).  Snapshot under the
  /// lock: the gossip handler mutates the table concurrently with balancer
  /// reads, and the values go stale the moment the lock drops anyway.
  std::vector<uint64_t> load_table() const {
    sys::SpinGuard g(load_lock_);
    return load_table_;
  }
  void broadcast_load();

  // --- failure detection (see RuntimeConfig::heartbeat_period_ns) -----------

  using PeerState = PeerMonitor::State;
  PeerState peer_state(uint32_t node) const { return peers_.state(node); }
  bool peer_down(uint32_t node) const {
    return peers_.state(node) == PeerState::kDown;
  }
  uint64_t heartbeats_sent() const { return peers_.heartbeats_sent(); }
  /// Requests failed with kTimeout by deadline expiry.
  uint64_t rpc_timeouts() const {
    return rpc_timeouts_.load(std::memory_order_relaxed);
  }
  /// Replies/acks that arrived after their correlation was resolved
  /// (timeout, peer-down sweep, or an injected duplicate) and were dropped
  /// instead of double-resolving a promise.
  uint64_t late_replies_dropped() const { return pending_.late_replies(); }
  /// Pending requests failed with kPeerDown by the failure sweep.
  uint64_t peer_down_failures() const {
    return peer_down_failures_.load(std::memory_order_relaxed);
  }
  /// Timed-out/peer-down migrations whose thread was adopted back locally.
  uint64_t migration_rollbacks() const {
    return migration_rollbacks_.load(std::memory_order_relaxed);
  }

  // --- slot store (see RuntimeConfig::slot_store_dir) ------------------------

  Residency& residency() { return residency_; }
  iso::SlotStore* slot_store() { return residency_.store(); }
  bool demote_thread(marcel::ThreadId id) { return residency_.demote(id); }
  uint64_t demotions() const { return residency_.demotions(); }
  uint64_t fault_backs() const { return residency_.fault_backs(); }

  /// Freeze a READY thread of this node (pause-gated, so it works at any
  /// worker count) — the runtime-level companion of unfreeze_thread().
  bool freeze_thread(marcel::ThreadId id);
  /// Fault a frozen thread's runs back in if demoted, then reschedule it.
  /// Demotion-aware code must use this instead of sched().unfreeze().
  bool unfreeze_thread(marcel::ThreadId id);

  /// Keep next_thread_id() ahead of an id this node minted in a previous
  /// incarnation (checkpoint restore adopts pre-crash ids).
  void ensure_thread_id_floor(marcel::ThreadId id);

 private:
  friend class RpcContext;
  friend class MigrationEngine;

  struct SpawnLocalCtx;
  struct RpcInvocation;

  void comm_daemon_body();
  void handle_message(fabric::Message& msg);
  void handle_rpc(fabric::Message& msg);
  void handle_migrate(fabric::Message& msg);

  /// Shared service dispatch (local invocations and received kRpc frames):
  /// looks the hash up and spawns the service thread.  Unknown service:
  /// fails the caller's future when a reply is expected (corr != 0),
  /// CHECK-fails a fire-and-forget.  The comm daemon (`on_daemon`) must
  /// never park: a request that finds no pooled shell and no stack run
  /// without waiting (the bitmap is frozen, or no local run is free) is
  /// held in held_rpcs_ and started on a later lap.
  void dispatch_rpc(uint32_t service, uint32_t src, uint64_t corr,
                    std::vector<uint8_t>&& args, size_t args_offset,
                    bool on_daemon);
  /// Run `inv` on a service thread: re-arm a parked pool shell (hot path:
  /// no slot acquire, no init_stack_slot) or build one.  False, with
  /// nothing started, when !may_wait and no stack run is free right now.
  bool start_invocation(RpcInvocation* inv, bool may_wait);
  /// Comm daemon: start held requests in arrival order, up to the first
  /// that still finds no stack.
  void start_held_rpcs();
  uint32_t register_service_handler(const char* name, ServiceHandler fn,
                                    uint32_t thread_flags = 0);

  /// The one request sender every public RPC entry point compiles down
  /// to.  `framed` starts with the u32 service hash (typed wrappers pack
  /// it in place; untyped ones splice it ahead of the caller's buffer);
  /// `corr` != 0 names the open correlation the reply resolves.  A local
  /// request is flattened once and dispatched with the hash skipped by
  /// offset.
  void send_request(uint32_t node, uint32_t service, mad::BufferChain framed,
                    uint64_t corr);
  /// Open the correlation of a call to `node`: fails fast (corr 0, failed
  /// future) when `node` is down or the session is halting.
  CorrelationTable::Opened open_request(uint32_t node, uint64_t timeout_ns);

  template <typename F>
  uint32_t service_with_flags(const char* name, F&& handler, uint32_t flags) {
    using Traits = detail::RpcHandlerTraits<std::decay_t<F>>;
    return register_service_handler(
        name,
        [fn = std::forward<F>(handler)](RpcContext& ctx) mutable {
          Traits::run(fn, ctx);
        },
        flags);
  }

  /// Resolve `corr` with its reply (an unknown corr is the table's call:
  /// dropped as late, or tolerated while halting).
  void complete(uint64_t corr, std::vector<uint8_t>&& reply);
  /// The only failure resolver: an entry carrying a rollback record adopts
  /// its thread back first, then the future fails with `why` and `code`.
  /// Callers took the entry from the table and hold no locks.
  void fail(CorrelationTable::Pending&& p, const std::string& why,
            RpcErrorCode code = RpcErrorCode::kOther);
  /// Fail the request `corr` of node `caller` with `why`: resolved here
  /// for a local caller, sent as a kReplyError otherwise.
  void fail_reply(uint32_t caller, uint64_t corr, const std::string& why);
  /// Fail every armed correlation whose deadline passed (comm daemon;
  /// early-outs on the cached next-deadline, so un-armed sessions pay one
  /// relaxed load per lap).
  void expire_deadlines(uint64_t now);
  /// Map a per-request timeout parameter (kTimeoutFromConfig sentinel /
  /// explicit value / 0) to an absolute deadline (0 = unbounded).
  uint64_t resolve_deadline(uint64_t timeout_ns) const;

  /// Comm daemon: send the heartbeats peers_ says are due, and sweep each
  /// peer it declares down.
  void check_peers(uint64_t now);
  /// The sweep for a peer declared down: fail its pending calls (kPeerDown),
  /// roll back its in-flight migrations, unwedge barrier/nego waiters.
  void mark_peer_down(uint32_t node);
  /// Node 0 counts one barrier arrival (its own or a kBarrierArrive); the
  /// last one releases every node.
  void barrier_arrive();
  /// halt() or a received kHalt: mark the session halting and close the
  /// table, waking every thread blocked on a pending reply with an error
  /// instead of leaving it parked forever.
  void begin_halt();
  void handle_audit_req(fabric::Message& msg);

  marcel::ThreadId next_thread_id();
  /// `start_frozen` hands the newborn back still frozen (spawn_copy
  /// finishes preparing it before any worker may steal and run it).
  /// Without `may_wait`, nullptr when no local stack run is free right now
  /// (frozen bitmap included) instead of parking or negotiating.
  marcel::Thread* create_thread_in_slots(marcel::EntryFn fn, void* arg,
                                         const char* name, uint32_t flags,
                                         bool start_frozen = false,
                                         bool may_wait = true);
  void reap_thread(marcel::Thread* t);

  static void thread_trampoline(void* descriptor);
  static void local_trampoline(void* ctx);
  static void rpc_trampoline(void* ctx);
  static void daemon_trampoline(void* runtime);

  /// ThreadHeap's view of the slot layer: the Negotiator's acquire (which
  /// falls back to the global negotiation) and release (deferred while a
  /// negotiation froze the bitmap), plus the runtime's own bookkeeping.
  class NegotiatingSlotOps final : public iso::SlotOps {
   public:
    explicit NegotiatingSlotOps(Runtime& rt) : rt_(rt) {}
    std::optional<size_t> acquire(size_t count) override {
      return rt_.nego_.acquire(count);
    }
    void release(size_t first, size_t count) override {
      rt_.release_slots(first, count);
    }
    iso::Area& area() override { return rt_.area_; }

   private:
    Runtime& rt_;
  };

  RuntimeConfig config_;
  iso::Area& area_;
  std::unique_ptr<fabric::Fabric> fabric_;
  // kMigrate placement hook, registered on fabric_ for the whole session:
  // on the socket fabric a migrating thread's bytes land in its slots as
  // they arrive (MigrationPlacer, pm2/migration.hpp).
  std::unique_ptr<fabric::Placer> mig_placer_;
  marcel::Scheduler sched_;
  NegotiatingSlotOps slot_ops_{*this};
  HeapStats heap_stats_;

  std::atomic<uint64_t> thread_counter_{0};
  std::atomic<bool> halting_{false};

  // Services: name-hash keyed dispatch table (the wire carries the hash).
  // The lookup sits on the per-invocation hot path, so the table is a
  // striped concurrent map whose node addresses are stable and whose
  // *grow-only* discipline (registration is setup-phase and permanent; no
  // erase, ever) makes find_fast() — a lock-free acquire-walk, zero shared
  // cache-line writes — sound on the dispatch path.
  struct ServiceEntry {
    std::string name;
    ServiceHandler fn;
    uint32_t thread_flags = 0;  // kFlagPinned for service_local
  };
  sys::StripedMap<uint32_t, ServiceEntry, 8> services_{
      sys::LockRank::kRuntimeMaps};

  // Every awaited reply (calls, migration acks, gathers, audits), its
  // deadline heap and the late-reply rule.  Unbounded — this is what lets
  // one thread pipeline arbitrarily many call_async requests.
  CorrelationTable pending_;

  // The slot bitmap, its freeze and the system-wide critical section.
  Negotiator nego_;

  PeerMonitor peers_;
  std::vector<RpcInvocation*> held_rpcs_;  // comm daemon only (dispatch_rpc)
  // held_rpcs_.size(), for the workers whose slot release or shell park
  // may unblock a held request: non-zero, they wake the daemon.
  std::atomic<size_t> held_count_{0};
  std::atomic<uint64_t> rpc_timeouts_{0};
  std::atomic<uint64_t> peer_down_failures_{0};
  std::atomic<uint64_t> migration_rollbacks_{0};

  // Migration observers (on_migration).
  MigrationHook pre_migration_;
  MigrationHook post_migration_;

  // Barrier (centralized at node 0), state under barrier_lock_.
  // barrier_error_: set by the peer-down sweep before waking the waiter;
  // barrier() rethrows it instead of reporting the barrier complete.
  sys::SpinLock barrier_lock_{sys::LockRank::kRuntimeMaps};
  uint32_t barrier_seq_ PM2_GUARDED_BY(barrier_lock_) = 0;
  uint32_t barrier_arrivals_ PM2_GUARDED_BY(barrier_lock_) = 0;  // node 0 only
  marcel::Event* barrier_waiter_ PM2_GUARDED_BY(barrier_lock_) = nullptr;
  std::string barrier_error_ PM2_GUARDED_BY(barrier_lock_);

  // Signals
  std::atomic<uint64_t> signals_received_{0};
  marcel::Semaphore signal_sem_{0};

  std::atomic<uint64_t> migrations_in_{0};
  std::atomic<uint64_t> migrations_out_{0};

  // Both writers (gossip handler, broadcast_load) and the balancer's read
  // go through load_lock_; values are advisory the moment the lock drops,
  // but the accesses themselves must not race.
  mutable sys::SpinLock load_lock_{sys::LockRank::kRuntimeMaps};
  std::vector<uint64_t> load_table_ PM2_GUARDED_BY(load_lock_);
  mad::ChannelMux channels_{*fabric_, kUserBase};

  InvocationPool pool_;
  Residency residency_;

  // Recycled RpcInvocation boxes (one per in-flight dispatch): the hot
  // path swaps a pointer instead of paying a heap round trip per call.
  sys::SpinLock inv_lock_{sys::LockRank::kInvocationPool};
  std::vector<RpcInvocation*> inv_free_ PM2_GUARDED_BY(inv_lock_);
  void recycle_invocation(RpcInvocation* inv);
  void drop_invocation_freelist();
};

}  // namespace pm2
