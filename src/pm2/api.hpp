// The paper's programming interface (§3.4 and the listings in Figs. 1–4, 7).
//
// Thin free-function wrappers over the Runtime bound to the calling node:
//
//   paper                      here
//   ------------------------   -----------------------------------
//   pm2_isomalloc(size)        pm2::pm2_isomalloc(size)
//   pm2_isofree(addr)          pm2::pm2_isofree(addr)
//   pm2_migrate(thr, node)     pm2::pm2_migrate(thr, node)
//   marcel_self()              pm2::marcel_self()
//   pm2_self()                 pm2::pm2_self()
//   pm2_printf(...)            pm2::pm2_printf(...)
//
// All functions require a Runtime to be active on the calling kernel thread
// (inside Runtime::run, i.e. within any PM2 thread).
//
// The v2 typed asynchronous surface (futures, name-keyed services) lives
// at the bottom of this header: pm2::service / pm2::rpc / pm2::call<R> /
// pm2::call_async<R> / pm2::migrate_async / pm2::on_migration, with
// pm2::Future, pm2::wait_all and pm2::wait_any re-exported from marcel.
#pragma once

#include <cstddef>
#include <utility>

#include "marcel/context.hpp"
#include "marcel/thread.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

/// This node's rank and the session size.
uint32_t pm2_self();
uint32_t pm2_nodes();

/// Calling PM2 thread's descriptor (paper: marcel_self()).
marcel::Thread* marcel_self();

/// Iso-address allocation: memory that migrates with the calling thread at
/// an identical virtual address (§3.4).  Same contract as malloc/free.
void* pm2_isomalloc(size_t size);
void pm2_isofree(void* addr);
void* pm2_isorealloc(void* addr, size_t size);
/// Extensions: zeroed and aligned iso-address allocation.
void* pm2_isocalloc(size_t n, size_t elem_size);
void* pm2_isomemalign(size_t align, size_t size);

/// Create a migratable thread on this node.  `arg` must not point into
/// node-local (libc) memory if the thread may migrate; use pm2_isomalloc
/// for shared-with-self state.
marcel::ThreadId pm2_thread_create(marcel::EntryFn fn, void* arg,
                                   const char* name = "worker");

/// Create a thread handing it a private copy of [data, data+len): the copy
/// is allocated in the child's own iso-heap (it migrates with the child,
/// who frees it).  The migration-safe argument-passing idiom.
marcel::ThreadId pm2_thread_create_copy(marcel::EntryFn fn, const void* data,
                                        size_t len,
                                        const char* name = "worker");

/// Migrate `thr` to `node`.  If `thr` is the caller, returns on `node`;
/// otherwise preemptive (thr must be READY here).  Paper §2: "any thread
/// may decide to migrate to another node at any arbitrary point…  It may
/// also be preemptively migrated by another thread".
void pm2_migrate(marcel::Thread* thr, uint32_t node);

/// Cooperative yield / deferred-preemption safe point.
void pm2_yield();

/// Park the calling thread for at least `us` microseconds.
void pm2_sleep_us(uint64_t us);

/// Block until thread `id` (on this node) terminates.
bool pm2_join(marcel::ThreadId id);

/// Node-tagged printf, as in the paper's execution traces (Fig. 8).
void pm2_printf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// All-node barrier / session shutdown.
void pm2_barrier();
void pm2_halt();

/// Completion tokens for cross-node termination detection.
void pm2_signal(uint32_t node);
void pm2_wait_signals(uint64_t count);

// ---------------------------------------------------------------------------
// v2 surface: typed asynchronous RPC & migration
// ---------------------------------------------------------------------------

/// The Runtime bound to the calling kernel thread (CHECKs that one is).
Runtime& current_runtime();

/// Completion futures (marcel::Future re-exported; RpcFuture<R> is the
/// typed RPC flavour, declared in pm2/runtime.hpp).
template <typename T>
using Future = marcel::Future<T>;
template <typename T>
using Promise = marcel::Promise<T>;
using marcel::wait_all;
using marcel::wait_any;

/// Register a typed service on this node: `handler` is any callable
/// `R(RpcContext&, Args...)`.  Name-keyed: peers invoke it by name, in any
/// registration order, from any binary.  Returns service_id(name).
template <typename F>
uint32_t service(const char* name, F&& handler) {
  return current_runtime().service(name, std::forward<F>(handler));
}

/// service() whose threads are pinned (see Runtime::service_local).
template <typename F>
uint32_t service_local(const char* name, F&& handler) {
  return current_runtime().service_local(name, std::forward<F>(handler));
}

/// Fire-and-forget remote thread creation with typed arguments.
template <typename... Args>
void rpc(uint32_t node, const char* name, const Args&... args) {
  current_runtime().rpc(node, name, args...);
}

/// Typed blocking request/response: call<R>(node, "name", args...) -> R.
/// Throws RpcError on session shutdown or unknown service.
template <typename R, typename... Args>
R call(uint32_t node, const char* name, const Args&... args) {
  return current_runtime().call<R>(node, name, args...);
}

/// Typed pipelined request: returns immediately; take() yields R.  Any
/// number of requests may be outstanding per thread.
template <typename R, typename... Args>
RpcFuture<R> call_async(uint32_t node, const char* name,
                        const Args&... args) {
  return current_runtime().call_async<R>(node, name, args...);
}

/// Preemptive migration with a completion future (acked by the
/// destination once the thread is installed there).
RpcFuture<MigrateResult> migrate_async(marcel::ThreadId id, uint32_t dest);

/// Per-node migration observers (pm2_set_pre/post_migration_func).
void on_migration(MigrationHook pre, MigrationHook post);

}  // namespace pm2
