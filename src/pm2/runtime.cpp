#include "pm2/runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "fabric/fault_fabric.hpp"
#include "isomalloc/block.hpp"
#include "pm2/migration.hpp"
#include "sys/sanitizer.hpp"

namespace pm2 {

namespace {
thread_local Runtime* t_runtime = nullptr;

class RuntimeBinding {
 public:
  explicit RuntimeBinding(Runtime* rt) : prev_(t_runtime) { t_runtime = rt; }
  ~RuntimeBinding() { t_runtime = prev_; }

 private:
  Runtime* prev_;
};

/// Positive integer value of environment variable `name`, else 0.
uint64_t env_count(const char* name) {
  const char* env = std::getenv(name);
  long v = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

/// The session's one read of the environment.  Explicit config values win;
/// the environment fills only zero or empty fields, which is what lets CI
/// run whole suites multi-worker (PM2_WORKERS) and chaos runs arm deadlines
/// (PM2_RPC_TIMEOUT_MS) and faults (PM2_FAULT_PLAN) in spawned node
/// processes without code changes.
RuntimeConfig resolve_env(RuntimeConfig c) {
  uint64_t workers = c.workers != 0 ? c.workers : env_count("PM2_WORKERS");
  // An explicit request (config or env) is honored even above the core
  // count — oversubscribed workers still exercise every multi-worker code
  // path, which is exactly what CI on small boxes needs.  Only a sanity
  // cap applies; 0 (auto, no env) is the historical single-loop scheduler.
  c.workers = static_cast<uint32_t>(std::clamp<uint64_t>(workers, 1, 64));
  if (c.rpc_timeout_ns == 0)
    c.rpc_timeout_ns = env_count("PM2_RPC_TIMEOUT_MS") * 1'000'000ull;
  if (c.fault_plan.empty()) {
    if (const char* env = std::getenv("PM2_FAULT_PLAN")) c.fault_plan = env;
  }
  return c;
}

marcel::Future<std::vector<uint8_t>> failed_future(
    std::string why, RpcErrorCode code = RpcErrorCode::kOther) {
  marcel::Promise<std::vector<uint8_t>> p;
  p.set_error(std::move(why), static_cast<uint8_t>(code));
  return p.future();
}

/// Error text for a request to a peer declared down (code kPeerDown).
std::string peer_down_error(uint32_t node, const char* what) {
  return "peer down: node " + std::to_string(node) + " " + what;
}

void send_barrier_frame(fabric::Fabric& fabric, MsgType type, uint32_t dst,
                        uint32_t seq) {
  fabric::Message msg;
  msg.type = type;
  msg.dst = dst;
  ByteWriter w;
  w.put<uint32_t>(seq);
  msg.payload = w.take();
  fabric.send(std::move(msg));
}

/// A migrate_async completion, packed the way RpcFuture<MigrateResult>
/// unpacks it.
std::vector<uint8_t> pack_result(const MigrateResult& r) {
  mad::PackBuffer pb;
  mad::pack_value(pb, r);
  return pb.finalize();
}

/// kRpc wire payload: a staged service hash spliced ahead of the caller's
/// argument chain — borrowed pack regions go to the wire from the caller's
/// memory, never flattened here.
mad::BufferChain rpc_chain(uint32_t service, mad::PackBuffer&& args) {
  mad::PackBuffer head;
  head.pack<uint32_t>(service);
  mad::BufferChain chain = head.take_chain();
  chain.append_chain(args.take_chain());
  return chain;
}
}  // namespace

Runtime* Runtime::current() { return t_runtime; }

Runtime::Runtime(const RuntimeConfig& config, iso::Area& area,
                 std::unique_ptr<fabric::Fabric> fabric)
    : Runtime(config, area, std::move(fabric),
              config.slot_store_dir.empty() ? nullptr : &area.write_watch()) {
}

Runtime::Runtime(const RuntimeConfig& config, iso::Area& area,
                 std::unique_ptr<fabric::Fabric> fabric,
                 sys::WriteWatch* watch)
    : config_(resolve_env(config)),
      area_(area),
      // Fault-injection hook point: an active plan wraps the transport
      // before channels_ captures the fabric reference.
      fabric_(fabric::wrap_with_faults(
          std::move(fabric), fabric::FaultPlan::parse(config_.fault_plan))),
      sched_(config_.workers),
      nego_(area,
            [&] {
              iso::SlotManagerConfig sc = config.slots;
              sc.node = config.node;
              sc.n_nodes = config.n_nodes;
              return sc;
            }(),
            config_.nego_prebuy_slots, *fabric_, sched_, pending_),
      peers_(config_.node, config_.n_nodes, config_.heartbeat_period_ns,
             config_.heartbeat_miss_limit),
      load_table_(config.n_nodes, 0),
      pool_(config_.invocation_pool, config_.invocation_pool_decay_us,
            config_.stack_slots, slot_ops_),
      residency_(config_, area, watch, sched_, nego_,
                 [this](marcel::ThreadId id) { ensure_thread_id_floor(id); }) {
  PM2_CHECK(fabric_ != nullptr);
  PM2_CHECK(fabric_->node_id() == config_.node &&
            fabric_->n_nodes() == config_.n_nodes)
      << "fabric/runtime node configuration mismatch";
  mig_placer_ = std::make_unique<MigrationPlacer>(*this);
  fabric_->set_placer(kMigrate, mig_placer_.get());
}

Runtime::~Runtime() {
  drop_invocation_freelist();
}

// ---------------------------------------------------------------------------
// Thread lifecycle
// ---------------------------------------------------------------------------

marcel::ThreadId Runtime::next_thread_id() {
  // Node id in the top bits keeps ids globally unique without coordination.
  return (static_cast<uint64_t>(config_.node) << 40) | ++thread_counter_;
}

marcel::Thread* Runtime::create_thread_in_slots(marcel::EntryFn fn, void* arg,
                                                const char* name,
                                                uint32_t flags,
                                                bool start_frozen,
                                                bool may_wait) {
  std::optional<size_t> first = may_wait
                                    ? nego_.acquire(config_.stack_slots)
                                    : nego_.try_acquire(config_.stack_slots);
  if (!first && !may_wait) return nullptr;
  // Bootstrap threads (comm daemon, main) are created before the scheduler
  // runs, when no negotiation is possible: their stack run must be local.
  // stack_slots == 1 always is; multi-slot stacks require a
  // contiguity-friendly initial distribution (block-cyclic, partitioned).
  PM2_CHECK(first.has_value())
      << "out of iso-address slots for a " << config_.stack_slots
      << "-slot thread stack"
      << (marcel::Scheduler::self() == nullptr
              ? " (bootstrap threads cannot negotiate)"
              : "");

  marcel::ThreadId id = next_thread_id();
  void* slot_base = area_.slot_addr(*first);
  iso::SlotHeader* sh = iso::init_stack_slot(
      slot_base, static_cast<uint32_t>(config_.stack_slots),
      area_.slot_size(), id);

  // Descriptor right after the slot header, 64-byte aligned; the stack
  // fills the rest of the run.
  auto region = (reinterpret_cast<uintptr_t>(slot_base) +
                 sizeof(iso::SlotHeader) + 63) &
                ~uintptr_t{63};
  size_t region_size = reinterpret_cast<uintptr_t>(slot_base) +
                       config_.stack_slots * area_.slot_size() - region;

  // Always create frozen: a ready thread is immediately stealable by any
  // worker, and the descriptor fields below must be in place before its
  // first dispatch reads them in thread_trampoline.  unfreeze() publishes:
  // push_ready's release-store of kReady (paired with the consumer's
  // acquire in claim) plus the Chase-Lev push/steal edge carry the
  // happens-before these writes need.
  marcel::Thread* t =
      sched_.create(reinterpret_cast<void*>(region), region_size,
                    &Runtime::thread_trampoline,
                    reinterpret_cast<void*>(region), id, name, flags,
                    /*start_frozen=*/true);
  t->user_fn = reinterpret_cast<void*>(fn);
  t->user_arg = arg;
  t->home_node = config_.node;
  t->slot_list = sh;
  if (!start_frozen) sched_.unfreeze(t);
  return t;
}

void Runtime::thread_trampoline(void* descriptor) {
  auto* t = static_cast<marcel::Thread*>(descriptor);
  auto fn = reinterpret_cast<marcel::EntryFn>(t->user_fn);
  fn(t->user_arg);
  // The thread may have migrated inside fn(): resolve the runtime afresh.
  Runtime::current()->thread_exit();
}

marcel::ThreadId Runtime::spawn(marcel::EntryFn fn, void* arg,
                                const char* name) {
  sched_.maybe_preempt();
  // Read the id while the newborn is still frozen: once it runs it may
  // migrate away (an in-process install rewrites its descriptor) or exit.
  marcel::Thread* t =
      create_thread_in_slots(fn, arg, name, 0, /*start_frozen=*/true);
  marcel::ThreadId id = t->id;
  sched_.unfreeze(t);
  return id;
}

struct Runtime::SpawnLocalCtx {
  std::function<void()> fn;
};

void Runtime::local_trampoline(void* p) {
  auto* ctx = static_cast<SpawnLocalCtx*>(p);
  ctx->fn();
  delete ctx;
  Runtime::current()->thread_exit();
}

marcel::ThreadId Runtime::spawn_local(std::function<void()> fn,
                                      const char* name) {
  auto* ctx = new SpawnLocalCtx{std::move(fn)};
  // Frozen until its id is read, as in spawn(): it may exit at once.
  marcel::Thread* t = create_thread_in_slots(
      &Runtime::local_trampoline, ctx, name, marcel::Thread::kFlagPinned,
      /*start_frozen=*/true);
  marcel::ThreadId id = t->id;
  sched_.unfreeze(t);
  return id;
}

marcel::ThreadId Runtime::spawn_copy(marcel::EntryFn fn, const void* data,
                                     size_t len, const char* name) {
  sched_.maybe_preempt();
  // The newborn comes back frozen: the argument allocation below may
  // negotiate and park us, and the child must not run — or be stolen by
  // another worker — with its argument unset.
  marcel::Thread* t = create_thread_in_slots(fn, nullptr, name, 0,
                                             /*start_frozen=*/true);
  // Allocate the argument inside the new thread's heap: it now belongs to
  // the child and will follow it on migration / be reaped at exit.
  iso::ThreadHeap child_heap(&t->slot_list, t->id, slot_ops_, config_.heap,
                             &heap_stats_);
  void* arg = child_heap.alloc(len);
  if (arg == nullptr) {
    // Unwind the half-created thread instead of CHECK-failing with it
    // leaked: the frozen newborn never ran, so forget it and hand its
    // slots back, then report the failure the way isomalloc does.
    sched_.forget(t);
    iso::ThreadHeap::release_chain(
        static_cast<iso::SlotHeader*>(t->slot_list), slot_ops_);
    throw std::bad_alloc();
  }
  std::memcpy(arg, data, len);
  t->user_arg = arg;
  sched_.unfreeze(t);
  return t->id;
}

bool Runtime::join(marcel::ThreadId id) { return sched_.join(id); }

void Runtime::reap_thread(marcel::Thread* t) {
  // An exited thread's slots return to circulation, so a checkpoint record
  // naming them must not survive — a crash restart adopting it would claim
  // runs that may belong to someone else by then.
  if (iso::SlotStore* store = slot_store()) store->erase_thread(t->id);
  // Runs on the scheduler stack: the thread is off its stack for good.
  // Its frames never unwound, so their redzone poison is still in shadow;
  // scrub it before the slots are recycled (the slot cache hands released
  // runs back without another commit).
  sys::san_unpoison(t->stack_base, t->stack_size());
  if (!halting() && (t->flags & marcel::Thread::kFlagService) != 0) {
    pool_.park(t);  // parks the shell, or releases its runs
    // The shell may start a request the comm daemon holds for want of a
    // stack; a blocked daemon would not retry it until its idle cap.
    if (held_count_.load(std::memory_order_relaxed) != 0) fabric_->wake();
    return;
  }
  // Release every slot run it owned to this node (paper Fig. 6 step 4 —
  // "the thread dies and its slots are acquired by the destination node").
  iso::ThreadHeap::release_chain(static_cast<iso::SlotHeader*>(t->slot_list),
                                 slot_ops_);
  // `t` itself lived inside the chain's stack slot: gone now.
  // The halted session's last live thread: exit_current has dropped the
  // live count, and the comm daemon, which tests it once per lap, may be
  // blocked in recv_until until its idle cap.
  if (halting() && sched_.live_count() == 0) fabric_->wake();
}

void Runtime::thread_exit() {
  sched_.exit_current([this](marcel::Thread* t) { reap_thread(t); });
}

bool Runtime::freeze_thread(marcel::ThreadId id) {
  sched_.pause_workers();
  marcel::Thread* t = sched_.find(id);
  bool ok = t != nullptr && t != marcel::Scheduler::self() && sched_.freeze(t);
  sched_.resume_workers();
  return ok;
}

bool Runtime::unfreeze_thread(marcel::ThreadId id) {
  sched_.pause_workers();
  marcel::Thread* t = sched_.find(id);
  bool ok = t != nullptr;
  if (ok) {
    residency_.ensure_resident(t);
    ok = t->state == marcel::ThreadState::kFrozen;
    if (ok) sched_.unfreeze(t);
  }
  sched_.resume_workers();
  return ok;
}

void Runtime::ensure_thread_id_floor(marcel::ThreadId id) {
  if ((id >> 40) != config_.node) return;  // minted elsewhere: no clash
  uint64_t seq = id & ((uint64_t{1} << 40) - 1);
  uint64_t cur = thread_counter_.load(std::memory_order_relaxed);
  while (cur < seq &&
         !thread_counter_.compare_exchange_weak(cur, seq,
                                                std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// isomalloc API
// ---------------------------------------------------------------------------

void* Runtime::isomalloc(size_t size) {
  sched_.maybe_preempt();
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "pm2_isomalloc outside a PM2 thread";
  iso::ThreadHeap heap(&t->slot_list, t->id, slot_ops_, config_.heap,
                       &heap_stats_);
  void* p = heap.alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Runtime::isofree(void* p) {
  sched_.maybe_preempt();
  if (p == nullptr) return;
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "pm2_isofree outside a PM2 thread";
  // Blocks belong to exactly one thread (paper §1: data "belong to some
  // unique thread and thus have to follow it on migration").  Freeing
  // another thread's block would corrupt that thread's slot list — and the
  // pointer would dangle anyway the moment the owner migrates.  Use
  // spawn_copy() to hand data to a child thread instead.
  iso::SlotHeader* slot = iso::BlockHeader::of_payload(p)->slot;
  PM2_CHECK(slot->valid() && slot->owner_thread == t->id)
      << "pm2_isofree: block belongs to thread " << slot->owner_thread
      << ", not to the calling thread " << t->id;
  iso::ThreadHeap heap(&t->slot_list, t->id, slot_ops_, config_.heap,
                       &heap_stats_);
  heap.free(p);
}

void* Runtime::isorealloc(void* p, size_t size) {
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "pm2_isorealloc outside a PM2 thread";
  iso::ThreadHeap heap(&t->slot_list, t->id, slot_ops_, config_.heap,
                       &heap_stats_);
  return heap.realloc(p, size);
}

void* Runtime::isocalloc(size_t n, size_t elem_size) {
  sched_.maybe_preempt();
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "pm2_isocalloc outside a PM2 thread";
  iso::ThreadHeap heap(&t->slot_list, t->id, slot_ops_, config_.heap,
                       &heap_stats_);
  void* p = heap.calloc(n, elem_size);
  if (p == nullptr && n != 0 && elem_size != 0) throw std::bad_alloc();
  return p;
}

void* Runtime::isomemalign(size_t align, size_t size) {
  sched_.maybe_preempt();
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "pm2_isomemalign outside a PM2 thread";
  iso::ThreadHeap heap(&t->slot_list, t->id, slot_ops_, config_.heap,
                       &heap_stats_);
  void* p = heap.alloc_aligned(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Runtime::release_slots(size_t first, size_t count) {
  // Back to the free distribution: the next thread to own the run writes
  // a fresh image (see SlotStore::forget).
  if (iso::SlotStore* store = slot_store()) store->forget(first, count);
  nego_.release(first, count);
  // The run may be the stack a held request waits for (see reap_thread).
  if (held_count_.load(std::memory_order_relaxed) != 0) fabric_->wake();
}

// ---------------------------------------------------------------------------
// Migration entry points (heavy lifting in migration.cpp)
// ---------------------------------------------------------------------------

void Runtime::migrate_self(uint32_t dest) {
  sched_.maybe_preempt();
  PM2_CHECK(dest < config_.n_nodes) << "migrate to unknown node " << dest;
  if (dest == config_.node) return;
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "pm2_migrate outside a PM2 thread";
  PM2_CHECK(!t->is_pinned()) << "pinned thread cannot migrate";
  ++migrations_out_;
  sched_.freeze_current_and(
      [this, dest](marcel::Thread* frozen) { ship_thread(*this, frozen, dest); });
  // Executing on `dest` now (different Runtime/Scheduler instance):
  // deliberately no member access past this point.
}

bool Runtime::migrate(marcel::ThreadId id, uint32_t dest) {
  PM2_CHECK(dest < config_.n_nodes);
  marcel::Thread* t = sched_.find(id);
  if (t == nullptr) return false;
  if (t->is_pinned()) return false;
  if (dest == config_.node) return true;  // already there
  if (t == marcel::Scheduler::self()) {
    migrate_self(dest);
    return true;
  }
  if (t->state != marcel::ThreadState::kFrozen &&  // caller-frozen: ship as is
      !sched_.freeze(t)) {
    return false;  // running or blocked
  }
  ++migrations_out_;
  ship_thread(*this, t, dest);
  return true;
}

RpcFuture<MigrateResult> Runtime::migrate_async(marcel::ThreadId id,
                                                uint32_t dest,
                                                uint64_t timeout_ns) {
  PM2_CHECK(dest < config_.n_nodes) << "migrate to unknown node " << dest;
  auto failed = [](std::string why, RpcErrorCode code = RpcErrorCode::kOther) {
    return RpcFuture<MigrateResult>(failed_future(std::move(why), code));
  };
  if (halting()) return failed("session halting");
  if (peer_down(dest))
    return failed(peer_down_error(dest, "is down"), RpcErrorCode::kPeerDown);
  marcel::Thread* t = sched_.find(id);
  if (t == nullptr) return failed("no such thread on this node");
  if (dest == config_.node) {  // already there
    marcel::Promise<std::vector<uint8_t>> done;
    done.set_value(pack_result(MigrateResult{id, dest}));
    return RpcFuture<MigrateResult>(done.future());
  }
  if (t == marcel::Scheduler::self())
    return failed("migrate_async cannot move the caller; use migrate_self");
  if (t->is_pinned() ||
      (t->state != marcel::ThreadState::kFrozen && !sched_.freeze(t))) {
    return failed("thread not migratable (pinned, running, or blocked)");
  }
  uint64_t deadline = resolve_deadline(timeout_ns);
  // Rollback record, only when a deadline or the failure detector can use
  // it: the runs (recorded while the thread is still resident and ours)
  // let fail() reclaim the cached pages and adopt the descriptor back.
  std::optional<MigrationRollback> rollback;
  if (deadline != 0 || peers_.enabled()) {
    MigrationRollback& rb =
        rollback.emplace(MigrationRollback{t, id, {}, false});
    iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* slot) {
      rb.runs.emplace_back(area_.slot_of(slot), slot->nslots);
    });
  }
  CorrelationTable::Opened req =
      pending_.open(dest, deadline, std::move(rollback));
  if (req.corr == 0) {  // halt drained the table while we froze the thread
    sched_.unfreeze(t);
    return RpcFuture<MigrateResult>(std::move(req.future));
  }
  ++migrations_out_;
  ship_thread(*this, t, dest, req.corr);
  // Only now — with the pack sent and the descriptor forgotten — may the
  // failure paths roll this migration back.  A destination declared down
  // while we were shipping skipped the unshipped entry: fail it here.
  if (auto lost = pending_.arm_after_ship(req.corr,
                                          [&] { return peer_down(dest); })) {
    peer_down_failures_.fetch_add(1, std::memory_order_relaxed);
    fail(std::move(*lost), peer_down_error(dest, "unreachable"),
         RpcErrorCode::kPeerDown);
  }
  return RpcFuture<MigrateResult>(std::move(req.future));
}

// ---------------------------------------------------------------------------
// RPC
// ---------------------------------------------------------------------------

uint32_t Runtime::service_raw(const char* name, ServiceHandler fn) {
  PM2_CHECK(name != nullptr && fn != nullptr);
  return register_service_handler(name, std::move(fn));
}

uint32_t Runtime::register_service_handler(const char* name, ServiceHandler fn,
                                           uint32_t thread_flags) {
  PM2_CHECK(name != nullptr && fn != nullptr);
  uint32_t id = service_id(name);
  auto [entry, inserted] =
      services_.try_emplace(id, ServiceEntry{name, std::move(fn), thread_flags});
  if (!inserted) {
    PM2_CHECK(entry->name == name)
        << "FNV-1a service-name collision: \"" << entry->name << "\" and \""
        << name << "\" both hash to " << id << " — rename one of them";
    PM2_FATAL("service \"" + std::string(name) + "\" registered twice");
  }
  return id;
}

struct Runtime::RpcInvocation {
  const ServiceEntry* entry;  // resolved once at dispatch
  uint32_t src;
  uint64_t corr;
  std::vector<uint8_t> args;
  size_t args_offset;
};

void Runtime::drop_invocation_freelist() {
  sys::SpinGuard g(inv_lock_);
  for (RpcInvocation* inv : inv_free_) delete inv;
  inv_free_.clear();
}

void Runtime::recycle_invocation(RpcInvocation* inv) {
  constexpr size_t kFreeListCap = 64;
  inv->args.clear();
  inv_lock_.lock();
  if (inv_free_.size() < kFreeListCap) {
    inv_free_.push_back(inv);
    inv_lock_.unlock();
    return;
  }
  inv_lock_.unlock();
  delete inv;
}

void Runtime::rpc_trampoline(void* p) {
  auto* inv = static_cast<RpcInvocation*>(p);
  {
    RpcContext ctx(*Runtime::current(), inv->src, inv->corr,
                   std::move(inv->args), inv->args_offset);
    try {
      inv->entry->fn(ctx);
    } catch (const std::exception& e) {
      // A handler must never unwind off the top of its context (that is
      // std::terminate).  Typical case: a nested blocking call<R>() threw
      // RpcError because the session halted or the target service is
      // unknown — propagate the failure to our own caller instead.
      ctx.fail(e.what());
    }
  }
  // The service may have migrated: re-resolve (in-process nodes share the
  // libc heap, so the box recycles safely into the current node's list).
  Runtime* rt = Runtime::current();
  rt->recycle_invocation(inv);
  rt->thread_exit();
}

void Runtime::dispatch_rpc(uint32_t service, uint32_t src, uint64_t corr,
                           std::vector<uint8_t>&& args, size_t args_offset,
                           bool on_daemon) {
  // Lock-free lookup: the service table is grow-only (registration is
  // setup-phase and permanent) and StripedMap node addresses are stable,
  // so find_fast's acquire-walk is sound and the pointer stays valid for
  // the invocation's whole lifetime.
  const ServiceEntry* entry = services_.find_fast(service);
  if (entry == nullptr) {
    // Name-keyed sessions are heterogeneous: the caller cannot know what a
    // peer registered, so a request expecting a reply gets an error back
    // (failing the caller's future) instead of killing this node.
    if (corr != 0) {
      fail_reply(src, corr,
                 "unknown service hash " + std::to_string(service) +
                     " on node " + std::to_string(config_.node));
      return;
    }
    // Fire-and-forget: a *local* miss is this node's own bug — fail fast.
    // A remote miss must not kill an innocent node on peer input (nodes
    // legitimately register different service subsets): drop and log.
    PM2_CHECK(src != config_.node)
        << "fire-and-forget rpc to unknown local service hash " << service;
    PM2_WARN << "dropping rpc from node " << src
             << " to unknown service hash " << service;
    return;
  }
  RpcInvocation* inv = nullptr;
  inv_lock_.lock();
  if (!inv_free_.empty()) {
    inv = inv_free_.back();
    inv_free_.pop_back();
  }
  inv_lock_.unlock();
  if (inv == nullptr) inv = new RpcInvocation{};
  inv->entry = entry;
  inv->src = src;
  inv->corr = corr;
  inv->args = std::move(args);
  inv->args_offset = args_offset;
  if (!on_daemon) {
    start_invocation(inv, /*may_wait=*/true);
    return;
  }
  // Held invocations go first: requests start in arrival order.
  if (held_rpcs_.empty() && start_invocation(inv, /*may_wait=*/false)) return;
  held_rpcs_.push_back(inv);
  held_count_.store(held_rpcs_.size(), std::memory_order_relaxed);
}

bool Runtime::start_invocation(RpcInvocation* inv, bool may_wait) {
  const char* name = inv->entry->name.c_str();
  uint32_t flags = inv->entry->thread_flags | marcel::Thread::kFlagService;
  marcel::Thread* t = pool_.take();
  if (t == nullptr)
    return create_thread_in_slots(&Runtime::rpc_trampoline, inv, name, flags,
                                  false, may_wait) != nullptr;
  marcel::ThreadId id = next_thread_id();
  // The slot header's owner id is diagnostics; keep it in step with the
  // recycled identity.
  static_cast<iso::SlotHeader*>(t->slot_list)->owner_thread = id;
  // Rearm frozen, publish after the descriptor is complete (same
  // stealable-before-initialized hazard as create_thread_in_slots;
  // unfreeze()'s release-store of kReady is the publication the
  // stealing worker acquires before reading user_fn/user_arg).
  sched_.rearm(t, &Runtime::thread_trampoline, t, id, name, flags,
               /*start_frozen=*/true);
  t->user_fn = reinterpret_cast<void*>(&Runtime::rpc_trampoline);
  t->user_arg = inv;
  t->home_node = config_.node;
  sched_.unfreeze(t);
  return true;
}

void Runtime::start_held_rpcs() {
  size_t started = 0;
  while (started < held_rpcs_.size() &&
         start_invocation(held_rpcs_[started], /*may_wait=*/false))
    ++started;
  held_rpcs_.erase(held_rpcs_.begin(), held_rpcs_.begin() + started);
  held_count_.store(held_rpcs_.size(), std::memory_order_relaxed);
}

void Runtime::send_request(uint32_t node, uint32_t service,
                           mad::BufferChain framed, uint64_t corr) {
  PM2_CHECK(node < config_.n_nodes);
  if (node == config_.node) {
    dispatch_rpc(service, config_.node, corr, framed.take_flat(),
                 sizeof(uint32_t), /*on_daemon=*/false);
    return;
  }
  fabric::Message msg;
  msg.type = kRpc;
  msg.dst = node;
  msg.corr = corr;
  msg.chain = std::move(framed);
  fabric_->send(std::move(msg));
}

CorrelationTable::Opened Runtime::open_request(uint32_t node,
                                               uint64_t timeout_ns) {
  PM2_CHECK(node < config_.n_nodes);
  if (node != config_.node && peer_down(node))
    return {0, failed_future(peer_down_error(node, "is down"),
                             RpcErrorCode::kPeerDown)};
  return pending_.open(node, resolve_deadline(timeout_ns));
}

void Runtime::rpc(uint32_t node, const char* service_name,
                  mad::PackBuffer&& args) {
  uint32_t sid = service_id(service_name);
  send_request(node, sid, rpc_chain(sid, std::move(args)), 0);
}

marcel::Future<std::vector<uint8_t>> Runtime::call_async(
    uint32_t node, const char* service_name, mad::PackBuffer&& args,
    uint64_t timeout_ns) {
  uint32_t sid = service_id(service_name);
  CorrelationTable::Opened req = open_request(node, timeout_ns);
  if (req.corr != 0)
    send_request(node, sid, rpc_chain(sid, std::move(args)), req.corr);
  return std::move(req.future);
}

std::vector<uint8_t> Runtime::call(uint32_t node, const char* service_name,
                                   mad::PackBuffer&& args) {
  PM2_CHECK(marcel::Scheduler::self() != nullptr) << "call outside a thread";
  marcel::Future<std::vector<uint8_t>> fut =
      call_async(node, service_name, std::move(args));
  fut.wait();
  if (fut.failed())
    throw RpcError(fut.error(), RpcErrorCode(fut.error_code()));
  return fut.take();
}

uint64_t Runtime::resolve_deadline(uint64_t timeout_ns) const {
  uint64_t t =
      timeout_ns == kTimeoutFromConfig ? config_.rpc_timeout_ns : timeout_ns;
  return t == 0 ? 0 : now_ns() + t;
}

void Runtime::expire_deadlines(uint64_t now) {
  if (pending_.next_deadline() > now) return;
  for (CorrelationTable::Pending& p : pending_.take_due(now)) {
    rpc_timeouts_.fetch_add(1, std::memory_order_relaxed);
    std::string why = (p.rollback ? "rpc timeout: no install ack from node "
                                  : "rpc timeout: no reply from node ") +
                      std::to_string(p.dest);
    fail(std::move(p), why, RpcErrorCode::kTimeout);
  }
}

void Runtime::complete(uint64_t corr, std::vector<uint8_t>&& reply) {
  if (auto p = pending_.take(corr)) p->promise.set_value(std::move(reply));
}

void Runtime::fail(CorrelationTable::Pending&& p, const std::string& why,
                   RpcErrorCode code) {
  if (p.rollback) {
    const MigrationRollback& rb = *p.rollback;
    migration_rollbacks_.fetch_add(1, std::memory_order_relaxed);
    // ship_thread parked the runs in the away cache, which kept the pages
    // (descriptor and stack included) committed.  Reclaim the entries so
    // the cache will not decommit them under the revived thread.  An
    // evicted entry means the descriptor bytes are gone and no rollback
    // exists (see iso::SlotManager::kAwayRunCapacity).
    for (auto [first, count] : rb.runs) {
      PM2_CHECK(nego_.take_away(first, count))
          << "migration rollback window lost (run " << first << "+" << count
          << " evicted from the away cache): more than "
          << iso::SlotManager::kAwayRunCapacity
          << " runs left inside one deadline window";
    }
    // Same adoption path an arriving migration uses: the frozen, forgotten
    // descriptor becomes runnable here again.  Locally the stack bytes,
    // flags and sanitizer state were never touched, so no install-side
    // fixups apply.
    sched_.adopt(rb.thread);
    PM2_WARN << "node " << config_.node << ": rolled back migration of thread "
             << rb.id << " -> node " << p.dest << " (" << why << ")";
  }
  p.promise.set_error(why, static_cast<uint8_t>(code));
}

void RpcContext::fail(const std::string& why) {
  if (corr_ == 0 || replied_) return;
  replied_ = true;
  // Route through the *current* runtime, not rt_: the service may have
  // migrated, and the reply must leave through the node it now runs on.
  Runtime::current()->fail_reply(src_, corr_, "service failed: " + why);
}

void Runtime::fail_reply(uint32_t caller, uint64_t corr,
                         const std::string& why) {
  if (caller == config_.node) {
    if (auto p = pending_.take(corr)) fail(std::move(*p), why);
    return;
  }
  fabric::Message msg;
  msg.type = kReplyError;
  msg.dst = caller;
  msg.corr = corr;
  ByteWriter w;
  w.put_string(why);
  msg.payload = w.take();
  fabric_->send(std::move(msg));
}

void RpcContext::reply(mad::PackBuffer&& result) {
  PM2_CHECK(corr_ != 0) << "reply() but the caller used rpc(), not call()";
  PM2_CHECK(!replied_) << "double reply";
  replied_ = true;
  if (src_ == rt_.self()) {
    rt_.complete(corr_, result.finalize());
    return;
  }
  fabric::Message msg;
  msg.type = kReply;
  msg.dst = src_;
  msg.corr = corr_;
  msg.chain = result.take_chain();
  rt_.fabric().send(std::move(msg));
}

// ---------------------------------------------------------------------------
// Collectives / signals / shutdown
// ---------------------------------------------------------------------------

void Runtime::barrier() {
  PM2_CHECK(marcel::Scheduler::self() != nullptr) << "barrier outside thread";
  // A barrier cannot complete without every node: with failure detection
  // on, error out instead of parking forever behind a dead peer.
  for (uint32_t n = 0; n < config_.n_nodes; ++n)
    if (peer_down(n))
      throw RpcError(peer_down_error(n, "is down, barrier cannot complete"),
                     RpcErrorCode::kPeerDown);
  marcel::Event ev;
  barrier_lock_.lock();
  PM2_CHECK(barrier_waiter_ == nullptr) << "concurrent barriers on one node";
  barrier_waiter_ = &ev;
  uint32_t seq = barrier_seq_;
  barrier_lock_.unlock();
  if (config_.node == 0)
    barrier_arrive();
  else
    send_barrier_frame(*fabric_, kBarrierArrive, 0, seq);
  ev.wait();
  barrier_lock_.lock();
  barrier_waiter_ = nullptr;
  // The peer-down sweep wakes a parked barrier with an error note instead
  // of a release: surface it as RpcError (kPeerDown) to the caller.
  std::string err = std::move(barrier_error_);
  barrier_error_.clear();
  barrier_lock_.unlock();
  if (!err.empty()) throw RpcError(err, RpcErrorCode::kPeerDown);
}

void Runtime::barrier_arrive() {
  PM2_CHECK(config_.node == 0) << "barrier arrival at non-coordinator";
  // Count under barrier_lock_ (the comm daemon's arrivals race node 0's
  // own on another worker); send and wake outside it: the waiter cannot
  // leave ev.wait(), and so outlive `waiter`, before the set().
  marcel::Event* waiter = nullptr;
  uint32_t seq = 0;
  barrier_lock_.lock();
  const bool release_all = ++barrier_arrivals_ == config_.n_nodes;
  if (release_all) {
    barrier_arrivals_ = 0;
    seq = barrier_seq_++;
    waiter = barrier_waiter_;
  }
  barrier_lock_.unlock();
  if (!release_all) return;
  for (uint32_t n = 1; n < config_.n_nodes; ++n)
    send_barrier_frame(*fabric_, kBarrierRelease, n, seq);
  PM2_CHECK(waiter != nullptr)
      << "all nodes arrived but coordinator never entered the barrier";
  waiter->set(/*direct_handoff=*/true);
}

void Runtime::send_signal(uint32_t node) {
  PM2_CHECK(node < config_.n_nodes);
  if (node == config_.node) {
    ++signals_received_;
    signal_sem_.release();
    return;
  }
  fabric::Message msg;
  msg.type = kSignal;
  msg.dst = node;
  fabric_->send(std::move(msg));
}

void Runtime::wait_signals(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) signal_sem_.acquire();
}

void Runtime::begin_halt() {
  halting_.store(true);
  fabric_->set_teardown(true);  // peers may exit under late messages now
  // Wake every thread parked on an outstanding reply with an error: the
  // peers are shutting down and the replies may never come.  A reply that
  // does arrive after the drain is dropped (the closed table tolerates
  // unknown correlations).  Nothing rolls back: a shipped thread may
  // already run at its destination, and an unshipped one still belongs to
  // the worker packing it.
  for (CorrelationTable::Pending& p : pending_.close()) {
    p.rollback.reset();
    fail(std::move(p), "session shutdown");
  }
}

void Runtime::halt() {
  begin_halt();
  for (uint32_t n = 0; n < config_.n_nodes; ++n) {
    if (n == config_.node) continue;
    fabric::Message msg;
    msg.type = kHalt;
    msg.dst = n;
    fabric_->send(std::move(msg));
  }
}

uint64_t Runtime::load() const { return sched_.live_count(); }

void Runtime::broadcast_load() {
  uint64_t ld = load();
  load_lock_.lock();
  load_table_[config_.node] = ld;
  load_lock_.unlock();
  for (uint32_t n = 0; n < config_.n_nodes; ++n) {
    if (n == config_.node) continue;
    if (peer_down(n)) continue;  // gossip to a dead peer is wasted motion
    fabric::Message msg;
    msg.type = kLoadInfo;
    msg.dst = n;
    // Gossip is periodic and self-healing: if the peer is unreachable the
    // frame may be silently dropped rather than wedging the sender.
    msg.best_effort = true;
    ByteWriter w;
    w.put<uint32_t>(config_.node);
    w.put<uint64_t>(ld);
    msg.payload = w.take();
    fabric_->send(std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

fabric::FaultFabric* Runtime::fault_fabric() {
  return dynamic_cast<fabric::FaultFabric*>(fabric_.get());
}

void Runtime::check_peers(uint64_t now) {
  PeerMonitor::Tick tick = peers_.tick(now);
  for (uint32_t n = 0; tick.heartbeat && n < config_.n_nodes; ++n) {
    if (n == config_.node) continue;
    fabric::Message hb;
    hb.type = kHeartbeat;
    hb.dst = n;
    hb.best_effort = true;
    fabric_->send(std::move(hb));
  }
  for (uint32_t n : tick.down) mark_peer_down(n);
}

void Runtime::mark_peer_down(uint32_t node) {
  const std::string why = peer_down_error(node, "unreachable");
  // The sweep leaves migrations still being shipped to their sender (see
  // migrate_async); stale deadline-heap entries are skipped lazily.
  for (CorrelationTable::Pending& p : pending_.take_for(node)) {
    peer_down_failures_.fetch_add(1, std::memory_order_relaxed);
    fail(std::move(p), why, RpcErrorCode::kPeerDown);
  }
  // A parked barrier can never complete without `node`: wake the waiter
  // with the error recorded instead of leaving it parked forever.
  marcel::Event* bwaiter = nullptr;
  barrier_lock_.lock();
  if (barrier_waiter_ != nullptr && barrier_error_.empty()) {
    barrier_error_ = why + ", barrier cannot complete";
    bwaiter = barrier_waiter_;
  }
  barrier_lock_.unlock();
  if (bwaiter != nullptr) bwaiter->set();
  // Same for a thread waiting on the global system lock: the negotiation
  // protocol needs every participant, so the waiter aborts loudly.
  nego_.peer_lost();
}

// ---------------------------------------------------------------------------
// Comm daemon & message dispatch
// ---------------------------------------------------------------------------

void Runtime::daemon_trampoline(void* runtime) {
  static_cast<Runtime*>(runtime)->comm_daemon_body();
}

void Runtime::comm_daemon_body() {
  // Heartbeat cap on the event-driven block: bounds the damage of any
  // missed-wakeup bug to one lap instead of a hang, at zero latency cost
  // (every frame still wakes the fabric handle immediately).
  constexpr uint64_t kIdleBlockNs = 500'000'000;
  // Failure detection runs on this daemon's clock.
  peers_.start(now_ns());
  while (true) {
    // A pending worker pause (audit / checkpoint quiesce) must never wait
    // on the daemon finishing a blocking lap: gate first.
    if (sched_.pause_pending()) {
      sched_.yield();
      continue;
    }
    bool worked = false;
    while (auto msg = fabric_->try_recv()) {
      handle_message(*msg);
      worked = true;
    }
    // Requests that found no stack run on an earlier lap: the freeze may
    // have lifted (a peer's update, or our own negotiation's wake).
    if (!held_rpcs_.empty()) start_held_rpcs();
    // Deadline/heartbeat upkeep on every lap, busy or idle: a busy lap only
    // pays one relaxed load when no deadline is armed and detection is off.
    if (peers_.enabled() || pending_.next_deadline() != UINT64_MAX) {
      uint64_t nw = now_ns();
      expire_deadlines(nw);
      if (peers_.enabled()) check_peers(nw);
    }
    if (halting() && sched_.live_count() == 0) break;
    if (worked || sched_.local_ready_count() > 0) {
      sched_.yield();
      continue;
    }
    // Idle node: every local thread is parked (on a reply, a timer, a
    // join).  Block on the fabric's readiness handle until a frame
    // arrives — but never past the next sleep deadline, so marcel timers
    // fire on time.  No poll window, even with a reply outstanding: a
    // yield-spin hands the core to any other runnable task for a whole
    // scheduler slice, which stalls the reply it waits for by
    // milliseconds, and it ignores local work that becomes ready meanwhile.
    uint64_t now = now_ns();
    // Idle lap: evict invocation-pool threads past the decay horizon so
    // their stack slots rejoin the node's distribution, and demote cold
    // frozen threads over the slot-store budget to the backing file.
    pool_.decay(now);
    residency_.decay(now);
    uint64_t timer_ns = sched_.ns_until_next_timer();
    uint64_t deadline =
        now + std::min<uint64_t>(timer_ns, kIdleBlockNs);
    // Clamp the park to the nearest RPC/migration deadline and the next
    // heartbeat tick: an expiry must fire on time even on a frame-silent
    // node (satellite of the 500 ms idle cap, not a replacement for it).
    deadline = std::min(deadline, pending_.next_deadline());
    deadline = std::min(deadline, peers_.next_heartbeat());
    if (auto msg = fabric_->recv_until(deadline)) {
      handle_message(*msg);
      // Re-check immediately: if that frame was the halt (or the last
      // drain), exit now instead of taking another blocking lap.
      if (halting() && sched_.live_count() == 0) break;
    }
    // Bounce through the scheduler so its loop fires expired sleep timers
    // and dispatches any thread the handled frame unparked.
    sched_.yield();
  }
  // Frames held back by an injected delay: nobody flushes the fault fabric
  // after this daemon's last lap, and a delayed halt broadcast would strand
  // every peer in its blocking receive.
  if (auto* ff = fault_fabric()) ff->drain_delayed();
  // Session over: held requests are dropped (their callers were failed by
  // the halt) and parked service threads must not leak their stack runs.
  for (RpcInvocation* inv : held_rpcs_) recycle_invocation(inv);
  held_rpcs_.clear();
  pool_.drain();
  sched_.stop();
  thread_exit();
}

void Runtime::handle_message(fabric::Message& msg) {
  // Any frame is proof of life — heartbeats just guarantee a minimum rate
  // on otherwise-silent links.
  if (peers_.enabled()) peers_.seen(msg.src, now_ns());
  switch (msg.type) {
    case kHeartbeat:
      break;  // liveness already recorded above; no payload
    case kHalt:
      begin_halt();
      break;
    case kBarrierArrive:
      barrier_arrive();
      break;
    case kBarrierRelease: {
      barrier_lock_.lock();
      marcel::Event* waiter = barrier_waiter_;
      barrier_lock_.unlock();
      PM2_CHECK(waiter != nullptr) << "spurious barrier release";
      waiter->set(/*direct_handoff=*/true);
      break;
    }
    case kSignal:
      ++signals_received_;
      signal_sem_.release();
      break;
    case kRpc:
      handle_rpc(msg);
      break;
    case kReply:
    case kMigrateAck:
    case kAuditResp:
    case kGatherResp:
      complete(msg.corr, std::move(msg.flat()));
      break;
    case kReplyError: {
      ByteReader r(msg.flat());
      if (auto p = pending_.take(msg.corr)) fail(std::move(*p), r.get_string());
      break;
    }
    case kMigrate:
      handle_migrate(msg);
      break;
    case kLockReq:
      nego_.on_lock_req(msg.src);
      break;
    case kLockGrant:
      nego_.on_lock_grant();
      break;
    case kUnlock:
      nego_.on_unlock(msg.src);
      break;
    case kGatherReq:
      nego_.on_gather_req(msg);
      break;
    case kAuditReq:
      handle_audit_req(msg);
      break;
    case kNegoUpdate:
      nego_.on_nego_update(msg);
      break;
    case kLoadInfo: {
      ByteReader r(msg.flat());
      auto node = r.get<uint32_t>();
      auto ld = r.get<uint64_t>();
      PM2_CHECK(node < config_.n_nodes);
      load_lock_.lock();
      load_table_[node] = ld;
      load_lock_.unlock();
      break;
    }
    default:
      if (channels_.owns(msg)) {
        channels_.feed(std::move(msg));
        break;
      }
      PM2_FATAL("unhandled message type " + std::to_string(msg.type));
  }
}

void Runtime::handle_rpc(fabric::Message& msg) {
  std::vector<uint8_t>& payload = msg.flat();
  ByteReader r(payload);
  auto service = r.get<uint32_t>();
  // The whole payload moves into the invocation; the service-hash framing
  // is skipped by offset instead of trimmed by copy.
  size_t offset = r.position();
  dispatch_rpc(service, msg.src, msg.corr, std::move(payload), offset,
               /*on_daemon=*/true);
}

void Runtime::handle_migrate(fabric::Message& msg) {
  // A placed frame's body is already in the thread's slots (the socket
  // fabric read it there through mig_placer_); a whole payload (in-process
  // hub) is scattered into them now.  Either way the descriptor is adopted
  // here, in inbox order.
  const std::vector<uint8_t>& payload = msg.flat();
  marcel::Thread* t =
      msg.placed ? adopt_thread(*this, payload.data(), payload.size())
                 : install_thread(*this, payload.data(), payload.size());
  ++migrations_in_;
  if (post_migration_) post_migration_(t);
  // migrate_async ack — sent only after migrations_in() counts the arrival
  // and the post-migration hook ran, so the source-side future completing
  // implies the thread is fully installed here.  It resolves like any
  // reply; its own frame type keeps it out of the fault plans' loss filter.
  if (msg.corr != 0) {
    fabric::Message ack;
    ack.type = kMigrateAck;
    ack.dst = msg.src;
    ack.corr = msg.corr;
    ack.payload = pack_result(MigrateResult{t->id, config_.node});
    fabric_->send(std::move(ack));
  }
}

void Runtime::run(std::function<void()> node_main) {
  log::set_thread_node(static_cast<int>(config_.node));
  RuntimeBinding rt_bind(this);
  marcel::SchedulerBinding sched_bind(&sched_);
  if (config_.preemption_quantum_us > 0)
    sched_.set_preemption(config_.preemption_quantum_us);
  // Helper workers are raw kernel threads: bind them to this node the way
  // run()'s caller is bound, so PM2 threads they dispatch resolve
  // Runtime::current() and log with the right node tag.
  sched_.set_worker_init([this](uint32_t) {
    t_runtime = this;
    log::set_thread_node(static_cast<int>(config_.node));
  });
  // Cross-thread ready pushes targeting worker 0 (unblocks from other
  // workers, timer rearms) must pop the comm daemon out of its blocking
  // fabric wait.
  sched_.set_external_wake([this] { fabric_->wake(); });

  create_thread_in_slots(&Runtime::daemon_trampoline, this, "comm-daemon",
                         marcel::Thread::kFlagDaemon |
                             marcel::Thread::kFlagPinned);
  if (node_main) spawn_local(std::move(node_main), "main");
  sched_.run();
}

void Runtime::printf(const char* fmt, ...) {
  char body[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(body, sizeof(body), fmt, ap);
  va_end(ap);
  char line[2112];
  int n = std::snprintf(line, sizeof(line), "[node%u] %s", config_.node, body);
  if (n > 0) {
    size_t len = static_cast<size_t>(n) < sizeof(line) ? static_cast<size_t>(n)
                                                       : sizeof(line) - 1;
    [[maybe_unused]] ssize_t ignored = ::write(1, line, len);
  }
}

}  // namespace pm2
