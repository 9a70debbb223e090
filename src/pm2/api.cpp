#include "pm2/api.hpp"

#include <cstdarg>
#include <cstdio>

#include "common/check.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

Runtime& current_runtime() {
  Runtime* r = Runtime::current();
  PM2_CHECK(r != nullptr) << "PM2 API used outside a running node";
  return *r;
}

namespace {
Runtime& rt() { return current_runtime(); }
}  // namespace

uint32_t pm2_self() { return rt().self(); }
uint32_t pm2_nodes() { return rt().n_nodes(); }

marcel::Thread* marcel_self() { return marcel::Scheduler::self(); }

void* pm2_isomalloc(size_t size) { return rt().isomalloc(size); }
void pm2_isofree(void* addr) { rt().isofree(addr); }
void* pm2_isorealloc(void* addr, size_t size) {
  return rt().isorealloc(addr, size);
}

void* pm2_isocalloc(size_t n, size_t elem_size) {
  return rt().isocalloc(n, elem_size);
}

void* pm2_isomemalign(size_t align, size_t size) {
  return rt().isomemalign(align, size);
}

marcel::ThreadId pm2_thread_create(marcel::EntryFn fn, void* arg,
                                   const char* name) {
  return rt().spawn(fn, arg, name);
}

marcel::ThreadId pm2_thread_create_copy(marcel::EntryFn fn, const void* data,
                                        size_t len, const char* name) {
  return rt().spawn_copy(fn, data, len, name);
}

void pm2_migrate(marcel::Thread* thr, uint32_t node) {
  PM2_CHECK(thr != nullptr);
  if (thr == marcel::Scheduler::self()) {
    rt().migrate_self(node);
    return;
  }
  PM2_CHECK(rt().migrate(thr->id, node))
      << "preemptive migration failed (thread not READY or pinned)";
}

void pm2_yield() {
  marcel::Scheduler* sched = marcel::Scheduler::current_scheduler();
  PM2_CHECK(sched != nullptr);
  sched->yield();
}

void pm2_sleep_us(uint64_t us) {
  marcel::Scheduler* sched = marcel::Scheduler::current_scheduler();
  PM2_CHECK(sched != nullptr);
  sched->sleep_us(us);
}

bool pm2_join(marcel::ThreadId id) { return rt().join(id); }

void pm2_printf(const char* fmt, ...) {
  char body[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(body, sizeof(body), fmt, ap);
  va_end(ap);
  rt().printf("%s", body);
}

void pm2_barrier() { rt().barrier(); }
void pm2_halt() { rt().halt(); }

void pm2_signal(uint32_t node) { rt().send_signal(node); }
void pm2_wait_signals(uint64_t count) { rt().wait_signals(count); }

RpcFuture<MigrateResult> migrate_async(marcel::ThreadId id, uint32_t dest) {
  return rt().migrate_async(id, dest);
}

void on_migration(MigrationHook pre, MigrationHook post) {
  rt().on_migration(std::move(pre), std::move(post));
}

}  // namespace pm2
