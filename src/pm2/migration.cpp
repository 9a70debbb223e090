#include "pm2/migration.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "isomalloc/block.hpp"
#include "isomalloc/heap.hpp"
#include "madeleine/buffers.hpp"
#include "pm2/protocol.hpp"
#include "pm2/runtime.hpp"
#include "sys/sanitizer.hpp"

namespace pm2 {

namespace {

struct Extent {
  uint64_t offset;  // from the slot-run base
  uint64_t len;
};

/// Append an extent, merging with the previous one when contiguous.
void push_extent(std::vector<Extent>& v, uint64_t offset, uint64_t len) {
  if (len == 0) return;
  if (!v.empty() && v.back().offset + v.back().len == offset) {
    v.back().len += len;
    return;
  }
  v.push_back(Extent{offset, len});
}

/// Live extents of one slot run.  `base` is the run's first byte.
std::vector<Extent> live_extents(iso::SlotHeader* slot, size_t slot_size,
                                 const marcel::Thread* t) {
  std::vector<Extent> extents;
  auto base = reinterpret_cast<uintptr_t>(slot);
  if (slot->kind == iso::SlotKind::kStack) {
    // Slot header + padding + descriptor + stack canary…
    auto canary_end = reinterpret_cast<uintptr_t>(t->stack_base) + 8;
    push_extent(extents, 0, canary_end - base);
    // …then only the live part of the stack: [sp, stack_top).
    auto sp = reinterpret_cast<uintptr_t>(t->sp);
    auto top = reinterpret_cast<uintptr_t>(t->stack_top);
    PM2_CHECK(sp >= canary_end && sp <= top) << "saved sp outside stack";
    push_extent(extents, sp - base, top - sp);
  } else {
    push_extent(extents, 0, sizeof(iso::SlotHeader));
    iso::for_each_block(slot, slot_size, [&](iso::BlockHeader* b) {
      auto off = reinterpret_cast<uintptr_t>(b) - base;
      // Headers always travel (they carry the free-list and physical
      // chaining); payload bytes only for busy blocks.
      uint64_t len = b->free ? sizeof(iso::BlockHeader) : b->size;
      push_extent(extents, off, len);
    });
  }
  return extents;
}

std::vector<Extent> full_extent(iso::SlotHeader* slot, size_t slot_size) {
  return {Extent{0, uint64_t{slot->nslots} * slot_size}};
}

// Table sizes on the wire (see walk_payload for the field order).
constexpr size_t kTableFixed =
    sizeof(uint64_t) + sizeof(uint8_t) + sizeof(uint32_t);
constexpr size_t kRunEntry = sizeof(uint64_t) + 3 * sizeof(uint32_t);
constexpr size_t kExtentEntry = 2 * sizeof(uint64_t);

/// Shared payload walker: the wire format parsed in exactly one place.
/// A payload is head first — u32 table length, then the table (descriptor
/// address, mode, and every run with its extents) — followed by the body,
/// the extents' bytes in table order.  Only the head is read here (`len`
/// may stop right after it).  `on_run(first, nslots)` returns the run's
/// first byte (or nullptr for metadata scans) and is followed by
/// `on_extent(base, offset, len)` for each of its extents.  Returns the
/// descriptor address; `*head_len` gets the head's size.
template <typename OnRun, typename OnExtent>
uint64_t walk_payload(const uint8_t* payload, size_t len, size_t* head_len,
                      const OnRun& on_run, const OnExtent& on_extent) {
  mad::UnpackBuffer prefix(payload, len);
  auto table_len = prefix.unpack<uint32_t>();
  PM2_CHECK(table_len <= prefix.remaining()) << "truncated migration table";
  *head_len = sizeof(uint32_t) + table_len;
  mad::UnpackBuffer table(payload + sizeof(uint32_t), table_len);
  auto desc = table.unpack<uint64_t>();
  table.unpack<uint8_t>();  // mode: self-describing via extents
  auto n_runs = table.unpack<uint32_t>();
  for (uint32_t i = 0; i < n_runs; ++i) {
    auto first = table.unpack<uint64_t>();
    auto nslots = table.unpack<uint32_t>();
    table.unpack<uint32_t>();  // kind (informational)
    char* base = on_run(static_cast<size_t>(first), nslots);
    auto n_extents = table.unpack<uint32_t>();
    for (uint32_t e = 0; e < n_extents; ++e) {
      auto offset = table.unpack<uint64_t>();
      auto elen = table.unpack<uint64_t>();
      on_extent(base, offset, elen);
    }
  }
  PM2_CHECK(table.exhausted()) << "trailing bytes in migration table";
  return desc;
}

void skip_extent(char*, uint64_t, uint64_t) {}

/// Reserve the slot runs a payload's table names and append each extent's
/// destination to `body`, in body order.  Only the head is read (`len` may
/// end right after it).  Returns the head's size, the body's offset.
size_t place_thread(Runtime& rt, const uint8_t* payload, size_t len,
                    std::vector<struct iovec>& body) {
  size_t head = 0;
  size_t run_bytes = 0;
  walk_payload(
      payload, len, &head,
      [&](size_t first, uint32_t nslots) -> char* {
        // Iso-address guarantee: these slot indices are free here (they
        // are owned by the migrating thread system-wide).  If the run sits
        // in the away cache (the thread bounced through this node before),
        // the pages are already committed; stale bytes in the extent gaps
        // are dead data by construction (below-sp stack, free-block
        // payloads).
        if (!rt.negotiator().take_away(first, nslots))
          rt.area().commit(first, nslots);
        // Whatever poison this address range carried locally (a previous
        // tenant's frames, a cached run of this very thread's earlier
        // visit) is stale: the installed extent must be fully addressable
        // before the first resume.
        run_bytes = size_t{nslots} * rt.area().slot_size();
        char* run_base = reinterpret_cast<char*>(rt.area().slot_addr(first));
        sys::san_unpoison(run_base, run_bytes);
        return run_base;
      },
      [&](char* base, uint64_t offset, uint64_t elen) {
        PM2_CHECK(offset <= run_bytes && elen <= run_bytes - offset)
            << "migration extent outside its slot run";
        body.push_back({base + offset, static_cast<size_t>(elen)});
      });
  return head;
}

}  // namespace

mad::BufferChain pack_thread_chain(Runtime& rt, marcel::Thread* t,
                                   bool blocks_only) {
  PM2_CHECK(t->slot_list != nullptr) << "thread without slots";
  const size_t slot_size = rt.area().slot_size();

  // Walk the runs first: the table of every run and extent leads the
  // payload, so a receiver can reserve the slots before the body arrives.
  std::vector<std::pair<iso::SlotHeader*, std::vector<Extent>>> runs;
  size_t table_len = kTableFixed;
  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* slot) {
    runs.emplace_back(slot, blocks_only ? live_extents(slot, slot_size, t)
                                        : full_extent(slot, slot_size));
    table_len += kRunEntry + runs.back().second.size() * kExtentEntry;
  });

  mad::PackBuffer pack(sizeof(uint32_t) + table_len);
  pack.pack<uint32_t>(static_cast<uint32_t>(table_len));
  pack.pack<uint64_t>(reinterpret_cast<uint64_t>(t));
  pack.pack<uint8_t>(blocks_only ? 1 : 0);
  pack.pack<uint32_t>(static_cast<uint32_t>(runs.size()));
  for (const auto& [slot, extents] : runs) {
    pack.pack<uint64_t>(rt.area().slot_of(slot));
    pack.pack<uint32_t>(slot->nslots);
    pack.pack<uint32_t>(static_cast<uint32_t>(slot->kind));
    pack.pack<uint32_t>(static_cast<uint32_t>(extents.size()));
    for (const Extent& e : extents) {
      pack.pack<uint64_t>(e.offset);
      pack.pack<uint64_t>(e.len);
    }
  }
  for (const auto& [slot, extents] : runs) {
    auto base = reinterpret_cast<const char*>(slot);
    for (const Extent& e : extents) {
      // A live stack extent carries redzone poison from the frozen
      // thread's frames; scrub it so the fabric may read the borrowed
      // bytes.  Shadow is node-local and never ships — the install side
      // starts the copy with clean shadow too, which is the only safe
      // reconstruction (new frames re-poison as they are pushed).
      sys::san_unpoison(base + e.offset, e.len);
      // Borrow: the extent segment points straight into iso-address slot
      // memory; the fabric gathers it from there to the wire.  The slots
      // stay committed until ship_thread's send() returns.
      pack.pack_bytes(base + e.offset, e.len, mad::PackMode::kBorrow);
    }
  }
  return pack.take_chain();
}

std::vector<uint8_t> pack_thread(Runtime& rt, marcel::Thread* t,
                                 bool blocks_only) {
  return pack_thread_chain(rt, t, blocks_only).take_flat();
}

size_t migration_payload_size(Runtime& rt, marcel::Thread* t,
                              bool blocks_only) {
  return pack_thread_chain(rt, t, blocks_only).size();
}

void ship_thread(Runtime& rt, marcel::Thread* t, uint32_t dest,
                 uint64_t ack_corr) {
  PM2_CHECK(dest != rt.self());
  // Demoted runs fault back through the store: the pack walk needs the
  // bytes hot.  The thread's directory record — if a demotion or checkpoint
  // left one — no longer describes slots this node owns once the thread
  // ships, so a crash restart here must not resurrect it.
  rt.residency().ensure_resident(t);
  PM2_TRACE << "shipping thread " << t->id << " to node " << dest;
  iso::SlotStore* store = rt.slot_store();
  if (store != nullptr) store->erase_thread(t->id);

  // Observer hook (pm2_set_pre_migration_func): the thread is frozen but
  // still entirely resident — the hook may inspect it, not unfreeze it.
  if (rt.pre_migration_hook()) rt.pre_migration_hook()(t);

  mad::BufferChain chain =
      pack_thread_chain(rt, t, rt.config().migrate_blocks_only);

  // Record the runs before the descriptor becomes unreachable.
  std::vector<std::pair<size_t, size_t>> runs;
  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* slot) {
    runs.emplace_back(rt.area().slot_of(slot), slot->nslots);
  });
  // Its image bits go too: another in-process node's store may scan the
  // runs (consuming their kernel write bits) before they come back.
  if (store != nullptr) {
    for (auto [first, count] : runs) store->forget(first, count);
  }

  // keep_fiber: an in-process install (hub fabric, or socket nodes sharing
  // the process) adopts the byte-copied stack on its original TSan fiber.
  rt.sched().forget(t, /*keep_fiber=*/true);

  // Gather straight from the (still committed) slots to the wire, from
  // whichever worker runs this.  By the time send() returns the borrowed
  // extents have been written out (socket fabric) or taken over
  // (in-process hub), so the pages may go away.
  fabric::Message msg;
  msg.type = kMigrate;
  msg.dst = dest;
  msg.corr = ack_corr;  // != 0: destination acks after install
  msg.chain = std::move(chain);
  rt.fabric().send(std::move(msg));

  // "The memory area storing the resources is set free" (§2 step 1).  The
  // slots stay owned by the thread — no bitmap traffic — so the same
  // addresses are guaranteed free on every node, including this one if the
  // thread ever migrates back.  The away cache keeps the pages committed
  // (bounded) so a returning thread skips the commit/page-fault cycle —
  // the paper's §6 slot-cache idea on the migration path.
  for (auto [first, count] : runs) rt.negotiator().cache_away(first, count);
}

std::vector<std::pair<size_t, uint32_t>> payload_slot_runs(
    const uint8_t* payload, size_t len) {
  std::vector<std::pair<size_t, uint32_t>> runs;
  size_t head = 0;
  walk_payload(
      payload, len, &head,
      [&](size_t first, uint32_t nslots) -> char* {
        runs.emplace_back(first, nslots);
        return nullptr;
      },
      skip_extent);
  return runs;
}

void MigrationPlacer::place(const uint8_t* head, size_t len,
                            std::vector<struct iovec>& body) {
  place_thread(rt_, head, len, body);
}

void MigrationPlacer::abandon(const uint8_t* head, size_t len) {
  // The body never completed, so the thread does not exist anywhere any
  // more; its runs stay committed in the away cache like any departed
  // thread's, and nothing here claims them.
  for (auto [first, nslots] : payload_slot_runs(head, len))
    rt_.negotiator().cache_away(first, nslots);
}

marcel::Thread* adopt_thread(Runtime& rt, const uint8_t* head, size_t len) {
  size_t head_len = 0;
  auto* t = reinterpret_cast<marcel::Thread*>(walk_payload(
      head, len, &head_len, [](size_t, uint32_t) -> char* { return nullptr; },
      skip_extent));
  PM2_CHECK(t->magic == marcel::Thread::kMagic)
      << "migration payload did not reconstruct a valid descriptor";
  PM2_CHECK(t->canary_ok()) << "migrated stack arrived corrupt";
  // Lazy invocation-pool eviction: a service thread that migrated here is
  // a foreign slot run — it exits through the ordinary release path, the
  // install side never parks it in the pool.
  t->flags &= ~marcel::Thread::kFlagService;
  // The descriptor's parked fake-stack handle references the *source*
  // kernel thread's ASan allocator: the first switch onto this foreign
  // stack must hand ASan a null handle instead.
  t->san_fake_stack = nullptr;
  rt.sched().adopt(t);
  PM2_TRACE << "installed thread " << t->id;
  return t;
}

marcel::Thread* install_thread(Runtime& rt, const uint8_t* payload,
                               size_t len) {
  std::vector<struct iovec> body;
  const size_t head = place_thread(rt, payload, len, body);
  // Scatter each extent straight from the payload into its slots — the
  // payload is the only staging between the sender's memory and
  // iso-address memory.
  const uint8_t* src = payload + head;
  size_t left = len - head;
  for (const struct iovec& v : body) {
    PM2_CHECK(v.iov_len <= left) << "truncated migration payload";
    std::memcpy(v.iov_base, src, v.iov_len);
    src += v.iov_len;
    left -= v.iov_len;
  }
  PM2_CHECK(left == 0) << "trailing bytes in migration payload";
  return adopt_thread(rt, payload, head);
}

}  // namespace pm2
