#include "pm2/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "pm2/api.hpp"
#include "pm2/migration.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

uint64_t binary_stamp() {
  // Address + leading code bytes of a reference function: both are fixed
  // across runs of the same non-PIE binary and differ across binaries.
  auto addr = reinterpret_cast<uint64_t>(&binary_stamp);
  uint64_t code = 0;
  std::memcpy(&code, reinterpret_cast<const void*>(&binary_stamp),
              sizeof(code));
  return addr ^ (code * 0x9E3779B97F4A7C15ull);
}

namespace {

/// Image = CheckpointHeader + migration payload.  The payload chain is
/// gathered once, straight from the thread's slot memory into the image
/// (no intermediate flat payload).
std::vector<uint8_t> wrap_image(Runtime& rt, mad::BufferChain chain) {
  CheckpointHeader h;
  h.area_base = rt.area().base();
  h.area_size = rt.area().size();
  h.slot_size = rt.area().slot_size();
  h.binary_stamp = binary_stamp();
  h.payload_len = chain.size();
  std::vector<uint8_t> image(sizeof(h) + chain.size());
  std::memcpy(image.data(), &h, sizeof(h));
  chain.gather(image.data() + sizeof(h));
  return image;
}

/// Zero-copy view of the migration payload inside `image` (valid while the
/// image lives).
std::pair<const uint8_t*, size_t> unwrap_image(
    Runtime& rt, const std::vector<uint8_t>& image) {
  ByteReader r(image);
  auto h = r.get<CheckpointHeader>();
  PM2_CHECK(h.magic == CheckpointHeader::kMagic) << "not a PM2 checkpoint";
  PM2_CHECK(h.binary_stamp == binary_stamp())
      << "checkpoint was taken by a different binary";
  PM2_CHECK(h.area_base == rt.area().base() &&
            h.area_size == rt.area().size() &&
            h.slot_size == rt.area().slot_size())
      << "iso-area geometry mismatch";
  PM2_CHECK(h.payload_len == r.remaining()) << "truncated checkpoint";
  return {r.view_bytes(h.payload_len), h.payload_len};
}

}  // namespace

std::vector<uint8_t> checkpoint_thread(Runtime& rt, marcel::ThreadId id) {
  // Gate the other workers across find+freeze: a READY target could be
  // stolen and dispatched between the two calls, turning a legitimate
  // checkpoint into a spurious "not READY" failure.
  rt.sched().pause_workers();
  marcel::Thread* t = rt.sched().find(id);
  PM2_CHECK(t != nullptr) << "checkpoint: no thread " << id << " here";
  // A demoted thread's stack and data pages (everything the pack walk
  // reads past the slot headers) live in the store file until faulted back.
  rt.residency().ensure_resident(t);
  PM2_CHECK(!t->is_pinned()) << "checkpoint: pinned thread";
  bool frozen = rt.sched().freeze(t);
  rt.sched().resume_workers();
  PM2_CHECK(frozen)
      << "checkpoint: thread must be READY (not running/blocked)";
  // Always pack whole-slot images: a restore may happen after the dead
  // stack/free payloads were recycled, and a self-contained image is worth
  // the bytes in a persistence format.
  mad::BufferChain chain = pack_thread_chain(rt, t, /*blocks_only=*/false);
  std::vector<uint8_t> image = wrap_image(rt, std::move(chain));
  // Thaw: put the thread back exactly as it was (same process, same
  // frames — keep_fiber so adopt resumes on the matching TSan fiber).
  rt.sched().forget(t, /*keep_fiber=*/true);
  rt.sched().adopt(t);
  return image;
}

bool checkpoint_self(Runtime& rt, std::vector<uint8_t>& out) {
  marcel::Thread* t = marcel::Scheduler::self();
  PM2_CHECK(t != nullptr) << "checkpoint_self outside a PM2 thread";
  PM2_CHECK(!t->is_pinned()) << "checkpoint_self: pinned thread";
  // Clear the restore marker *before* the image is taken: the image must
  // contain the cleared flag so a restored clone (which gets the flag set
  // by restore_thread after installation) is distinguishable.
  t->flags &= ~marcel::Thread::kFlagRestored;
  rt.sched().freeze_current_and([&rt, &out](marcel::Thread* frozen) {
    // Runs on the scheduler stack while the thread is quiescent.  Pack
    // first (the image captures `out` still untouched), then deliver.
    mad::BufferChain chain = pack_thread_chain(rt, frozen, false);
    out = wrap_image(rt, std::move(chain));
    // Thaw: freeze_current_and left the thread registered, so re-enter it
    // through forget+adopt (adopt also resets node-local links;
    // keep_fiber — same process, same frames).
    rt.sched().forget(frozen, /*keep_fiber=*/true);
    rt.sched().adopt(frozen);
  });
  // Both the original and a restored clone resume here.
  return (marcel::Scheduler::self()->flags & marcel::Thread::kFlagRestored) !=
         0;
}

marcel::ThreadId restore_thread(Runtime& rt,
                                const std::vector<uint8_t>& image) {
  auto [payload, payload_len] = unwrap_image(rt, image);

  // The image's slot ranges must be re-claimed from this node before the
  // install may commit them (they were released when the original thread
  // died — or never claimed, after a process restart).  A just-exited
  // original releases its slots in the exit reaper, which runs on the
  // exiting worker's scheduler stack — under SMP that reaper can still be
  // in flight when a restore races it off the exit signal, so a failed
  // claim gets a bounded grace window before it is treated as "original
  // still alive / foreign node".
  auto runs = payload_slot_runs(payload, payload_len);
  for (auto [first, count] : runs) {
    bool claimed = rt.negotiator().acquire_at(first, count);
    for (int spin = 0; !claimed && spin < 200; ++spin) {
      pm2_sleep_us(1000);
      claimed = rt.negotiator().acquire_at(first, count);
    }
    PM2_CHECK(claimed)
        << "restore: slot run [" << first << ", +" << count
        << ") is not free on this node (original thread still alive, or the "
           "slots belong to another node — restore on the owning node)";
  }

  // Scatter straight from the image into the re-claimed slots.
  marcel::Thread* t = install_thread(rt, payload, payload_len);
  t->flags |= marcel::Thread::kFlagRestored;
  return t->id;
}

void save_checkpoint(const std::string& path,
                     const std::vector<uint8_t>& image) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  PM2_CHECK(f.good()) << "cannot write " << path;
  f.write(reinterpret_cast<const char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  PM2_CHECK(f.good()) << "short write to " << path;
}

StoreCheckpointStats checkpoint_node_to_store(Runtime& rt) {
  iso::SlotStore* store = rt.slot_store();
  PM2_CHECK(store != nullptr) << "checkpoint_node_to_store: no slot store "
                                 "(set RuntimeConfig::slot_store_dir)";
  StoreCheckpointStats stats;
  const size_t slot_size = rt.area().slot_size();

  marcel::Thread* self = marcel::Scheduler::self();
  rt.sched().pause_workers();

  // Pass 1 under the pause: pick the checkpointable threads.  Demoted
  // threads need no I/O at all: the record sealed at demotion is still
  // their checkpoint (only node-local descriptor fields can have changed,
  // and adopt() resets those on restore).
  std::vector<marcel::Thread*> targets;
  rt.sched().for_each([&](marcel::Thread* t) {
    if (rt.residency().demoted(t)) {
      iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
        stats.bytes_skipped += uint64_t{s->nslots} * slot_size;
      });
      ++stats.threads;
      return;
    }
    if (t == self || t->is_daemon()) return;
    if (t->state != marcel::ThreadState::kReady &&
        t->state != marcel::ThreadState::kFrozen) {
      PM2_WARN << "checkpoint_node_to_store: thread " << t->id << " is "
               << marcel::to_string(t->state) << "; not persisted";
      return;
    }
    targets.push_back(t);
  });

  // Freeze and record every target, then stage their runs sorted, adjacent
  // runs as one span: one kernel write scan per span, not per run.  The
  // records stay staged until the sync step seals them with the data.
  std::vector<uint64_t> written_ids;
  std::vector<iso::SlotRun> runs;
  std::vector<marcel::Thread*> thaw;
  for (marcel::Thread* t : targets) {
    // Quiesce READY targets exactly like a migration; frozen ones are
    // already quiescent and stay frozen afterwards.
    if (t->state == marcel::ThreadState::kReady) {
      if (!rt.sched().freeze(t)) {
        PM2_WARN << "checkpoint_node_to_store: cannot freeze thread " << t->id
                 << "; not persisted";
        continue;
      }
      thaw.push_back(t);
    }
    std::vector<iso::SlotRun> own;
    iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* s) {
      own.emplace_back(rt.area().slot_of(s), s->nslots);
    });
    if (store->record_thread(t->id, reinterpret_cast<uint64_t>(t), own)) {
      runs.insert(runs.end(), own.begin(), own.end());
      written_ids.push_back(t->id);
      ++stats.threads;
    }
  }
  std::sort(runs.begin(), runs.end());
  for (size_t i = 0; i < runs.size();) {
    const size_t first = runs[i].first;
    size_t count = 0;
    for (; i < runs.size() && runs[i].first == first + count; ++i)
      count += runs[i].second;
    const uint64_t written = store->write_changed(first, count);
    stats.bytes_written += written;
    stats.bytes_skipped += uint64_t{count} * slot_size - written;
  }
  // The staged pages are read at the sync: thaw only after it.
  stats.synced = store->sync(written_ids);
  if (!stats.synced) {
    // Nothing was sealed.  Drop the staged pages before the targets run:
    // a later commit must not write them home under the older records.
    // The next round writes these runs whole.
    for (auto [first, count] : runs) store->forget(first, count);
  }
  for (marcel::Thread* t : thaw) rt.sched().unfreeze(t);
  rt.sched().resume_workers();
  return stats;
}

std::vector<marcel::ThreadId> restore_node_from_store(Runtime& rt) {
  iso::SlotStore* store = rt.slot_store();
  PM2_CHECK(store != nullptr && store->recovered())
      << "restore_node_from_store needs a store opened with "
         "RuntimeConfig::slot_store_recover = true";
  std::vector<marcel::ThreadId> restored;
  for (const auto& rec : store->recorded_threads()) {
    // Runtime construction pre-reserved the recorded runs of a recovered
    // store; take that reservation if it exists, else re-claim the runs
    // from this node's distribution.  All or nothing: a partial claim is
    // rolled back and the thread skipped.
    if (!rt.residency().take_restore_reservation(rec.id)) {
      size_t claimed = 0;
      bool ok = true;
      for (auto [first, count] : rec.runs) {
        if (!rt.negotiator().acquire_at(first, count)) {
          ok = false;
          break;
        }
        ++claimed;
      }
      if (!ok) {
        for (size_t i = 0; i < claimed; ++i) {
          rt.release_slots(rec.runs[i].first, rec.runs[i].second);
        }
        PM2_WARN << "restore_node_from_store: slot runs of thread " << rec.id
                 << " are not free here; restore it on the owning node";
        continue;
      }
    }
    for (auto [first, count] : rec.runs) {
      rt.area().commit(first, count);
      store->read_run(first, count);
    }
    auto* t = reinterpret_cast<marcel::Thread*>(rec.desc_addr);
    PM2_CHECK(t->magic == marcel::Thread::kMagic)
        << "slot store record for thread " << rec.id
        << " did not reconstruct a valid descriptor";
    PM2_CHECK(t->canary_ok())
        << "restored stack arrived corrupt (thread " << rec.id << ")";
    // Same arrival hygiene as a migration install: never park a restored
    // shell in the pool, and never hand ASan a dead process's fake-stack.
    t->flags &= ~marcel::Thread::kFlagService;
    t->flags |= marcel::Thread::kFlagRestored;
    t->san_fake_stack = nullptr;
    // The restored id was minted by this node's previous incarnation —
    // keep the fresh counter from re-issuing it.
    rt.ensure_thread_id_floor(t->id);
    rt.sched().adopt(t);
    restored.push_back(t->id);
  }
  return restored;
}

std::vector<uint8_t> load_checkpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  PM2_CHECK(f.good()) << "cannot read " << path;
  auto size = static_cast<size_t>(f.tellg());
  f.seekg(0);
  std::vector<uint8_t> image(size);
  f.read(reinterpret_cast<char*>(image.data()),
         static_cast<std::streamsize>(size));
  PM2_CHECK(f.good()) << "short read from " << path;
  return image;
}

}  // namespace pm2
