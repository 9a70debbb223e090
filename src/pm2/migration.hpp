// Iso-address thread migration (paper §2 steps 1–3, §3.1).
//
// A frozen thread is entirely described by its slot list: the first (stack)
// slot holds the descriptor and the execution stack with the saved register
// frame; further slots hold its pm2_isomalloc heap.  Migration is:
//
//   pack    — describe every slot run (whole image, or just the live
//             extents: slot/block headers, busy payloads, descriptor and
//             live stack — the paper's §6 optimization) as a BufferChain.
//             The payload is table first: a u32 table length, the table
//             (descriptor address, every run and its extents), then the
//             body — extent segments that *borrow* the slot memory in
//             place, in table order;
//   release — forget the thread locally;
//   send    — one kMigrate message; the fabric gathers the borrowed
//             extents straight from slot memory to the wire (writev on the
//             socket fabric: zero intermediate flatten copies);
//   decommit— only after send() returns are the slots decommitted (they
//             remain *thread-owned*: no bitmap changes anywhere, §4.2);
//   place   — as soon as the table has arrived, commit the same slot
//             indices (guaranteed free: iso-address discipline) and list
//             each extent's address.  The socket fabric does this through
//             MigrationPlacer while the frame is still arriving: body bytes
//             it already staged are copied into the slots once, the rest is
//             read from the socket straight into them (readv).  Other
//             transports deliver the flat payload and install_thread
//             scatters it, through the same place step;
//   adopt   — validate the descriptor and hand it to the scheduler, in the
//             frame's inbox order.
//
// No pointer fix-ups of any kind happen anywhere in this file: that absence
// is the paper's contribution.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <vector>

#include "fabric/message.hpp"
#include "madeleine/buffers.hpp"
#include "marcel/thread.hpp"

namespace pm2 {

namespace iso {
struct SlotHeader;
}

class Runtime;

/// Serialize a frozen thread into a migration chain: staged metadata plus
/// extent segments borrowing the thread's slot memory in place.  The chain
/// must be consumed (sent / flattened) while the slots are still committed.
mad::BufferChain pack_thread_chain(Runtime& rt, marcel::Thread* t,
                                   bool blocks_only);

/// Legacy flat form of pack_thread_chain (checkpointing, tests).
std::vector<uint8_t> pack_thread(Runtime& rt, marcel::Thread* t,
                                 bool blocks_only);

/// Pack + forget + send to `dest` + decommit.  `t` must be frozen (or be
/// the post-switch continuation target of freeze_current_and).  The node's
/// pre-migration hook (Runtime::on_migration) runs first.  `ack_corr != 0`
/// asks the destination for a kMigrateAck carrying that correlation once
/// the thread is installed (migrate_async).
void ship_thread(Runtime& rt, marcel::Thread* t, uint32_t dest,
                 uint64_t ack_corr = 0);

/// Validate and adopt the descriptor of a thread whose bytes are already
/// in its slots (a placed frame: `head` is its table).  Returns it.
marcel::Thread* adopt_thread(Runtime& rt, const uint8_t* head, size_t len);

/// Place + scatter + adopt a thread from a whole migration payload (the
/// in-process hub, checkpoint images).  Returns the (iso-address)
/// descriptor.
marcel::Thread* install_thread(Runtime& rt, const uint8_t* payload,
                               size_t len);

/// kMigrate placement hook for fabrics that read frames in pieces (see
/// fabric::Placer): reserves the runs a frame's table names (away cache,
/// else commit) and lists each extent's address, so the body lands in the
/// thread's slots as it arrives; handle_migrate then only adopts it.  A
/// frame that never completes gives its runs to the away cache.
class MigrationPlacer final : public fabric::Placer {
 public:
  explicit MigrationPlacer(Runtime& rt) : rt_(rt) {}
  void place(const uint8_t* head, size_t len,
             std::vector<struct iovec>& body) override;
  void abandon(const uint8_t* head, size_t len) override;

 private:
  Runtime& rt_;
};

/// Payload size a migration of `t` would ship (for the A4 ablation bench).
/// Costs only the pack walk — nothing is flattened or copied.
size_t migration_payload_size(Runtime& rt, marcel::Thread* t, bool blocks_only);

/// Slot runs (first, nslots) recorded in a migration payload's table,
/// without installing it (checkpoint restore claims them before
/// committing).
std::vector<std::pair<size_t, uint32_t>> payload_slot_runs(
    const uint8_t* payload, size_t len);

}  // namespace pm2
