// Thread checkpoint/restore — "migration in time".
//
// An extension the iso-address design gets almost for free: the migration
// payload (descriptor + slot images at fixed virtual addresses) is a
// complete, position-dependent-but-address-stable serialization of a
// thread.  Shipping it to a *later moment* instead of another node is the
// same operation:
//
//   * checkpoint(): freeze a thread, pack it exactly like a migration,
//     return the bytes (optionally keep the thread running);
//   * restore(): commit the recorded slots and adopt the thread — legal
//     whenever its slot ranges are free, which the iso-address discipline
//     guarantees if the original thread is gone (it owned those slots
//     system-wide).
//
// Because the build is non-PIE with a static C++ runtime (see the root
// CMakeLists), a checkpoint taken in one session restores in a *new
// process* of the same binary: code addresses, the iso-area base and the
// stack contents all line up.  The checkpoint format embeds the area
// geometry and a binary identity stamp and refuses to restore on mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "marcel/thread.hpp"

namespace pm2 {

class Runtime;

struct CheckpointHeader {
  static constexpr uint64_t kMagic = 0x504D32434B505431ull;  // "PM2CKPT1"
  uint64_t magic = kMagic;
  uint64_t area_base = 0;
  uint64_t area_size = 0;
  uint64_t slot_size = 0;
  uint64_t binary_stamp = 0;  // identity of the SPMD binary (code addrs)
  uint64_t payload_len = 0;
};

/// Identity stamp of this binary: restoring a checkpoint into a different
/// binary would resume into the wrong code.  Derived from the address and
/// first bytes of a reference function — both fixed in a non-PIE build.
uint64_t binary_stamp();

/// Checkpoint a thread living on this node.
///
/// `id` must name a READY (not running, not blocked) non-pinned thread —
/// the same precondition as preemptive migration.  The thread keeps
/// running afterwards.  Returns the checkpoint image.
std::vector<uint8_t> checkpoint_thread(Runtime& rt, marcel::ThreadId id);

/// Checkpoint the *calling* thread and keep running.  Returns the image
/// through `out` (the thread cannot return it: the checkpoint captures the
/// moment inside this call, and a restored clone resumes right here with
/// `restored() == true`).
///
/// Returns false for the original ("just checkpointed") execution and true
/// for a restored clone — the classic setjmp-style contract.
bool checkpoint_self(Runtime& rt, std::vector<uint8_t>& out);

/// Restore a checkpointed thread into this node.  The thread's slot ranges
/// must be free (the original thread must have exited or never lived in
/// this session).  The restored thread resumes exactly where it was
/// frozen.  Returns its id.
///
/// Restores refuse images from a different binary or area geometry.
marcel::ThreadId restore_thread(Runtime& rt, const std::vector<uint8_t>& image);

/// Convenience: write/read a checkpoint image to/from a file.
void save_checkpoint(const std::string& path, const std::vector<uint8_t>& image);
std::vector<uint8_t> load_checkpoint(const std::string& path);

// --- node checkpoints through the slot store (PM2STOR1) ---------------------
//
// Where PM2CKPT1 serializes ONE thread into a flat self-contained image,
// the slot store checkpoint persists EVERY checkpointable thread of a node
// into the node's iso::SlotStore backing file: thread-directory records
// name the images, and slot bytes land at their fixed file positions
// (data_off + slot_index * slot_size).  The file is an address-stable
// mirror of the iso-area, so every round goes through the store's one
// write rule, SlotStore::write_changed: compare each run with the file and
// write only the pages that differ (slots with no complete image yet are
// written whole).  A round over threads that changed little writes little,
// and with the area's kernel write watch compares little too.

struct StoreCheckpointStats {
  uint64_t threads = 0;        // threads persisted this round
  uint64_t bytes_written = 0;  // slot bytes written to the store file
  uint64_t bytes_skipped = 0;  // slot bytes already equal in the file
  bool synced = false;  // the closing SlotStore::sync() succeeded
};

/// Persist every checkpointable thread of this node into its slot store:
/// READY and frozen threads get directory records + slot images; demoted
/// threads keep the record sealed at demotion (only node-local descriptor
/// fields can have changed since) and are skipped as pure savings; running (the caller),
/// blocked and daemon threads are not checkpointable and are skipped with
/// a warning for blocked ones.  The targets' runs are written with
/// SlotStore::write_changed, adjacent runs as one span, so only pages that
/// differ from the file are written; `bytes_written + bytes_skipped` is the
/// node's persisted slot
/// bytes.  The round's records stay unsealed (kWriting) until its closing
/// SlotStore::sync() seals them between the data sync and the directory
/// sync; `synced` reports whether that sync succeeded (after a failed data
/// sync the round's records stay unsealed).  Requires
/// RuntimeConfig::slot_store_dir.
StoreCheckpointStats checkpoint_node_to_store(Runtime& rt);

/// Crash restart: adopt every thread recorded in a recovered slot store
/// (RuntimeConfig::slot_store_recover = true).  Claims each thread's slot
/// runs, reads the images back at their iso-addresses and reschedules the
/// threads; returns their ids.  Threads whose runs are not free on this
/// node (another node's distribution) are skipped with a warning — restore
/// on the owning node.  Call from the restarted node's main thread.
std::vector<marcel::ThreadId> restore_node_from_store(Runtime& rt);

}  // namespace pm2
