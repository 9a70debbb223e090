// The iso-address area (paper §3.1, Fig. 5).
//
// A range of virtual addresses reserved at the *same fixed base* in every
// node process of the application.  All iso-address allocations — thread
// stacks and pm2_isomalloc'd data — live inside it, which is what makes
// same-address re-instantiation on another node possible.
//
// The area is carved into fixed-size *slots* (64 KB by default, "16 pages…
// chosen so as to fit a thread stack", §4.1).  The area object does only
// address arithmetic and commit/decommit; ownership policy lives in
// SlotManager.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "sys/sanitizer.hpp"
#include "sys/vm.hpp"

namespace pm2::iso {

struct AreaConfig {
  /// Fixed virtual base.  0x5000'0000'0000 (80 TiB) sits far above the libc
  /// heap and far below the stack/mmap zone on x86-64 Linux, mirroring the
  /// paper's "between the process stack and the heap" placement.
  ///
  /// Under TSan the default moves to 0x5600'0000'0000: libtsan's x86-64
  /// shadow layout only treats 0x5500'0000'0000–0x5680'0000'0000 (plus the
  /// low heap and the high stack zones) as application memory, and accesses
  /// outside those ranges have no shadow — they fault inside the runtime.
  /// Every node process computes the same constant, so iso-address
  /// semantics are unchanged.
  uintptr_t base = sys::kTsan ? 0x5600'0000'0000ull : 0x5000'0000'0000ull;
  /// Total size of the area.  Virtual-only cost until committed.
  size_t size = 4ull << 30;  // 4 GiB -> 65536 slots of 64 KiB
  /// Slot granularity; must be a multiple of the page size.
  size_t slot_size = 64 * 1024;
  /// In-process multi-node sessions share one address space, so a node
  /// decommitting a slot it no longer owns (cache reconcile after selling
  /// it, migration-cache eviction) could yank pages the new owner already
  /// committed at the same addresses.  Real per-process nodes are immune —
  /// their mappings are private.  When true, decommit() keeps the pages
  /// committed (ownership bookkeeping is unaffected); set by the in-process
  /// app harness.
  bool skip_decommit = false;
};

/// Distinct area base for hand-built test/bench sessions: the k-th
/// 32 GiB-spaced base above the default (k >= 1; k = 0 is the default base
/// itself).  Tests that reserve their own areas must not collide with the
/// default runtime base, but hard-coded far-away constants fall outside
/// TSan's application address ranges — deriving from the (sanitizer-aware)
/// default keeps both properties.
inline uintptr_t offset_area_base(unsigned k) {
  return AreaConfig{}.base + uintptr_t{k} * 0x8'0000'0000ull;
}

class Area {
 public:
  /// Reserve the area (PROT_NONE).  Throws if the range is taken.
  explicit Area(const AreaConfig& config = {});

  Area(const Area&) = delete;
  Area& operator=(const Area&) = delete;

  uintptr_t base() const { return config_.base; }
  size_t size() const { return config_.size; }
  size_t slot_size() const { return config_.slot_size; }
  size_t n_slots() const { return config_.size / config_.slot_size; }

  /// Address of slot `index`.
  void* slot_addr(size_t index) const;
  /// Slot index containing `addr` (must be inside the area).
  size_t slot_of(const void* addr) const;
  bool contains(const void* addr) const;

  /// Make `count` slots starting at `first` read-writable, from byte
  /// `from` (page aligned) of the run on.
  void commit(size_t first, size_t count, size_t from = 0);
  /// Release physical memory and access for the range.
  void decommit(size_t first, size_t count);
  /// Like decommit(), but ignores AreaConfig::skip_decommit and spares the
  /// run's bytes below `from` (page aligned).  Used by the slot store when
  /// it demotes a *thread-owned* run to the backing file: no other
  /// in-process node ever touches a thread-owned address, so yanking the
  /// pages is safe even in a shared-address-space session (and is the
  /// whole point — the demotion must actually free RAM).
  void decommit_force(size_t first, size_t count, size_t from = 0);

  /// For tests: is the first byte of the slot readable?
  bool committed(size_t index) const;

  /// The kernel write watch over the whole area, created on first use (the
  /// first slot store opened on the area), so in-process nodes share one.
  sys::WriteWatch& write_watch();

 private:
  AreaConfig config_;
  sys::VmReservation reservation_;
  std::once_flag watch_once_;
  std::unique_ptr<sys::WriteWatch> watch_;
};

}  // namespace pm2::iso
