// Global negotiation for contiguous slots (paper §4.4).
//
// When a node cannot satisfy a multi-slot request locally it "buys" slots
// from other nodes under a system-wide critical section:
//
//   (a) enter the critical section        — pm2 runtime (lock server)
//   (b) gather the local bitmaps          — pm2 runtime (messages)
//   (c) compute a global OR               — plan_negotiation() below
//   (d) first-fit a run of n, mark bought
//       slots 1 at the requester, 0 at
//       their former owners               — plan_negotiation()/apply_plan()
//   (e) send back the updated bitmaps     — pm2 runtime
//   (f) exit the critical section         — pm2 runtime
//
// This file implements the *pure* parts (c)+(d) so they are unit- and
// property-testable without any networking; pm2::Negotiator
// (src/pm2/negotiator.*) wraps them in the message protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitmap.hpp"
#include "isomalloc/block.hpp"

namespace pm2::iso {

/// Slots transferred from one former owner to the requester.
struct Purchase {
  uint32_t from_node = 0;
  uint32_t first = 0;
  uint32_t count = 0;

  bool operator==(const Purchase&) const = default;
};

struct NegotiationPlan {
  size_t first_slot = 0;  // start of the contiguous run
  size_t run = 0;         // length requested
  /// Non-local purchases only; slots the requester already owned inside the
  /// run appear in no purchase.
  std::vector<Purchase> purchases;
};

/// Steps (c)+(d): OR all bitmaps, first-fit a run of `run` set bits, and
/// decompose the non-requester-owned portion into per-owner purchases.
/// Returns nullopt if no run of that length exists globally.
std::optional<NegotiationPlan> plan_negotiation(
    const std::vector<pm2::Bitmap>& bitmaps, uint32_t requester, size_t run,
    FitPolicy fit = FitPolicy::kFirstFit);

/// Mutate the bitmaps according to the plan: purchased bits move from their
/// former owners to the requester.  After this the requester's bitmap
/// contains the full run (so a local acquire succeeds).
void apply_plan(std::vector<pm2::Bitmap>& bitmaps, uint32_t requester,
                const NegotiationPlan& plan);

}  // namespace pm2::iso
