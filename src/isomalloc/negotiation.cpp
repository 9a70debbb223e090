#include "isomalloc/negotiation.hpp"

#include "common/check.hpp"

namespace pm2::iso {

std::optional<NegotiationPlan> plan_negotiation(
    const std::vector<pm2::Bitmap>& bitmaps, uint32_t requester, size_t run,
    FitPolicy fit) {
  PM2_CHECK(requester < bitmaps.size());
  PM2_CHECK(run >= 1);

  pm2::Bitmap global = bitmaps[0];
  for (size_t i = 1; i < bitmaps.size(); ++i) global.or_with(bitmaps[i]);

  std::optional<size_t> first = fit == FitPolicy::kFirstFit
                                    ? global.find_run(run)
                                    : global.find_best_run(run);
  if (!first) return std::nullopt;

  NegotiationPlan plan;
  plan.first_slot = *first;
  plan.run = run;

  // Decompose [first, first+run) into maximal per-owner segments.
  size_t i = *first;
  while (i < *first + run) {
    uint32_t owner = UINT32_MAX;
    for (uint32_t node = 0; node < bitmaps.size(); ++node) {
      if (bitmaps[node].test(i)) {
        owner = node;
        break;
      }
    }
    PM2_CHECK(owner != UINT32_MAX)
        << "slot " << i << " set in global OR but owned by no node";
    size_t j = i + 1;
    while (j < *first + run && bitmaps[owner].test(j)) ++j;
    if (owner != requester) {
      plan.purchases.push_back(Purchase{owner, static_cast<uint32_t>(i),
                                        static_cast<uint32_t>(j - i)});
    }
    i = j;
  }
  return plan;
}

void apply_plan(std::vector<pm2::Bitmap>& bitmaps, uint32_t requester,
                const NegotiationPlan& plan) {
  PM2_CHECK(requester < bitmaps.size());
  for (const Purchase& p : plan.purchases) {
    PM2_CHECK(p.from_node < bitmaps.size() && p.from_node != requester);
    PM2_CHECK(bitmaps[p.from_node].all_set(p.first, p.count))
        << "purchase from node " << p.from_node << " of unowned slots";
    bitmaps[p.from_node].clear_range(p.first, p.count);
    bitmaps[requester].set_range(p.first, p.count);
  }
  PM2_CHECK(bitmaps[requester].all_set(plan.first_slot, plan.run))
      << "plan application left holes in the negotiated run";
}

}  // namespace pm2::iso
