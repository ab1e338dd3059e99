#include "core/utk_filter.h"

#include "core/partition.h"
#include "pref/flat_region.h"
#include "topk/rskyband.h"

namespace toprr {

std::vector<int> ExactTopkUnion(const Dataset& data, const PrefBox& region,
                                int k, double time_budget_seconds) {
  const std::vector<int> candidates = RSkyband(data, region, k);
  PartitionConfig config;
  config.use_lemma5 = true;    // safe: pruned options are recorded
  config.use_lemma7 = false;   // must reach true kIPRs for exactness
  config.use_kswitch = true;   // fewer splits, still exact
  config.collect_topk_union = true;
  config.time_budget_seconds = time_budget_seconds;
  const PartitionOutput out = PartitionPreferenceRegion(
      data, candidates, k, FlatRegion::FromBox(region), config);
  return out.topk_union;
}

}  // namespace toprr
