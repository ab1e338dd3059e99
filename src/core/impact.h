// Impact regions of an existing option: the sub-regions of a preference
// region where the option ranks among the top-k. This is the
// monochromatic reverse top-k of Vlachou et al. [44] restricted to wR, as
// solved in the continuous preference space by Tang et al. [41] -- the
// machinery the paper builds on (Sec. 2.2), exposed here as a library
// feature on top of the same kIPR partitioner.
#ifndef TOPRR_CORE_IMPACT_H_
#define TOPRR_CORE_IMPACT_H_

#include <vector>

#include "data/dataset.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"

namespace toprr {

struct ImpactRegionsResult {
  /// Convex cells of wR where `option_id` is in the top-k (a partition of
  /// the favorable part of wR into kIPRs; cells are not merged).
  std::vector<FlatRegion> favorable;
  /// Fraction of tested kIPR cells that are favorable (a cheap volume-free
  /// impact indicator; favorable cell count / total cell count).
  double cell_fraction = 0.0;
  /// Volume of the favorable cells divided by the volume of wR -- the
  /// probability that a uniformly drawn clientele member ranks the option
  /// top-k (cf. the volume-as-sensitivity measure of Zhang et al. [54]).
  double volume_fraction = 0.0;
  bool timed_out = false;
};

/// Computes where in wR the existing option `option_id` ranks top-k.
/// `time_budget_seconds <= 0` means unlimited.
ImpactRegionsResult ComputeImpactRegions(const Dataset& data, int option_id,
                                         int k, const PrefBox& region,
                                         double time_budget_seconds = 0.0);

}  // namespace toprr

#endif  // TOPRR_CORE_IMPACT_H_
