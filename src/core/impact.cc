#include "core/impact.h"

#include <algorithm>

#include "common/check.h"
#include "core/partition.h"
#include "geom/convex_hull.h"
#include "topk/rskyband.h"
#include "topk/topk.h"

namespace toprr {

ImpactRegionsResult ComputeImpactRegions(const Dataset& data, int option_id,
                                         int k, const PrefBox& region,
                                         double time_budget_seconds) {
  CHECK_GE(option_id, 0);
  CHECK_LT(static_cast<size_t>(option_id), data.size());
  const std::vector<int> candidates = RSkyband(data, region, k);

  PartitionConfig config;
  config.use_lemma5 = true;
  config.use_lemma7 = false;  // need true kIPRs: membership must be exact
  config.use_kswitch = true;
  config.collect_flat_cells = true;
  config.deadline = DeadlineAfter(time_budget_seconds);

  const PartitionOutput out = PartitionPreferenceRegion(
      data, candidates, k, FlatRegion::FromBox(region), config);

  ImpactRegionsResult result;
  result.timed_out = out.timed_out;
  size_t favorable = 0;
  double favorable_volume = 0.0;
  double total_volume = 0.0;
  for (const FlatCell& cell : out.flat_cells) {
    const FlatRegion& polytope = cell.region;
    // Cell volumes for the impact probability (1-D cells are intervals;
    // higher dimensions triangulate the vertex hull).
    const size_t num_vertices = polytope.num_vertices();
    double cell_volume = 0.0;
    if (polytope.dim() == 1) {
      double lo = 1.0;
      double hi = 0.0;
      for (size_t v = 0; v < num_vertices; ++v) {
        lo = std::min(lo, polytope.vertex(v)[0]);
        hi = std::max(hi, polytope.vertex(v)[0]);
      }
      cell_volume = std::max(0.0, hi - lo);
    } else {
      std::vector<Vec> vertices;
      vertices.reserve(num_vertices);
      for (size_t v = 0; v < num_vertices; ++v) {
        vertices.push_back(polytope.VertexVec(v));
      }
      cell_volume = ConvexHullVolume(vertices);
    }
    total_volume += cell_volume;
    // The cell's top-k set, read at its centroid: ties are confined to
    // cell boundaries, so the interior point reports the cell's true set.
    // The options Lemma 5 pruned on the cell's branch are the top-lambda
    // everywhere in the cell, so this full-pool top-k contains them.
    const std::vector<int> topk =
        ComputeTopKReduced(data, candidates, polytope.Centroid(), k)
            .IdSet();
    if (std::binary_search(topk.begin(), topk.end(), option_id)) {
      ++favorable;
      favorable_volume += cell_volume;
      result.favorable.push_back(polytope);
    }
  }
  if (!out.flat_cells.empty()) {
    result.cell_fraction =
        static_cast<double>(favorable) / out.flat_cells.size();
  }
  if (total_volume > 0.0) {
    result.volume_fraction = favorable_volume / total_volume;
  }
  return result;
}

}  // namespace toprr
