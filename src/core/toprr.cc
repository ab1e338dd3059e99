#include "core/toprr.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/partition.h"
#include "core/result_region.h"
#include "geom/halfspace_intersection.h"
#include "pref/region.h"
#include "topk/rskyband.h"

namespace toprr {

const char* ToprrMethodName(ToprrMethod method) {
  switch (method) {
    case ToprrMethod::kPac:
      return "PAC";
    case ToprrMethod::kTas:
      return "TAS";
    case ToprrMethod::kTasStar:
      return "TAS*";
  }
  return "?";
}

std::string ToprrStats::DebugString() const {
  std::ostringstream out;
  out << "|D'|=" << candidates_after_filter
      << " tested=" << regions_tested << " accepted=" << regions_accepted
      << " (kIPR=" << kipr_accepts << ", L7=" << lemma7_accepts
      << ") splits=" << regions_split << " L5=" << lemma5_prunes
      << " |Vall|=" << vall_unique << " (raw " << vall_raw << ")"
      << " t=" << total_seconds << "s (filter " << filter_seconds
      << ", partition " << partition_seconds << ", assemble "
      << assemble_seconds << ")";
  return out.str();
}

bool ToprrResult::Contains(const Vec& o, double tol) const {
  for (const Halfspace& h : impact_halfspaces) {
    if (!h.Contains(o, tol)) return false;
  }
  for (const Halfspace& h : box_halfspaces) {
    if (!h.Contains(o, tol)) return false;
  }
  return true;
}

std::vector<Halfspace> ToprrResult::AllHalfspaces() const {
  std::vector<Halfspace> all = impact_halfspaces;
  all.insert(all.end(), box_halfspaces.begin(), box_halfspaces.end());
  return all;
}

PartitionConfig PartitionConfigFromOptions(const ToprrOptions& options) {
  PartitionConfig config;
  config.eps = options.eps;
  config.deadline =
      std::min(options.deadline, DeadlineAfter(options.time_budget_seconds));
  config.cancel = options.cancel;
  config.max_regions = options.max_regions;
  config.num_threads = options.num_threads;
  config.collect_scheduler_stats = options.collect_scheduler_stats;
  switch (options.method) {
    case ToprrMethod::kPac:
      config.ordered_invariance = true;
      break;
    case ToprrMethod::kTas:
      break;  // plain kIPR test, plain splits
    case ToprrMethod::kTasStar:
      config.use_lemma5 = options.use_lemma5;
      config.use_lemma7 = options.use_lemma7;
      config.use_kswitch = options.use_kswitch;
      break;
  }
  return config;
}

namespace {

// Shared filter + partition + assembly pipeline. `filter_seconds` covers
// the caller's candidate computation when candidates were precomputed.
// A non-null `flat_cells` receives the accepted cells (id order) for the
// region cache.
ToprrResult SolveImpl(const DatasetView& data, int k, const FlatRegion& region,
                      std::vector<int> candidates, double filter_seconds,
                      const ToprrOptions& options,
                      std::vector<FlatCell>* flat_cells = nullptr) {
  ToprrResult result;
  Timer total;

  result.stats.candidates_after_filter = candidates.size();
  result.stats.filter_seconds = filter_seconds;

  // ---- Partitioning into accepted regions, accumulating Vall. ----
  Timer phase;
  PartitionConfig config = PartitionConfigFromOptions(options);
  config.collect_flat_cells = flat_cells != nullptr;
  PartitionOutput partition =
      PartitionPreferenceRegion(data, candidates, k, region, config);
  result.stats.partition_seconds = phase.Seconds();
  result.stats.regions_tested = partition.regions_tested;
  result.stats.regions_accepted = partition.regions_accepted;
  result.stats.regions_split = partition.regions_split;
  result.stats.kipr_accepts = partition.kipr_accepts;
  result.stats.lemma7_accepts = partition.lemma7_accepts;
  result.stats.lemma5_prunes = partition.lemma5_prunes;
  result.stats.vall_raw = partition.vall.size();
  result.stats.scheduler = partition.scheduler;
  if (partition.timed_out) {
    result.timed_out = true;
    result.cancelled = partition.cancelled;
    result.stats.total_seconds = total.Seconds();
    return result;
  }
  if (flat_cells != nullptr) *flat_cells = std::move(partition.flat_cells);

  // ---- Assembly (Theorem 1). ----
  phase.Reset();
  result.vall = DedupVertices(partition.vall);
  result.stats.vall_unique = result.vall.size();
  AssembleResultRegion(data, candidates, k, result.vall, options, &result);
  result.stats.assemble_seconds = phase.Seconds();
  result.stats.total_seconds = total.Seconds() + filter_seconds;
  LOG(INFO) << ToprrMethodName(options.method) << ": "
            << result.stats.DebugString();
  return result;
}

void CheckInputs(const DatasetView& data, int k, size_t region_dim) {
  CHECK(!data.empty());
  CHECK_GT(k, 0);
  CHECK_LE(static_cast<size_t>(k), data.size());
  CHECK_EQ(region_dim + 1, data.dim())
      << "preference region must have dimension d-1";
}

std::vector<int> AllOptionIds(const DatasetView& data) {
  std::vector<int> ids(data.size());
  for (size_t i = 0; i < data.size(); ++i) ids[i] = static_cast<int>(i);
  return ids;
}

}  // namespace

ToprrResult SolveToprr(const DatasetView& data, int k, const PrefBox& region,
                       const ToprrOptions& options) {
  CheckInputs(data, k, region.dim());
  Timer filter_timer;
  std::vector<int> candidates = options.use_rskyband_filter
                                    ? RSkyband(data, region, k)
                                    : AllOptionIds(data);
  const double filter_seconds = filter_timer.Seconds();
  return SolveImpl(data, k, FlatRegion::FromBox(region),
                   std::move(candidates), filter_seconds, options);
}

ToprrResult SolveToprrRegion(const DatasetView& data, int k,
                             const PrefRegion& region,
                             const ToprrOptions& options) {
  CheckInputs(data, k, region.dim());
  const FlatRegion root = FlatRegion::FromRegion(region);
  Timer filter_timer;
  std::vector<int> candidates = options.use_rskyband_filter
                                    ? RSkybandVertices(data, root, k)
                                    : AllOptionIds(data);
  const double filter_seconds = filter_timer.Seconds();
  return SolveImpl(data, k, root, std::move(candidates), filter_seconds,
                   options);
}

ToprrResult SolveToprrWithCandidates(const DatasetView& data, int k,
                                     const FlatRegion& region,
                                     const std::vector<int>& candidates,
                                     const ToprrOptions& options,
                                     std::vector<FlatCell>* flat_cells) {
  CheckInputs(data, k, region.dim());
  return SolveImpl(data, k, region, candidates, 0.0, options, flat_cells);
}

ToprrResult SolveToprrPieces(const DatasetView& data, int k,
                             const std::vector<PrefRegion>& pieces,
                             const ToprrOptions& options) {
  CHECK(!pieces.empty());
  ToprrResult merged;
  Timer total;
  ToprrOptions piece_options = options;
  piece_options.build_geometry = false;  // geometry rebuilt once, below
  std::map<std::vector<int64_t>, bool> seen;
  const auto quantize = [](const Halfspace& h) {
    std::vector<int64_t> key(h.dim() + 1);
    for (size_t j = 0; j < h.dim(); ++j) {
      key[j] = static_cast<int64_t>(std::llround(h.normal[j] * 1e10));
    }
    key[h.dim()] = static_cast<int64_t>(std::llround(h.offset * 1e10));
    return key;
  };
  for (const PrefRegion& piece : pieces) {
    ToprrResult part = SolveToprrRegion(data, k, piece, piece_options);
    if (part.timed_out) {
      merged.timed_out = true;
      return merged;
    }
    merged.stats.candidates_after_filter =
        std::max(merged.stats.candidates_after_filter,
                 part.stats.candidates_after_filter);
    merged.stats.regions_tested += part.stats.regions_tested;
    merged.stats.regions_accepted += part.stats.regions_accepted;
    merged.stats.regions_split += part.stats.regions_split;
    merged.stats.vall_raw += part.stats.vall_raw;
    merged.degenerate = merged.degenerate || part.degenerate;
    for (Vec& v : part.vall) merged.vall.push_back(std::move(v));
    for (Halfspace& h : part.impact_halfspaces) {
      if (seen.emplace(quantize(h), true).second) {
        merged.impact_halfspaces.push_back(std::move(h));
      }
    }
    if (merged.box_halfspaces.empty()) {
      merged.box_halfspaces = std::move(part.box_halfspaces);
    }
  }
  merged.stats.vall_unique = merged.vall.size();
  // Rebuild the geometry over the merged constraint set.
  if (options.build_geometry && !merged.degenerate) {
    const size_t d = data.dim();
    if (d > options.geometry_dim_limit ||
        merged.impact_halfspaces.size() > options.geometry_halfspace_limit) {
      merged.geometry_skipped = true;
    } else {
      double min_margin = 1.0;
      for (const Halfspace& h : merged.impact_halfspaces) {
        min_margin = std::min(min_margin, 1.0 + h.offset);  // 1 - kth
      }
      if (min_margin <= 1e-9) {
        merged.degenerate = true;
      } else {
        const double delta = std::min(0.5 * min_margin, 0.25);
        std::vector<Halfspace> all = merged.AllHalfspaces();
        auto geometry =
            IntersectHalfspaces(all, Vec(d, 1.0 - delta));
        if (geometry.has_value()) {
          merged.vertices = std::move(geometry->vertices);
          for (size_t idx : geometry->active_halfspaces) {
            if (idx < merged.impact_halfspaces.size()) {
              merged.supporting_halfspaces.push_back(idx);
            }
          }
        } else {
          merged.degenerate = true;
        }
      }
    }
  }
  merged.stats.total_seconds = total.Seconds();
  return merged;
}

}  // namespace toprr
