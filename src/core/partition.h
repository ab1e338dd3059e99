// Internal engine: recursive partitioning of a preference region until
// every sub-region passes its acceptance test, accumulating the union of
// defining vertices (the paper's set Vall, Theorem 1).
//
// One engine drives all three methods:
//  * TAS      -- kIPR acceptance (Lemma 3), violating-pair splits (Sec 4.2);
//  * TAS*     -- adds Lemma 5 pruning, Lemma 7 testing, k-switch splits;
//  * PAC/UTK  -- ordered-invariance acceptance (every vertex has the same
//                score-ordered top-k list), rank-conflict splits, faithful
//                to the UTK building block of [30] (see DESIGN.md).
//
// This header is internal to toprr_core; the public entry point is
// SolveToprr in core/toprr.h.
#ifndef TOPRR_CORE_PARTITION_H_
#define TOPRR_CORE_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/scheduler_stats.h"
#include "data/dataset.h"
#include "geom/vec.h"
#include "pref/flat_region.h"
#include "pref/region.h"

namespace toprr {

struct ToprrOptions;

struct PartitionConfig {
  /// PAC mode: accept only when the full score-ordered top-k lists agree.
  bool ordered_invariance = false;
  bool use_lemma5 = false;
  bool use_lemma7 = false;
  bool use_kswitch = false;
  double eps = 1e-10;
  double time_budget_seconds = 0.0;  // <= 0: unlimited
  size_t max_regions = 0;            // 0: default (16M)
  /// Cooperative cancellation flag, polled per claimed region by both
  /// executors (same cadence as the time budget). Null = never cancel.
  const std::atomic<bool>* cancel = nullptr;
  /// Worker threads for the partition scheduler: 1 = sequential executor,
  /// 0 = one worker per hardware thread, n > 1 = n workers. Both
  /// executors produce bit-identical output (see core/scheduler.h).
  int num_threads = 1;
  /// Also accumulate the union of top-k option ids over all accepted
  /// regions (the exact UTK option filter, Sec. 6.3 choice (iv)).
  bool collect_topk_union = false;
  /// Fill PartitionOutput::scheduler with per-worker executor telemetry
  /// (tasks executed/stolen, steal failures, deque high-water). The
  /// counters are kept worker-local either way; this only controls
  /// whether they are copied out, so leaving it on costs nothing.
  bool collect_scheduler_stats = true;
  /// Also keep every accepted cell's geometry with its heap-path id
  /// (ascending id order, same order their vertices enter `vall`). Feeds
  /// the cross-query region cache (core/region_cache.h), which replays
  /// the cells by clipping instead of re-partitioning, and the impact
  /// regions (core/impact.h).
  bool collect_flat_cells = false;
};

/// One accepted cell of the partition, addressable by its deterministic
/// heap-path task id (root 1, split children 2*id and 2*id+1). The id
/// makes cached subtrees mergeable: cells from different solves of the
/// same tree share ids, and id order reproduces the merge order of the
/// scheduler's id-ordered assembly.
struct FlatCell {
  uint64_t id = 0;
  FlatRegion region;
};

struct PartitionOutput {
  std::vector<Vec> vall;        // accumulated defining vertices (raw)
  std::vector<int> topk_union;  // sorted ids (when collect_topk_union)
  /// Executor telemetry (when collect_scheduler_stats). Unlike every
  /// other field, its per-worker breakdown depends on thread timing and
  /// is NOT covered by the bit-identical-output guarantee; the total
  /// tasks-executed count is (it equals regions_tested).
  SchedulerStats scheduler;
  std::vector<FlatCell> flat_cells;  // when collect_flat_cells; id order
  bool timed_out = false;
  bool cancelled = false;  // aborted via PartitionConfig::cancel

  size_t regions_tested = 0;
  size_t regions_accepted = 0;
  size_t regions_split = 0;
  size_t kipr_accepts = 0;
  size_t lemma7_accepts = 0;
  size_t lemma5_prunes = 0;
};

/// Partitions `root` over the candidate option ids (a guaranteed superset
/// of every top-k in the region, e.g. the r-skyband) for parameter k.
PartitionOutput PartitionPreferenceRegion(const DatasetView& data,
                                          const std::vector<int>& candidates,
                                          int k, const FlatRegion& root,
                                          const PartitionConfig& config);

/// The same, for a root in query form (converted once with FromRegion).
PartitionOutput PartitionPreferenceRegion(const DatasetView& data,
                                          const std::vector<int>& candidates,
                                          int k, const PrefRegion& root,
                                          const PartitionConfig& config);

/// The PartitionConfig implied by a ToprrOptions (method -> acceptance
/// test and lemma toggles, plus the shared knobs). Single source of truth
/// for both SolveToprr and the region cache, whose signature must agree
/// with the partition semantics. Implemented in toprr.cc where both
/// definitions are visible.
PartitionConfig PartitionConfigFromOptions(const ToprrOptions& options);

}  // namespace toprr

#endif  // TOPRR_CORE_PARTITION_H_
