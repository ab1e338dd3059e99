// PartitionScheduler: explicit work-queue execution of the test-and-split
// partitioning (paper Sec. 4-5).
//
// The recursion of TAS/TAS*/PAC is a region tree: every node is either
// accepted (its vertices join Vall) or split into two children. Testing a
// node is a pure function of (dataset, config, node) -- see
// TestAndSplitRegion -- so the tree itself is deterministic and the nodes
// can be processed in any order by any number of workers. The scheduler
// exploits exactly that:
//
//  * tasks carry a heap-path id (root 1, split children 2*id and 2*id+1)
//    which seeds the pseudo-random split-pair rotation, replacing the seed
//    implementation's queue-position salt so that the tree does not depend
//    on execution order;
//  * accepted nodes are buffered per worker and merged in ascending
//    task-id order at the end, so processing order never shows in the
//    output; both executors process LIFO (depth-first), keeping the
//    pending frontier -- and the parent_scores caches it pins -- bounded
//    by the tree depth rather than its width;
//  * the multi-threaded executor is a work-stealing one: every worker
//    owns a Chase-Lev-style deque (common/thread_pool.h), pushes split
//    children bottom/LIFO for cache locality, and steals top/FIFO from
//    peers in a seeded pseudo-random victim order when its own deque is
//    empty. Termination is a shared in-flight task counter; the time /
//    region budget is charged per claimed task through an atomic ticket,
//    mirroring the sequential executor's per-pop charge. Tallies,
//    accepted buffers, and the SchedulerStats telemetry stay worker-local
//    and fold into the output at merge time, so the hot path shares only
//    the deques and two counters.
//
// Consequently the sequential executor and the multi-threaded executor
// produce bit-identical PartitionOutputs (and hence ToprrResults) on every
// run that completes within budget: determinism flows from the heap-path
// task ids and the id-ordered merge, not from execution order, so it
// survives arbitrary steal interleavings.
//
// This header is internal to toprr_core; public entry points are
// SolveToprr / ToprrEngine.
#ifndef TOPRR_CORE_SCHEDULER_H_
#define TOPRR_CORE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/partition.h"
#include "data/dataset.h"
#include "geom/vec.h"
#include "pref/flat_region.h"
#include "topk/score_kernel.h"

namespace toprr {

/// One pending unit of work: a sub-region with its (possibly Lemma-5
/// reduced) candidate pool and k value, the options pruned so far on this
/// branch, and the deterministic tree id. The geometry travels as a
/// FlatRegion (pref/flat_region.h): splits move the children's contiguous
/// buffers into their tasks instead of copying per-vertex Vecs, and the
/// scoring kernel sweeps the task's vertex buffer in place.
struct RegionTask {
  uint64_t id = 1;  // heap path: root 1, split children 2*id and 2*id+1
  FlatRegion region;
  std::vector<int> candidates;
  int k = 0;
  std::vector<int> pruned;
  /// Parent-to-child score memoization (topk/score_kernel.h): the split
  /// parent's vertex-score rows over exactly this task's candidate pool,
  /// shared read-only by both children. Null at the root; purely a
  /// performance carrier, never observable in the output.
  std::shared_ptr<const VertexScoreCache> parent_scores;
};

/// The outcome of testing one region: either an acceptance payload or the
/// two child tasks of a split (plus the counters the node contributed).
struct RegionOutcome {
  bool accepted = false;
  bool kipr_accept = false;
  bool lemma7_accept = false;
  bool lemma5_pruned = false;

  // Acceptance payload (merged into PartitionOutput in task-id order).
  std::vector<Vec> vall;                // the accepted region's vertices
  std::vector<int> topk_ids;            // when config.collect_topk_union
  std::optional<FlatRegion> flat_cell;  // when config.collect_flat_cells

  // Split payload.
  std::optional<RegionTask> below;
  std::optional<RegionTask> above;
};

/// Tests one region: Lemma-5 pruning, the method's acceptance test, and --
/// on rejection -- selection of a cutting hyperplane and construction of
/// the two children. Pure in its output: the result depends only on
/// (data, config, task), making it safe to call concurrently for
/// distinct tasks with distinct arenas. `arena` is the calling worker's
/// scratch state for the scoring kernel and `geom_arena` its flat-split
/// scratch (counters accumulate in both). Implemented in partition.cc
/// next to the algorithmic helpers it uses.
RegionOutcome TestAndSplitRegion(const DatasetView& data,
                                 const PartitionConfig& config,
                                 RegionTask task, ScoreArena& arena,
                                 GeomArena& geom_arena);

/// Drives TestAndSplitRegion over the region tree rooted at a task.
/// config.num_threads selects the executor: 1 runs the sequential
/// executor in the calling thread; any other value runs the
/// work-stealing executor with one deque-owning worker slot per thread
/// -- the calling thread takes slot 0, and up to num_threads-1 helpers
/// borrowed from SharedThreadPool() (0 = one per hardware thread) claim
/// the rest. Helpers that cannot be scheduled (e.g. the pool is
/// saturated by batch queries) cost nothing: the calling thread always
/// completes the tree alone (unclaimed slots simply never hold tasks),
/// so nesting region-level parallelism under query-level parallelism
/// cannot deadlock.
class PartitionScheduler {
 public:
  PartitionScheduler(const DatasetView& data, const PartitionConfig& config)
      : data_(data), config_(config) {}

  PartitionScheduler(const PartitionScheduler&) = delete;
  PartitionScheduler& operator=(const PartitionScheduler&) = delete;

  /// Processes the whole tree under `root` and assembles the output.
  PartitionOutput Run(RegionTask root) const;

 private:
  PartitionOutput RunSequential(RegionTask root) const;
  PartitionOutput RunParallel(RegionTask root, size_t num_workers) const;

  // By value: views are trivially copyable, and holding a copy lets the
  // engine hand in a snapshot view without keeping a view object alive.
  const DatasetView data_;
  const PartitionConfig config_;
};

}  // namespace toprr

#endif  // TOPRR_CORE_SCHEDULER_H_
