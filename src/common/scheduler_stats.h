// Telemetry of the work-stealing partition executor, kept in its own
// small header so the public solver surface (core/partition.h,
// core/toprr.h) can carry the stats without pulling in the thread pool
// and deque internals from common/thread_pool.h.
#ifndef TOPRR_COMMON_SCHEDULER_STATS_H_
#define TOPRR_COMMON_SCHEDULER_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace toprr {

/// Telemetry of one worker of the stealing executor.
struct SchedulerWorkerStats {
  uint64_t tasks_executed = 0;   // tasks this worker tested
  uint64_t tasks_stolen = 0;     // of those, taken from a victim's deque
  uint64_t steal_failures = 0;   // failed Steal() attempts
  uint64_t deque_high_water = 0; // own-deque depth high-water mark

  // Scoring-kernel telemetry (topk/score_kernel.h), copied from the
  // worker's ScoreArena at merge time. The totals across workers are
  // deterministic (pure functions of the region tree), so the
  // bit-identical sequential == parallel guarantee covers them; the
  // per-worker breakdown, like the fields above, depends on timing.
  uint64_t candidates_scored = 0;   // candidate dot products evaluated
  uint64_t block_gather_bytes = 0;  // bytes gathered into SoA blocks
  uint64_t reuse_hits = 0;          // vertex rows reused from parent caches
  uint64_t arena_allocations = 0;   // arena growth events (0 once warm)

  // Flat-geometry telemetry (pref/flat_region.h), copied from the
  // worker's GeomArena at merge time with the same determinism contract:
  // totals are pure functions of the region tree, the per-worker
  // breakdown is timing-dependent.
  uint64_t split_vertices_classified = 0;  // vertices swept by flat splits
  uint64_t geom_arena_allocations = 0;     // geometry scratch growth events
};

/// Aggregate telemetry of one partition-scheduler run, surfaced through
/// PartitionOutput and ToprrResult::stats and printed by
/// `toprr_cli --stats`. Collected from per-worker locals at merge time;
/// the hot path never touches shared counters for it.
struct SchedulerStats {
  std::vector<SchedulerWorkerStats> workers;  // one entry per worker slot
  double wall_seconds = 0.0;  // partition-phase wall time

  // Cross-query region-cache telemetry (core/region_cache.h), stamped by
  // the engine per solve: the lookup class this query fell into (0/1
  // flags), the partition tasks it did not have to run because cached
  // cells were reused, and the bytes the accompanying insert evicted.
  // All zero when the cache is disabled or bypassed.
  uint64_t cache_hits = 0;          // solved by clipping a cached superset
  uint64_t cache_partial_hits = 0;  // always 0; kept for the wire class
  uint64_t cache_misses = 0;        // no containing entry: solved cold
  uint64_t cache_deferred = 0;      // of misses: a first sighting, solved
                                    // on the exact box and not inserted
  uint64_t cache_tasks_saved = 0;   // partition tasks avoided via reuse
  uint64_t cache_evicted_bytes = 0; // LRU bytes evicted by this insert

  uint64_t TotalExecuted() const;
  uint64_t TotalStolen() const;
  uint64_t TotalStealFailures() const;
  uint64_t MaxDequeHighWater() const;
  uint64_t TotalCandidatesScored() const;
  uint64_t TotalGatherBytes() const;
  uint64_t TotalReuseHits() const;
  uint64_t TotalArenaAllocations() const;
  uint64_t TotalSplitVerticesClassified() const;
  uint64_t TotalGeomArenaAllocations() const;

  std::string DebugString() const;
};

}  // namespace toprr

#endif  // TOPRR_COMMON_SCHEDULER_STATS_H_
