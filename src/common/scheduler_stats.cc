#include "common/scheduler_stats.h"

#include <algorithm>
#include <sstream>

namespace toprr {

uint64_t SchedulerStats::TotalExecuted() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.tasks_executed;
  return total;
}

uint64_t SchedulerStats::TotalStolen() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.tasks_stolen;
  return total;
}

uint64_t SchedulerStats::TotalStealFailures() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.steal_failures;
  return total;
}

uint64_t SchedulerStats::MaxDequeHighWater() const {
  uint64_t high = 0;
  for (const SchedulerWorkerStats& w : workers) {
    high = std::max(high, w.deque_high_water);
  }
  return high;
}

uint64_t SchedulerStats::TotalCandidatesScored() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.candidates_scored;
  return total;
}

uint64_t SchedulerStats::TotalGatherBytes() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.block_gather_bytes;
  return total;
}

uint64_t SchedulerStats::TotalReuseHits() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.reuse_hits;
  return total;
}

uint64_t SchedulerStats::TotalArenaAllocations() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) total += w.arena_allocations;
  return total;
}

uint64_t SchedulerStats::TotalSplitVerticesClassified() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) {
    total += w.split_vertices_classified;
  }
  return total;
}

uint64_t SchedulerStats::TotalGeomArenaAllocations() const {
  uint64_t total = 0;
  for (const SchedulerWorkerStats& w : workers) {
    total += w.geom_arena_allocations;
  }
  return total;
}

std::string SchedulerStats::DebugString() const {
  std::ostringstream out;
  out << "workers=" << workers.size() << " executed=" << TotalExecuted()
      << " stolen=" << TotalStolen()
      << " steal_failures=" << TotalStealFailures()
      << " deque_high_water=" << MaxDequeHighWater()
      << " cands_scored=" << TotalCandidatesScored()
      << " gather_bytes=" << TotalGatherBytes()
      << " reuse_hits=" << TotalReuseHits()
      << " arena_allocs=" << TotalArenaAllocations()
      << " split_verts=" << TotalSplitVerticesClassified()
      << " geom_allocs=" << TotalGeomArenaAllocations() << " wall="
      << wall_seconds << "s";
  if (cache_hits + cache_partial_hits + cache_misses > 0) {
    const char* kind = cache_hits > 0
                           ? "hit"
                           : (cache_partial_hits > 0 ? "partial" : "miss");
    out << " cache=" << kind << " cache_deferred=" << cache_deferred
        << " cache_tasks_saved=" << cache_tasks_saved
        << " cache_evicted_bytes=" << cache_evicted_bytes;
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    const SchedulerWorkerStats& w = workers[i];
    out << "\n  worker " << i << ": executed=" << w.tasks_executed
        << " stolen=" << w.tasks_stolen
        << " steal_failures=" << w.steal_failures
        << " deque_high_water=" << w.deque_high_water
        << " cands_scored=" << w.candidates_scored
        << " reuse_hits=" << w.reuse_hits;
  }
  return out.str();
}

}  // namespace toprr
