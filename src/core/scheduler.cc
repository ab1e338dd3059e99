#include "core/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace toprr {
namespace {

constexpr size_t kDefaultMaxRegions = size_t{16} << 20;

// An accepted node awaiting the deterministic id-ordered merge.
struct AcceptedNode {
  uint64_t id = 0;
  RegionOutcome outcome;
};

// Scheduler-side tallies (everything in PartitionOutput except the
// accepted payloads, which are merged separately).
struct Tally {
  size_t regions_tested = 0;
  size_t regions_accepted = 0;
  size_t regions_split = 0;
  size_t kipr_accepts = 0;
  size_t lemma7_accepts = 0;
  size_t lemma5_prunes = 0;
  bool timed_out = false;
  bool cancelled = false;
};

void TallyOutcome(const RegionOutcome& outcome, Tally& tally) {
  if (outcome.lemma5_pruned) ++tally.lemma5_prunes;
  if (outcome.accepted) {
    ++tally.regions_accepted;
    if (outcome.kipr_accept) ++tally.kipr_accepts;
    if (outcome.lemma7_accept) ++tally.lemma7_accepts;
  } else {
    ++tally.regions_split;
  }
}

// Builds the PartitionOutput from the tally and the accepted nodes. The
// nodes are sorted by tree id, so the output is identical no matter which
// worker accepted which node in which order -- both executors process
// the tree depth-first (LIFO), so acceptance order is not id order.
PartitionOutput AssembleOutput(const PartitionConfig& config, Tally tally,
                               std::vector<AcceptedNode> accepted) {
  std::sort(accepted.begin(), accepted.end(),
            [](const AcceptedNode& a, const AcceptedNode& b) {
              return a.id < b.id;
            });
  PartitionOutput out;
  out.regions_tested = tally.regions_tested;
  out.regions_accepted = tally.regions_accepted;
  out.regions_split = tally.regions_split;
  out.kipr_accepts = tally.kipr_accepts;
  out.lemma7_accepts = tally.lemma7_accepts;
  out.lemma5_prunes = tally.lemma5_prunes;
  out.timed_out = tally.timed_out;
  out.cancelled = tally.cancelled;
  std::set<int> topk_union;
  for (AcceptedNode& node : accepted) {
    for (Vec& v : node.outcome.vall) out.vall.push_back(std::move(v));
    if (config.collect_topk_union) {
      topk_union.insert(node.outcome.topk_ids.begin(),
                        node.outcome.topk_ids.end());
    }
    if (config.collect_flat_cells && node.outcome.flat_cell.has_value()) {
      out.flat_cells.push_back(
          FlatCell{node.id, std::move(*node.outcome.flat_cell)});
    }
  }
  out.topk_union.assign(topk_union.begin(), topk_union.end());
  return out;
}

// Fixed base for the victim-order seeding. Any constant works -- the
// output is order-independent by construction -- but a fixed one makes
// executor behavior (and the telemetry) reproducible run-to-run.
constexpr uint64_t kVictimSeed = 0x746f707272ULL;  // "toprr"

// One worker slot of the stealing executor. Everything here is owned by
// a single worker for the duration of the run: tasks, counters, and
// accepted nodes stay worker-local (the satellite fix for the old
// executor's per-task re-locking) and are folded into the output once,
// at merge time, after the final handshake. The deque is the only
// cross-thread surface, and only through its atomic Steal path.
struct WorkerSlot {
  WorkStealingDeque<RegionTask> deque;
  std::vector<size_t> victims;  // seeded steal order over peer slots
  Tally tally;
  std::vector<AcceptedNode> accepted;
  SchedulerWorkerStats stats;
  // Scoring-kernel scratch (SoA block, score matrix, selection buffers),
  // reused across every region this worker tests; its counters fold into
  // `stats` at merge time.
  ScoreArena arena;
  // Flat-geometry split scratch (pref/flat_region.h), reused the same
  // way: classification rows, incidence bitsets, packed dedup keys.
  GeomArena geom_arena;
};

// Copies a worker's arena counters (scoring kernel + flat geometry) into
// its telemetry slot.
void FoldArenaCounters(const ScoreArena& arena, const GeomArena& geom_arena,
                       SchedulerWorkerStats& stats) {
  const ScoreKernelCounters& counters = arena.counters();
  stats.candidates_scored = counters.candidates_scored;
  stats.block_gather_bytes = counters.block_gather_bytes;
  stats.reuse_hits = counters.reuse_hits;
  stats.arena_allocations = counters.arena_allocations;
  const GeomCounters& geom = geom_arena.counters();
  stats.split_vertices_classified = geom.split_vertices_classified;
  stats.geom_arena_allocations = geom.geom_arena_allocations;
}

// State shared between the calling thread and the pool helpers of the
// stealing executor. Held by shared_ptr so that helper tasks still
// queued on the pool after the solve completes stay memory-safe: they
// lock, observe the done flag, and return without touching the deques
// or the dataset.
struct StealState {
  StealState(const PartitionConfig& config, size_t num_workers)
      : max_regions(config.max_regions > 0 ? config.max_regions
                                           : kDefaultMaxRegions),
        time_budget_seconds(config.time_budget_seconds),
        cancel(config.cancel) {
    slots.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      slots.push_back(std::make_unique<WorkerSlot>());
      slots.back()->victims = StealVictimOrder(w, num_workers, kVictimSeed);
    }
  }

  // Budget-stopped runs abandon tasks in the deques; the last owner of
  // the state (possibly a late pool helper) frees them. Single-threaded
  // by then, so the owner-only Pop is safe from any thread.
  ~StealState() {
    for (std::unique_ptr<WorkerSlot>& slot : slots) {
      while (RegionTask* task = slot->deque.Pop()) delete task;
    }
  }

  std::vector<std::unique_ptr<WorkerSlot>> slots;

  // Lock-free hot-path state.
  std::atomic<int64_t> in_flight{0};  // tasks created but not yet retired
  std::atomic<bool> stop{false};      // budget exhausted; drop the rest
  std::atomic<bool> timed_out{false};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> cap_warned{false};
  std::atomic<size_t> popped{0};  // budget tickets (mirrors the region cap)

  // Cold-path handshake: slot claiming on entry, completion on exit.
  std::mutex mu;
  std::condition_variable cv;
  size_t next_slot = 1;  // slot 0 belongs to the calling thread
  size_t active = 0;     // workers currently inside DrainStealing
  bool done = false;     // merge finished; late helpers must not touch deques

  const size_t max_regions;
  const double time_budget_seconds;
  const std::atomic<bool>* cancel;
  Timer timer;
};

// The per-worker drain loop: pop own deque LIFO; when empty, steal FIFO
// from the victims in this slot's seeded order; when the whole tree is
// in nobody's deque (in_flight == 0) or the budget stopped the run,
// return. Tallies, accepted nodes, and telemetry all stay in the slot.
void DrainStealing(const DatasetView& data, const PartitionConfig& config,
                   StealState& state, size_t slot_index) {
  WorkerSlot& self = *state.slots[slot_index];
  int idle_rounds = 0;
  for (;;) {
    if (state.stop.load(std::memory_order_relaxed)) return;

    RegionTask* task = self.deque.Pop();
    if (task == nullptr) {
      for (size_t victim : self.victims) {
        task = state.slots[victim]->deque.Steal();
        if (task != nullptr) {
          ++self.stats.tasks_stolen;
          break;
        }
        ++self.stats.steal_failures;
      }
    }
    if (task == nullptr) {
      if (state.in_flight.load(std::memory_order_acquire) == 0) return;
      // Work exists but is claimed or hiding behind a racing thief.
      // Yield first (cheap, keeps latency low), then back off to short
      // sleeps so idle workers don't starve the busy ones on small
      // machines.
      if (++idle_rounds < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      continue;
    }
    idle_rounds = 0;

    // Budget and cancellation checks, charged per claimed region exactly
    // like the sequential executor. The popped ticket makes the region
    // cap a hard bound even though no lock is held.
    if (state.cancel != nullptr &&
        state.cancel->load(std::memory_order_relaxed)) {
      state.cancelled.store(true, std::memory_order_relaxed);
      state.timed_out.store(true, std::memory_order_relaxed);
      state.stop.store(true, std::memory_order_relaxed);
      delete task;
      state.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (state.time_budget_seconds > 0.0 &&
        state.timer.Seconds() > state.time_budget_seconds) {
      state.timed_out.store(true, std::memory_order_relaxed);
      state.stop.store(true, std::memory_order_relaxed);
      delete task;
      state.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (state.popped.fetch_add(1, std::memory_order_relaxed) >=
        state.max_regions) {
      if (!state.cap_warned.exchange(true, std::memory_order_relaxed)) {
        LOG(WARNING) << "partitioning hit the region cap ("
                     << state.max_regions << "); aborting";
      }
      state.timed_out.store(true, std::memory_order_relaxed);
      state.stop.store(true, std::memory_order_relaxed);
      delete task;
      state.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }

    const uint64_t id = task->id;
    RegionOutcome outcome = TestAndSplitRegion(
        data, config, std::move(*task), self.arena, self.geom_arena);
    delete task;

    ++self.tally.regions_tested;
    ++self.stats.tasks_executed;
    TallyOutcome(outcome, self.tally);
    if (outcome.accepted) {
      self.accepted.push_back(AcceptedNode{id, std::move(outcome)});
    } else {
      // Children become visible to thieves via the deque's release
      // publication; the in-flight increment precedes it so no worker
      // can observe "empty tree" between push and count.
      state.in_flight.fetch_add(2, std::memory_order_relaxed);
      self.deque.Push(new RegionTask(std::move(*outcome.below)));
      self.deque.Push(new RegionTask(std::move(*outcome.above)));
      const uint64_t depth = self.deque.SizeApprox();
      if (depth > self.stats.deque_high_water) {
        self.stats.deque_high_water = depth;
      }
    }
    state.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

// Pool-helper entry: claim a slot under the lock (late helpers observe
// `done` and leave without touching anything), drain, sign out.
void StealWorkerEntry(const DatasetView& data, const PartitionConfig& config,
                      StealState& state) {
  size_t slot_index;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.done || state.next_slot >= state.slots.size()) return;
    slot_index = state.next_slot++;
    ++state.active;
  }
  DrainStealing(data, config, state, slot_index);
  {
    std::lock_guard<std::mutex> lock(state.mu);
    --state.active;
  }
  state.cv.notify_all();
}

}  // namespace

PartitionOutput PartitionScheduler::Run(RegionTask root) const {
  const size_t workers = ResolveThreadCount(config_.num_threads);
  if (workers <= 1) return RunSequential(std::move(root));
  return RunParallel(std::move(root), workers);
}

PartitionOutput PartitionScheduler::RunSequential(RegionTask root) const {
  const size_t max_regions = config_.max_regions > 0 ? config_.max_regions
                                                     : kDefaultMaxRegions;
  Timer timer;
  Tally tally;
  SchedulerWorkerStats worker_stats;
  ScoreArena arena;
  GeomArena geom_arena;
  std::vector<AcceptedNode> accepted;
  std::deque<RegionTask> queue;
  queue.push_back(std::move(root));
  worker_stats.deque_high_water = queue.size();

  while (!queue.empty()) {
    if (config_.cancel != nullptr &&
        config_.cancel->load(std::memory_order_relaxed)) {
      tally.timed_out = true;
      tally.cancelled = true;
      break;
    }
    if (config_.time_budget_seconds > 0.0 &&
        timer.Seconds() > config_.time_budget_seconds) {
      tally.timed_out = true;
      break;
    }
    if (tally.regions_tested >= max_regions) {
      LOG(WARNING) << "partitioning hit the region cap (" << max_regions
                   << "); aborting";
      tally.timed_out = true;
      break;
    }
    // LIFO (depth-first), matching the stealing executor's own-deque
    // order: the pending frontier stays O(tree depth), which bounds how
    // many parent_scores caches are alive at once -- BFS would keep a
    // V x |pool| score matrix pinned for every pending sibling pair.
    // Output is unaffected: accepted nodes merge in task-id order.
    RegionTask task = std::move(queue.back());
    queue.pop_back();
    ++tally.regions_tested;
    ++worker_stats.tasks_executed;
    const uint64_t id = task.id;

    RegionOutcome outcome = TestAndSplitRegion(data_, config_,
                                               std::move(task), arena,
                                               geom_arena);
    TallyOutcome(outcome, tally);
    if (outcome.accepted) {
      accepted.push_back(AcceptedNode{id, std::move(outcome)});
    } else {
      queue.push_back(std::move(*outcome.below));
      queue.push_back(std::move(*outcome.above));
      if (queue.size() > worker_stats.deque_high_water) {
        worker_stats.deque_high_water = queue.size();
      }
    }
  }
  PartitionOutput out =
      AssembleOutput(config_, std::move(tally), std::move(accepted));
  if (config_.collect_scheduler_stats) {
    FoldArenaCounters(arena, geom_arena, worker_stats);
    out.scheduler.workers.push_back(worker_stats);
  }
  out.scheduler.wall_seconds = timer.Seconds();
  return out;
}

PartitionOutput PartitionScheduler::RunParallel(RegionTask root,
                                                size_t num_workers) const {
  auto state = std::make_shared<StealState>(config_, num_workers);
  state->in_flight.store(1, std::memory_order_relaxed);
  // The root starts in slot 0, the calling thread's; thieves take its
  // split children from there.
  state->slots[0]->deque.Push(new RegionTask(std::move(root)));
  state->slots[0]->stats.deque_high_water = 1;

  // Borrow up to num_workers-1 helpers from the shared pool. The calling
  // thread drains too (slot 0), so helpers the pool cannot schedule (it
  // may be saturated by batch queries) only cost parallelism, never
  // progress.
  ThreadPool& pool = SharedThreadPool();
  const DatasetView data = data_;  // views are values; helpers copy it
  const PartitionConfig config = config_;
  for (size_t i = 1; i < num_workers; ++i) {
    pool.Submit(
        [data, config, state] { StealWorkerEntry(data, config, *state); });
  }
  DrainStealing(data_, config_, *state, 0);

  // Helpers mid-task still hold references into the worker slots (and
  // the dataset); wait for them before merging. Setting `done` under the
  // same lock closes the gate: a helper the pool schedules after this
  // point returns without touching the deques, so the merge below -- and
  // the caller's stack -- are safe.
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] { return state->active == 0; });
    state->done = true;
  }

  // Fold the worker-local tallies and accepted buffers (batched counter
  // deltas: the only per-task shared-state traffic the executor has is
  // the in-flight counter and the budget ticket).
  Tally tally;
  std::vector<AcceptedNode> accepted;
  SchedulerStats scheduler;
  for (std::unique_ptr<WorkerSlot>& slot : state->slots) {
    tally.regions_tested += slot->tally.regions_tested;
    tally.regions_accepted += slot->tally.regions_accepted;
    tally.regions_split += slot->tally.regions_split;
    tally.kipr_accepts += slot->tally.kipr_accepts;
    tally.lemma7_accepts += slot->tally.lemma7_accepts;
    tally.lemma5_prunes += slot->tally.lemma5_prunes;
    std::move(slot->accepted.begin(), slot->accepted.end(),
              std::back_inserter(accepted));
    slot->accepted.clear();
    if (config_.collect_scheduler_stats) {
      FoldArenaCounters(slot->arena, slot->geom_arena, slot->stats);
      scheduler.workers.push_back(slot->stats);
    }
  }
  tally.timed_out = state->timed_out.load(std::memory_order_relaxed);
  tally.cancelled = state->cancelled.load(std::memory_order_relaxed);
  PartitionOutput out =
      AssembleOutput(config_, std::move(tally), std::move(accepted));
  out.scheduler = std::move(scheduler);
  out.scheduler.wall_seconds = state->timer.Seconds();
  return out;
}

}  // namespace toprr
