#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/result_region.h"
#include "geom/hyperplane.h"
#include "topk/rskyband.h"
#include "topk/skyband.h"

namespace toprr {

ToprrEngine::ToprrEngine(SnapshotPtr snapshot)
    : snapshot_(std::move(snapshot)) {
  CHECK(snapshot_ != nullptr);
}

SnapshotPtr ToprrEngine::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return snapshot_;
}

SnapshotPtr ToprrEngine::snapshot() const { return PinSnapshot(); }

uint64_t ToprrEngine::snapshot_id() const { return PinSnapshot()->id(); }

size_t ToprrEngine::dataset_rows() const {
  return PinSnapshot()->live_rows();
}

size_t ToprrEngine::dataset_dim() const { return PinSnapshot()->dim(); }

uint64_t ToprrEngine::snapshot_seq() const { return PinSnapshot()->seq(); }

ToprrEngine::UpdateCounters ToprrEngine::update_counters() const {
  UpdateCounters counters;
  counters.publishes_seen = publishes_seen_.load(std::memory_order_relaxed);
  counters.skyband_incremental =
      skyband_incremental_.load(std::memory_order_relaxed);
  counters.skyband_rebuilds =
      skyband_rebuilds_.load(std::memory_order_relaxed);
  counters.promotion_rows = promotion_rows_.load(std::memory_order_relaxed);
  counters.promotion_counted =
      promotion_counted_.load(std::memory_order_relaxed);
  return counters;
}

void ToprrEngine::BuildSkybandEntry(const SnapshotPtr& snap, int k,
                                    SkybandEntry* entry) {
  // Consume the base staged at entry creation; dropping it here (not at
  // GC time) keeps snapshot chains from accumulating.
  const SkybandEntryPtr base = std::move(entry->prev);
  const bool base_built =
      base != nullptr && base->built.load(std::memory_order_acquire);
  const DatasetView view = snap->View();
  if (base_built && base->version == snap->parent_id()) {
    // Incremental carry-forward along the delta (exact; see the
    // correctness argument in topk/skyband.h), starting from a copy of
    // the parent's state: readers may still hold the parent entry.
    entry->state = base->state;
    KSkybandPromotionStats promotion;
    entry->incremental =
        KSkybandApplyDelta(view, snap->live_ids(), k, snap->delta(),
                           &entry->state, &promotion);
    promotion_rows_.fetch_add(promotion.rows, std::memory_order_relaxed);
    promotion_counted_.fetch_add(promotion.counted,
                                 std::memory_order_relaxed);
  } else {
    // No base, or one from a version other than the parent (the engine
    // skipped a version), whose state the delta does not apply to.
    entry->state = SortBasedKSkybandPool(view, snap->live_ids(), k);
  }
  (entry->incremental ? skyband_incremental_ : skyband_rebuilds_)
      .fetch_add(1, std::memory_order_relaxed);
  entry->epoch = EpochFor(k, entry->state.band);
  entry->built.store(true, std::memory_order_release);
}

uint64_t ToprrEngine::EpochFor(int k, const SumOrderedBand& band) {
  // The solve reads the skyband rows' values, not just their ids: two
  // unrelated roots may share ids.
  std::lock_guard<std::mutex> lock(epochs_mu_);
  for (auto it = recent_skybands_.begin(); it != recent_skybands_.end();
       ++it) {
    if (it->k == k && it->ids == band.ids &&
        it->rows.size() == band.rows.size() &&
        std::memcmp(it->rows.data(), band.rows.data(),
                    band.rows.size() * sizeof(double)) == 0) {
      recent_skybands_.splice(recent_skybands_.begin(), recent_skybands_, it);
      return it->epoch;
    }
  }
  recent_skybands_.push_front(
      RecentSkyband{k, band.ids, band.rows, next_epoch_++});
  if (recent_skybands_.size() > kRecentSkybands) recent_skybands_.pop_back();
  return recent_skybands_.front().epoch;
}

ToprrEngine::SkybandEntryPtr ToprrEngine::GetSkyband(const SnapshotPtr& snap,
                                                     int k) {
  CHECK_GT(k, 0);
  // Bound by *physical* rows, which never shrink across publishes: a
  // server that validated k against live_rows() can then never abort on
  // a delete-publish racing the solve (the answer degrades to the
  // defined k-of-fewer-live-options case instead).
  CHECK_LE(static_cast<size_t>(k), snap->rows())
      << "k exceeds the snapshot's row count";
  SkybandEntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto key = std::make_pair(k, snap->id());
    auto it = skyband_cache_.find(key);
    if (it != skyband_cache_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<SkybandEntry>();
      entry->version = snap->id();
      if (snap->parent_id() != 0) {
        auto parent =
            skyband_cache_.find(std::make_pair(k, snap->parent_id()));
        if (parent != skyband_cache_.end()) entry->prev = parent->second;
      }
      skyband_cache_.emplace(key, entry);
    }
  }
  // The build runs outside cache_mu_: concurrent queries with distinct
  // (k, version) compute their skybands in parallel, and callers of an
  // already-built entry never contend with an in-flight build. call_once
  // makes duplicate first-touchers block only on each other.
  SkybandEntry* raw = entry.get();
  std::call_once(raw->once,
                 [this, &snap, k, raw] { BuildSkybandEntry(snap, k, raw); });
  return entry;
}

const std::vector<int>& ToprrEngine::KSkyband(int k) {
  const SnapshotPtr snap = PinSnapshot();
  const SkybandEntryPtr entry = GetSkyband(snap, k);
  // The map keeps the entry alive until the next SetSnapshot garbage
  // collection, which is exactly the documented lifetime of this
  // reference.
  return entry->state.ids;
}

void ToprrEngine::SetSnapshot(SnapshotPtr snapshot) {
  CHECK(snapshot != nullptr);
  // (k, entry) pairs to build eagerly after the lock is released.
  std::vector<std::pair<int, SkybandEntryPtr>> to_build;
  SnapshotPtr pinned = snapshot;  // keep alive across the unlocked builds
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const uint64_t old_id = snapshot_->id();
    const uint64_t new_id = snapshot->id();
    snapshot_ = std::move(snapshot);
    if (old_id == new_id) return;  // same content: every cache stays valid
    publishes_seen_.fetch_add(1, std::memory_order_relaxed);

    // Stage eager maintenance: one fresh entry per k cached at the old
    // current version, chained to it as its base (see SkybandEntry::prev;
    // the new version is normally the old one's child). Doing this
    // under the lock (building outside it) means a query racing with the
    // publish either finds the staged entry or creates an equivalent one.
    for (const auto& [key, entry] : skyband_cache_) {
      if (key.second != old_id) continue;
      const auto new_key = std::make_pair(key.first, new_id);
      if (skyband_cache_.count(new_key) != 0) continue;
      auto fresh = std::make_shared<SkybandEntry>();
      fresh->version = new_id;
      fresh->prev = entry;
      skyband_cache_.emplace(new_key, fresh);
      to_build.emplace_back(key.first, fresh);
    }
    // Garbage-collect entries of older versions. In-flight solves pinned
    // to an old snapshot are unaffected: they hold their entry by
    // shared_ptr (a late GetSkyband on a collected version simply
    // rebuilds a transient entry).
    for (auto it = skyband_cache_.begin(); it != skyband_cache_.end();) {
      if (it->first.second != new_id) {
        it = skyband_cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [k, entry] : to_build) {
    SkybandEntry* raw = entry.get();
    std::call_once(raw->once, [this, &pinned, k, raw] {
      BuildSkybandEntry(pinned, k, raw);
    });
  }
}

void ToprrEngine::EnableRegionCache(const RegionCacheConfig& config) {
  region_cache_ = std::make_unique<RegionCache>(config);
}

namespace {

// Cacheable geometry: positive width everywhere (degenerate boxes cannot
// be partitioned) and inside the preference simplex (outside it the
// k-skyband is not a valid candidate superset, so such queries solve
// cold).
bool BoxIsCacheable(const PrefBox& box) {
  for (size_t j = 0; j < box.dim(); ++j) {
    if (!(box.lo[j] < box.hi[j])) return false;
  }
  return box.InsideSimplex();
}

// The region-cache signature: the option fingerprint plus the k-skyband
// epoch. Equal epochs mean equal skyband rows, and the solve reads nothing
// else, so entries survive every publish that leaves the skyband alone;
// when it changes they stop matching and age out of the LRU.
std::string SignatureFor(const std::string& options_signature,
                         uint64_t epoch) {
  std::string signature = options_signature;
  signature.append(reinterpret_cast<const char*>(&epoch), sizeof(epoch));
  return signature;
}

// A first sighting, solved on the exact box as with the cache off: a miss
// that inserted nothing.
void StampDeferred(ToprrResult* result) {
  result->stats.scheduler.cache_misses = 1;
  result->stats.scheduler.cache_deferred = 1;
}

}  // namespace

ToprrResult ToprrEngine::Solve(int k, const PrefBox& region,
                               const ToprrOptions& options) {
  const SnapshotPtr snap = PinSnapshot();
  ToprrResult result = SolveBox(snap, k, region, options);
  result.snapshot_id = snap->id();
  result.snapshot_seq = snap->seq();
  return result;
}

ToprrResult ToprrEngine::Solve(int k, const PrefRegion& region,
                               const ToprrOptions& options) {
  const SnapshotPtr snap = PinSnapshot();
  ToprrResult result = SolveRegion(snap, k, region, options);
  result.snapshot_id = snap->id();
  result.snapshot_seq = snap->seq();
  return result;
}

ToprrResult ToprrEngine::SolveBox(const SnapshotPtr& snap, int k,
                                  const PrefBox& box,
                                  const ToprrOptions& options) {
  bool deferred = false;
  if (options.use_region_cache && region_cache_ != nullptr &&
      BoxIsCacheable(box)) {
    std::optional<ToprrResult> cached = SolveCachedBox(snap, k, box, options);
    if (cached.has_value()) return std::move(*cached);
    deferred = true;
  }
  const SkybandEntryPtr skyband = GetSkyband(snap, k);
  const DatasetView view = snap->View();
  Timer filter_timer;
  const std::vector<int>& members = skyband->state.ids;
  const std::vector<int> candidates =
      options.use_rskyband_filter ? RSkyband(view, box, k, &members)
                                  : members;
  ToprrResult result = SolveToprrWithCandidates(
      view, k, FlatRegion::FromBox(box), candidates, options);
  result.stats.filter_seconds = filter_timer.Seconds();
  if (deferred) StampDeferred(&result);
  return result;
}

ToprrResult ToprrEngine::SolveRegion(const SnapshotPtr& snap, int k,
                                     const PrefRegion& region,
                                     const ToprrOptions& options) {
  bool deferred = false;
  if (options.use_region_cache && region_cache_ != nullptr) {
    // Wire queries arrive as general PrefRegions; recover the box when
    // the region is exactly one so serving traffic reaches the cache.
    const std::optional<PrefBox> box = BoxFromRegion(region);
    if (box.has_value() && BoxIsCacheable(*box)) {
      std::optional<ToprrResult> cached =
          SolveCachedBox(snap, k, *box, options);
      if (cached.has_value()) return std::move(*cached);
      deferred = true;
    }
  }
  const SkybandEntryPtr skyband = GetSkyband(snap, k);
  const DatasetView view = snap->View();
  const FlatRegion root = FlatRegion::FromRegion(region);
  Timer filter_timer;
  const std::vector<int>& members = skyband->state.ids;
  const std::vector<int> candidates =
      options.use_rskyband_filter ? RSkybandVertices(view, root, k, &members)
                                  : members;
  ToprrResult result =
      SolveToprrWithCandidates(view, k, root, candidates, options);
  result.stats.filter_seconds = filter_timer.Seconds();
  if (deferred) StampDeferred(&result);
  return result;
}

std::optional<ToprrResult> ToprrEngine::SolveCachedBox(
    const SnapshotPtr& snap, int k, const PrefBox& box,
    const ToprrOptions& options) {
  RegionCache& cache = *region_cache_;
  Timer total;
  const SkybandEntryPtr skyband = GetSkyband(snap, k);
  const std::string options_signature = CacheSignature(options);
  const std::string signature =
      SignatureFor(options_signature, skyband->epoch);
  if (std::shared_ptr<const RegionCacheEntry> entry =
          cache.FindContaining(k, signature, box)) {
    ToprrResult result = AssembleFromCells(snap, entry->cells,
                                           entry->candidates, k, box,
                                           options);
    result.stats.scheduler.cache_hits = 1;
    result.stats.scheduler.cache_tasks_saved = entry->regions_tested;
    result.stats.total_seconds = total.Seconds();
    return result;
  }
  cache.RecordMiss();
  if (!cache.Admit(k, options_signature, box)) return std::nullopt;
  ToprrResult result =
      SolveColdAndInsert(snap, k, box, options, *skyband, signature);
  result.stats.total_seconds = total.Seconds();
  return result;
}

ToprrResult ToprrEngine::AssembleFromCells(
    const SnapshotPtr& snap, const std::vector<FlatCell>& cells,
    const std::vector<int>& candidates, int k, const PrefBox& box,
    const ToprrOptions& options) {
  ToprrResult result;
  result.stats.candidates_after_filter = candidates.size();
  GeomArena arena;
  std::vector<Vec> vall;
  AppendCellsClippedToBox(cells, box, options.eps, &arena, &vall);
  Timer phase;
  result.stats.vall_raw = vall.size();
  result.vall = DedupVertices(vall);
  result.stats.vall_unique = result.vall.size();
  AssembleResultRegion(snap->View(), candidates, k, result.vall, options,
                       &result);
  result.stats.assemble_seconds = phase.Seconds();
  return result;
}

ToprrResult ToprrEngine::SolveColdAndInsert(const SnapshotPtr& snap, int k,
                                            const PrefBox& box,
                                            const ToprrOptions& options,
                                            const SkybandEntry& skyband,
                                            const std::string& signature) {
  RegionCache& cache = *region_cache_;
  const PrefBox canon = cache.Canonicalize(box);
  const DatasetView view = snap->View();

  // The canonical root, clipped against the preference simplex when the
  // outward snap poked past it (the clipped region still contains every
  // in-simplex query box that canonicalizes here).
  Timer filter_timer;
  FlatRegion root = FlatRegion::FromBox(canon);
  std::vector<int> candidates;
  bool root_ok = true;
  if (canon.InsideSimplex()) {
    candidates = options.use_rskyband_filter
                     ? RSkyband(view, canon, k, &skyband.state.ids)
                     : skyband.state.ids;
  } else {
    const Hyperplane simplex(Vec(canon.dim(), 1.0), 1.0);
    GeomArena arena;
    std::optional<FlatRegion> below;
    std::optional<FlatRegion> above;
    root.Split(simplex, options.eps, arena, &below, &above);
    if (below.has_value() && !below->empty()) {
      root = std::move(*below);
      candidates = options.use_rskyband_filter
                       ? RSkybandVertices(view, root, k, &skyband.state.ids)
                       : skyband.state.ids;
    } else {
      root_ok = false;
    }
  }
  if (!root_ok) {
    // Clipping degenerated (a sliver box hugging the simplex facet):
    // solve the query cold, uncached, on the same pinned snapshot.
    ToprrOptions cold = options;
    cold.use_region_cache = false;
    ToprrResult result = SolveBox(snap, k, box, cold);
    result.stats.scheduler.cache_misses = 1;
    return result;
  }
  const double filter_seconds = filter_timer.Seconds();

  std::vector<FlatCell> cells;
  ToprrResult canon_result = SolveToprrWithCandidates(
      view, k, root, candidates, options, &cells);
  if (canon_result.timed_out) {
    // Incomplete partitions are never cached, and a timed-out result is
    // unusable by contract, so hand it back as-is.
    canon_result.stats.filter_seconds = filter_seconds;
    canon_result.stats.scheduler.cache_misses = 1;
    return canon_result;
  }

  auto entry = std::make_shared<RegionCacheEntry>();
  entry->box = canon;
  entry->k = k;
  entry->signature = signature;
  entry->candidates = std::move(candidates);
  entry->cells = std::move(cells);
  entry->regions_tested = canon_result.stats.regions_tested;

  // Assemble the query's own result from the entry cells -- the same
  // tail as a cache hit, which is what makes hits bit-identical to the
  // admitting miss that populated them.
  ToprrResult result = AssembleFromCells(snap, entry->cells,
                                         entry->candidates, k, box,
                                         options);
  const size_t evicted = cache.Insert(entry);

  // Graft the canonical solve's partition telemetry onto the clipped
  // result.
  result.stats.regions_tested = canon_result.stats.regions_tested;
  result.stats.regions_accepted = canon_result.stats.regions_accepted;
  result.stats.regions_split = canon_result.stats.regions_split;
  result.stats.kipr_accepts = canon_result.stats.kipr_accepts;
  result.stats.lemma7_accepts = canon_result.stats.lemma7_accepts;
  result.stats.lemma5_prunes = canon_result.stats.lemma5_prunes;
  result.stats.scheduler = std::move(canon_result.stats.scheduler);
  result.stats.scheduler.cache_misses = 1;
  result.stats.scheduler.cache_evicted_bytes = evicted;
  result.stats.filter_seconds = filter_seconds;
  result.stats.partition_seconds = canon_result.stats.partition_seconds;
  return result;
}

ToprrResult ToprrEngine::Solve(const ToprrQuery& query) {
  return Solve(query.k, query.region, query.options);
}

namespace {

// One query of a batch under a batch-level cancel flag: unclaimed work
// after cancellation resolves to an explicit cancelled result, claimed
// work inherits the flag so the scheduler aborts it at the next poll.
ToprrResult SolveOrCancel(ToprrEngine& engine, const ToprrQuery& query,
                          const std::atomic<bool>* cancel) {
  if (cancel == nullptr) return engine.Solve(query);
  if (cancel->load(std::memory_order_relaxed)) {
    ToprrResult result;
    result.timed_out = true;
    result.cancelled = true;
    return result;
  }
  if (query.options.cancel != nullptr) return engine.Solve(query);
  ToprrQuery cancellable = query;
  cancellable.options.cancel = cancel;
  return engine.Solve(cancellable);
}

}  // namespace

std::vector<ToprrResult> ToprrEngine::SolveBatch(
    const std::vector<ToprrQuery>& queries, int num_threads,
    const std::atomic<bool>* cancel) {
  std::vector<ToprrResult> results(queries.size());
  if (queries.empty()) return results;
  const size_t workers =
      std::min(ResolveThreadCount(num_threads), queries.size());
  if (workers <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i] = SolveOrCancel(*this, queries[i], cancel);
    }
    return results;
  }

  // No skyband warm-up pass here: the per-(k, version) once entries let
  // each worker build its own query's skyband outside the cache lock, so
  // a batch mixing k values computes them concurrently instead of
  // serially in the dispatching thread.

  // Claim queries through an atomic ticket instead of a mutex: the
  // per-query shared-state traffic is one fetch_add to claim and one to
  // retire, so the dispatch never serializes workers (the mutex is only
  // taken around the final wakeup). The shared_ptr keeps the claim state
  // alive for helper tasks that the pool only schedules after the batch
  // is done; such stragglers claim an out-of-range ticket and never
  // touch the engine, queries, or results.
  struct BatchState {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };
  auto state = std::make_shared<BatchState>();
  const size_t count = queries.size();
  const ToprrQuery* query_ptr = queries.data();
  ToprrResult* result_ptr = results.data();
  auto drain = [this, state, query_ptr, result_ptr, count, cancel] {
    for (;;) {
      const size_t index =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      result_ptr[index] = SolveOrCancel(*this, query_ptr[index], cancel);
      // acq_rel + the waiter's acquire read makes every result write
      // visible to the caller; locking mu around the notify pairs with
      // the waiter's predicate check so the last wakeup cannot be lost.
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  ThreadPool& pool = SharedThreadPool();
  for (size_t i = 0; i + 1 < workers; ++i) pool.Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state, count] {
    return state->done.load(std::memory_order_acquire) == count;
  });
  return results;
}

}  // namespace toprr
