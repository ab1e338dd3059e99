// ToprrEngine: precomputation and batch serving for repeated TopRR
// queries over a snapshot-versioned dataset (the paper's Sec. 7 names
// pre-computation as future work; this realizes the obvious instance of
// it and grows it into a traffic-serving front-end).
//
// The k-skyband is independent of wR and is a superset of every
// r-skyband, so the engine computes it once per (k, snapshot version)
// and restricts the per-query r-skyband scan to it. For large n this
// removes the dominant filtering cost from the per-query path (see
// bench_engine_precompute). SolveBatch additionally dispatches
// independent queries across the shared thread pool, all sharing the
// same guarded skyband cache.
//
// Ownership and mutation model (data/snapshot.h):
//  * The engine always serves from an immutable DatasetSnapshot. Every
//    Solve pins the current snapshot for its whole duration (and stamps
//    ToprrResult::snapshot_id), so a writer publishing mid-query can
//    never be observed by that query -- readers and the writer share
//    nothing mutable.
//  * SetSnapshot moves the engine to a newer version (typically
//    MutableCatalog::Publish output). Per-k skybands are maintained
//    *incrementally* across the snapshot delta (KSkybandApplyDelta):
//    deletions of non-members are free, a member deletion rescans only
//    the rows the deleted member dominated, and inserted rows are
//    dominance-checked against the cached skyband (O(delta * skyband)).
//    Only a delta deleting more than half of the members rebuilds.
//  * A TopRR answer is fixed by the k-skyband's rows, not by the whole
//    table: every top-k lies in the k-skyband. Each (k, version) skyband
//    entry therefore carries an epoch, reused from the last few distinct
//    skybands built when one has the same k, ids and row values, and
//    fresh otherwise. Region-cache signatures fold in that epoch instead
//    of the snapshot id: a publish that leaves a k-skyband alone keeps
//    every cached region of that k, and so does one that returns it to
//    a recent state (a writer deleting the row it just inserted). Any
//    other change makes them stop matching, to age out through the LRU.
//
// Thread-safety contract:
//  * Solve / SolveBatch / KSkyband / SetSnapshot may be called
//    concurrently from any number of threads. The skyband cache holds
//    one once-initialized entry per (k, version) behind shared_ptr, so
//    the mutex only guards map lookups -- skyband builds run outside the
//    lock, and a batch mixing k values builds its skybands concurrently.
//  * KSkyband's returned reference stays valid until the next
//    SetSnapshot (older-version entries are garbage collected then;
//    in-flight solves are safe because they hold the entry by
//    shared_ptr, not by reference).
#ifndef TOPRR_CORE_ENGINE_H_
#define TOPRR_CORE_ENGINE_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/region_cache.h"
#include "core/toprr.h"
#include "data/dataset.h"
#include "data/snapshot.h"
#include "pref/pref_space.h"
#include "pref/region.h"

namespace toprr {

/// One query of a batch: TopRR(D, k, region) under `options`.
struct ToprrQuery {
  int k = 0;
  PrefRegion region;
  ToprrOptions options;

  static ToprrQuery FromBox(int k, const PrefBox& box,
                            const ToprrOptions& options = {}) {
    return ToprrQuery{k, PrefRegion::FromBox(box), options};
  }
};

/// Caches per-(k, version) candidate supersets over a snapshot chain and
/// serves queries one at a time or in parallel batches. See the
/// ownership and thread-safety contracts in the file comment.
class ToprrEngine {
 public:
  /// Serves from `snapshot` (and any successors handed to SetSnapshot).
  /// The canonical construction for a fixed table is
  ///   ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  /// and for a live catalog
  ///   MutableCatalog catalog(...);
  ///   ToprrEngine engine(catalog.Current());
  /// (The pre-snapshot Dataset* constructor and its InvalidateCache()
  /// shim were removed; snapshots are the only ownership model.)
  explicit ToprrEngine(SnapshotPtr snapshot);

  ToprrEngine(const ToprrEngine&) = delete;
  ToprrEngine& operator=(const ToprrEngine&) = delete;

  /// The cached k-skyband of the current snapshot (computed on first use
  /// for each (k, version)). The returned reference stays valid until
  /// the next SetSnapshot.
  const std::vector<int>& KSkyband(int k);

  /// Solves TopRR(D, k, wR) reusing the cached k-skyband: the per-query
  /// r-skyband is computed within it instead of over the whole dataset.
  /// Pins the current snapshot for the solve's duration.
  ToprrResult Solve(int k, const PrefBox& region,
                    const ToprrOptions& options = {});

  /// General convex-polytope variant.
  ToprrResult Solve(int k, const PrefRegion& region,
                    const ToprrOptions& options = {});

  /// Query-object form (the unit of SolveBatch).
  ToprrResult Solve(const ToprrQuery& query);

  /// Solves every query, dispatching them across the shared thread pool
  /// (num_threads workers; 0 = one per hardware thread; the calling
  /// thread always participates). Results are positionally aligned with
  /// `queries`. Queries whose options request region-level parallelism
  /// (options.num_threads != 1) compose safely with the batch dispatch --
  /// both levels borrow from the same pool and degrade gracefully when it
  /// is saturated. Each query pins the snapshot current at its own start,
  /// so a concurrent SetSnapshot splits the batch at a clean version
  /// boundary (check ToprrResult::snapshot_id).
  ///
  /// `cancel`, when non-null, aborts the whole batch cooperatively: it
  /// is injected as ToprrOptions::cancel into every query that does not
  /// carry its own flag (so in-flight solves stop at their next
  /// per-region poll), and queries not yet claimed when it flips return
  /// immediately with timed_out and cancelled set. The pointee must
  /// outlive the call. The serving front-end passes its shutdown flag
  /// here so Stop() never waits for a long solve.
  std::vector<ToprrResult> SolveBatch(
      const std::vector<ToprrQuery>& queries, int num_threads = 0,
      const std::atomic<bool>* cancel = nullptr);

  /// Moves the engine to a newer snapshot (typically
  /// MutableCatalog::Publish output). Safe with queries in flight: they
  /// finish on their pinned version. Skybands cached for the previous
  /// version are carried forward incrementally along the snapshot delta
  /// when possible (see the file comment); entries for older versions
  /// are garbage collected.
  void SetSnapshot(SnapshotPtr snapshot);

  /// The currently served snapshot (pin it to keep a version alive).
  SnapshotPtr snapshot() const;
  /// The current snapshot's 64-bit content id.
  uint64_t snapshot_id() const;
  /// The current snapshot's monotone publish sequence number.
  uint64_t snapshot_seq() const;
  /// Live rows / dimension of the current snapshot -- what a query
  /// observes as the dataset size.
  size_t dataset_rows() const;
  size_t dataset_dim() const;

  /// Enables the cross-query region cache (core/region_cache.h).
  /// Queries opt in per-solve via ToprrOptions::use_region_cache; box
  /// queries (including PrefRegion queries that are exact boxes) inside
  /// the preference simplex are then served by cached-cell clipping once
  /// their canonical box has been admitted. Call before the first query;
  /// replacing an active cache mid-traffic is not supported.
  void EnableRegionCache(const RegionCacheConfig& config = {});

  /// The enabled region cache, or null. Entries pin their payloads via
  /// shared_ptr, so counters/inspection race safely with serving.
  RegionCache* region_cache() { return region_cache_.get(); }

  /// Monotone telemetry of the snapshot-update path.
  struct UpdateCounters {
    uint64_t publishes_seen = 0;       // SetSnapshot calls that changed id
    uint64_t skyband_incremental = 0;  // skybands carried across a delta
    uint64_t skyband_rebuilds = 0;     // full SortBasedKSkybandPool builds
  };
  UpdateCounters update_counters() const;

 private:
  /// One (k, version) cache entry. `once` gates the (lock-free) build so
  /// cache_mu_ is never held across skyband computation; `built` lets a
  /// successor version test whether this entry is usable as an
  /// incremental base without blocking on the once flag.
  struct SkybandEntry {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<int> ids;     // ascending
    std::vector<int> counts;  // per-member dominator counts (< k)
    bool incremental = false;  // how the build ran (telemetry/tests)
    uint64_t version = 0;      // the snapshot id this entry belongs to
    /// Equal epochs imply equal ids and row values (and so equal
    /// solves); keys the region cache. Set by the build (EpochFor).
    uint64_t epoch = 0;
    /// The same-k entry of the previous version, staged at entry
    /// creation under cache_mu_ and consumed (dropped) by the build: the
    /// incremental base when that version is this one's parent.
    std::shared_ptr<SkybandEntry> prev;
  };
  using SkybandEntryPtr = std::shared_ptr<SkybandEntry>;

  /// The current snapshot under cache_mu_ (shared_ptr copy = pin).
  SnapshotPtr PinSnapshot() const;

  /// The built skyband entry for (k, snap's version), creating/building
  /// it if needed (incrementally when the parent version's entry is
  /// available).
  SkybandEntryPtr GetSkyband(const SnapshotPtr& snap, int k);
  void BuildSkybandEntry(const SnapshotPtr& snap, int k,
                         SkybandEntry* entry);
  /// The epoch of a built k-skyband: that of the recent skyband with the
  /// same k, ids and row values, or a fresh one.
  uint64_t EpochFor(const DatasetView& view, int k,
                    const std::vector<int>& ids);

  /// Snapshot-pinned solve bodies behind the public Solve overloads.
  ToprrResult SolveBox(const SnapshotPtr& snap, int k, const PrefBox& box,
                       const ToprrOptions& options);
  ToprrResult SolveRegion(const SnapshotPtr& snap, int k,
                          const PrefRegion& region,
                          const ToprrOptions& options);

  /// The cached-box solve pipeline (it fetches the k-skyband first, for
  /// its epoch):
  ///  * containment hit: clip the stored cells of an entry whose box
  ///    contains `box`;
  ///  * repeat sighting (RegionCache::Admit says yes): solve the
  ///    canonical box, insert it, and clip it like a hit;
  ///  * first sighting: nullopt. The caller solves the query exactly as
  ///    with the cache off, so the answer is bit-identical to a cache-off
  ///    solve, and counts it as a deferred miss.
  /// The box must be non-degenerate and inside the preference simplex.
  std::optional<ToprrResult> SolveCachedBox(const SnapshotPtr& snap, int k,
                                            const PrefBox& box,
                                            const ToprrOptions& options);

  /// Clips `cells` to `box` and runs dedup + assembly under `candidates`
  /// -- the shared tail of the hit and admitting-miss paths. A hit is
  /// bit-identical to the admitting miss of its canonical box because
  /// both end here.
  ToprrResult AssembleFromCells(const SnapshotPtr& snap,
                                const std::vector<FlatCell>& cells,
                                const std::vector<int>& candidates, int k,
                                const PrefBox& box,
                                const ToprrOptions& options);

  ToprrResult SolveColdAndInsert(const SnapshotPtr& snap, int k,
                                 const PrefBox& box,
                                 const ToprrOptions& options,
                                 const SkybandEntry& skyband,
                                 const std::string& signature);

  mutable std::mutex cache_mu_;
  SnapshotPtr snapshot_;  // current version; guarded by cache_mu_
  // (k, snapshot id) -> entry; guarded by cache_mu_ (builds run outside).
  std::map<std::pair<int, uint64_t>, SkybandEntryPtr> skyband_cache_;

  std::atomic<uint64_t> publishes_seen_{0};
  std::atomic<uint64_t> skyband_incremental_{0};
  std::atomic<uint64_t> skyband_rebuilds_{0};

  // The last kRecentSkybands distinct skybands built, most recently used
  // first. A churning writer's deletes often undo its inserts, so the
  // skyband keeps returning to a recent state; a handful of entries
  // covers that and any mix of a few k.
  struct RecentSkyband {
    int k;
    std::vector<int> ids;
    std::vector<double> rows;  // the ids' row values, packed
    uint64_t epoch;
  };
  static constexpr size_t kRecentSkybands = 8;
  std::mutex epochs_mu_;
  std::list<RecentSkyband> recent_skybands_;  // guarded by epochs_mu_
  uint64_t next_epoch_ = 1;                   // guarded by epochs_mu_

  // Set once by EnableRegionCache before serving; the cache itself is
  // internally synchronized (sharded mutexes + shared_ptr payloads).
  std::unique_ptr<RegionCache> region_cache_;
};

}  // namespace toprr

#endif  // TOPRR_CORE_ENGINE_H_
