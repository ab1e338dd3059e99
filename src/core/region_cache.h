// Cross-query region cache: bounded reuse of solved preference boxes
// across queries (the ROADMAP's "single biggest lever for serving heavy
// traffic").
//
// The test-and-split partition of a box is a deterministic tree whose
// accepted leaves tile the box. The cache stores, per admitted query, the
// canonical (grid-quantized, snapped-outward) box together with the
// candidate pool it was solved under and the accepted cells in heap-path
// id order. A query box inside a cached box is answered by clipping the
// stored cells against the query box. The partition is a refinement of
// any sub-box, so cells fully inside pass through verbatim and boundary
// cells are cut by the box halfspaces; the result is bit-identical to
// the admitting miss of the same canonical box (region_cache_test asserts
// this across methods, dims, and k).
//
// Admission (TinyLFU's doorkeeper; Einziger, Friedman, Manes, ACM TOS
// 2017): a lookup that finds no containing entry asks Admit whether its
// canonical key was sighted before. The first sighting is recorded and
// solved on the exact query box, as with the cache off (bit-identical to
// a cache-off solve); only a repeat sighting solves the snapped canonical
// box and inserts it. All-distinct traffic therefore pays neither the
// larger snapped box nor entries that are never hit. The doorkeeper is a
// fixed direct-mapped array of key hashes: a colliding slot forgets a key
// (admission waits one more sighting) and a hash collision admits one
// early. Both paths are exact, so neither error changes the region an
// answer describes. Its key leaves out the k-skyband epoch, so popularity
// survives publishes that change the skyband.
//
// Entries are held by shared_ptr<const ...>: lookups pin a payload, so
// eviction, Clear(), and engine teardown never invalidate an in-flight
// solve (the serve Stop() contract). The cache itself is a sharded-mutex
// LRU with a per-shard slice of the byte budget; keys fold in k and a
// signature of every option that changes partition semantics, so entries
// are never reused across incompatible solves. The dataset version is
// NOT part of the key: a solve reads only k-skyband rows, so the engine
// folds in the epoch of the k-skyband it solved under (core/engine.h)
// instead of the snapshot id. A publish that leaves the k-skyband alone
// keeps every entry servable; one that changes it makes the old entries
// stop matching, to age out of the LRU -- no mass drop needed. An entry
// is served only while the serving skyband has its epoch, so its
// candidates are live rows of the serving snapshot, read through the
// query's own pin.
#ifndef TOPRR_CORE_REGION_CACHE_H_
#define TOPRR_CORE_REGION_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"

namespace toprr {

struct ToprrOptions;

struct RegionCacheConfig {
  /// Total byte budget across all shards; the LRU tail of a shard is
  /// evicted once the shard exceeds its slice. A single entry larger
  /// than a shard slice is kept (and alone) rather than thrashing.
  size_t byte_budget = size_t{64} << 20;
  size_t num_shards = 8;
  /// Grid pitch for canonicalization. A power of two keeps grid
  /// coordinates exact in floating point, so grid-aligned query boxes
  /// canonicalize to themselves bit-for-bit.
  double quantum = 1.0 / 256.0;
  /// Entries inspected (MRU-first, across shards) when the exact-key
  /// lookup misses, bounding the cost of containment probing.
  size_t max_probe = 32;
};

/// One immutable cached solve. `box` is canonical; `cells` are the
/// accepted partition leaves in ascending heap-path id order; and
/// `candidates` is the pool the entry was solved under -- a valid
/// top-k superset for every sub-box, which is what makes clipped reuse
/// exact.
struct RegionCacheEntry {
  PrefBox box;
  int k = 0;
  std::string signature;
  std::vector<int> candidates;
  std::vector<FlatCell> cells;
  size_t regions_tested = 0;  // partition tasks a full hit saves
  size_t bytes = 0;           // footprint charged against the budget
};

/// Cumulative cache counters (monotone; snapshot via Counters()).
struct RegionCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Misses that were first sightings: solved on the exact query box, as
  /// with the cache off, and not inserted (a subset of `misses`).
  uint64_t deferred = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t evicted_bytes = 0;
};

/// Byte-string fingerprint of every ToprrOptions field that changes the
/// partition or assembly output: method, lemma/filter toggles, eps.
/// Thread counts, kernel toggles, and geometry limits are excluded --
/// the solver is bit-identical across them (geometry is rebuilt per
/// query from the clipped Vall either way).
std::string CacheSignature(const ToprrOptions& options);

class RegionCache {
 public:
  explicit RegionCache(const RegionCacheConfig& config = {});

  RegionCache(const RegionCache&) = delete;
  RegionCache& operator=(const RegionCache&) = delete;

  /// Snaps a box outward onto the quantum grid (lo floors, hi ceils,
  /// clamped to lo >= 0). The result contains `box`; grid-aligned boxes
  /// are fixed points. May poke outside the preference simplex -- the
  /// engine clips the solve root against the simplex in that case.
  PrefBox Canonicalize(const PrefBox& box) const;

  /// Exact-key lookup of the canonicalization of `box`, then a bounded
  /// MRU-first probe for any same-(k, signature) entry whose box
  /// contains `box`. Touches the entry's LRU position and bumps the hit
  /// counter on success.
  std::shared_ptr<const RegionCacheEntry> FindContaining(
      int k, const std::string& signature, const PrefBox& box);

  /// The admission doorkeeper. Records a sighting of the key
  /// (k, options_signature, Canonicalize(box)) and returns true when the
  /// key was sighted before (admit: solve the canonical box and insert
  /// it). Returns false for a first sighting, which the caller solves
  /// exactly as with the cache off; that bumps the deferred counter.
  /// `options_signature` is CacheSignature(options), without the skyband
  /// epoch. Lock-free; the doorkeeper never grows.
  bool Admit(int k, const std::string& options_signature,
             const PrefBox& box);

  /// Doorkeeper slots: a fixed 2^16 key hashes (512 KiB), allocated at
  /// construction.
  static constexpr size_t kDoorkeeperSlots = size_t{1} << 16;
  size_t DoorkeeperBytes() const;

  /// Inserts a solved entry (computing entry->bytes) and evicts the
  /// shard's LRU tail past its budget slice. First insert wins: solves
  /// are deterministic, so a racing duplicate is simply dropped.
  /// Returns the bytes evicted by this insert.
  size_t Insert(std::shared_ptr<RegionCacheEntry> entry);

  /// Records a lookup that found nothing (counters only).
  void RecordMiss();

  /// Drops every entry; the doorkeeper keeps its sightings. In-flight
  /// solves holding entry snapshots are unaffected (shared_ptr keeps
  /// their payload alive).
  void Clear();

  RegionCacheCounters Counters() const;
  size_t TotalBytes() const;
  size_t NumEntries() const;
  const RegionCacheConfig& config() const { return config_; }

 private:
  struct Shard {
    std::mutex mu;
    // front = MRU. The list owns the (key, entry) pairs; the index maps
    // keys to list positions for O(1) exact lookup + touch.
    std::list<std::pair<std::string,
                        std::shared_ptr<const RegionCacheEntry>>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string,
                            std::shared_ptr<const RegionCacheEntry>>>::
            iterator>
        index;
    size_t bytes = 0;
  };

  std::string KeyFor(int k, const std::string& signature,
                     const PrefBox& canonical) const;
  size_t ShardFor(const std::string& key) const;

  const RegionCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Direct-mapped key hashes (0 = empty); a slot holds the last key that
  // hashed there.
  const std::unique_ptr<std::atomic<uint64_t>[]> doorkeeper_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> deferred_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> evicted_bytes_{0};
};

// ---- Geometry helpers of the reuse paths (exposed for unit tests). ----

/// Recovers the axis-aligned box a PrefRegion was built from, or nullopt
/// when the region is not exactly a (non-degenerate) box: 2^m distinct
/// vertices, each coordinate exactly at the per-dimension min or max.
std::optional<PrefBox> BoxFromRegion(const PrefRegion& region);

/// Clips each cell against `box` and appends the surviving vertices to
/// `vall` in cell order. Cells whose vertices all lie within the box
/// (tolerance eps) are appended verbatim -- for a query box equal to the
/// cached box this reproduces the cold partition's vall byte-for-byte.
/// Boundary cells are cut by each violated box halfspace, keeping the
/// below side. Returns the number of cells that contributed vertices.
size_t AppendCellsClippedToBox(const std::vector<FlatCell>& cells,
                               const PrefBox& box, double eps,
                               GeomArena* arena, std::vector<Vec>* vall);

}  // namespace toprr

#endif  // TOPRR_CORE_REGION_CACHE_H_
