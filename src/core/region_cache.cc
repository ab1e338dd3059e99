#include "core/region_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "core/toprr.h"
#include "geom/hyperplane.h"
#include "pref/region.h"

namespace toprr {
namespace {

// Containment slack for box-in-box tests. Entry boxes are exact grid
// multiples and query boxes are arbitrary doubles; the slack only
// forgives last-ulp noise, never a geometric difference the quantum
// (>= 2^-30 in practice) could express.
constexpr double kBoxTol = 1e-12;

void AppendBytes(std::string& out, const void* data, size_t n) {
  out.append(reinterpret_cast<const char*>(data), n);
}

bool BoxContains(const PrefBox& outer, const PrefBox& inner) {
  for (size_t j = 0; j < outer.dim(); ++j) {
    if (outer.lo[j] > inner.lo[j] + kBoxTol) return false;
    if (outer.hi[j] < inner.hi[j] - kBoxTol) return false;
  }
  return true;
}

}  // namespace

std::string CacheSignature(const ToprrOptions& options) {
  std::string signature;
  signature.push_back(static_cast<char>(options.method));
  char flags = 0;
  if (options.use_lemma5) flags |= 1;
  if (options.use_lemma7) flags |= 2;
  if (options.use_kswitch) flags |= 4;
  if (options.use_rskyband_filter) flags |= 8;
  signature.push_back(flags);
  AppendBytes(signature, &options.eps, sizeof(options.eps));
  return signature;
}

RegionCache::RegionCache(const RegionCacheConfig& config)
    : config_(config),
      doorkeeper_(std::make_unique<std::atomic<uint64_t>[]>(
          kDoorkeeperSlots)) {
  CHECK_GT(config_.num_shards, 0u);
  CHECK_GT(config_.quantum, 0.0);
  shards_.reserve(config_.num_shards);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PrefBox RegionCache::Canonicalize(const PrefBox& box) const {
  const double q = config_.quantum;
  PrefBox canon;
  canon.lo = Vec(box.dim());
  canon.hi = Vec(box.dim());
  for (size_t j = 0; j < box.dim(); ++j) {
    double lo_cell = std::floor(box.lo[j] / q);
    if (lo_cell < 0.0) lo_cell = 0.0;
    double hi_cell = std::ceil(box.hi[j] / q);
    // Snap degenerate widths open by one cell so the canonical box has
    // interior (a zero-width dimension cannot be partitioned).
    if (hi_cell <= lo_cell) hi_cell = lo_cell + 1.0;
    canon.lo[j] = lo_cell * q;
    canon.hi[j] = hi_cell * q;
  }
  return canon;
}

std::string RegionCache::KeyFor(int k, const std::string& signature,
                                const PrefBox& canonical) const {
  std::string key = signature;
  const int32_t k32 = k;
  AppendBytes(key, &k32, sizeof(k32));
  const uint32_t dim = static_cast<uint32_t>(canonical.dim());
  AppendBytes(key, &dim, sizeof(dim));
  for (size_t j = 0; j < canonical.dim(); ++j) {
    const int64_t lo = std::llround(canonical.lo[j] / config_.quantum);
    const int64_t hi = std::llround(canonical.hi[j] / config_.quantum);
    AppendBytes(key, &lo, sizeof(lo));
    AppendBytes(key, &hi, sizeof(hi));
  }
  return key;
}

size_t RegionCache::ShardFor(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

std::shared_ptr<const RegionCacheEntry> RegionCache::FindContaining(
    int k, const std::string& signature, const PrefBox& box) {
  const std::string key = KeyFor(k, signature, Canonicalize(box));
  {
    Shard& shard = *shards_[ShardFor(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      it->second = shard.lru.begin();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return shard.lru.begin()->second;
    }
  }
  // The exact key missed; a differently-quantized (larger) entry may
  // still contain the query box. Bounded MRU-first sweep.
  size_t probed = 0;
  for (std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin();
         it != shard.lru.end() && probed < config_.max_probe; ++it) {
      ++probed;
      const std::shared_ptr<const RegionCacheEntry>& entry = it->second;
      if (entry->k != k || entry->signature != signature ||
          entry->box.dim() != box.dim()) {
        continue;
      }
      if (!BoxContains(entry->box, box)) continue;
      shard.lru.splice(shard.lru.begin(), shard.lru, it);
      shard.index[shard.lru.begin()->first] = shard.lru.begin();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return shard.lru.begin()->second;
    }
    if (probed >= config_.max_probe) break;
  }
  return nullptr;
}

bool RegionCache::Admit(int k, const std::string& options_signature,
                        const PrefBox& box) {
  const std::string key = KeyFor(k, options_signature, Canonicalize(box));
  uint64_t tag = std::hash<std::string>{}(key);
  if (tag == 0) tag = 1;  // 0 marks an empty slot
  std::atomic<uint64_t>& slot = doorkeeper_[tag & (kDoorkeeperSlots - 1)];
  if (slot.exchange(tag, std::memory_order_relaxed) == tag) return true;
  deferred_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

size_t RegionCache::DoorkeeperBytes() const {
  return kDoorkeeperSlots * sizeof(std::atomic<uint64_t>);
}

size_t RegionCache::Insert(std::shared_ptr<RegionCacheEntry> entry) {
  CHECK(entry != nullptr);
  // Approximate footprint: the flat cells dominate (vertex coordinates +
  // facet descriptors), plus the candidate pool and fixed overhead.
  size_t bytes = sizeof(RegionCacheEntry) + 128;
  bytes += entry->candidates.size() * sizeof(int);
  bytes += 2 * entry->box.dim() * sizeof(double);
  for (const FlatCell& cell : entry->cells) {
    bytes += sizeof(FlatCell) + 64;
    bytes += cell.region.num_vertices() * cell.region.dim() * sizeof(double);
    for (size_t f = 0; f < cell.region.num_facets(); ++f) {
      bytes += cell.region.dim() * sizeof(double) + sizeof(double);
      bytes += cell.region.facet_size(f) * sizeof(int32_t);
    }
  }
  entry->bytes = bytes;

  const std::string key = KeyFor(entry->k, entry->signature, entry->box);
  const size_t shard_budget =
      std::max<size_t>(1, config_.byte_budget / shards_.size());
  size_t evicted = 0;
  size_t evicted_entries = 0;
  {
    Shard& shard = *shards_[ShardFor(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(key) != shard.index.end()) {
      // First insert wins: solves are deterministic, so the payloads are
      // interchangeable and the established LRU position is kept.
      return 0;
    }
    shard.lru.emplace_front(key, std::move(entry));
    shard.index[key] = shard.lru.begin();
    shard.bytes += bytes;
    while (shard.bytes > shard_budget && shard.lru.size() > 1) {
      auto victim = std::prev(shard.lru.end());
      shard.bytes -= victim->second->bytes;
      evicted += victim->second->bytes;
      ++evicted_entries;
      shard.index.erase(victim->first);
      shard.lru.erase(victim);
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted_entries > 0) {
    evictions_.fetch_add(evicted_entries, std::memory_order_relaxed);
    evicted_bytes_.fetch_add(evicted, std::memory_order_relaxed);
  }
  return evicted;
}

void RegionCache::RecordMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
}

void RegionCache::Clear() {
  for (std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

RegionCacheCounters RegionCache::Counters() const {
  RegionCacheCounters counters;
  counters.hits = hits_.load(std::memory_order_relaxed);
  counters.misses = misses_.load(std::memory_order_relaxed);
  counters.deferred = deferred_.load(std::memory_order_relaxed);
  counters.insertions = insertions_.load(std::memory_order_relaxed);
  counters.evictions = evictions_.load(std::memory_order_relaxed);
  counters.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  return counters;
}

size_t RegionCache::TotalBytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

size_t RegionCache::NumEntries() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

std::optional<PrefBox> BoxFromRegion(const PrefRegion& region) {
  const std::vector<Vec>& vertices = region.vertices();
  if (vertices.empty()) return std::nullopt;
  const size_t m = region.dim();
  if (m == 0 || m > 24) return std::nullopt;
  if (vertices.size() != (size_t{1} << m)) return std::nullopt;
  PrefBox box;
  box.lo = vertices[0];
  box.hi = vertices[0];
  for (const Vec& v : vertices) {
    for (size_t j = 0; j < m; ++j) {
      box.lo[j] = std::min(box.lo[j], v[j]);
      box.hi[j] = std::max(box.hi[j], v[j]);
    }
  }
  for (size_t j = 0; j < m; ++j) {
    if (!(box.lo[j] < box.hi[j])) return std::nullopt;  // degenerate
  }
  // Every vertex must be exactly a corner, and all 2^m corners must be
  // present (equivalently: all corner codes distinct).
  std::vector<bool> seen(size_t{1} << m, false);
  for (const Vec& v : vertices) {
    size_t code = 0;
    for (size_t j = 0; j < m; ++j) {
      if (v[j] == box.lo[j]) {
        // low corner on axis j
      } else if (v[j] == box.hi[j]) {
        code |= size_t{1} << j;
      } else {
        return std::nullopt;
      }
    }
    if (seen[code]) return std::nullopt;
    seen[code] = true;
  }
  return box;
}

size_t AppendCellsClippedToBox(const std::vector<FlatCell>& cells,
                               const PrefBox& box, double eps,
                               GeomArena* arena, std::vector<Vec>* vall) {
  CHECK(arena != nullptr);
  CHECK(vall != nullptr);
  const std::vector<Halfspace> walls = box.Halfspaces();
  size_t used = 0;
  std::optional<FlatRegion> scratch_below;
  std::optional<FlatRegion> scratch_above;
  for (const FlatCell& cell : cells) {
    // Containment pre-test: a cell entirely inside the box passes
    // through without touching the split machinery, so its vertices --
    // and for a full-box replay the whole vall sequence -- are the cold
    // solve's bytes.
    bool inside = true;
    const size_t num_vertices = cell.region.num_vertices();
    for (size_t v = 0; v < num_vertices && inside; ++v) {
      const double* coords = cell.region.vertex(v);
      for (size_t j = 0; j < box.dim(); ++j) {
        if (coords[j] < box.lo[j] - eps || coords[j] > box.hi[j] + eps) {
          inside = false;
          break;
        }
      }
    }
    if (inside) {
      for (size_t v = 0; v < num_vertices; ++v) {
        vall->push_back(cell.region.VertexVec(v));
      }
      ++used;
      continue;
    }
    // Boundary cell: cut by each violated wall, keeping the below side
    // (box halfspaces are a.x <= b form, below = inside).
    FlatRegion clipped = cell.region;
    bool empty = false;
    for (const Halfspace& wall : walls) {
      bool violated = false;
      const size_t n = clipped.num_vertices();
      const size_t m = clipped.dim();
      for (size_t v = 0; v < n && !violated; ++v) {
        const double* coords = clipped.vertex(v);
        double dot = 0.0;
        for (size_t j = 0; j < m; ++j) dot += wall.normal[j] * coords[j];
        violated = dot > wall.offset + eps;
      }
      if (!violated) continue;
      clipped.Split(wall.Boundary(), eps, *arena, &scratch_below,
                    &scratch_above);
      if (!scratch_below.has_value() || scratch_below->empty()) {
        empty = true;
        break;
      }
      clipped = std::move(*scratch_below);
      scratch_below.reset();
      scratch_above.reset();
    }
    if (empty) continue;
    const size_t n = clipped.num_vertices();
    for (size_t v = 0; v < n; ++v) {
      vall->push_back(clipped.VertexVec(v));
    }
    ++used;
  }
  return used;
}

}  // namespace toprr
