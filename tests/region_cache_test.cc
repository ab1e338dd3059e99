// Cross-query region cache (core/region_cache.h): the admission
// contract (a first sighting is bit-identical to a cache-off solve and
// inserts nothing; a repeat inserts; the doorkeeper stays bounded and
// remembers sightings across publishes); bit-identity of clipped hits
// against cold solves across methods, dimensions, and k; LRU byte
// budgeting; invalidation and survival across publishes; entry pinning
// across Clear(); and concurrent SolveBatch stresses, one under a
// publishing writer. Labeled `concurrency` through the CMake glob so CI
// repeats it under TSan.
#include "core/region_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "pref/pref_space.h"
#include "pref/region.h"

namespace toprr {
namespace {

PrefBox Box(std::initializer_list<double> lo,
            std::initializer_list<double> hi) {
  PrefBox box;
  box.lo = Vec(lo);
  box.hi = Vec(hi);
  return box;
}

// A quantum-grid-aligned box inside the preference simplex, or a box
// jittered strictly within its grid cells -- the loadgen's query shapes.
PrefBox GridBox(size_t dim, double quantum, uint64_t cells_lo,
                uint64_t cells_wide) {
  PrefBox box;
  box.lo = Vec(dim);
  box.hi = Vec(dim);
  for (size_t j = 0; j < dim; ++j) {
    box.lo[j] = static_cast<double>(cells_lo + j) * quantum;
    box.hi[j] = static_cast<double>(cells_lo + j + cells_wide) * quantum;
  }
  return box;
}

// A query box shifted off the grid by a fraction of a cell, so its
// canonical box is strictly larger and a cache-off solve of it differs
// from the clip of its canonical entry.
PrefBox Jittered(PrefBox box, double quantum) {
  for (size_t j = 0; j < box.dim(); ++j) {
    box.lo[j] += 0.3 * quantum;
    box.hi[j] += 0.3 * quantum;
  }
  return box;
}

void ExpectBitIdentical(const ToprrResult& a, const ToprrResult& b) {
  ASSERT_EQ(a.vall.size(), b.vall.size());
  for (size_t i = 0; i < a.vall.size(); ++i) {
    ASSERT_EQ(a.vall[i].dim(), b.vall[i].dim());
    for (size_t j = 0; j < a.vall[i].dim(); ++j) {
      EXPECT_EQ(a.vall[i][j], b.vall[i][j]) << "vall[" << i << "][" << j
                                            << "]";
    }
  }
  ASSERT_EQ(a.impact_halfspaces.size(), b.impact_halfspaces.size());
  for (size_t h = 0; h < a.impact_halfspaces.size(); ++h) {
    for (size_t j = 0; j < a.impact_halfspaces[h].dim(); ++j) {
      EXPECT_EQ(a.impact_halfspaces[h].normal[j],
                b.impact_halfspaces[h].normal[j]);
    }
    EXPECT_EQ(a.impact_halfspaces[h].offset, b.impact_halfspaces[h].offset);
  }
  ASSERT_EQ(a.vertices.size(), b.vertices.size());
  for (size_t i = 0; i < a.vertices.size(); ++i) {
    for (size_t j = 0; j < a.vertices[i].dim(); ++j) {
      EXPECT_EQ(a.vertices[i][j], b.vertices[i][j]);
    }
  }
  EXPECT_EQ(a.degenerate, b.degenerate);
  EXPECT_EQ(a.geometry_skipped, b.geometry_skipped);
}

// Semantic equality: both regions classify a sample of option-space
// points identically.
void ExpectSameRegionSemantics(const Dataset& data, const ToprrResult& a,
                               const ToprrResult& b, uint64_t seed) {
  EXPECT_EQ(a.degenerate, b.degenerate);
  Rng rng(seed);
  for (int trial = 0; trial < 500; ++trial) {
    Vec o(data.dim());
    for (size_t j = 0; j < data.dim(); ++j) o[j] = rng.Uniform();
    EXPECT_EQ(a.Contains(o), b.Contains(o)) << "option " << o.ToString(6);
  }
}

TEST(RegionCacheTest, CanonicalizeSnapsOutwardAndFixesGridBoxes) {
  RegionCacheConfig config;
  config.quantum = 1.0 / 256.0;
  RegionCache cache(config);
  const PrefBox grid = GridBox(2, config.quantum, 10, 4);
  const PrefBox canon = cache.Canonicalize(grid);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(canon.lo[j], grid.lo[j]);
    EXPECT_EQ(canon.hi[j], grid.hi[j]);
  }
  // A jittered box snaps outward to a containing grid box.
  PrefBox jittered = grid;
  jittered.lo[0] += 0.4 * config.quantum;
  jittered.hi[1] -= 0.4 * config.quantum;
  const PrefBox canon2 = cache.Canonicalize(jittered);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_LE(canon2.lo[j], jittered.lo[j]);
    EXPECT_GE(canon2.hi[j], jittered.hi[j]);
    EXPECT_EQ(std::fmod(canon2.lo[j], config.quantum), 0.0);
  }
  EXPECT_EQ(canon2.lo[0], grid.lo[0]);
  EXPECT_EQ(canon2.hi[1], grid.hi[1]);
}

TEST(RegionCacheTest, BoxFromRegionRoundTripsAndRejectsNonBoxes) {
  const PrefBox box = Box({0.1, 0.2, 0.15}, {0.2, 0.3, 0.25});
  const std::optional<PrefBox> recovered =
      BoxFromRegion(PrefRegion::FromBox(box));
  ASSERT_TRUE(recovered.has_value());
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(recovered->lo[j], box.lo[j]);
    EXPECT_EQ(recovered->hi[j], box.hi[j]);
  }
  // A triangle is not a box, and neither is a quadrilateral with a
  // vertex off the corners of its bounding box.
  const auto facet = [](Vec normal, double offset, std::vector<int> ids) {
    return RegionFacet{Halfspace(std::move(normal), offset), std::move(ids)};
  };
  const PrefRegion triangle = PrefRegion::FromVerticesAndFacets(
      {Vec{0.1, 0.1}, Vec{0.3, 0.1}, Vec{0.1, 0.3}},
      {facet(Vec{0.0, -1.0}, -0.1, {0, 1}), facet(Vec{-1.0, 0.0}, -0.1, {0, 2}),
       facet(Vec{1.0, 1.0}, 0.4, {1, 2})});
  EXPECT_FALSE(BoxFromRegion(triangle).has_value());
  const PrefRegion quad = PrefRegion::FromVerticesAndFacets(
      {Vec{0.1, 0.1}, Vec{0.3, 0.1}, Vec{0.1, 0.3}, Vec{0.25, 0.25}}, {});
  EXPECT_FALSE(BoxFromRegion(quad).has_value());
  // Degenerate boxes are rejected too.
  EXPECT_FALSE(
      BoxFromRegion(PrefRegion::FromBox(Box({0.1, 0.2}, {0.1, 0.3})))
          .has_value());
}

// The admission contract, across methods, dimensions, and k: the first
// sighting of an off-grid box is bit-identical to a cache-off solve and
// inserts nothing; the second solves the canonical box and inserts it;
// and a later hit is bit-identical to that admitting miss.
TEST(RegionCacheTest, FirstSightingIsCacheOffExactAndSecondAdmits) {
  const double quantum = 1.0 / 256.0;
  for (const ToprrMethod method :
       {ToprrMethod::kTas, ToprrMethod::kTasStar, ToprrMethod::kPac}) {
    for (size_t d = 2; d <= 5; ++d) {
      Dataset data = GenerateSynthetic(400, d, Distribution::kIndependent,
                                       7100 + d);
      for (const int k : {1, 5, 10}) {
        const uint64_t width = d <= 3 ? 6 : 3;
        const PrefBox box = Jittered(GridBox(d - 1, quantum, 8, width),
                                     quantum);
        ToprrEngine cold_engine(DatasetSnapshot::FromDataset(data));
        ToprrEngine warm_engine(DatasetSnapshot::FromDataset(data));
        warm_engine.EnableRegionCache({});
        ASSERT_TRUE(
            warm_engine.region_cache()->Canonicalize(box).InsideSimplex());
        ToprrOptions options;
        options.method = method;
        ToprrOptions cached = options;
        cached.use_region_cache = true;
        SCOPED_TRACE(testing::Message()
                     << ToprrMethodName(method) << " d=" << d << " k=" << k);
        RegionCache& cache = *warm_engine.region_cache();

        const ToprrResult cold = cold_engine.Solve(k, box, options);
        const ToprrResult first = warm_engine.Solve(k, box, cached);
        EXPECT_EQ(first.stats.scheduler.cache_misses, 1u);
        EXPECT_EQ(first.stats.scheduler.cache_deferred, 1u);
        EXPECT_EQ(cache.NumEntries(), 0u);
        EXPECT_EQ(cache.Counters().insertions, 0u);
        EXPECT_EQ(cache.Counters().deferred, 1u);
        ExpectBitIdentical(cold, first);

        const ToprrResult second = warm_engine.Solve(k, box, cached);
        EXPECT_EQ(second.stats.scheduler.cache_misses, 1u);
        EXPECT_EQ(second.stats.scheduler.cache_deferred, 0u);
        EXPECT_EQ(cache.NumEntries(), 1u);
        EXPECT_EQ(cache.Counters().insertions, 1u);

        const ToprrResult hit = warm_engine.Solve(k, box, cached);
        EXPECT_EQ(hit.stats.scheduler.cache_hits, 1u);
        ExpectBitIdentical(second, hit);
        ExpectSameRegionSemantics(data, cold, hit, 20000 + 100 * d + k);
      }
    }
  }
}

// With grid-aligned zipf-style traffic, the admitting miss that populates
// an entry and every hit that reuses it are bit-identical to what the
// same engine produces with the cache disabled -- across methods,
// dimensions, and k.
TEST(RegionCacheTest, HitsBitIdenticalToColdSolves) {
  const double quantum = 1.0 / 256.0;
  for (const ToprrMethod method :
       {ToprrMethod::kTas, ToprrMethod::kTasStar, ToprrMethod::kPac}) {
    for (size_t d = 2; d <= 5; ++d) {
      Dataset data = GenerateSynthetic(400, d, Distribution::kIndependent,
                                       7000 + d);
      for (const int k : {1, 5, 10}) {
        // PAC on higher dims is slow; trim the grid accordingly.
        const uint64_t width = d <= 3 ? 6 : 3;
        const PrefBox aligned = GridBox(d - 1, quantum, 8, width);
        if (!aligned.InsideSimplex()) continue;

        ToprrEngine cold_engine(DatasetSnapshot::FromDataset(data));
        ToprrEngine warm_engine(DatasetSnapshot::FromDataset(data));
        warm_engine.EnableRegionCache({});

        ToprrOptions options;
        options.method = method;
        ToprrOptions cached = options;
        cached.use_region_cache = true;

        const ToprrResult cold = cold_engine.Solve(k, aligned, options);
        const ToprrResult first = warm_engine.Solve(k, aligned, cached);
        const ToprrResult miss = warm_engine.Solve(k, aligned, cached);
        const ToprrResult hit = warm_engine.Solve(k, aligned, cached);
        SCOPED_TRACE(testing::Message()
                     << ToprrMethodName(method) << " d=" << d << " k=" << k);
        EXPECT_EQ(first.stats.scheduler.cache_deferred, 1u);
        EXPECT_EQ(miss.stats.scheduler.cache_misses, 1u);
        EXPECT_EQ(miss.stats.scheduler.cache_deferred, 0u);
        EXPECT_EQ(hit.stats.scheduler.cache_hits, 1u);
        EXPECT_GT(hit.stats.scheduler.cache_tasks_saved, 0u);
        ExpectBitIdentical(cold, miss);
        ExpectBitIdentical(cold, hit);

        // A jittered sub-box must hit too. Its result is bit-identical
        // to what a cache-enabled admitting MISS of the same sub-box
        // produces (both snap to the same canonical box and clip), and
        // semantically equal to the cache-off cold solve -- the clip of
        // a refinement yields a different but equivalent Vall than a
        // fresh partition rooted at the sub-box.
        PrefBox sub = aligned;
        for (size_t j = 0; j + 1 < d; ++j) {
          sub.lo[j] += 0.3 * quantum;
          sub.hi[j] -= 0.4 * quantum;
        }
        ToprrEngine fresh_engine(DatasetSnapshot::FromDataset(data));
        fresh_engine.EnableRegionCache({});
        fresh_engine.Solve(k, sub, cached);  // first sighting
        const ToprrResult sub_miss = fresh_engine.Solve(k, sub, cached);
        const ToprrResult sub_hit = warm_engine.Solve(k, sub, cached);
        EXPECT_EQ(sub_miss.stats.scheduler.cache_misses, 1u);
        EXPECT_EQ(sub_miss.stats.scheduler.cache_deferred, 0u);
        EXPECT_EQ(sub_hit.stats.scheduler.cache_hits, 1u);
        ExpectBitIdentical(sub_miss, sub_hit);
        const ToprrResult sub_cold = cold_engine.Solve(k, sub, options);
        ExpectSameRegionSemantics(data, sub_cold, sub_hit,
                                  10000 + 100 * d + k);
      }
    }
  }
}

// A query box inside the simplex whose canonical box pokes past it: the
// admitting miss partitions the canonical box clipped to the simplex.
// Per axis j the canonical box spans cells [c_j, c_j + width] with the
// upper cells summing to 257 (one cell past the simplex facet), and the
// query spans [c_j + 0.3, c_j + width - 0.7] cells, so its upper corner
// sums to 257 - 0.7 m cells and it stays inside.
TEST(RegionCacheTest, SimplexClippedCanonicalRootStaysExact) {
  const double quantum = 1.0 / 256.0;
  for (const ToprrMethod method :
       {ToprrMethod::kTas, ToprrMethod::kTasStar, ToprrMethod::kPac}) {
    for (size_t d = 3; d <= 5; ++d) {
      Dataset data = GenerateSynthetic(400, d, Distribution::kIndependent,
                                       7200 + d);
      const size_t m = d - 1;
      const uint64_t width = d == 3 ? 6 : 3;
      PrefBox box;
      box.lo = Vec(m);
      box.hi = Vec(m);
      uint64_t spare = 257 - m * width;  // sum of the lower cells
      for (size_t j = 0; j < m; ++j) {
        const uint64_t cell = spare / (m - j);
        spare -= cell;
        box.lo[j] = (static_cast<double>(cell) + 0.3) * quantum;
        box.hi[j] = (static_cast<double>(cell + width) - 0.7) * quantum;
      }
      for (const int k : {1, 5, 10}) {
        ToprrEngine cold_engine(DatasetSnapshot::FromDataset(data));
        ToprrEngine warm_engine(DatasetSnapshot::FromDataset(data));
        warm_engine.EnableRegionCache({});
        RegionCache& cache = *warm_engine.region_cache();
        ASSERT_TRUE(box.InsideSimplex());
        ASSERT_FALSE(cache.Canonicalize(box).InsideSimplex());
        ToprrOptions options;
        options.method = method;
        ToprrOptions cached = options;
        cached.use_region_cache = true;
        SCOPED_TRACE(testing::Message()
                     << ToprrMethodName(method) << " d=" << d << " k=" << k);

        const ToprrResult cold = cold_engine.Solve(k, box, options);
        const ToprrResult first = warm_engine.Solve(k, box, cached);
        EXPECT_EQ(first.stats.scheduler.cache_deferred, 1u);
        ExpectBitIdentical(cold, first);

        const ToprrResult miss = warm_engine.Solve(k, box, cached);
        EXPECT_EQ(miss.stats.scheduler.cache_misses, 1u);
        EXPECT_EQ(miss.stats.scheduler.cache_deferred, 0u);
        EXPECT_EQ(cache.Counters().insertions, 1u);

        const ToprrResult hit = warm_engine.Solve(k, box, cached);
        EXPECT_EQ(hit.stats.scheduler.cache_hits, 1u);
        EXPECT_GT(hit.stats.scheduler.cache_tasks_saved, 0u);
        ExpectBitIdentical(miss, hit);
        ExpectSameRegionSemantics(data, cold, hit, 30000 + 100 * d + k);
      }
    }
  }

  // A sliver hugging the simplex facet: its canonical box's lowest corner
  // lies on the facet, so the clip leaves no full-dimensional root and
  // the admitted repeat is solved cold, inserting nothing.
  Dataset data = GenerateSynthetic(400, 4, Distribution::kIndependent, 7300);
  ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  engine.EnableRegionCache({});
  ToprrEngine cold_engine(DatasetSnapshot::FromDataset(data));
  PrefBox sliver;
  sliver.lo = Vec{80.0 * quantum, 88.0 * quantum, 88.0 * quantum};
  sliver.hi = Vec(3);
  for (size_t j = 0; j < 3; ++j) sliver.hi[j] = sliver.lo[j] + 1e-13;
  ASSERT_TRUE(sliver.InsideSimplex());
  ToprrOptions cached;
  cached.use_region_cache = true;
  const ToprrResult first = engine.Solve(5, sliver, cached);
  EXPECT_EQ(first.stats.scheduler.cache_deferred, 1u);
  const ToprrResult repeat = engine.Solve(5, sliver, cached);
  EXPECT_EQ(repeat.stats.scheduler.cache_misses, 1u);
  EXPECT_EQ(repeat.stats.scheduler.cache_deferred, 0u);
  EXPECT_EQ(engine.region_cache()->NumEntries(), 0u);
  EXPECT_EQ(engine.region_cache()->Counters().insertions, 0u);
  ExpectBitIdentical(cold_engine.Solve(5, sliver, {}), repeat);
}

// Region-form queries (the wire shape) reach the cache when they are
// exact boxes.
TEST(RegionCacheTest, RegionQueriesRecoverTheBoxAndHit) {
  Dataset data = GenerateSynthetic(500, 3, Distribution::kIndependent, 21);
  ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = GridBox(2, 1.0 / 256.0, 12, 5);
  ASSERT_TRUE(box.InsideSimplex());
  const ToprrQuery query = ToprrQuery::FromBox(5, box, cached);
  const ToprrResult first = engine.Solve(query);
  const ToprrResult miss = engine.Solve(query);
  const ToprrResult hit = engine.Solve(query);
  EXPECT_EQ(first.stats.scheduler.cache_deferred, 1u);
  EXPECT_EQ(miss.stats.scheduler.cache_misses, 1u);
  EXPECT_EQ(miss.stats.scheduler.cache_deferred, 0u);
  EXPECT_EQ(hit.stats.scheduler.cache_hits, 1u);
  ExpectBitIdentical(miss, hit);
  // The first sighting of a region-form query is its own cache-off solve.
  ToprrEngine cold(DatasetSnapshot::FromDataset(data));
  ToprrQuery plain = query;
  plain.options.use_region_cache = false;
  ExpectBitIdentical(cold.Solve(plain), first);
}

TEST(RegionCacheTest, LruEvictionRespectsByteBudget) {
  RegionCacheConfig config;
  config.byte_budget = 64 << 10;  // tiny: force eviction
  config.num_shards = 1;          // single shard = strict global LRU
  RegionCache cache(config);
  const std::string signature = "sig";
  size_t inserted_bytes = 0;
  for (int i = 0; i < 200; ++i) {
    auto entry = std::make_shared<RegionCacheEntry>();
    // Step by a full quantum so every box maps to a distinct cache key.
    const double shift = i * config.quantum;
    entry->box = Box({0.1 + shift, 0.1}, {0.2 + shift, 0.2});
    entry->k = 5;
    entry->signature = signature;
    entry->candidates.assign(64, i);
    FlatCell cell;
    cell.id = 1;
    cell.region = FlatRegion::FromBox(entry->box);
    entry->cells.push_back(std::move(cell));
    cache.Insert(entry);
    inserted_bytes += entry->bytes;
    EXPECT_LE(cache.TotalBytes(), config.byte_budget);
  }
  const RegionCacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.insertions, 200u);
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_GT(counters.evicted_bytes, 0u);
  EXPECT_LT(cache.NumEntries(), 200u);
  EXPECT_GT(inserted_bytes, config.byte_budget);  // budget actually bound
}

TEST(RegionCacheTest, InsertIsFirstWinsAndIdempotent) {
  RegionCache cache{RegionCacheConfig{}};
  auto make = [] {
    auto entry = std::make_shared<RegionCacheEntry>();
    entry->box = Box({0.1, 0.1}, {0.2, 0.2});
    entry->k = 3;
    entry->signature = "s";
    return entry;
  };
  cache.Insert(make());
  cache.Insert(make());
  EXPECT_EQ(cache.NumEntries(), 1u);
  EXPECT_EQ(cache.Counters().insertions, 1u);
}

TEST(RegionCacheTest, ClearEmptiesTheRegionCache) {
  Dataset data = GenerateSynthetic(300, 3, Distribution::kIndependent, 5);
  ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = GridBox(2, 1.0 / 256.0, 10, 4);
  engine.Solve(5, box, cached);  // first sighting: nothing inserted
  engine.Solve(5, box, cached);
  ASSERT_EQ(engine.region_cache()->NumEntries(), 1u);
  engine.region_cache()->Clear();
  EXPECT_EQ(engine.region_cache()->NumEntries(), 0u);
  // The next identical query misses again and, its key already sighted,
  // repopulates.
  const ToprrResult after = engine.Solve(5, box, cached);
  EXPECT_EQ(after.stats.scheduler.cache_misses, 1u);
  EXPECT_EQ(after.stats.scheduler.cache_deferred, 0u);
  EXPECT_EQ(engine.region_cache()->NumEntries(), 1u);
}

// shared_ptr payloads: an entry snapshot taken before Clear() stays
// fully usable afterwards -- the teardown-safety property the serving
// front-end's Stop() relies on.
TEST(RegionCacheTest, PinnedEntrySurvivesClear) {
  RegionCache cache{RegionCacheConfig{}};
  auto entry = std::make_shared<RegionCacheEntry>();
  entry->box = Box({0.1, 0.1}, {0.3, 0.3});
  entry->k = 2;
  entry->signature = "s";
  FlatCell cell;
  cell.id = 1;
  cell.region = FlatRegion::FromBox(entry->box);
  entry->cells.push_back(std::move(cell));
  cache.Insert(entry);
  const std::shared_ptr<const RegionCacheEntry> pinned =
      cache.FindContaining(2, "s", Box({0.15, 0.15}, {0.25, 0.25}));
  ASSERT_TRUE(pinned != nullptr);
  cache.Clear();
  EXPECT_EQ(cache.NumEntries(), 0u);
  // The snapshot's geometry is still intact.
  EXPECT_EQ(pinned->cells.size(), 1u);
  EXPECT_EQ(pinned->cells[0].region.num_vertices(), 4u);
  GeomArena arena;
  std::vector<Vec> vall;
  EXPECT_EQ(AppendCellsClippedToBox(pinned->cells,
                                    Box({0.15, 0.15}, {0.25, 0.25}), 1e-10,
                                    &arena, &vall),
            1u);
  EXPECT_EQ(vall.size(), 4u);
}

// Concurrent SolveBatch rounds over a zipf-like mix: first sightings,
// admitting misses, and hits race inserts and each other. Run under
// TSan/ASan in CI; here the assertion is completion plus per-query
// agreement with a cold engine. After two rounds every key has been
// sighted twice and inserted, so the third round hits throughout.
TEST(RegionCacheTest, ConcurrentSolveBatchMixesHitsAndMisses) {
  const double quantum = 1.0 / 256.0;
  Dataset data = GenerateSynthetic(400, 3, Distribution::kIndependent, 77);
  ToprrEngine warm(DatasetSnapshot::FromDataset(data));
  warm.EnableRegionCache({});
  ToprrEngine cold(DatasetSnapshot::FromDataset(data));
  Rng rng(40);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 64; ++i) {
    ToprrOptions options;
    options.build_geometry = false;
    options.use_region_cache = true;
    const uint64_t cell = 8 + static_cast<uint64_t>(rng.UniformInt(0, 2));
    PrefBox box = GridBox(2, quantum, cell, 4);
    // Half the queries jitter within the grid cell, half shift off-grid
    // by more than a cell (other canonical keys).
    if (i % 2 == 0) {
      const double delta = (rng.Uniform() - 0.5) * 0.8 * quantum;
      for (size_t j = 0; j < 2; ++j) {
        box.lo[j] += delta;
        box.hi[j] += delta;
      }
    } else {
      const double delta = (1.5 + rng.Uniform()) * quantum;
      for (size_t j = 0; j < 2; ++j) {
        box.lo[j] += delta;
        box.hi[j] += delta;
      }
    }
    if (!box.InsideSimplex()) continue;
    queries.push_back(ToprrQuery::FromBox(1 + (i % 3), box, options));
  }
  std::vector<ToprrResult> references;
  for (const ToprrQuery& query : queries) {
    ToprrQuery plain = query;
    plain.options.use_region_cache = false;
    references.push_back(cold.Solve(plain));
  }
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const std::vector<ToprrResult> results = warm.SolveBatch(queries, 8);
    ASSERT_EQ(results.size(), queries.size());
    uint64_t lookups = 0;
    uint64_t hits = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_FALSE(results[i].timed_out);
      const SchedulerStats& s = results[i].stats.scheduler;
      lookups += s.cache_hits + s.cache_misses;
      hits += s.cache_hits;
      if (s.cache_deferred == 1) {
        ExpectBitIdentical(references[i], results[i]);
      } else {
        ExpectSameRegionSemantics(data, references[i], results[i], 1000 + i);
      }
    }
    EXPECT_EQ(lookups, results.size());  // every query classified once
    if (round == 2) {
      EXPECT_EQ(hits, results.size());
    }
  }
  const RegionCacheCounters counters = warm.region_cache()->Counters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_GT(counters.deferred, 0u);
  EXPECT_GT(counters.misses, counters.deferred);
}

TEST(RegionCacheTest, StaleSnapshotEntriesAreNeverServedAfterPublish) {
  // Entries are keyed by the epoch of the k-skyband they were solved
  // under: a publish whose row enters the skyband changes the answer, so
  // the same query must miss and resolve against the new snapshot --
  // never against the old entry, whose cells would be stale.
  Dataset data = GenerateSynthetic(300, 3, Distribution::kIndependent, 6);
  MutableCatalog catalog(data);
  ToprrEngine engine(catalog.Current());
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = GridBox(2, 1.0 / 256.0, 12, 4);
  const int k = 3;

  engine.Solve(k, box, cached);  // first sighting: nothing inserted
  engine.Solve(k, box, cached);
  const ToprrResult warm_v1 = engine.Solve(k, box, cached);
  EXPECT_EQ(warm_v1.stats.scheduler.cache_hits, 1u);

  // Publish a row that lands in the box's top-k everywhere: it joins the
  // k-skyband and the correct answer changes, so serving the stale entry
  // would be detectable.
  catalog.StageInsert(Vec{0.99, 0.99, 0.99});
  const SnapshotPtr v2 = catalog.Publish();
  engine.SetSnapshot(v2);

  const uint64_t hits_before = engine.region_cache()->Counters().hits;
  const ToprrResult after = engine.Solve(k, box, cached);
  EXPECT_EQ(after.stats.scheduler.cache_misses, 1u);  // not a (stale) hit
  EXPECT_EQ(after.stats.scheduler.cache_deferred, 0u);  // sighted before
  EXPECT_EQ(engine.region_cache()->Counters().hits, hits_before);
  EXPECT_EQ(after.snapshot_id, v2->id());
  // The re-solved entry answers from the new snapshot, bit-identical to
  // a cold engine pinned there.
  ToprrEngine cold(v2);
  ToprrOptions plain = cached;
  plain.use_region_cache = false;
  ExpectBitIdentical(cold.Solve(k, box, plain), after);
  // Both versions' entries coexist in the LRU (the old one just ages
  // out); nothing was mass-dropped.
  EXPECT_EQ(engine.region_cache()->NumEntries(), 2u);
  // And the new entry serves hits for the new version.
  const ToprrResult warm_v2 = engine.Solve(k, box, cached);
  EXPECT_EQ(warm_v2.stats.scheduler.cache_hits, 1u);
  ExpectBitIdentical(after, warm_v2);
}

TEST(RegionCacheTest, EntriesSurvivePublishesThatKeepTheSkyband) {
  // A dominated insert and a non-member delete leave the k-skyband -- and
  // so every answer -- unchanged: the cached entry keeps serving, and the
  // hit is bit-identical to a fresh cache-enabled engine at the new
  // snapshot.
  Dataset data = GenerateSynthetic(300, 3, Distribution::kIndependent, 8);
  MutableCatalog catalog(data);
  ToprrEngine engine(catalog.Current());
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = GridBox(2, 1.0 / 256.0, 12, 4);
  const int k = 3;
  ASSERT_EQ(engine.Solve(k, box, cached).stats.scheduler.cache_deferred, 1u);
  const ToprrResult admitted = engine.Solve(k, box, cached);
  ASSERT_EQ(admitted.stats.scheduler.cache_misses, 1u);
  ASSERT_EQ(admitted.stats.scheduler.cache_deferred, 0u);

  const std::vector<int> members = engine.KSkyband(k);
  int non_member = -1;
  for (const int id : catalog.Current()->live_ids()) {
    if (!std::binary_search(members.begin(), members.end(), id)) {
      non_member = id;
      break;
    }
  }
  ASSERT_GE(non_member, 0);
  catalog.StageInsert(Vec{0.001, 0.001, 0.001});
  ASSERT_TRUE(catalog.StageDelete(non_member));
  const SnapshotPtr v2 = catalog.Publish();
  engine.SetSnapshot(v2);
  ASSERT_EQ(engine.KSkyband(k), members);

  const ToprrResult hit = engine.Solve(k, box, cached);
  EXPECT_EQ(hit.stats.scheduler.cache_hits, 1u);
  EXPECT_EQ(hit.snapshot_id, v2->id());
  ToprrEngine fresh(v2);
  fresh.EnableRegionCache({});
  fresh.Solve(k, box, cached);  // first sighting
  const ToprrResult miss = fresh.Solve(k, box, cached);
  EXPECT_EQ(miss.stats.scheduler.cache_misses, 1u);
  EXPECT_EQ(miss.stats.scheduler.cache_deferred, 0u);
  ExpectBitIdentical(miss, hit);

  // A row that joins the skyband changes the answer (a miss); deleting
  // it again returns the skyband to its earlier state, whose entry hits.
  const int strong = catalog.StageInsert(Vec{0.99, 0.99, 0.99});
  engine.SetSnapshot(catalog.Publish());
  EXPECT_EQ(engine.Solve(k, box, cached).stats.scheduler.cache_misses, 1u);
  ASSERT_TRUE(catalog.StageDelete(strong));
  const SnapshotPtr v4 = catalog.Publish();
  engine.SetSnapshot(v4);
  ASSERT_EQ(engine.KSkyband(k), members);
  const ToprrResult back = engine.Solve(k, box, cached);
  EXPECT_EQ(back.stats.scheduler.cache_hits, 1u);
  ToprrEngine fresh_v4(v4);
  fresh_v4.EnableRegionCache({});
  fresh_v4.Solve(k, box, cached);  // first sighting
  ExpectBitIdentical(fresh_v4.Solve(k, box, cached), back);
}

TEST(RegionCacheTest, UnrelatedSnapshotsWithEqualSkybandIdsDoNotShare) {
  // Two unrelated tables of mutually incomparable rows (x rises as y
  // falls): every row is in each one's skyband, so the skyband ids are
  // equal, but the rows differ, and so must the cache entries.
  std::vector<Vec> first;
  std::vector<Vec> second;
  for (int i = 0; i < 12; ++i) {
    const double t = (i + 1) / 13.0;
    first.push_back(Vec{t, 1.0 - t, 0.5 + 0.03 * i});
    second.push_back(Vec{t, 1.0 - t, 0.9 - 0.05 * i});
  }
  const int k = 3;
  ToprrEngine engine(DatasetSnapshot::FromRows(first));
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = GridBox(2, 1.0 / 256.0, 12, 4);
  engine.Solve(k, box, cached);  // first sighting: nothing inserted
  engine.Solve(k, box, cached);
  ASSERT_EQ(engine.region_cache()->NumEntries(), 1u);
  const std::vector<int> ids = engine.KSkyband(k);

  const SnapshotPtr other = DatasetSnapshot::FromRows(second);
  engine.SetSnapshot(other);
  ASSERT_EQ(engine.KSkyband(k), ids);
  const ToprrResult result = engine.Solve(k, box, cached);
  EXPECT_EQ(result.stats.scheduler.cache_misses, 1u);
  EXPECT_EQ(result.stats.scheduler.cache_deferred, 0u);
  ToprrEngine cold(other);
  ToprrOptions plain;
  ExpectBitIdentical(cold.Solve(k, box, plain), result);
}

// A writer churns the catalog -- weak (dominated) and strong inserts,
// deletes of its own rows and of k-skyband members -- between rounds of
// same-size grid-aligned queries. A hit, an admitting miss, or a first
// sighting must be bit-identical to a fresh cache-enabled engine at the
// same snapshot (for grid-aligned boxes all three equal a cache-off
// solve). Entries must survive the publishes that keep the skyband.
TEST(RegionCacheTest, ChurnMatrixHitsAcrossPublishesStayExact) {
  const double quantum = 1.0 / 256.0;
  // Disjoint positions, plus one overlapping two of them (never contained
  // in either, so it misses).
  const uint64_t positions[] = {8, 12, 16, 20, 10};
  uint64_t queries = 0;
  uint64_t hits_across_publishes = 0;
  for (const size_t d : {size_t{3}, size_t{4}}) {
    for (const int k : {1, 5, 10}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " k=" << k);
      const Dataset data = GenerateSynthetic(
          250, d, Distribution::kIndependent, 900 + 10 * d + k);
      MutableCatalog catalog(data);
      ToprrEngine engine(catalog.Current());
      engine.EnableRegionCache({});
      ToprrOptions cached;
      cached.use_region_cache = true;
      Rng rng(31 * d + k);
      std::vector<int> own;
      // Snapshot id of each position's latest miss.
      std::map<uint64_t, uint64_t> solved_at;
      for (int publish = 0; publish < 10; ++publish) {
        const SnapshotPtr snap = engine.snapshot();
        ToprrEngine fresh(snap);
        fresh.EnableRegionCache({});
        for (const uint64_t at : positions) {
          const PrefBox box = GridBox(d - 1, quantum, at, 4);
          ASSERT_TRUE(box.InsideSimplex());
          const ToprrResult result = engine.Solve(k, box, cached);
          ++queries;
          ASSERT_FALSE(result.timed_out);
          ASSERT_EQ(result.snapshot_id, snap->id());
          const SchedulerStats& stats = result.stats.scheduler;
          if (stats.cache_misses == 1 && stats.cache_deferred == 0) {
            solved_at[at] = snap->id();
          }
          if (stats.cache_hits == 1 && solved_at[at] != snap->id()) {
            ++hits_across_publishes;
          }
          ExpectBitIdentical(fresh.Solve(k, box, cached), result);
          if (testing::Test::HasFailure()) return;
        }

        // One delta of the round's kind, cycling through all four.
        switch (publish % 4) {
          case 0:  // weak inserts: dominated by much of the table
            for (int i = 0; i < 3; ++i) {
              Vec row(d);
              for (size_t j = 0; j < d; ++j) row[j] = 0.2 * rng.Uniform();
              own.push_back(catalog.StageInsert(row));
            }
            break;
          case 1:  // a strong insert: likely a new skyband member
            {
              Vec row(d);
              for (size_t j = 0; j < d; ++j) {
                row[j] = 0.8 + 0.2 * rng.Uniform();
              }
              own.push_back(catalog.StageInsert(row));
            }
            break;
          case 2:  // delete the writer's own oldest rows
            for (int i = 0; i < 2 && !own.empty(); ++i) {
              ASSERT_TRUE(catalog.StageDelete(own.front()));
              own.erase(own.begin());
            }
            break;
          case 3:  // delete a skyband member
            {
              const std::vector<int>& members = engine.KSkyband(k);
              const int victim = members[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int>(members.size()) - 1))];
              ASSERT_TRUE(catalog.StageDelete(victim));
              own.erase(std::remove(own.begin(), own.end(), victim),
                        own.end());
            }
            break;
        }
        engine.SetSnapshot(catalog.Publish());
      }
    }
  }
  EXPECT_GT(hits_across_publishes, 0u) << "of " << queries << " queries";
}

// A writer publishing (inserts and skyband-member deletes) while readers
// run cached SolveBatch over grid-aligned boxes. Every result must be
// bit-identical to a cold solve at the snapshot it says it pinned.
// Labeled `concurrency`, so CI repeats it under TSan.
TEST(RegionCacheTest, ConcurrentPublishUnderCachedReaders) {
  const double quantum = 1.0 / 256.0;
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 78);
  MutableCatalog catalog(data);
  ToprrEngine engine(catalog.Current());
  engine.EnableRegionCache({});

  std::mutex versions_mu;
  std::map<uint64_t, SnapshotPtr> versions;
  versions[catalog.CurrentId()] = catalog.Current();

  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 12; ++i) {
    ToprrOptions options;
    options.use_region_cache = true;
    const PrefBox box =
        GridBox(2, quantum, 8 + 4 * static_cast<uint64_t>(i % 4), 4);
    queries.push_back(ToprrQuery::FromBox(1 + 4 * (i % 3), box, options));
  }

  std::thread writer([&] {
    Rng wrng(79);
    for (int publish = 0; publish < 6; ++publish) {
      for (int i = 0; i < 3; ++i) {
        Vec row(3);
        for (size_t j = 0; j < 3; ++j) row[j] = wrng.Uniform();
        catalog.StageInsert(row);
      }
      if (publish % 2 == 1) {
        const std::vector<int> members = engine.KSkyband(5);
        catalog.StageDelete(members[static_cast<size_t>(wrng.UniformInt(
            0, static_cast<int>(members.size()) - 1))]);
      }
      const SnapshotPtr next = catalog.Publish();
      {
        std::lock_guard<std::mutex> lock(versions_mu);
        versions[next->id()] = next;
      }
      engine.SetSnapshot(next);
    }
  });

  std::vector<std::vector<ToprrResult>> rounds;
  for (int round = 0; round < 4; ++round) {
    rounds.push_back(engine.SolveBatch(queries, 3));
  }
  writer.join();

  for (const std::vector<ToprrResult>& round : rounds) {
    ASSERT_EQ(round.size(), queries.size());
    for (size_t i = 0; i < round.size(); ++i) {
      SCOPED_TRACE(i);
      ASSERT_FALSE(round[i].timed_out);
      const auto it = versions.find(round[i].snapshot_id);
      ASSERT_NE(it, versions.end())
          << "result pinned an unknown snapshot version";
      ToprrEngine cold(it->second);
      ToprrQuery plain = queries[i];
      plain.options.use_region_cache = false;
      ExpectBitIdentical(cold.Solve(plain), round[i]);
    }
  }
}

// The doorkeeper key leaves out the k-skyband epoch: after a publish that
// changes the skyband, a key sighted before is admitted on its first
// re-sighting, and what it inserts serves the new snapshot.
TEST(RegionCacheTest, SightingsSurviveSkybandChangingPublishes) {
  const double quantum = 1.0 / 256.0;
  Dataset data = GenerateSynthetic(300, 3, Distribution::kIndependent, 9);
  MutableCatalog catalog(data);
  ToprrEngine engine(catalog.Current());
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = Jittered(GridBox(2, quantum, 12, 4), quantum);
  const int k = 3;
  ASSERT_EQ(engine.Solve(k, box, cached).stats.scheduler.cache_deferred, 1u);
  ASSERT_EQ(engine.region_cache()->NumEntries(), 0u);

  const std::vector<int> before = engine.KSkyband(k);
  catalog.StageInsert(Vec{0.99, 0.99, 0.99});
  const SnapshotPtr v2 = catalog.Publish();
  engine.SetSnapshot(v2);
  ASSERT_NE(engine.KSkyband(k), before);

  const ToprrResult admitted = engine.Solve(k, box, cached);
  EXPECT_EQ(admitted.stats.scheduler.cache_misses, 1u);
  EXPECT_EQ(admitted.stats.scheduler.cache_deferred, 0u);
  EXPECT_EQ(engine.region_cache()->NumEntries(), 1u);
  EXPECT_EQ(admitted.snapshot_id, v2->id());
  ToprrEngine fresh(v2);
  fresh.EnableRegionCache({});
  fresh.Solve(k, box, cached);  // first sighting
  ExpectBitIdentical(fresh.Solve(k, box, cached), admitted);

  const ToprrResult hit = engine.Solve(k, box, cached);
  EXPECT_EQ(hit.stats.scheduler.cache_hits, 1u);
  ExpectBitIdentical(admitted, hit);
}

// Sighting far more keys than the doorkeeper has slots forgets old keys
// but never grows it or inserts anything, and a forgotten key only delays
// admission: every answer stays exact on either path.
TEST(RegionCacheTest, DoorkeeperPastCapacityStaysBoundedAndExact) {
  const double quantum = 1.0 / 256.0;
  Dataset data = GenerateSynthetic(300, 3, Distribution::kIndependent, 10);
  ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  engine.EnableRegionCache({});
  RegionCache& cache = *engine.region_cache();
  ToprrOptions cached;
  cached.use_region_cache = true;
  ToprrOptions plain;
  const PrefBox box = Jittered(GridBox(2, quantum, 12, 4), quantum);
  const int k = 3;

  const SnapshotPtr snap = engine.snapshot();
  ToprrEngine cold_engine(snap);
  const ToprrResult cold = cold_engine.Solve(k, box, plain);
  ToprrEngine admitting_engine(snap);
  admitting_engine.EnableRegionCache({});
  admitting_engine.Solve(k, box, cached);  // first sighting
  const ToprrResult admitted = admitting_engine.Solve(k, box, cached);
  ASSERT_EQ(admitted.stats.scheduler.cache_deferred, 0u);

  ExpectBitIdentical(cold, engine.Solve(k, box, cached));
  const size_t doorkeeper_bytes = cache.DoorkeeperBytes();
  EXPECT_EQ(doorkeeper_bytes,
            RegionCache::kDoorkeeperSlots * sizeof(uint64_t));
  // Twice the capacity in distinct keys (distinct k), none inserted.
  const std::string options_signature = CacheSignature(cached);
  for (size_t i = 0; i < 2 * RegionCache::kDoorkeeperSlots; ++i) {
    cache.Admit(100 + static_cast<int>(i), options_signature, box);
  }
  EXPECT_EQ(cache.DoorkeeperBytes(), doorkeeper_bytes);
  EXPECT_EQ(cache.NumEntries(), 0u);
  EXPECT_EQ(cache.TotalBytes(), 0u);
  EXPECT_GE(cache.Counters().deferred, 2 * RegionCache::kDoorkeeperSlots);

  // Whether the flood evicted the key or not, each answer is exact: a
  // first sighting equals the cache-off solve, anything else the
  // admitting miss of the canonical box.
  bool hit = false;
  for (int repeat = 0; repeat < 3; ++repeat) {
    SCOPED_TRACE(repeat);
    const ToprrResult result = engine.Solve(k, box, cached);
    const SchedulerStats& stats = result.stats.scheduler;
    ExpectBitIdentical(stats.cache_deferred == 1 ? cold : admitted, result);
    hit = hit || stats.cache_hits == 1;
  }
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.NumEntries(), 1u);
}

// One off-grid box repeated 64 times in a concurrent batch: exactly one
// sighting is deferred (the doorkeeper exchange orders them), the racing
// admitted misses insert once (first insert wins), and every answer is
// either the cache-off solve or the admitted entry's clip. Labeled
// `concurrency` with the rest of the suite, so CI runs it under TSan.
TEST(RegionCacheTest, ConcurrentRepeatsOfOneBoxAdmitOnce) {
  const double quantum = 1.0 / 256.0;
  Dataset data = GenerateSynthetic(400, 3, Distribution::kIndependent, 11);
  const SnapshotPtr snap = DatasetSnapshot::FromDataset(data);
  ToprrEngine engine(snap);
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  const PrefBox box = Jittered(GridBox(2, quantum, 10, 5), quantum);
  const int k = 5;

  ToprrEngine cold_engine(snap);
  const ToprrResult cold = cold_engine.Solve(k, box, ToprrOptions{});
  ToprrEngine admitting_engine(snap);
  admitting_engine.EnableRegionCache({});
  admitting_engine.Solve(k, box, cached);  // first sighting
  const ToprrResult admitted = admitting_engine.Solve(k, box, cached);

  const std::vector<ToprrQuery> queries(64,
                                        ToprrQuery::FromBox(k, box, cached));
  const std::vector<ToprrResult> results = engine.SolveBatch(queries, 4);
  ASSERT_EQ(results.size(), queries.size());
  uint64_t deferred = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(i);
    const SchedulerStats& stats = results[i].stats.scheduler;
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, 1u);
    deferred += stats.cache_deferred;
    ExpectBitIdentical(stats.cache_deferred == 1 ? cold : admitted,
                       results[i]);
  }
  EXPECT_EQ(deferred, 1u);
  const RegionCacheCounters counters = engine.region_cache()->Counters();
  EXPECT_EQ(counters.deferred, 1u);
  EXPECT_EQ(counters.insertions, 1u);
  EXPECT_EQ(engine.region_cache()->NumEntries(), 1u);
}

}  // namespace
}  // namespace toprr
