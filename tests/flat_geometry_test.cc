// Bit-identical contract of the flat-geometry region engine
// (pref/flat_region.h): FlatRegion::Split must equal PrefRegion::Split
// exactly -- vertices, facet halfspaces, and incident-vertex ids, in the
// same order -- region by region (boxes, diagonal/on-plane cuts, fuzzed
// split chains like geometry_property_test's), plus the GeomArena's
// steady-state zero-allocation guarantee and the determinism of the
// flat-split scheduler counters.
#include "pref/flat_region.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "pref/pref_space.h"
#include "pref/region.h"

namespace toprr {
namespace {

// Exact (bitwise) equality of a FlatRegion and a PrefRegion.
void ExpectSameRegion(const FlatRegion& flat, const PrefRegion& legacy) {
  ASSERT_EQ(flat.dim(), legacy.dim());
  const size_t m = flat.dim();
  ASSERT_EQ(flat.num_vertices(), legacy.vertices().size());
  for (size_t v = 0; v < flat.num_vertices(); ++v) {
    const double* row = flat.vertex(v);
    for (size_t j = 0; j < m; ++j) {
      EXPECT_EQ(row[j], legacy.vertices()[v][j])
          << "vertex " << v << " coord " << j;
    }
  }
  ASSERT_EQ(flat.num_facets(), legacy.facets().size());
  for (size_t f = 0; f < flat.num_facets(); ++f) {
    const RegionFacet& facet = legacy.facets()[f];
    const double* plane = flat.facet_plane(f);
    for (size_t j = 0; j < m; ++j) {
      EXPECT_EQ(plane[j], facet.halfspace.normal[j])
          << "facet " << f << " normal " << j;
    }
    EXPECT_EQ(flat.facet_offset(f), facet.halfspace.offset) << "facet " << f;
    ASSERT_EQ(flat.facet_size(f), facet.vertex_ids.size()) << "facet " << f;
    for (size_t i = 0; i < flat.facet_size(f); ++i) {
      EXPECT_EQ(flat.facet_ids(f)[i], facet.vertex_ids[i])
          << "facet " << f << " id " << i;
    }
  }
}

// Splits the same polytope through both engines and checks the children
// match bitwise. Returns the flat children for chaining.
void ExpectSameSplit(const FlatRegion& flat, const PrefRegion& legacy,
                     const Hyperplane& plane, GeomArena& arena,
                     std::optional<FlatRegion>* below_out = nullptr,
                     std::optional<FlatRegion>* above_out = nullptr) {
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  flat.Split(plane, 1e-10, arena, &below, &above);
  const PrefRegionSplit reference = legacy.Split(plane);
  ASSERT_EQ(below.has_value(), reference.below.has_value());
  ASSERT_EQ(above.has_value(), reference.above.has_value());
  if (below.has_value()) {
    SCOPED_TRACE("below child");
    ExpectSameRegion(*below, *reference.below);
  }
  if (above.has_value()) {
    SCOPED_TRACE("above child");
    ExpectSameRegion(*above, *reference.above);
  }
  if (below_out != nullptr) *below_out = std::move(below);
  if (above_out != nullptr) *above_out = std::move(above);
}

TEST(FlatRegionTest, ConversionRoundTripIsExact) {
  Rng rng(7001);
  for (size_t m : {1u, 2u, 3u, 4u, 5u}) {
    const PrefBox box = RandomPrefBox(m, 0.2, rng);
    const PrefRegion legacy = PrefRegion::FromBox(box);
    const FlatRegion flat = FlatRegion::FromBox(box);
    SCOPED_TRACE("m=" + std::to_string(m));
    ExpectSameRegion(flat, legacy);
    // And back: the round-tripped PrefRegion splits identically.
    ExpectSameRegion(FlatRegion::FromRegion(flat.ToRegion()), legacy);
    EXPECT_EQ(flat.Centroid().raw(), legacy.Centroid().raw());
    EXPECT_TRUE(flat.Contains(legacy.Centroid()));
  }
}

TEST(FlatRegionTest, SplitMatchesLegacyOnBoxes) {
  Rng rng(7002);
  for (size_t m : {1u, 2u, 3u, 4u, 5u}) {
    GeomArena arena;
    for (int trial = 0; trial < 20; ++trial) {
      const PrefBox box = RandomPrefBox(m, 0.15, rng);
      const PrefRegion legacy = PrefRegion::FromBox(box);
      const FlatRegion flat = FlatRegion::FromBox(box);
      Vec normal(m);
      for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
      if (normal.MaxAbs() < 0.2) normal[0] = 1.0;
      const Hyperplane plane(normal, Dot(normal, legacy.Centroid()));
      SCOPED_TRACE("m=" + std::to_string(m) + " trial=" +
                   std::to_string(trial));
      ExpectSameSplit(flat, legacy, plane, arena);
    }
  }
}

TEST(FlatRegionTest, SplitMatchesLegacyOnDegenerateCuts) {
  GeomArena arena;
  PrefBox box;
  box.lo = Vec{0.0, 0.0};
  box.hi = Vec{0.4, 0.4};
  const PrefRegion legacy = PrefRegion::FromBox(box);
  const FlatRegion flat = FlatRegion::FromBox(box);
  // Diagonal through two corners: on-plane vertices join both children.
  ExpectSameSplit(flat, legacy, Hyperplane(Vec{1.0, -1.0}, 0.0), arena);
  // Non-cutting plane: one absent child.
  ExpectSameSplit(flat, legacy, Hyperplane(Vec{1.0, 0.0}, 0.9), arena);
  // Plane grazing an edge within eps: kOn vertices merge, not duplicate.
  ExpectSameSplit(flat, legacy, Hyperplane(Vec{1.0, 0.0}, 0.4), arena);
  // Axis cut producing new vertices on two facets.
  ExpectSameSplit(flat, legacy, Hyperplane(Vec{0.0, 1.0}, 0.1), arena);
}

TEST(FlatRegionTest, FuzzedSplitChainsStayBitIdentical) {
  // The geometry_property_test fuzz shape: chase a chain of random
  // centroid splits, keeping flat and legacy representations in
  // lockstep and comparing every split's full output along the way.
  for (int seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 211);
    const size_t m = 2 + static_cast<size_t>(seed % 4);
    const PrefBox box = RandomPrefBox(m, 0.2, rng);
    PrefRegion legacy = PrefRegion::FromBox(box);
    FlatRegion flat = FlatRegion::FromBox(box);
    GeomArena arena;
    for (int round = 0; round < 6; ++round) {
      Vec normal(m);
      for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
      if (normal.MaxAbs() < 0.2) continue;
      const Hyperplane plane(normal, Dot(normal, legacy.Centroid()));
      SCOPED_TRACE("seed=" + std::to_string(seed) + " round=" +
                   std::to_string(round));
      std::optional<FlatRegion> below;
      std::optional<FlatRegion> above;
      ExpectSameSplit(flat, legacy, plane, arena, &below, &above);
      const PrefRegionSplit reference = legacy.Split(plane);
      if (!below.has_value() || !above.has_value()) continue;
      const bool keep_below = rng.Uniform() < 0.5;
      flat = keep_below ? std::move(*below) : std::move(*above);
      legacy = keep_below ? std::move(*reference.below)
                          : std::move(*reference.above);
    }
  }
}

TEST(FlatRegionTest, SteadyStateSplitGrowsNoArenaScratch) {
  // The acceptance criterion of the GeomArena design: once scratch is
  // warm, splitting same-shaped (or smaller) regions performs zero
  // scratch growth, mirroring score_kernel_test's ScoreArena assertion.
  Rng rng(7003);
  const PrefBox box = RandomPrefBox(4, 0.2, rng);
  const FlatRegion flat = FlatRegion::FromBox(box);
  Vec normal{0.4, -0.7, 0.2, 0.6};
  const Hyperplane plane(normal, Dot(normal, flat.Centroid()));
  GeomArena arena;
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  const auto run = [&]() {
    flat.Split(plane, 1e-10, arena, &below, &above);
    ASSERT_TRUE(below.has_value());
    ASSERT_TRUE(above.has_value());
    // Smaller regions (the children) must ride the warmed scratch too.
    std::optional<FlatRegion> grand_below;
    std::optional<FlatRegion> grand_above;
    Vec n2{0.3, 0.5, -0.4, 0.2};
    below->Split(Hyperplane(n2, Dot(n2, below->Centroid())), 1e-10, arena,
                 &grand_below, &grand_above);
  };
  run();
  const uint64_t warm = arena.counters().geom_arena_allocations;
  EXPECT_GT(warm, 0u);  // the first pass did grow the scratch
  for (int repeat = 0; repeat < 5; ++repeat) run();
  EXPECT_EQ(arena.counters().geom_arena_allocations, warm)
      << "steady-state flat splits must not grow arena scratch";
  EXPECT_GT(arena.counters().split_vertices_classified, 0u);
}

TEST(FlatGeometryTest, GeomCountersDeterministicAcrossExecutors) {
  // split_vertices_classified totals are pure functions of the region
  // tree, so sequential and parallel runs must agree (the per-worker
  // breakdown is timing-dependent, the sums are not).
  const Dataset ds =
      GenerateSynthetic(1500, 3, Distribution::kAnticorrelated, 703);
  PrefBox box;
  box.lo = Vec{0.28, 0.30};
  box.hi = Vec{0.36, 0.38};
  ToprrOptions seq_options;
  seq_options.num_threads = 1;
  ToprrOptions par_options;
  par_options.num_threads = 4;
  const ToprrResult seq = SolveToprr(ds, 10, box, seq_options);
  const ToprrResult par = SolveToprr(ds, 10, box, par_options);
  ASSERT_FALSE(seq.timed_out);
  ASSERT_GT(seq.stats.regions_split, 0u);
  EXPECT_EQ(seq.stats.scheduler.TotalSplitVerticesClassified(),
            par.stats.scheduler.TotalSplitVerticesClassified());
  EXPECT_GT(seq.stats.scheduler.TotalSplitVerticesClassified(), 0u);
}

}  // namespace
}  // namespace toprr
