// FlatRegion::Split (pref/flat_region.h) against the definition of a
// split, independently of how it is computed: every child vertex
// satisfies the parent's facets and its side of the cut, the children's
// volumes sum to the parent's, and each child's vertex set equals the
// IntersectHalfspaces enumeration of the parent's halfspaces plus the
// cut -- on boxes, cuts through a vertex, cuts containing a facet,
// eps-close cuts, fuzzed split chains and an arrangement of
// score-equality planes. Also the GeomArena's steady-state
// zero-allocation guarantee and the determinism of the split counters
// across executors.
#include "pref/flat_region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "geom/convex_hull.h"
#include "geom/halfspace_intersection.h"
#include "pref/pref_space.h"
#include "pref/region.h"

namespace toprr {
namespace {

constexpr double kEps = 1e-10;       // the split's classification eps
constexpr double kFeasTol = 1e-9;    // vertex feasibility slack
constexpr double kVertexTol = 1e-6;  // vertex-set matching (L-inf)

std::vector<Vec> VerticesOf(const FlatRegion& region) {
  std::vector<Vec> vertices;
  for (size_t v = 0; v < region.num_vertices(); ++v) {
    vertices.push_back(region.VertexVec(v));
  }
  return vertices;
}

std::vector<Halfspace> HalfspacesOf(const FlatRegion& region) {
  std::vector<Halfspace> halfspaces;
  const size_t m = region.dim();
  for (size_t f = 0; f < region.num_facets(); ++f) {
    Vec normal(m);
    for (size_t j = 0; j < m; ++j) normal[j] = region.facet_plane(f)[j];
    halfspaces.emplace_back(std::move(normal), region.facet_offset(f));
  }
  return halfspaces;
}

double VolumeOf(const std::vector<Vec>& vertices) {
  if (vertices.empty()) return 0.0;
  if (vertices[0].dim() > 1) return ConvexHullVolume(vertices);
  double lo = vertices[0][0];
  double hi = lo;
  for (const Vec& v : vertices) {
    lo = std::min(lo, v[0]);
    hi = std::max(hi, v[0]);
  }
  return hi - lo;
}

// The child a split chain descends into: a cut through a vertex can
// leave a sliver whose volume is below what the hull resolves.
FlatRegion LargerOf(FlatRegion a, FlatRegion b) {
  return VolumeOf(VerticesOf(a)) >= VolumeOf(VerticesOf(b)) ? std::move(a)
                                                            : std::move(b);
}

// Every vertex of `a` lies within kVertexTol of some vertex of `b`.
void ExpectCovered(const std::vector<Vec>& a, const std::vector<Vec>& b,
                   const char* what) {
  for (const Vec& x : a) {
    const bool found = std::any_of(b.begin(), b.end(), [&](const Vec& y) {
      return ApproxEqual(x, y, kVertexTol);
    });
    EXPECT_TRUE(found) << what << " " << x.ToString(12);
  }
}

// Checks one child against the definition: the polytope {parent
// halfspaces} + `cut`.
void ExpectChildMatchesDefinition(const std::optional<FlatRegion>& child,
                                  const std::vector<Halfspace>& parent,
                                  const Halfspace& cut, size_t m) {
  std::vector<Halfspace> system = parent;
  system.push_back(cut);
  const std::optional<HalfspaceIntersectionResult> reference =
      IntersectHalfspaces(system, m);
  if (!child.has_value()) {
    // No full-dimensional polytope on this side.
    if (reference.has_value()) {
      EXPECT_LT(VolumeOf(reference->vertices), 1e-12)
          << "absent child, but the definition has interior";
    }
    return;
  }
  ASSERT_EQ(child->dim(), m);
  const std::vector<Vec> vertices = VerticesOf(*child);
  for (const Vec& v : vertices) {
    for (const Halfspace& h : parent) {
      EXPECT_LE(h.Violation(v), kFeasTol) << "parent facet " << v.ToString();
    }
    EXPECT_LE(cut.Violation(v), kFeasTol) << "cut " << v.ToString();
  }
  // Facet incidence: each facet's listed vertices lie on its plane.
  for (size_t f = 0; f < child->num_facets(); ++f) {
    const double* plane = child->facet_plane(f);
    for (size_t i = 0; i < child->facet_size(f); ++i) {
      const double* x = child->vertex(child->facet_ids(f)[i]);
      double dot = 0.0;
      for (size_t j = 0; j < m; ++j) dot += plane[j] * x[j];
      EXPECT_NEAR(dot, plane[m], kFeasTol) << "facet " << f;
    }
  }
  ASSERT_TRUE(reference.has_value()) << "child exists, definition empty";
  EXPECT_EQ(vertices.size(), reference->vertices.size());
  ExpectCovered(vertices, reference->vertices, "spurious vertex");
  ExpectCovered(reference->vertices, vertices, "missing vertex");
}

// Splits `region` by `plane` and checks both children against the
// definition and the volume of the parent. Hands the children back for
// chaining.
void ExpectSplitMatchesDefinition(const FlatRegion& region,
                                  const Hyperplane& plane, GeomArena& arena,
                                  std::optional<FlatRegion>* below_out =
                                      nullptr,
                                  std::optional<FlatRegion>* above_out =
                                      nullptr) {
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  region.Split(plane, kEps, arena, &below, &above);
  EXPECT_TRUE(below.has_value() || above.has_value());
  const size_t m = region.dim();
  const std::vector<Halfspace> parent = HalfspacesOf(region);
  {
    SCOPED_TRACE("below child");
    ExpectChildMatchesDefinition(below, parent,
                                 Halfspace(plane.normal, plane.offset), m);
  }
  {
    SCOPED_TRACE("above child");
    ExpectChildMatchesDefinition(
        above, parent, Halfspace(plane.normal * -1.0, -plane.offset), m);
  }
  const double parent_volume = VolumeOf(VerticesOf(region));
  const double children_volume =
      (below.has_value() ? VolumeOf(VerticesOf(*below)) : 0.0) +
      (above.has_value() ? VolumeOf(VerticesOf(*above)) : 0.0);
  // Relative slack plus an absolute term for slivers, whose volume is
  // below what the hull resolves.
  EXPECT_NEAR(children_volume, parent_volume, 1e-9 * parent_volume + 1e-15)
      << "children volumes must sum to the parent's";
  if (below_out != nullptr) *below_out = std::move(below);
  if (above_out != nullptr) *above_out = std::move(above);
}

// Byte equality of two regions: vertices, facet planes and incidences.
void ExpectSameRegion(const FlatRegion& a, const FlatRegion& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.coords(), b.coords());
  ASSERT_EQ(a.num_facets(), b.num_facets());
  for (size_t f = 0; f < a.num_facets(); ++f) {
    EXPECT_TRUE(std::equal(a.facet_plane(f), a.facet_plane(f) + a.dim() + 1,
                           b.facet_plane(f)))
        << "facet " << f;
    EXPECT_TRUE(std::equal(a.facet_ids(f), a.facet_ids(f) + a.facet_size(f),
                           b.facet_ids(f), b.facet_ids(f) + b.facet_size(f)))
        << "facet " << f;
  }
}

PrefBox Box(std::initializer_list<double> lo,
            std::initializer_list<double> hi) {
  PrefBox box;
  box.lo = Vec(lo);
  box.hi = Vec(hi);
  return box;
}

TEST(FlatRegionTest, FromBoxEqualsTheQueryFormConversion) {
  Rng rng(7001);
  for (size_t m : {1u, 2u, 3u, 4u, 5u}) {
    const PrefBox box = RandomPrefBox(m, 0.2, rng);
    const FlatRegion flat = FlatRegion::FromBox(box);
    SCOPED_TRACE("m=" + std::to_string(m));
    EXPECT_EQ(flat.num_vertices(), size_t{1} << m);
    EXPECT_EQ(flat.num_facets(), 2 * m);
    ExpectSameRegion(flat, FlatRegion::FromRegion(PrefRegion::FromBox(box)));
    EXPECT_TRUE(flat.Contains(flat.Centroid()));
    EXPECT_TRUE(ApproxEqual(flat.Centroid(), box.Center(), 1e-15));
  }
}

TEST(FlatRegionTest, SplitMatchesDefinitionOnBoxes) {
  Rng rng(7002);
  for (size_t m : {1u, 2u, 3u, 4u, 5u}) {
    GeomArena arena;
    for (int trial = 0; trial < 20; ++trial) {
      const FlatRegion region =
          FlatRegion::FromBox(RandomPrefBox(m, 0.15, rng));
      Vec normal(m);
      for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
      if (normal.MaxAbs() < 0.2) normal[0] = 1.0;
      const Hyperplane plane(normal, Dot(normal, region.Centroid()));
      SCOPED_TRACE("m=" + std::to_string(m) + " trial=" +
                   std::to_string(trial));
      ExpectSplitMatchesDefinition(region, plane, arena);
    }
  }
}

TEST(FlatRegionTest, SplitThroughVertices) {
  GeomArena arena;
  // The square's diagonal passes through two corners: both children are
  // triangles holding both on-plane corners.
  const FlatRegion square = FlatRegion::FromBox(Box({0.0, 0.0}, {0.4, 0.4}));
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  ExpectSplitMatchesDefinition(square, Hyperplane(Vec{1.0, -1.0}, 0.0),
                               arena, &below, &above);
  ASSERT_TRUE(below.has_value() && above.has_value());
  EXPECT_EQ(below->num_vertices(), 3u);
  EXPECT_EQ(above->num_vertices(), 3u);
  // A cube cut through exactly one corner, (0.4, 0, 0).
  const FlatRegion cube =
      FlatRegion::FromBox(Box({0.0, 0.0, 0.0}, {0.4, 0.4, 0.4}));
  ExpectSplitMatchesDefinition(cube, Hyperplane(Vec{1.0, -1.0, 0.5}, 0.4),
                               arena);
  // A cube cut through four vertices (two opposite edges).
  ExpectSplitMatchesDefinition(cube, Hyperplane(Vec{1.0, -1.0, 0.0}, 0.0),
                               arena);
}

TEST(FlatRegionTest, SplitByPlaneContainingAFacet) {
  GeomArena arena;
  const FlatRegion square = FlatRegion::FromBox(Box({0.0, 0.0}, {0.4, 0.4}));
  for (const Hyperplane& plane :
       {Hyperplane(Vec{1.0, 0.0}, 0.4), Hyperplane(Vec{1.0, 0.0}, 0.0),
        Hyperplane(Vec{0.0, -1.0}, 0.0)}) {
    std::optional<FlatRegion> below;
    std::optional<FlatRegion> above;
    ExpectSplitMatchesDefinition(square, plane, arena, &below, &above);
    // The plane does not cut: the whole square lands on one side.
    EXPECT_NE(below.has_value(), above.has_value());
    ExpectSameRegion(below.has_value() ? *below : *above, square);
  }
  const FlatRegion cube =
      FlatRegion::FromBox(Box({0.1, 0.1, 0.1}, {0.3, 0.3, 0.3}));
  ExpectSplitMatchesDefinition(cube, Hyperplane(Vec{0.0, 0.0, 1.0}, 0.3),
                               arena);
}

TEST(FlatRegionTest, SplitByEpsCloseCuts) {
  GeomArena arena;
  const FlatRegion square = FlatRegion::FromBox(Box({0.0, 0.0}, {0.4, 0.4}));
  // Within eps of a facet, on either side: those vertices count as on
  // the plane, so nothing is cut off.
  for (const double offset : {0.4 + 0.5 * kEps, 0.4 - 0.5 * kEps}) {
    std::optional<FlatRegion> below;
    std::optional<FlatRegion> above;
    ExpectSplitMatchesDefinition(square, Hyperplane(Vec{1.0, 0.0}, offset),
                                 arena, &below, &above);
    ASSERT_TRUE(below.has_value());
    EXPECT_FALSE(above.has_value());
    EXPECT_EQ(below->num_vertices(), 4u);
  }
  // Within eps of a corner while cutting: the crossing points next to
  // the corner merge into it instead of duplicating it.
  const FlatRegion cube =
      FlatRegion::FromBox(Box({0.0, 0.0, 0.0}, {0.4, 0.4, 0.4}));
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  ExpectSplitMatchesDefinition(
      cube, Hyperplane(Vec{1.0, -1.0, 0.5}, 0.4 + 0.5 * kEps), arena, &below,
      &above);
  ASSERT_TRUE(below.has_value() && above.has_value());
  const Vec corner{0.4, 0.0, 0.0};
  for (const FlatRegion* child : {&*below, &*above}) {
    const std::vector<Vec> vertices = VerticesOf(*child);
    EXPECT_EQ(std::count_if(vertices.begin(), vertices.end(),
                            [&](const Vec& v) {
                              return ApproxEqual(v, corner, kVertexTol);
                            }),
              1);
  }
}

TEST(FlatRegionTest, FuzzedSplitChainsMatchDefinition) {
  // Chains of random splits, keeping the larger child each round and
  // checking every split along the way. Every other cut passes through a
  // vertex, as score-equality planes through a shared vertex do in the
  // partition: the vertex becomes non-simple (on more than m facets),
  // which is where telling edges from other vertex pairs on a common
  // face takes the adjacency oracle.
  for (int seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 211);
    const size_t m = 2 + static_cast<size_t>(seed % 4);
    FlatRegion region = FlatRegion::FromBox(RandomPrefBox(m, 0.2, rng));
    GeomArena arena;
    for (int round = 0; round < 8; ++round) {
      Vec normal(m);
      for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
      if (normal.MaxAbs() < 0.2) continue;
      const size_t through = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int>(region.num_vertices()) - 1));
      const Vec anchor =
          round % 2 == 0 ? region.VertexVec(through) : region.Centroid();
      const Hyperplane plane(normal, Dot(normal, anchor));
      SCOPED_TRACE("seed=" + std::to_string(seed) + " round=" +
                   std::to_string(round));
      std::optional<FlatRegion> below;
      std::optional<FlatRegion> above;
      ExpectSplitMatchesDefinition(region, plane, arena, &below, &above);
      if (testing::Test::HasFailure()) return;
      if (!below.has_value() || !above.has_value()) continue;
      region = LargerOf(std::move(*below), std::move(*above));
    }
  }
}

TEST(FlatRegionTest, ScoreEqualityArrangementMatchesDefinition) {
  // Every cell split by every score-equality plane of a few options, as
  // the partition would if no cell were ever accepted. The planes of the
  // pairs within an option triple meet in one (m-2)-flat, so in four
  // dimensions a cell face on that flat can lie in three facets: its
  // diagonal vertex pairs then share m-1 facets without spanning an
  // edge, and only the adjacency oracle tells them apart (a split that
  // takes them for edges fails here).
  const size_t m = 4;
  Rng rng(972);
  const PrefBox box = RandomPrefBox(m, 0.3, rng);
  // Options scoring 0.5 at the box center, so that every plane, and with
  // them every triple's flat, passes through the box.
  const Vec center = box.Center();
  Dataset ds;
  for (int i = 0; i < 5; ++i) {
    Vec row(m + 1);
    double partial = 0.0;
    for (size_t j = 0; j < m; ++j) {
      row[j] = rng.Uniform();
      partial += center[j] * row[j];
    }
    row[m] = (0.5 - partial) / (1.0 - center.Sum());
    ds.Append(row);
  }
  std::vector<FlatRegion> cells = {FlatRegion::FromBox(box)};
  GeomArena arena;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      const Hyperplane plane =
          ScoreEqualityHyperplane(ds.Row(a), ds.Row(b), m);
      std::vector<FlatRegion> next;
      for (const FlatRegion& cell : cells) {
        SCOPED_TRACE("plane " + std::to_string(a) + "/" + std::to_string(b));
        std::optional<FlatRegion> below;
        std::optional<FlatRegion> above;
        ExpectSplitMatchesDefinition(cell, plane, arena, &below, &above);
        if (testing::Test::HasFailure()) return;
        if (below.has_value()) next.push_back(std::move(*below));
        if (above.has_value()) next.push_back(std::move(*above));
      }
      cells = std::move(next);
    }
  }
  EXPECT_GT(cells.size(), 10u);
}

TEST(FlatRegionTest, SplitIsDeterministicAcrossArenas) {
  // The same split in a fresh arena and in one warmed by other splits
  // yields the same bytes: no state crosses calls.
  Rng rng(7004);
  const FlatRegion region = FlatRegion::FromBox(RandomPrefBox(3, 0.2, rng));
  const Vec normal{0.3, -0.8, 0.5};
  const Hyperplane plane(normal, Dot(normal, region.Centroid()));
  GeomArena fresh;
  GeomArena warm;
  std::optional<FlatRegion> a_below, a_above, b_below, b_above;
  FlatRegion::FromBox(RandomPrefBox(5, 0.3, rng))
      .Split(Hyperplane(Vec{1.0, 1.0, 1.0, 1.0, 1.0}, 0.5), kEps, warm,
             &b_below, &b_above);
  region.Split(plane, kEps, fresh, &a_below, &a_above);
  region.Split(plane, kEps, warm, &b_below, &b_above);
  ASSERT_TRUE(a_below.has_value() && b_below.has_value());
  ASSERT_TRUE(a_above.has_value() && b_above.has_value());
  ExpectSameRegion(*a_below, *b_below);
  ExpectSameRegion(*a_above, *b_above);
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
