#include "pref/region.h"

#include <algorithm>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pref/flat_region.h"

namespace toprr {
namespace {

PrefBox MakeBox(std::initializer_list<double> lo,
                std::initializer_list<double> hi) {
  PrefBox box;
  box.lo = Vec(lo);
  box.hi = Vec(hi);
  return box;
}

struct Children {
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
};

Children SplitOf(const FlatRegion& region, const Hyperplane& plane) {
  GeomArena arena;
  Children children;
  region.Split(plane, 1e-10, arena, &children.below, &children.above);
  return children;
}

bool HasVertex(const FlatRegion& region, const Vec& x) {
  for (size_t v = 0; v < region.num_vertices(); ++v) {
    if (ApproxEqual(region.VertexVec(v), x, 1e-12)) return true;
  }
  return false;
}

TEST(RegionTest, FromBox1D) {
  const PrefRegion region = PrefRegion::FromBox(MakeBox({0.2}, {0.8}));
  EXPECT_EQ(region.dim(), 1u);
  EXPECT_EQ(region.vertices().size(), 2u);
  EXPECT_EQ(region.facets().size(), 2u);
  const FlatRegion flat = FlatRegion::FromRegion(region);
  EXPECT_TRUE(flat.Contains(Vec{0.5}));
  EXPECT_FALSE(flat.Contains(Vec{0.9}));
}

TEST(RegionTest, FromBox2DStructure) {
  const PrefRegion region =
      PrefRegion::FromBox(MakeBox({0.2, 0.1}, {0.3, 0.2}));
  EXPECT_EQ(region.vertices().size(), 4u);
  EXPECT_EQ(region.facets().size(), 4u);
  for (const RegionFacet& f : region.facets()) {
    EXPECT_EQ(f.vertex_ids.size(), 2u);
    // Incident vertices lie on the facet boundary.
    for (int vid : f.vertex_ids) {
      EXPECT_NEAR(f.halfspace.Violation(region.vertices()[vid]), 0.0, 1e-12);
    }
  }
  EXPECT_TRUE(ApproxEqual(FlatRegion::FromRegion(region).Centroid(),
                          Vec{0.25, 0.15}, 1e-12));
}

TEST(RegionTest, FromBox3DStructure) {
  const PrefRegion region =
      PrefRegion::FromBox(MakeBox({0.2, 0.0, 0.0}, {0.3, 0.3, 0.1}));
  EXPECT_EQ(region.vertices().size(), 8u);
  EXPECT_EQ(region.facets().size(), 6u);
  for (const RegionFacet& f : region.facets()) {
    EXPECT_EQ(f.vertex_ids.size(), 4u);
  }
}

TEST(RegionTest, FlatConversionKeepsVerticesAndFacets) {
  const PrefRegion region =
      PrefRegion::FromBox(MakeBox({0.2, 0.0, 0.0}, {0.3, 0.3, 0.1}));
  const FlatRegion flat = FlatRegion::FromRegion(region);
  ASSERT_EQ(flat.num_vertices(), region.vertices().size());
  for (size_t v = 0; v < flat.num_vertices(); ++v) {
    EXPECT_EQ(flat.VertexVec(v).raw(), region.vertices()[v].raw());
  }
  ASSERT_EQ(flat.num_facets(), region.facets().size());
  for (size_t f = 0; f < flat.num_facets(); ++f) {
    const RegionFacet& facet = region.facets()[f];
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(flat.facet_plane(f)[j], facet.halfspace.normal[j]);
    }
    EXPECT_EQ(flat.facet_offset(f), facet.halfspace.offset);
    EXPECT_EQ(std::vector<int>(flat.facet_ids(f),
                               flat.facet_ids(f) + flat.facet_size(f)),
              facet.vertex_ids);
  }
}

TEST(RegionTest, WellFormedRejectsBadIdsAndDimensions) {
  const PrefRegion box = PrefRegion::FromBox(MakeBox({0.1, 0.1}, {0.3, 0.3}));
  EXPECT_TRUE(box.WellFormed(2));
  EXPECT_FALSE(box.WellFormed(3));
  const auto with = [&](auto edit) {
    std::vector<Vec> vertices = box.vertices();
    std::vector<RegionFacet> facets = box.facets();
    edit(vertices, facets);
    return PrefRegion::FromVerticesAndFacets(std::move(vertices),
                                             std::move(facets))
        .WellFormed(2);
  };
  EXPECT_FALSE(with([](std::vector<Vec>&, std::vector<RegionFacet>& f) {
    f[1].vertex_ids[0] = 4;  // one past the last vertex
  }));
  EXPECT_FALSE(with([](std::vector<Vec>&, std::vector<RegionFacet>& f) {
    f[2].vertex_ids[1] = -1;
  }));
  EXPECT_FALSE(with([](std::vector<Vec>& v, std::vector<RegionFacet>&) {
    v[3] = Vec{0.3, 0.3, 0.0};
  }));
  EXPECT_FALSE(with([](std::vector<Vec>&, std::vector<RegionFacet>& f) {
    f[0].halfspace.normal = Vec{-1.0};
  }));
  // In range, but the vertex lies off the facet's plane.
  EXPECT_FALSE(with([](std::vector<Vec>&, std::vector<RegionFacet>& f) {
    f[0].vertex_ids[0] = 3;
  }));
}

TEST(RegionTest, WellFormedRejectsNonFiniteAndInconsistentValues) {
  const PrefRegion box = PrefRegion::FromBox(MakeBox({0.1, 0.1}, {0.3, 0.3}));
  const auto with = [&](auto edit) {
    std::vector<Vec> vertices = box.vertices();
    std::vector<RegionFacet> facets = box.facets();
    edit(vertices, facets);
    return PrefRegion::FromVerticesAndFacets(std::move(vertices),
                                             std::move(facets))
        .WellFormed(2);
  };
  using Vertices = std::vector<Vec>;
  using Facets = std::vector<RegionFacet>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(with([&](Vertices& v, Facets&) { v[0][1] = nan; }));
  EXPECT_FALSE(with([&](Vertices& v, Facets&) { v[2][0] = -inf; }));
  EXPECT_FALSE(
      with([&](Vertices&, Facets& f) { f[1].halfspace.normal[0] = inf; }));
  EXPECT_FALSE(
      with([&](Vertices&, Facets& f) { f[3].halfspace.offset = nan; }));
  EXPECT_FALSE(with([](Vertices&, Facets& f) {
    f[0].halfspace.normal = Vec{0.0, 0.0};
  }));
  // A consistent box that leaves the simplex: a negative weight, and a
  // weight sum above one.
  EXPECT_FALSE(PrefRegion::FromBox(MakeBox({-0.1, 0.1}, {0.3, 0.3}))
                   .WellFormed(2));
  EXPECT_FALSE(PrefRegion::FromBox(MakeBox({0.1, 0.1}, {0.6, 0.6}))
                   .WellFormed(2));
  EXPECT_FALSE(PrefRegion::FromBox(MakeBox({-1e6, -1e6}, {1e6, 1e6}))
                   .WellFormed(2));
  // A facet moved inward cuts off vertices it does not list.
  EXPECT_FALSE(with([](Vertices&, Facets& f) {
    f[1].halfspace.offset = 0.2;  // x0 <= 0.2, but corners reach 0.3
  }));
  // Round-off far below the tolerance is accepted.
  EXPECT_TRUE(with([](Vertices& v, Facets&) { v[3][0] += 1e-13; }));
}

TEST(RegionSplitTest, Interval) {
  const FlatRegion region = FlatRegion::FromBox(MakeBox({0.2}, {0.8}));
  const Hyperplane plane(Vec{1.0}, 0.5);  // x = 0.5
  const Children split = SplitOf(region, plane);
  ASSERT_TRUE(split.below.has_value());
  ASSERT_TRUE(split.above.has_value());
  EXPECT_TRUE(split.below->Contains(Vec{0.3}));
  EXPECT_FALSE(split.below->Contains(Vec{0.7}));
  EXPECT_TRUE(split.above->Contains(Vec{0.7}));
  // New vertex at 0.5 on both children.
  EXPECT_TRUE(HasVertex(*split.below, Vec{0.5}));
  EXPECT_TRUE(HasVertex(*split.above, Vec{0.5}));
}

TEST(RegionSplitTest, NonCuttingPlaneReturnsOneSide) {
  const FlatRegion region = FlatRegion::FromBox(MakeBox({0.2}, {0.8}));
  const Children split = SplitOf(region, Hyperplane(Vec{1.0}, 0.9));
  EXPECT_TRUE(split.below.has_value());
  EXPECT_FALSE(split.above.has_value());
  EXPECT_EQ(split.below->num_vertices(), 2u);
}

TEST(RegionSplitTest, SquareDiagonal) {
  // Split the unit square by x = y; each child is a triangle.
  const FlatRegion region =
      FlatRegion::FromBox(MakeBox({0.0, 0.0}, {0.4, 0.4}));
  const Hyperplane diag(Vec{1.0, -1.0}, 0.0);
  const Children split = SplitOf(region, diag);
  ASSERT_TRUE(split.below.has_value());
  ASSERT_TRUE(split.above.has_value());
  // Each child is a triangle: the two on-plane corners plus one off-plane
  // corner (the diagonal passes through box corners, so no new vertices).
  EXPECT_EQ(split.below->num_vertices(), 3u);
  EXPECT_TRUE(split.below->Contains(Vec{0.1, 0.3}));
  EXPECT_FALSE(split.below->Contains(Vec{0.3, 0.1}));
  EXPECT_TRUE(split.above->Contains(Vec{0.3, 0.1}));
}

TEST(RegionSplitTest, SquareAxisCut) {
  const FlatRegion region =
      FlatRegion::FromBox(MakeBox({0.0, 0.0}, {1.0, 1.0}));
  const Children split = SplitOf(region, Hyperplane(Vec{1.0, 0.0}, 0.25));
  ASSERT_TRUE(split.below.has_value());
  ASSERT_TRUE(split.above.has_value());
  EXPECT_EQ(split.below->num_vertices(), 4u);
  EXPECT_EQ(split.above->num_vertices(), 4u);
  EXPECT_EQ(split.below->num_facets(), 4u);
  EXPECT_EQ(split.above->num_facets(), 4u);
  // Facet/vertex incidence still consistent.
  for (const FlatRegion* child : {&*split.below, &*split.above}) {
    for (size_t f = 0; f < child->num_facets(); ++f) {
      const double* plane = child->facet_plane(f);
      for (size_t i = 0; i < child->facet_size(f); ++i) {
        const double* x = child->vertex(child->facet_ids(f)[i]);
        EXPECT_NEAR(plane[0] * x[0] + plane[1] * x[1], plane[2], 1e-9);
      }
    }
  }
}

TEST(RegionSplitTest, CubeSplitGeneralPlane) {
  const FlatRegion region =
      FlatRegion::FromBox(MakeBox({0.0, 0.0, 0.0}, {0.2, 0.2, 0.2}));
  const Hyperplane plane(Vec{1.0, 1.0, 1.0}, 0.3);
  const Children split = SplitOf(region, plane);
  ASSERT_TRUE(split.below.has_value());
  ASSERT_TRUE(split.above.has_value());
  // Sample containment agreement with the half-space definition.
  Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    const Vec x{rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2),
                rng.Uniform(0.0, 0.2)};
    const double side = plane.Eval(x);
    if (std::abs(side) < 1e-6) continue;
    if (side < 0.0) {
      EXPECT_TRUE(split.below->Contains(x, 1e-9));
      EXPECT_FALSE(split.above->Contains(x, 1e-9));
    } else {
      EXPECT_TRUE(split.above->Contains(x, 1e-9));
      EXPECT_FALSE(split.below->Contains(x, 1e-9));
    }
  }
}

TEST(RegionSplitTest, RepeatedSplitsPreserveVolumePartition) {
  // After several random splits, any sample point of the original box
  // belongs to at least one leaf region (and leaves do not overlap except
  // at boundaries).
  Rng rng(9);
  std::vector<FlatRegion> leaves = {
      FlatRegion::FromBox(MakeBox({0.1, 0.1}, {0.5, 0.5}))};
  for (int round = 0; round < 5; ++round) {
    std::vector<FlatRegion> next;
    for (const FlatRegion& leaf : leaves) {
      Vec n{rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
      if (n.Norm() < 0.2) {
        next.push_back(leaf);
        continue;
      }
      const Vec c = leaf.Centroid();
      const Hyperplane plane(n, Dot(n, c));  // passes through the centroid
      const Children split = SplitOf(leaf, plane);
      if (split.below.has_value()) next.push_back(*split.below);
      if (split.above.has_value()) next.push_back(*split.above);
    }
    leaves = std::move(next);
  }
  for (int trial = 0; trial < 300; ++trial) {
    const Vec x{rng.Uniform(0.1, 0.5), rng.Uniform(0.1, 0.5)};
    int containing = 0;
    for (const FlatRegion& leaf : leaves) {
      if (leaf.Contains(x, 1e-9)) ++containing;
    }
    EXPECT_GE(containing, 1) << "point lost by splitting: " << x.ToString();
  }
}

TEST(RegionSplitTest, OnPlaneVerticesJoinBothChildren) {
  // Plane through two opposite corners of the square.
  const FlatRegion region =
      FlatRegion::FromBox(MakeBox({0.0, 0.0}, {1.0, 1.0}));
  const Hyperplane diag(Vec{1.0, -1.0}, 0.0);  // through (0,0) and (1,1)
  const Children split = SplitOf(region, diag);
  ASSERT_TRUE(split.below.has_value());
  ASSERT_TRUE(split.above.has_value());
  for (const FlatRegion* child : {&*split.below, &*split.above}) {
    EXPECT_TRUE(HasVertex(*child, Vec{0.0, 0.0}));
    EXPECT_TRUE(HasVertex(*child, Vec{1.0, 1.0}));
    EXPECT_EQ(child->num_vertices(), 3u);  // a triangle
  }
}

}  // namespace
}  // namespace toprr
