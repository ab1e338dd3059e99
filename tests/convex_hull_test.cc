#include "geom/convex_hull.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"

namespace toprr {
namespace {

std::vector<Vec> UnitSquareCorners() {
  return {Vec{0.0, 0.0}, Vec{1.0, 0.0}, Vec{0.0, 1.0}, Vec{1.0, 1.0}};
}

TEST(ConvexHullTest, Dimension1) {
  std::vector<Vec> points = {Vec{0.3}, Vec{0.9}, Vec{0.1}, Vec{0.5}};
  auto hull = ComputeConvexHull(points);
  ASSERT_TRUE(hull.has_value());
  EXPECT_EQ(hull->vertex_indices, (std::vector<int>{1, 2}));
}

TEST(ConvexHullTest, SquareWithInteriorPoint) {
  std::vector<Vec> points = UnitSquareCorners();
  points.push_back(Vec{0.5, 0.5});  // interior
  auto hull = ComputeConvexHull(points);
  ASSERT_TRUE(hull.has_value());
  EXPECT_EQ(hull->vertex_indices.size(), 4u);
  EXPECT_FALSE(std::count(hull->vertex_indices.begin(),
                          hull->vertex_indices.end(), 4));
}

TEST(ConvexHullTest, DegenerateCollinear2D) {
  std::vector<Vec> points = {Vec{0.0, 0.0}, Vec{0.5, 0.5}, Vec{1.0, 1.0}};
  EXPECT_FALSE(ComputeConvexHull(points).has_value());
}

TEST(ConvexHullTest, TooFewPoints) {
  EXPECT_FALSE(ComputeConvexHull({Vec{0.0, 0.0}, Vec{1.0, 1.0}}).has_value());
}

TEST(ConvexHullTest, FacetsAreSupporting) {
  Rng rng(3);
  std::vector<Vec> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back(Vec{rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  auto hull = ComputeConvexHull(points);
  ASSERT_TRUE(hull.has_value());
  // Every input point lies on or below every facet plane.
  for (const HullFacet& f : hull->facets) {
    for (const Vec& p : points) {
      EXPECT_LE(Dot(f.normal, p), f.offset + 1e-7);
    }
    // Facet vertices lie on the plane.
    for (int vid : f.vertices) {
      EXPECT_NEAR(Dot(f.normal, points[vid]), f.offset, 1e-8);
    }
  }
}

TEST(ConvexHullTest, CubeVolume3D) {
  std::vector<Vec> points;
  for (int x = 0; x <= 1; ++x) {
    for (int y = 0; y <= 1; ++y) {
      for (int z = 0; z <= 1; ++z) {
        points.push_back(
            Vec{static_cast<double>(x), static_cast<double>(y),
                static_cast<double>(z)});
      }
    }
  }
  EXPECT_NEAR(ConvexHullVolume(points), 1.0, 1e-9);
}

TEST(ConvexHullTest, SimplexVolume4D) {
  // Unit 4-simplex (origin + 4 axis points) has volume 1/4! = 1/24.
  std::vector<Vec> points = {Vec(4, 0.0)};
  for (int j = 0; j < 4; ++j) {
    Vec v(4, 0.0);
    v[j] = 1.0;
    points.push_back(v);
  }
  EXPECT_NEAR(ConvexHullVolume(points), 1.0 / 24.0, 1e-9);
}

TEST(ConvexHullTest, RandomPoints2DMatchesAndrewMonotone) {
  // Cross-check against a classic 2-D monotone-chain implementation.
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec> points;
    for (int i = 0; i < 200; ++i) {
      points.push_back(Vec{rng.Uniform(), rng.Uniform()});
    }
    auto hull = ComputeConvexHull(points);
    ASSERT_TRUE(hull.has_value());

    // Andrew's monotone chain (strict hull: collinear points dropped).
    std::vector<int> order(points.size());
    for (size_t i = 0; i < points.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (points[a][0] != points[b][0]) return points[a][0] < points[b][0];
      return points[a][1] < points[b][1];
    });
    const auto cross = [&](int o, int a, int b) {
      return (points[a][0] - points[o][0]) * (points[b][1] - points[o][1]) -
             (points[a][1] - points[o][1]) * (points[b][0] - points[o][0]);
    };
    const auto build_half = [&](const std::vector<int>& ids) {
      std::vector<int> half;
      for (int id : ids) {
        while (half.size() >= 2 &&
               cross(half[half.size() - 2], half.back(), id) <= 0) {
          half.pop_back();
        }
        half.push_back(id);
      }
      return half;
    };
    std::vector<int> lower = build_half(order);
    std::vector<int> reversed(order.rbegin(), order.rend());
    std::vector<int> upper = build_half(reversed);
    std::vector<int> chain(lower.begin(), lower.end() - 1);
    chain.insert(chain.end(), upper.begin(), upper.end() - 1);
    std::sort(chain.begin(), chain.end());
    std::vector<int> ours = hull->vertex_indices;
    std::sort(ours.begin(), ours.end());
    EXPECT_EQ(ours, chain) << "trial " << trial;
  }
}

TEST(ConvexHullTest, HighDimensionalCrossPolytope) {
  // The 5-D cross polytope: 10 axis vertices, all extreme.
  const size_t d = 5;
  std::vector<Vec> points;
  for (size_t j = 0; j < d; ++j) {
    Vec plus(d, 0.0);
    plus[j] = 1.0;
    points.push_back(plus);
    Vec minus(d, 0.0);
    minus[j] = -1.0;
    points.push_back(minus);
  }
  points.push_back(Vec(d, 0.0));            // center (interior)
  points.push_back(Vec(d, 1.0 / (2 * d)));  // interior
  auto hull = ComputeConvexHull(points);
  ASSERT_TRUE(hull.has_value());
  EXPECT_EQ(hull->vertex_indices.size(), 2 * d);
  // Volume of the d-dim cross polytope is 2^d / d!.
  double expected = std::pow(2.0, static_cast<double>(d));
  for (size_t i = 2; i <= d; ++i) expected /= static_cast<double>(i);
  EXPECT_NEAR(ConvexHullVolume(points), expected, 1e-6);
}

TEST(ConvexHullTest, VolumeOfRandomBoxMatches) {
  Rng rng(5);
  // Random axis-aligned box corners plus interior points.
  const Vec lo{0.2, 0.1, 0.3};
  const Vec hi{0.8, 0.9, 0.7};
  std::vector<Vec> points;
  for (int mask = 0; mask < 8; ++mask) {
    Vec v(3);
    for (int j = 0; j < 3; ++j) {
      v[j] = ((mask >> j) & 1) ? hi[j] : lo[j];
    }
    points.push_back(v);
  }
  for (int i = 0; i < 40; ++i) {
    points.push_back(Vec{rng.Uniform(0.2, 0.8), rng.Uniform(0.1, 0.9),
                         rng.Uniform(0.3, 0.7)});
  }
  const double expected = 0.6 * 0.8 * 0.4;
  EXPECT_NEAR(ConvexHullVolume(points), expected, 1e-6);
}

TEST(ConvexHullTest, CoplanarRichCellVolumeIgnoresInputOrder) {
  // Cells of a 5-D split chain: many vertices per facet, and small
  // simplicial facets whose unnormalized normals are far shorter than
  // the default eps. Every vertex order must measure, at the default
  // eps, the volume a tight eps gives.
  for (int seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(static_cast<uint64_t>(seed) * 211);
    const size_t m = 5;
    FlatRegion cell = FlatRegion::FromBox(RandomPrefBox(m, 0.2, rng));
    GeomArena arena;
    for (int round = 0; round < 8; ++round) {
      Vec normal(m);
      for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
      // Every other cut passes through a vertex, piling vertices onto
      // shared facets.
      const Vec anchor =
          round % 2 == 0
              ? cell.VertexVec(static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(cell.num_vertices()) - 1)))
              : cell.Centroid();
      std::optional<FlatRegion> below;
      std::optional<FlatRegion> above;
      cell.Split(Hyperplane(normal, Dot(normal, anchor)), 1e-10, arena,
                 &below, &above);
      if (!below.has_value() || !above.has_value()) continue;
      cell = below->num_vertices() >= above->num_vertices()
                 ? std::move(*below)
                 : std::move(*above);
    }
    std::vector<Vec> points;
    for (size_t v = 0; v < cell.num_vertices(); ++v) {
      points.push_back(cell.VertexVec(v));
    }
    ASSERT_GE(points.size(), 40u);
    ConvexHullOptions tight;
    tight.eps = 1e-12;
    const double expected = ConvexHullVolume(points, tight);
    ASSERT_GT(expected, 0.0);

    std::vector<std::vector<Vec>> orders = {points};
    orders.emplace_back(points.rbegin(), points.rend());
    std::mt19937 shuffler(static_cast<uint32_t>(seed));
    for (int i = 0; i < 4; ++i) {
      orders.push_back(points);
      std::shuffle(orders.back().begin(), orders.back().end(), shuffler);
    }
    for (size_t i = 0; i < orders.size(); ++i) {
      EXPECT_NEAR(ConvexHullVolume(orders[i]), expected, 1e-9 * expected)
          << "order " << i;
    }
  }
}

TEST(ConvexHullVerticesTest, DegenerateReturnsEmpty) {
  EXPECT_TRUE(ConvexHullVertices({Vec{1.0, 1.0}}).empty());
}

}  // namespace
}  // namespace toprr
