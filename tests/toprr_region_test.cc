// Tests for the generalized wR interfaces: arbitrary convex polytopes and
// non-convex unions of convex pieces (paper Sec. 3.1).
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "topk/topk.h"

namespace toprr {
namespace {

PrefBox Box2(double lo0, double lo1, double hi0, double hi1) {
  PrefBox box;
  box.lo = Vec{lo0, lo1};
  box.hi = Vec{hi0, hi1};
  return box;
}

// A triangle in 2-D preference space given by three vertices.
PrefRegion Triangle(const Vec& a, const Vec& b, const Vec& c) {
  std::vector<Vec> vertices = {a, b, c};
  // Facets: the three edges, oriented to contain the centroid.
  Vec centroid = (a + b + c) / 3.0;
  std::vector<RegionFacet> facets;
  const int edges[3][2] = {{0, 1}, {1, 2}, {2, 0}};
  for (const auto& e : edges) {
    const Vec& u = vertices[e[0]];
    const Vec& v = vertices[e[1]];
    Vec normal{v[1] - u[1], -(v[0] - u[0])};  // perpendicular to the edge
    double offset = Dot(normal, u);
    if (Dot(normal, centroid) > offset) {
      normal *= -1.0;
      offset = -offset;
    }
    RegionFacet f;
    f.halfspace = Halfspace(std::move(normal), offset);
    f.vertex_ids = {e[0], e[1]};
    facets.push_back(std::move(f));
  }
  return PrefRegion::FromVerticesAndFacets(std::move(vertices),
                                           std::move(facets));
}

TEST(ToprrRegionTest, BoxAsRegionMatchesBoxApi) {
  const Dataset ds = GenerateSynthetic(400, 3, Distribution::kIndependent,
                                       120);
  const PrefBox box = Box2(0.2, 0.25, 0.26, 0.31);
  const ToprrResult via_box = SolveToprr(ds, 5, box);
  const ToprrResult via_region =
      SolveToprrRegion(ds, 5, PrefRegion::FromBox(box));
  EXPECT_EQ(via_box.stats.candidates_after_filter,
            via_region.stats.candidates_after_filter);
  EXPECT_EQ(via_box.impact_halfspaces.size(),
            via_region.impact_halfspaces.size());
  Rng rng(121);
  for (int trial = 0; trial < 500; ++trial) {
    const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_EQ(via_box.Contains(o), via_region.Contains(o));
  }
}

TEST(ToprrRegionTest, TriangleRegionMatchesSampledGroundTruth) {
  const Dataset ds = GenerateSynthetic(300, 3, Distribution::kIndependent,
                                       122);
  const PrefRegion triangle =
      Triangle(Vec{0.2, 0.2}, Vec{0.3, 0.22}, Vec{0.24, 0.3});
  const int k = 5;
  const ToprrResult result = SolveToprrRegion(ds, k, triangle);
  ASSERT_FALSE(result.timed_out);
  ASSERT_GT(result.impact_halfspaces.size(), 0u);
  Rng rng(123);
  // Sample preference points inside the triangle by barycentric draws.
  const auto sample_triangle = [&]() {
    double u = rng.Uniform();
    double v = rng.Uniform();
    if (u + v > 1.0) {
      u = 1.0 - u;
      v = 1.0 - v;
    }
    return Vec{0.2 + u * (0.3 - 0.2) + v * (0.24 - 0.2),
               0.2 + u * (0.22 - 0.2) + v * (0.3 - 0.2)};
  };
  std::vector<int> all_ids(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) all_ids[i] = static_cast<int>(i);
  for (int trial = 0; trial < 150; ++trial) {
    Vec o(3);
    for (size_t j = 0; j < 3; ++j) o[j] = rng.Uniform(0.6, 1.0);
    double closest = 1e9;
    for (const Halfspace& h : result.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    if (closest < 1e-6) continue;
    if (result.Contains(o)) {
      // Soundness: top-k at sampled triangle points.
      for (int s = 0; s < 40; ++s) {
        const Vec x = sample_triangle();
        const TopkResult topk = ComputeTopKReduced(ds, all_ids, x, k);
        EXPECT_GE(ReducedScore(o.data(), x), topk.KthScore() - 1e-12);
      }
    } else {
      // Completeness: some Vall vertex rejects it.
      bool rejected = false;
      for (const Vec& v : result.vall) {
        const TopkResult topk = ComputeTopKReduced(ds, all_ids, v, k);
        if (ReducedScore(o.data(), v) < topk.KthScore() - 1e-12) {
          rejected = true;
          break;
        }
      }
      EXPECT_TRUE(rejected);
    }
  }
}

TEST(ToprrRegionTest, VallStaysInsideTriangle) {
  const Dataset ds = GenerateSynthetic(200, 3, Distribution::kIndependent,
                                       124);
  const PrefRegion triangle =
      Triangle(Vec{0.15, 0.2}, Vec{0.25, 0.2}, Vec{0.2, 0.3});
  const ToprrResult result = SolveToprrRegion(ds, 4, triangle);
  const FlatRegion flat = FlatRegion::FromRegion(triangle);
  for (const Vec& v : result.vall) {
    EXPECT_TRUE(flat.Contains(v, 1e-7)) << v.ToString();
  }
}

TEST(ToprrPiecesTest, TwoHalvesEqualWhole) {
  // Split a box wR into two halves; the union is the original box, so the
  // merged pieces result must match the whole-box result.
  const Dataset ds = GenerateSynthetic(300, 3, Distribution::kIndependent,
                                       125);
  const int k = 5;
  const PrefBox whole = Box2(0.2, 0.2, 0.26, 0.26);
  const PrefBox left = Box2(0.2, 0.2, 0.23, 0.26);
  const PrefBox right = Box2(0.23, 0.2, 0.26, 0.26);
  const ToprrResult merged = SolveToprrPieces(
      ds, k, {PrefRegion::FromBox(left), PrefRegion::FromBox(right)});
  const ToprrResult direct = SolveToprr(ds, k, whole);
  ASSERT_FALSE(merged.timed_out);
  Rng rng(126);
  for (int trial = 0; trial < 800; ++trial) {
    const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    double closest = 1e9;
    for (const Halfspace& h : direct.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    for (const Halfspace& h : merged.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    if (closest < 1e-6) continue;
    EXPECT_EQ(merged.Contains(o), direct.Contains(o)) << o.ToString();
  }
}

TEST(ToprrPiecesTest, DisjointPiecesIntersectConstraints) {
  // A genuinely non-convex wR: two disjoint boxes. The result must be at
  // least as constrained as each piece alone.
  const Dataset ds = GenerateSynthetic(300, 3, Distribution::kIndependent,
                                       127);
  const int k = 5;
  const PrefBox a = Box2(0.15, 0.15, 0.18, 0.18);
  const PrefBox b = Box2(0.3, 0.3, 0.33, 0.33);
  const ToprrResult merged = SolveToprrPieces(
      ds, k, {PrefRegion::FromBox(a), PrefRegion::FromBox(b)});
  const ToprrResult only_a = SolveToprr(ds, k, a);
  const ToprrResult only_b = SolveToprr(ds, k, b);
  Rng rng(128);
  for (int trial = 0; trial < 800; ++trial) {
    const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    if (merged.Contains(o)) {
      EXPECT_TRUE(only_a.Contains(o, 1e-7));
      EXPECT_TRUE(only_b.Contains(o, 1e-7));
    }
    if (!only_a.Contains(o, -1e-9) || !only_b.Contains(o, -1e-9)) {
      EXPECT_FALSE(merged.Contains(o, -1e-7));
    }
  }
  // Geometry was rebuilt for the merged region.
  if (!merged.degenerate && !merged.geometry_skipped) {
    EXPECT_GE(merged.vertices.size(), 3u);
  }
}

}  // namespace
}  // namespace toprr
