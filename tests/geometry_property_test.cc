// Cross-validation property tests for the geometry substrate: the convex
// hull against LP-based extremality, and polytope splitting against
// halfspace-intersection vertex enumeration.
#include <algorithm>
#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/convex_hull.h"
#include "geom/halfspace_intersection.h"
#include "geom/lp.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"

namespace toprr {
namespace {

// A point p is extreme in a point set iff it cannot be written as a convex
// combination of the others -- equivalently there is a direction c with
// c.p > max over others of c.q. We verify via LP on the dual: p is NOT
// extreme iff the system {sum l_i q_i = p, sum l_i = 1, l >= 0} is
// feasible. Encode the l variables as the LP unknowns with equality pairs.
bool IsConvexCombination(const std::vector<Vec>& points, size_t target,
                         double tol = 1e-7) {
  const size_t d = points[0].dim();
  const size_t n = points.size();
  std::vector<Halfspace> constraints;
  const size_t vars = n;  // lambda_i, i != target gets weight; target fixed 0
  // Equalities sum l_i q_i = p and sum l_i = 1 as pairs of inequalities.
  for (size_t row = 0; row <= d; ++row) {
    Vec coeff(vars);
    double rhs;
    if (row < d) {
      for (size_t i = 0; i < n; ++i) {
        coeff[i] = (i == target) ? 0.0 : points[i][row];
      }
      rhs = points[target][row];
    } else {
      for (size_t i = 0; i < n; ++i) coeff[i] = (i == target) ? 0.0 : 1.0;
      rhs = 1.0;
    }
    constraints.emplace_back(coeff, rhs + tol);
    constraints.emplace_back(coeff * -1.0, -(rhs - tol));
  }
  for (size_t i = 0; i < n; ++i) {
    Vec coeff(vars);
    coeff[i] = -1.0;
    constraints.emplace_back(std::move(coeff), 0.0);  // l_i >= 0
  }
  return IsFeasible(constraints, vars);
}

class HullExtremalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(HullExtremalityProperty, HullVerticesAreExactlyTheExtremePoints) {
  const int seed = GetParam();
  Rng rng(seed * 97);
  const size_t d = 2 + static_cast<size_t>(seed % 3);
  std::vector<Vec> points;
  const size_t n = 25;
  for (size_t i = 0; i < n; ++i) {
    Vec p(d);
    for (size_t j = 0; j < d; ++j) p[j] = rng.Uniform();
    points.push_back(std::move(p));
  }
  auto hull = ComputeConvexHull(points);
  ASSERT_TRUE(hull.has_value());
  std::vector<bool> on_hull(n, false);
  for (int v : hull->vertex_indices) on_hull[v] = true;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(on_hull[i], IsConvexCombination(points, i))
        << "point " << i << " misclassified (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HullExtremalityProperty,
                         ::testing::Range(1, 10));

std::vector<Vec> VerticesOf(const FlatRegion& region) {
  std::vector<Vec> vertices;
  for (size_t v = 0; v < region.num_vertices(); ++v) {
    vertices.push_back(region.VertexVec(v));
  }
  return vertices;
}

class SplitVsIntersectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SplitVsIntersectionProperty, SplitChildrenMatchHalfspaceVertices) {
  // Splitting a box region by a random plane must yield children whose
  // vertex sets equal the vertices of {box halfspaces + plane halfspace}
  // computed by the independent duality-based enumerator.
  const int seed = GetParam();
  Rng rng(seed * 101);
  const size_t m = 2 + static_cast<size_t>(seed % 3);
  const PrefBox box = RandomPrefBox(m, 0.2, rng);
  const FlatRegion region = FlatRegion::FromBox(box);
  Vec n(m);
  for (size_t j = 0; j < m; ++j) n[j] = rng.Uniform(-1.0, 1.0);
  if (n.MaxAbs() < 0.2) n[0] = 1.0;
  const Vec point_inside = region.Centroid();
  const Hyperplane plane(n, Dot(n, point_inside));
  GeomArena arena;
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  region.Split(plane, 1e-10, arena, &below, &above);
  ASSERT_TRUE(below.has_value());
  ASSERT_TRUE(above.has_value());

  const auto reference_vertices = [&](bool below) {
    std::vector<Halfspace> hs = box.Halfspaces();
    if (below) {
      hs.emplace_back(plane.normal, plane.offset);
    } else {
      hs.emplace_back(plane.normal * -1.0, -plane.offset);
    }
    auto r = IntersectHalfspaces(hs, box.dim());
    return r.has_value() ? r->vertices : std::vector<Vec>{};
  };
  const auto match = [&](const FlatRegion& child,
                         const std::vector<Vec>& reference) {
    if (reference.empty()) return;  // enumeration degenerate; skip
    const std::vector<Vec> vertices = VerticesOf(child);
    // Every reference vertex appears among the child's vertices.
    for (const Vec& rv : reference) {
      bool found = false;
      for (const Vec& cv : vertices) {
        if (ApproxEqual(cv, rv, 1e-6)) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing vertex " << rv.ToString() << " (seed "
                         << seed << ")";
    }
    // And the child has no extra (out-of-polytope) vertices.
    for (const Vec& cv : vertices) {
      bool found = false;
      for (const Vec& rv : reference) {
        if (ApproxEqual(cv, rv, 1e-6)) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "spurious vertex " << cv.ToString() << " (seed "
                         << seed << ")";
    }
  };
  match(*below, reference_vertices(true));
  match(*above, reference_vertices(false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitVsIntersectionProperty,
                         ::testing::Range(1, 13));

TEST(GeometryPropertyTest, RepeatedSplitsKeepExactVertexSets) {
  // Chain several splits and check the final cell against the accumulated
  // halfspace system.
  Rng rng(424242);
  const size_t m = 3;
  PrefBox box;
  box.lo = Vec(m, 0.1);
  box.hi = Vec(m, 0.3);
  FlatRegion region = FlatRegion::FromBox(box);
  std::vector<Halfspace> accumulated = box.Halfspaces();
  GeomArena arena;
  for (int round = 0; round < 4; ++round) {
    Vec n(m);
    for (size_t j = 0; j < m; ++j) n[j] = rng.Uniform(-1.0, 1.0);
    if (n.MaxAbs() < 0.2) continue;
    const Hyperplane plane(n, Dot(n, region.Centroid()));
    std::optional<FlatRegion> below;
    std::optional<FlatRegion> above;
    region.Split(plane, 1e-10, arena, &below, &above);
    if (!below.has_value() || !above.has_value()) continue;
    const bool keep_below = rng.Uniform() < 0.5;
    region = keep_below ? std::move(*below) : std::move(*above);
    if (keep_below) {
      accumulated.emplace_back(plane.normal, plane.offset);
    } else {
      accumulated.emplace_back(plane.normal * -1.0, -plane.offset);
    }
  }
  auto reference = IntersectHalfspaces(accumulated, m);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(region.num_vertices(), reference->vertices.size());
  const std::vector<Vec> vertices = VerticesOf(region);
  for (const Vec& rv : reference->vertices) {
    bool found = false;
    for (const Vec& cv : vertices) {
      if (ApproxEqual(cv, rv, 1e-6)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << rv.ToString();
  }
}

}  // namespace
}  // namespace toprr
