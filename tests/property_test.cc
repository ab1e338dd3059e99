// Parameterized property-style sweeps over the library's core invariants
// (paper lemmas and theorem), exercised on randomized inputs.
#include <algorithm>
#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "geom/convex_hull.h"
#include "geom/lp.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"
#include "topk/rskyband.h"
#include "topk/topk.h"

namespace toprr {
namespace {

// ---------------------------------------------------------------------
// Lemma 1: vertex score domination extends to the whole convex polytope.
// ---------------------------------------------------------------------

class Lemma1Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma1Property, VertexDominationImpliesRegionDomination) {
  const int seed = GetParam();
  Rng rng(seed);
  const size_t d = 2 + static_cast<size_t>(seed % 4);
  const Dataset ds = GenerateSynthetic(60, d, Distribution::kIndependent,
                                       seed);
  const PrefBox box = RandomPrefBox(d - 1, 0.08, rng);
  const std::vector<Vec> corners = box.Vertices();
  for (int pair = 0; pair < 40; ++pair) {
    const int a = static_cast<int>(rng.UniformInt(0, ds.size() - 1));
    const int b = static_cast<int>(rng.UniformInt(0, ds.size() - 1));
    if (a == b) continue;
    bool dominates_at_vertices = true;
    for (const Vec& v : corners) {
      if (ReducedScoreDiff(ds.Row(a), ds.Row(b), v) < 0.0) {
        dominates_at_vertices = false;
        break;
      }
    }
    if (!dominates_at_vertices) continue;
    // Lemma 1: then S_w(a) >= S_w(b) for every w in the box.
    for (int s = 0; s < 100; ++s) {
      Vec x(d - 1);
      for (size_t j = 0; j + 1 < d; ++j) {
        x[j] = rng.Uniform(box.lo[j], box.hi[j]);
      }
      EXPECT_GE(ReducedScoreDiff(ds.Row(a), ds.Row(b), x), -1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// Lemma 3: the vertex kIPR test implies interior invariance.
// ---------------------------------------------------------------------

class Lemma3Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma3Property, VertexInvarianceImpliesInteriorInvariance) {
  const int seed = GetParam();
  Rng rng(seed * 7 + 1);
  const size_t d = 2 + static_cast<size_t>(seed % 3);
  const Dataset ds = GenerateSynthetic(120, d, Distribution::kIndependent,
                                       seed * 13);
  std::vector<int> ids(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) ids[i] = static_cast<int>(i);
  const int k = 3 + seed % 4;
  // Try small random boxes until one passes the vertex kIPR test.
  for (int attempt = 0; attempt < 50; ++attempt) {
    const PrefBox box = RandomPrefBox(d - 1, 0.01, rng);
    const std::vector<Vec> corners = box.Vertices();
    std::vector<int> ref_set;
    int ref_kth = -1;
    bool invariant = true;
    for (size_t c = 0; c < corners.size(); ++c) {
      const TopkResult r = ComputeTopKReduced(ds, ids, corners[c], k);
      if (c == 0) {
        ref_set = r.IdSet();
        ref_kth = r.KthId();
      } else if (r.IdSet() != ref_set || r.KthId() != ref_kth) {
        invariant = false;
        break;
      }
    }
    if (!invariant) continue;
    // Interior points must agree (Lemma 3 "if" direction).
    for (int s = 0; s < 60; ++s) {
      Vec x(d - 1);
      for (size_t j = 0; j + 1 < d; ++j) {
        x[j] = rng.Uniform(box.lo[j], box.hi[j]);
      }
      const TopkResult r = ComputeTopKReduced(ds, ids, x, k);
      EXPECT_EQ(r.IdSet(), ref_set);
      EXPECT_EQ(r.KthId(), ref_kth);
    }
    return;  // one verified box per seed is enough
  }
  GTEST_SKIP() << "no kIPR box found for this seed (acceptable)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma3Property, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// Lemma 5: removing a consistent top-lambda set and reducing k leaves the
// TopRR output unchanged.
// ---------------------------------------------------------------------

class Lemma5Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma5Property, PruningPreservesResultRegion) {
  const int seed = GetParam();
  Rng rng(seed * 31);
  const size_t d = 3;
  const Dataset ds = GenerateSynthetic(250, d, Distribution::kIndependent,
                                       seed * 37);
  const PrefBox box = RandomPrefBox(d - 1, 0.03, rng);
  const int k = 8;
  ToprrOptions with;
  with.use_lemma5 = true;
  ToprrOptions without;
  without.use_lemma5 = false;
  const ToprrResult a = SolveToprr(ds, k, box, with);
  const ToprrResult b = SolveToprr(ds, k, box, without);
  for (int trial = 0; trial < 800; ++trial) {
    Vec o(d);
    for (size_t j = 0; j < d; ++j) o[j] = rng.Uniform();
    double closest = 1e9;
    for (const Halfspace& h : a.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    for (const Halfspace& h : b.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    if (closest < 1e-6) continue;
    EXPECT_EQ(a.Contains(o), b.Contains(o)) << o.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma5Property, ::testing::Range(1, 7));

// ---------------------------------------------------------------------
// Lemma 7: the optimized test yields the same region as full kIPR
// partitioning.
// ---------------------------------------------------------------------

class Lemma7Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma7Property, OptimizedTestingPreservesResultRegion) {
  const int seed = GetParam();
  Rng rng(seed * 41);
  const size_t d = 3;
  const Dataset ds = GenerateSynthetic(
      250, d, Distribution::kAnticorrelated, seed * 43);
  const PrefBox box = RandomPrefBox(d - 1, 0.03, rng);
  const int k = 6;
  ToprrOptions with;
  ToprrOptions without;
  without.use_lemma7 = false;
  const ToprrResult a = SolveToprr(ds, k, box, with);
  const ToprrResult b = SolveToprr(ds, k, box, without);
  for (int trial = 0; trial < 800; ++trial) {
    Vec o(d);
    for (size_t j = 0; j < d; ++j) o[j] = rng.Uniform();
    double closest = 1e9;
    for (const Halfspace& h : a.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    for (const Halfspace& h : b.impact_halfspaces) {
      closest = std::min(closest,
                         std::abs(h.Violation(o)) / h.normal.Norm());
    }
    if (closest < 1e-6) continue;
    EXPECT_EQ(a.Contains(o), b.Contains(o)) << o.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma7Property, ::testing::Range(1, 7));

// ---------------------------------------------------------------------
// Region splitting: children partition the parent (no loss, no overlap
// beyond the cut plane).
// ---------------------------------------------------------------------

class SplitProperty : public ::testing::TestWithParam<int> {};

TEST_P(SplitProperty, ChildrenPartitionParent) {
  const int seed = GetParam();
  Rng rng(seed * 53);
  const size_t m = 1 + static_cast<size_t>(seed % 4);  // 1..4 dims
  const PrefBox box = RandomPrefBox(m, 0.2, rng);
  const FlatRegion region = FlatRegion::FromBox(box);
  // A plane through the centroid with a random normal always cuts.
  Vec n(m);
  for (size_t j = 0; j < m; ++j) n[j] = rng.Uniform(-1.0, 1.0);
  if (n.MaxAbs() < 0.1) n[0] = 1.0;
  const Hyperplane plane(n, Dot(n, region.Centroid()));
  GeomArena arena;
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  region.Split(plane, 1e-10, arena, &below, &above);
  ASSERT_TRUE(below.has_value());
  ASSERT_TRUE(above.has_value());
  for (int trial = 0; trial < 400; ++trial) {
    Vec x(m);
    for (size_t j = 0; j < m; ++j) {
      x[j] = rng.Uniform(box.lo[j], box.hi[j]);
    }
    const double side = plane.Eval(x);
    if (std::abs(side) < 1e-9) continue;
    EXPECT_EQ(below->Contains(x, 1e-9), side < 0.0);
    EXPECT_EQ(above->Contains(x, 1e-9), side > 0.0);
  }
  // Vertices of children lie inside the parent.
  for (const FlatRegion* child : {&*below, &*above}) {
    for (size_t v = 0; v < child->num_vertices(); ++v) {
      EXPECT_TRUE(region.Contains(child->VertexVec(v), 1e-8));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitProperty, ::testing::Range(1, 13));

// ---------------------------------------------------------------------
// Theorem 1 / result-region invariants on random instances.
// ---------------------------------------------------------------------

class ResultRegionProperty : public ::testing::TestWithParam<int> {};

TEST_P(ResultRegionProperty, VerticesSatisfyAllConstraints) {
  const int seed = GetParam();
  Rng rng(seed * 61);
  const size_t d = 2 + static_cast<size_t>(seed % 3);
  const Dataset ds = GenerateSynthetic(200, d, Distribution::kIndependent,
                                       seed * 67);
  const PrefBox box = RandomPrefBox(d - 1, 0.05, rng);
  const ToprrResult result = SolveToprr(ds, 5, box);
  ASSERT_FALSE(result.timed_out);
  if (result.degenerate) GTEST_SKIP() << "degenerate region";
  ASSERT_GE(result.vertices.size(), d);
  for (const Vec& v : result.vertices) {
    EXPECT_TRUE(result.Contains(v, 1e-6));
  }
  // Supporting halfspaces are a subset of all impact halfspaces and each
  // touches at least one vertex.
  for (size_t idx : result.supporting_halfspaces) {
    ASSERT_LT(idx, result.impact_halfspaces.size());
    const Halfspace& h = result.impact_halfspaces[idx];
    double closest = 1e9;
    for (const Vec& v : result.vertices) {
      closest = std::min(closest, std::abs(h.Violation(v)));
    }
    EXPECT_LT(closest, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultRegionProperty,
                         ::testing::Range(1, 10));

// ---------------------------------------------------------------------
// Filter safety: the r-skyband never changes the k-th score at any
// sampled weight vector in the region.
// ---------------------------------------------------------------------

class FilterProperty : public ::testing::TestWithParam<int> {};

TEST_P(FilterProperty, RSkybandPreservesKthScore) {
  const int seed = GetParam();
  Rng rng(seed * 71);
  const size_t d = 2 + static_cast<size_t>(seed % 4);
  const Dataset ds = GenerateSynthetic(
      400, d,
      seed % 2 == 0 ? Distribution::kIndependent
                    : Distribution::kAnticorrelated,
      seed * 73);
  const PrefBox box = RandomPrefBox(d - 1, 0.05, rng);
  const int k = 1 + seed % 10;
  const std::vector<int> rsky = RSkyband(ds, box, k);
  for (int s = 0; s < 50; ++s) {
    Vec x(d - 1);
    for (size_t j = 0; j + 1 < d; ++j) {
      x[j] = rng.Uniform(box.lo[j], box.hi[j]);
    }
    const TopkResult filtered = ComputeTopKReduced(ds, rsky, x, k);
    const TopkResult full = ComputeTopK(ds, FullWeight(x), k);
    EXPECT_NEAR(filtered.KthScore(), full.KthScore(), 1e-12);
    EXPECT_EQ(filtered.KthId(), full.KthId());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace toprr
