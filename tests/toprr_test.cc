#include "core/toprr.h"

#include <cmath>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "topk/topk.h"

namespace toprr {
namespace {

Dataset PaperFigure1Dataset() {
  return Dataset::FromRows({
      Vec{0.9, 0.4},  // p1
      Vec{0.7, 0.9},  // p2
      Vec{0.6, 0.2},  // p3
      Vec{0.3, 0.8},  // p4
      Vec{0.2, 0.3},  // p5
      Vec{0.1, 0.1},  // p6
  });
}

PrefBox Interval(double lo, double hi) {
  PrefBox box;
  box.lo = Vec{lo};
  box.hi = Vec{hi};
  return box;
}

// Ground truth by dense sampling of the (1-D) preference interval: o is
// top-ranking iff S_w(o) >= TopK(w) at every sampled w.
bool BruteForceTopRanking(const Dataset& ds, int k, double wlo, double whi,
                          const Vec& o, int samples = 400) {
  for (int s = 0; s <= samples; ++s) {
    const double x = wlo + (whi - wlo) * s / samples;
    const Vec w{x, 1.0 - x};
    const TopkResult topk = ComputeTopK(ds, w, k);
    if (Dot(w, o) < topk.KthScore() - 1e-12) return false;
  }
  return true;
}

TEST(ToprrTest, PaperExampleVallVertices) {
  // Paper Sec. 3.3: Vall = {0.2, 0.4, 2/3, 0.8} for k=3, wR=[0.2,0.8].
  const Dataset ds = PaperFigure1Dataset();
  ToprrOptions options;
  options.method = ToprrMethod::kTas;
  const ToprrResult r = SolveToprr(ds, 3, Interval(0.2, 0.8), options);
  ASSERT_FALSE(r.timed_out);
  ASSERT_EQ(r.vall.size(), 4u);
  std::vector<double> xs;
  for (const Vec& v : r.vall) xs.push_back(v[0]);
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[0], 0.2, 1e-9);
  EXPECT_NEAR(xs[1], 0.4, 1e-9);
  EXPECT_NEAR(xs[2], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(xs[3], 0.8, 1e-9);
}

TEST(ToprrTest, PaperExampleImpactHalfspaceOffsets) {
  // TopK scores at the four Vall vertices (hand-computed): 0.5 at w=0.2,
  // 0.6 at w=0.4, 7/15 at w=2/3 (p3/p4 tie), 0.52 at w=0.8 (p3).
  const Dataset ds = PaperFigure1Dataset();
  const ToprrResult r = SolveToprr(ds, 3, Interval(0.2, 0.8));
  ASSERT_EQ(r.impact_halfspaces.size(), 4u);
  // Each halfspace is (-w).o <= -kth; recover kth by negating offsets.
  std::vector<double> kth;
  for (const Halfspace& h : r.impact_halfspaces) kth.push_back(-h.offset);
  std::sort(kth.begin(), kth.end());
  EXPECT_NEAR(kth[0], 7.0 / 15.0, 1e-9);
  EXPECT_NEAR(kth[1], 0.5, 1e-9);
  EXPECT_NEAR(kth[2], 0.52, 1e-9);
  EXPECT_NEAR(kth[3], 0.6, 1e-9);
}

TEST(ToprrTest, PaperExampleMembership) {
  const Dataset ds = PaperFigure1Dataset();
  const ToprrResult r = SolveToprr(ds, 3, Interval(0.2, 0.8));
  // The top corner is always inside.
  EXPECT_TRUE(r.Contains(Vec{1.0, 1.0}));
  // p2 = (0.7, 0.9) is in the top-3 everywhere in [0.2, 0.8] (Fig 1d).
  EXPECT_TRUE(r.Contains(Vec{0.7, 0.9}));
  // p6 = (0.1, 0.1) never is.
  EXPECT_FALSE(r.Contains(Vec{0.1, 0.1}));
  // p4 = (0.3, 0.8) drops out of the top-3 for speed-heavy weights.
  EXPECT_FALSE(r.Contains(Vec{0.3, 0.8}));
}

TEST(ToprrTest, MatchesBruteForceOnGrid) {
  const Dataset ds = PaperFigure1Dataset();
  for (int k : {1, 2, 3, 4}) {
    const ToprrResult r = SolveToprr(ds, k, Interval(0.2, 0.8));
    for (int gx = 0; gx <= 25; ++gx) {
      for (int gy = 0; gy <= 25; ++gy) {
        const Vec o{gx / 25.0, gy / 25.0};
        // Skip points too close to the region boundary.
        double closest = 1e9;
        for (const Halfspace& h : r.impact_halfspaces) {
          closest = std::min(closest,
                             std::abs(h.Violation(o)) / h.normal.Norm());
        }
        if (closest < 1e-3) continue;
        EXPECT_EQ(r.Contains(o),
                  BruteForceTopRanking(ds, k, 0.2, 0.8, o))
            << "k=" << k << " o=" << o.ToString();
      }
    }
  }
}

TEST(ToprrTest, GeometryVerticesInsideRegion) {
  const Dataset ds = PaperFigure1Dataset();
  const ToprrResult r = SolveToprr(ds, 3, Interval(0.2, 0.8));
  ASSERT_FALSE(r.degenerate);
  ASSERT_GE(r.vertices.size(), 3u);
  for (const Vec& v : r.vertices) {
    EXPECT_TRUE(r.Contains(v, 1e-6));
  }
  // The gray region of Fig. 1(b) contains p2 and the top corner as
  // vertices of the option space; the region's vertices must include
  // (1,1)'s corner? No -- but every vertex is inside the unit box.
  for (const Vec& v : r.vertices) {
    EXPECT_GE(v[0], -1e-9);
    EXPECT_LE(v[0], 1.0 + 1e-9);
    EXPECT_GE(v[1], -1e-9);
    EXPECT_LE(v[1], 1.0 + 1e-9);
  }
}

TEST(ToprrTest, AllMethodsAgreeOnMembership) {
  const Dataset ds = GenerateSynthetic(200, 3, Distribution::kIndependent,
                                       100);
  PrefBox box;
  box.lo = Vec{0.25, 0.30};
  box.hi = Vec{0.31, 0.36};
  const int k = 5;
  ToprrOptions pac;
  pac.method = ToprrMethod::kPac;
  ToprrOptions tas;
  tas.method = ToprrMethod::kTas;
  ToprrOptions star;
  star.method = ToprrMethod::kTasStar;
  const ToprrResult rp = SolveToprr(ds, k, box, pac);
  const ToprrResult rt = SolveToprr(ds, k, box, tas);
  const ToprrResult rs = SolveToprr(ds, k, box, star);
  ASSERT_FALSE(rp.timed_out);
  ASSERT_FALSE(rt.timed_out);
  ASSERT_FALSE(rs.timed_out);
  Rng rng(101);
  int checked = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    // Only judge points with clear margin in the TAS* region.
    double closest = 1e9;
    for (const Halfspace& h : rs.impact_halfspaces) {
      closest =
          std::min(closest, std::abs(h.Violation(o)) / h.normal.Norm());
    }
    if (closest < 1e-6) continue;
    ++checked;
    const bool expected = rs.Contains(o);
    EXPECT_EQ(rt.Contains(o), expected) << o.ToString();
    EXPECT_EQ(rp.Contains(o), expected) << o.ToString();
  }
  EXPECT_GT(checked, 1000);
}

TEST(ToprrTest, TopCornerAlwaysContained) {
  Rng rng(102);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t d = 2 + static_cast<size_t>(trial % 3);
    const Dataset ds = GenerateSynthetic(
        300, d, Distribution::kIndependent, 200 + trial);
    const PrefBox box = RandomPrefBox(d - 1, 0.05, rng);
    const ToprrResult r = SolveToprr(ds, 5, box);
    ASSERT_FALSE(r.timed_out);
    EXPECT_TRUE(r.Contains(Vec(d, 1.0)));
  }
}

TEST(ToprrTest, SmallerKShrinksRegion) {
  // Monotonicity (paper Sec. 3.1): the k' < k region is a subset.
  const Dataset ds = GenerateSynthetic(300, 3, Distribution::kIndependent,
                                       103);
  PrefBox box;
  box.lo = Vec{0.2, 0.2};
  box.hi = Vec{0.26, 0.26};
  const ToprrResult r1 = SolveToprr(ds, 1, box);
  const ToprrResult r5 = SolveToprr(ds, 5, box);
  const ToprrResult r10 = SolveToprr(ds, 10, box);
  Rng rng(104);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    if (r1.Contains(o)) {
      EXPECT_TRUE(r5.Contains(o, 1e-7)) << o.ToString();
    }
    if (r5.Contains(o)) {
      EXPECT_TRUE(r10.Contains(o, 1e-7)) << o.ToString();
    }
  }
}

TEST(ToprrTest, LargerRegionShrinksResult) {
  // A superset preference region imposes a superset of constraints.
  const Dataset ds = GenerateSynthetic(300, 3, Distribution::kIndependent,
                                       105);
  PrefBox small;
  small.lo = Vec{0.22, 0.22};
  small.hi = Vec{0.24, 0.24};
  PrefBox large;
  large.lo = Vec{0.20, 0.20};
  large.hi = Vec{0.26, 0.26};
  const ToprrResult rs = SolveToprr(ds, 5, small);
  const ToprrResult rl = SolveToprr(ds, 5, large);
  Rng rng(106);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    if (rl.Contains(o)) {
      EXPECT_TRUE(rs.Contains(o, 1e-7)) << o.ToString();
    }
  }
}

// Definition check of one solve: for every Vall vertex v the impact
// halfspace is (-w(v)).o <= -TopK(v), with TopK recomputed by the naive
// scan over ALL option ids (so the r-skyband filter lost nothing). A
// halfspace the assembly kept must match bit for bit; one it merged into
// an earlier halfspace must match that one within the 1e-10 dedup
// quantum.
void ExpectImpactOffsetsMatchDefinition(const Dataset& ds, int k,
                                        const ToprrResult& r) {
  ASSERT_FALSE(r.timed_out);
  ASSERT_FALSE(r.vall.empty());
  const size_t d = ds.dim();
  std::vector<int> all_ids(ds.size());
  std::iota(all_ids.begin(), all_ids.end(), 0);
  const std::vector<Halfspace>& kept = r.impact_halfspaces;
  size_t next = 0;  // the next kept halfspace, in Vall order
  for (const Vec& v : r.vall) {
    const Vec w = FullWeight(v);
    const double offset = -ComputeTopKReduced(ds, all_ids, v, k).KthScore();
    bool bitwise = next < kept.size() && kept[next].offset == offset;
    for (size_t j = 0; bitwise && j < d; ++j) {
      bitwise = kept[next].normal[j] == -w[j];
    }
    if (bitwise) {
      ++next;
      continue;
    }
    bool merged = false;
    for (size_t i = 0; i < next && !merged; ++i) {
      merged = std::abs(kept[i].offset - offset) <= 1e-10;
      for (size_t j = 0; merged && j < d; ++j) {
        merged = std::abs(kept[i].normal[j] + w[j]) <= 1e-10;
      }
    }
    EXPECT_TRUE(merged) << "Vall vertex " << v.ToString()
                        << " has no impact halfspace with offset " << offset;
  }
  EXPECT_EQ(next, kept.size());
}

TEST(ToprrTest, ImpactOffsetsMatchFullDatasetTopK) {
  {
    const Dataset ds =
        GenerateSynthetic(500, 3, Distribution::kIndependent, 107);
    PrefBox box;
    box.lo = Vec{0.3, 0.25};
    box.hi = Vec{0.36, 0.31};
    ExpectImpactOffsetsMatchDefinition(ds, 7, SolveToprr(ds, 7, box));
  }
  // The solver matrix {TAS, TAS*, PAC} x d x k. The kernel and
  // flat-split counters show the one production path (SoA scoring,
  // FlatRegion::Split) produced every result.
  const ToprrMethod methods[] = {ToprrMethod::kTas, ToprrMethod::kTasStar,
                                 ToprrMethod::kPac};
  Rng rng(4007);
  size_t cells_with_splits = 0;
  for (size_t d : {2u, 3u, 4u, 5u}) {
    const size_t n = d == 5 ? 120 : 250;
    const Dataset ds =
        GenerateSynthetic(n, d, Distribution::kIndependent, 500 + d);
    const PrefBox box = RandomPrefBox(d - 1, 0.04, rng);
    for (int k : {1, 5, 10}) {
      for (ToprrMethod method : methods) {
        SCOPED_TRACE(std::string(ToprrMethodName(method)) + " d=" +
                     std::to_string(d) + " k=" + std::to_string(k));
        ToprrOptions options;
        options.method = method;
        const ToprrResult r = SolveToprr(ds, k, box, options);
        ExpectImpactOffsetsMatchDefinition(ds, k, r);
        EXPECT_GT(r.stats.scheduler.TotalCandidatesScored(), 0u);
        if (r.stats.regions_split > 0) {
          ++cells_with_splits;
          EXPECT_GT(r.stats.scheduler.TotalSplitVerticesClassified(), 0u);
        }
      }
    }
  }
  EXPECT_GT(cells_with_splits, 0u);
}

TEST(ToprrTest, StatsArePopulated) {
  const Dataset ds = PaperFigure1Dataset();
  const ToprrResult r = SolveToprr(ds, 3, Interval(0.2, 0.8));
  EXPECT_GT(r.stats.candidates_after_filter, 0u);
  EXPECT_GT(r.stats.regions_tested, 0u);
  EXPECT_GT(r.stats.vall_unique, 0u);
  EXPECT_GE(r.stats.total_seconds, 0.0);
  EXPECT_FALSE(r.stats.DebugString().empty());
}

TEST(ToprrTest, MethodNames) {
  EXPECT_STREQ(ToprrMethodName(ToprrMethod::kPac), "PAC");
  EXPECT_STREQ(ToprrMethodName(ToprrMethod::kTas), "TAS");
  EXPECT_STREQ(ToprrMethodName(ToprrMethod::kTasStar), "TAS*");
}

}  // namespace
}  // namespace toprr
