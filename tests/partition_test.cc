#include "core/partition.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "pref/pref_space.h"
#include "topk/topk.h"

namespace toprr {
namespace {

// Paper Figure 1(a).
Dataset PaperFigure1Dataset() {
  return Dataset::FromRows({
      Vec{0.9, 0.4},  // p1 (id 0)
      Vec{0.7, 0.9},  // p2 (id 1)
      Vec{0.6, 0.2},  // p3 (id 2)
      Vec{0.3, 0.8},  // p4 (id 3)
      Vec{0.2, 0.3},  // p5 (id 4)
      Vec{0.1, 0.1},  // p6 (id 5)
  });
}

std::vector<int> AllIds(const Dataset& ds) {
  std::vector<int> ids(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) ids[i] = static_cast<int>(i);
  return ids;
}

PrefRegion Interval(double lo, double hi) {
  PrefBox box;
  box.lo = Vec{lo};
  box.hi = Vec{hi};
  return PrefRegion::FromBox(box);
}

// Collects the sorted unique coordinates of 1-D Vall vertices.
std::vector<double> SortedUniqueCoords(const std::vector<Vec>& vall) {
  std::vector<double> xs;
  for (const Vec& v : vall) xs.push_back(v[0]);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end(),
                       [](double a, double b) { return std::abs(a - b) < 1e-9; }),
           xs.end());
  return xs;
}

TEST(PartitionTest, PaperExampleKiprBreakpoints) {
  // For wR = [0.2, 0.8], k = 3 the maximal kIPRs are [0.2,0.4],
  // [0.4,2/3], [2/3,0.8] (paper Sec. 3.3), so plain TAS (splitting only at
  // true rank-change points in 1-D) accumulates exactly those breakpoints.
  const Dataset ds = PaperFigure1Dataset();
  PartitionConfig config;  // plain TAS
  const PartitionOutput out = PartitionPreferenceRegion(
      ds, AllIds(ds), 3, Interval(0.2, 0.8), config);
  EXPECT_FALSE(out.timed_out);
  const std::vector<double> xs = SortedUniqueCoords(out.vall);
  ASSERT_GE(xs.size(), 2u);
  EXPECT_NEAR(xs.front(), 0.2, 1e-9);
  EXPECT_NEAR(xs.back(), 0.8, 1e-9);
  // All breakpoints must be genuine kIPR boundaries: 0.4 and 2/3 must
  // appear; no other interior points are possible for plain TAS because
  // every splitting hyperplane is a score-equality of two options.
  EXPECT_TRUE(std::any_of(xs.begin(), xs.end(),
                          [](double x) { return std::abs(x - 0.4) < 1e-9; }));
  EXPECT_TRUE(std::any_of(xs.begin(), xs.end(), [](double x) {
    return std::abs(x - 2.0 / 3.0) < 1e-9;
  }));
}

TEST(PartitionTest, KiprRegionsAreInvariant) {
  // Each accepted region of plain TAS must satisfy Definition 3 at random
  // interior points, not only at its vertices.
  const Dataset ds = PaperFigure1Dataset();
  PartitionConfig config;
  const PartitionOutput out = PartitionPreferenceRegion(
      ds, AllIds(ds), 3, Interval(0.2, 0.8), config);
  // Reconstruct intervals from sorted breakpoints and verify invariance
  // inside each one.
  const std::vector<double> xs = SortedUniqueCoords(out.vall);
  for (size_t i = 0; i + 1 < xs.size(); ++i) {
    const double mid1 = xs[i] + (xs[i + 1] - xs[i]) * 0.25;
    const double mid2 = xs[i] + (xs[i + 1] - xs[i]) * 0.75;
    const TopkResult a = ComputeTopKReduced(ds, AllIds(ds), Vec{mid1}, 3);
    const TopkResult b = ComputeTopKReduced(ds, AllIds(ds), Vec{mid2}, 3);
    EXPECT_EQ(a.IdSet(), b.IdSet()) << "interval " << i;
    EXPECT_EQ(a.KthId(), b.KthId()) << "interval " << i;
  }
}

TEST(PartitionTest, Lemma5ReducesWork) {
  const Dataset ds = GenerateSynthetic(400, 3, Distribution::kIndependent,
                                       77);
  PrefBox box;
  box.lo = Vec{0.30, 0.30};
  box.hi = Vec{0.34, 0.34};
  PartitionConfig plain;
  PartitionConfig with_l5;
  with_l5.use_lemma5 = true;
  const PartitionOutput a = PartitionPreferenceRegion(
      ds, AllIds(ds), 10, PrefRegion::FromBox(box), plain);
  const PartitionOutput b = PartitionPreferenceRegion(
      ds, AllIds(ds), 10, PrefRegion::FromBox(box), with_l5);
  EXPECT_GT(b.lemma5_prunes, 0u);
  // Vall from both partitionings describes the same TopRR output; at
  // minimum the vertex count should not grow.
  EXPECT_LE(b.vall.size(), a.vall.size() + 4);
}

TEST(PartitionTest, Lemma7AcceptsEarlier) {
  const Dataset ds = GenerateSynthetic(400, 3, Distribution::kIndependent,
                                       78);
  PrefBox box;
  box.lo = Vec{0.25, 0.25};
  box.hi = Vec{0.32, 0.32};
  PartitionConfig without;
  without.use_lemma5 = true;
  PartitionConfig with = without;
  with.use_lemma7 = true;
  const PartitionOutput a = PartitionPreferenceRegion(
      ds, AllIds(ds), 10, PrefRegion::FromBox(box), without);
  const PartitionOutput b = PartitionPreferenceRegion(
      ds, AllIds(ds), 10, PrefRegion::FromBox(box), with);
  EXPECT_GT(b.lemma7_accepts, 0u);
  EXPECT_LE(b.vall.size(), a.vall.size());
  EXPECT_LE(b.regions_tested, a.regions_tested);
}

TEST(PartitionTest, OrderedInvarianceSplitsMore) {
  // PAC mode partitions at every reordering among the top k, hence at
  // least as many regions as kIPR-based TAS.
  const Dataset ds = PaperFigure1Dataset();
  PartitionConfig tas;
  PartitionConfig pac;
  pac.ordered_invariance = true;
  const PartitionOutput a = PartitionPreferenceRegion(
      ds, AllIds(ds), 3, Interval(0.2, 0.8), tas);
  const PartitionOutput b = PartitionPreferenceRegion(
      ds, AllIds(ds), 3, Interval(0.2, 0.8), pac);
  EXPECT_GE(b.regions_tested, a.regions_tested);
  // PAC must cut at the p1/p2 reordering point 5/7 inside [2/3, 0.8].
  const std::vector<double> xs = SortedUniqueCoords(b.vall);
  EXPECT_TRUE(std::any_of(xs.begin(), xs.end(), [](double x) {
    return std::abs(x - 5.0 / 7.0) < 1e-9;
  }));
}

TEST(PartitionTest, TopkUnionCollectsAllResultOptions) {
  const Dataset ds = PaperFigure1Dataset();
  PartitionConfig config;
  config.collect_topk_union = true;
  const PartitionOutput out = PartitionPreferenceRegion(
      ds, AllIds(ds), 3, Interval(0.2, 0.8), config);
  // Over wR = [0.2, 0.8]: sets {p2,p4,p1}, {p1,p2,p4}, {p1,p2,p3} -> union
  // {p1, p2, p3, p4} = ids {0, 1, 2, 3}.
  EXPECT_EQ(out.topk_union, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PartitionTest, TimeBudgetAborts) {
  const Dataset ds = GenerateSynthetic(3000, 5,
                                       Distribution::kAnticorrelated, 79);
  PrefBox box;
  box.lo = Vec(4, 0.15);
  box.hi = Vec(4, 0.23);
  PartitionConfig config;
  config.deadline = DeadlineAfter(1e-4);  // far too soon
  const PartitionOutput out = PartitionPreferenceRegion(
      ds, AllIds(ds), 20, PrefRegion::FromBox(box), config);
  EXPECT_TRUE(out.timed_out);
}

TEST(PartitionTest, SingleKiprRegionAcceptsImmediately) {
  // A tiny region far from rank boundaries is accepted with no splits.
  const Dataset ds = PaperFigure1Dataset();
  PartitionConfig config;
  const PartitionOutput out = PartitionPreferenceRegion(
      ds, AllIds(ds), 3, Interval(0.45, 0.46), config);
  EXPECT_EQ(out.regions_split, 0u);
  EXPECT_EQ(out.regions_accepted, 1u);
  EXPECT_EQ(out.vall.size(), 2u);
}

TEST(PartitionTest, KSwitchReducesVall) {
  const Dataset ds = GenerateSynthetic(500, 4, Distribution::kIndependent,
                                       80);
  PrefBox box;
  box.lo = Vec{0.2, 0.2, 0.2};
  box.hi = Vec{0.25, 0.25, 0.25};
  PartitionConfig without;
  without.use_lemma5 = true;
  without.use_lemma7 = true;
  PartitionConfig with = without;
  with.use_kswitch = true;
  const PartitionOutput a = PartitionPreferenceRegion(
      ds, AllIds(ds), 10, PrefRegion::FromBox(box), without);
  const PartitionOutput b = PartitionPreferenceRegion(
      ds, AllIds(ds), 10, PrefRegion::FromBox(box), with);
  EXPECT_FALSE(a.timed_out);
  EXPECT_FALSE(b.timed_out);
  // k-switch is a heuristic; on average it reduces splits. Allow slack.
  EXPECT_LE(b.regions_split, a.regions_split * 2);
}

}  // namespace
}  // namespace toprr
