#include "core/impact.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "topk/topk.h"

namespace toprr {
namespace {

Dataset PaperFigure1Dataset() {
  return Dataset::FromRows({
      Vec{0.9, 0.4}, Vec{0.7, 0.9}, Vec{0.6, 0.2},
      Vec{0.3, 0.8}, Vec{0.2, 0.3}, Vec{0.1, 0.1},
  });
}

PrefBox Interval(double lo, double hi) {
  PrefBox box;
  box.lo = Vec{lo};
  box.hi = Vec{hi};
  return box;
}

bool Covered(const std::vector<FlatRegion>& cells, const Vec& x) {
  for (const FlatRegion& cell : cells) {
    if (cell.Contains(x, 1e-9)) return true;
  }
  return false;
}

TEST(ImpactRegionsTest, PaperExampleP4) {
  // p4 (id 3) is in the top-3 exactly for w in [0.2, 2/3] (Fig. 1d).
  const Dataset ds = PaperFigure1Dataset();
  const auto result = ComputeImpactRegions(ds, 3, 3, Interval(0.2, 0.8));
  ASSERT_FALSE(result.timed_out);
  ASSERT_FALSE(result.favorable.empty());
  EXPECT_TRUE(Covered(result.favorable, Vec{0.3}));
  EXPECT_TRUE(Covered(result.favorable, Vec{0.6}));
  EXPECT_FALSE(Covered(result.favorable, Vec{0.7}));
  EXPECT_FALSE(Covered(result.favorable, Vec{0.79}));
}

TEST(ImpactRegionsTest, PaperExampleP3) {
  // p3 (id 2) enters the top-3 only for w in [2/3, 0.8].
  const Dataset ds = PaperFigure1Dataset();
  const auto result = ComputeImpactRegions(ds, 2, 3, Interval(0.2, 0.8));
  EXPECT_FALSE(Covered(result.favorable, Vec{0.5}));
  EXPECT_TRUE(Covered(result.favorable, Vec{0.7}));
}

TEST(ImpactRegionsTest, AlwaysTopOptionCoversEverything) {
  const Dataset ds = PaperFigure1Dataset();
  // p2 (id 1) is in the top-3 across all of [0.2, 0.8].
  const auto result = ComputeImpactRegions(ds, 1, 3, Interval(0.2, 0.8));
  EXPECT_DOUBLE_EQ(result.cell_fraction, 1.0);
  for (int s = 0; s <= 50; ++s) {
    const Vec x{0.2 + 0.6 * s / 50.0};
    EXPECT_TRUE(Covered(result.favorable, x));
  }
}

TEST(ImpactRegionsTest, HopelessOptionCoversNothing) {
  const Dataset ds = PaperFigure1Dataset();
  const auto result = ComputeImpactRegions(ds, 5, 3, Interval(0.2, 0.8));
  EXPECT_TRUE(result.favorable.empty());
  EXPECT_DOUBLE_EQ(result.cell_fraction, 0.0);
}

TEST(ImpactRegionsTest, VolumeFractionsOnPaperExample) {
  // Fig. 1(d): over wR = [0.2, 0.8] (length 0.6), p4 is top-3 on
  // [0.2, 2/3] (fraction 7/9) and p3 on [2/3, 0.8] (fraction 2/9).
  const Dataset ds = PaperFigure1Dataset();
  const auto p4 = ComputeImpactRegions(ds, 3, 3, Interval(0.2, 0.8));
  EXPECT_NEAR(p4.volume_fraction, (2.0 / 3.0 - 0.2) / 0.6, 1e-9);
  const auto p3 = ComputeImpactRegions(ds, 2, 3, Interval(0.2, 0.8));
  EXPECT_NEAR(p3.volume_fraction, (0.8 - 2.0 / 3.0) / 0.6, 1e-9);
  const auto p2 = ComputeImpactRegions(ds, 1, 3, Interval(0.2, 0.8));
  EXPECT_NEAR(p2.volume_fraction, 1.0, 1e-9);
  const auto p6 = ComputeImpactRegions(ds, 5, 3, Interval(0.2, 0.8));
  EXPECT_DOUBLE_EQ(p6.volume_fraction, 0.0);
}

TEST(ImpactRegionsTest, VolumeFractionMatchesSampling3D) {
  const Dataset ds = GenerateSynthetic(200, 3, Distribution::kIndependent,
                                       95);
  PrefBox box;
  box.lo = Vec{0.2, 0.25};
  box.hi = Vec{0.3, 0.35};
  const int k = 4;
  std::vector<int> all_ids(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) all_ids[i] = static_cast<int>(i);
  const int target = ComputeTopKReduced(ds, all_ids, box.Center(), k).KthId();
  const auto impact = ComputeImpactRegions(ds, target, k, box);
  // Monte-Carlo estimate of the favorable fraction.
  Rng rng(96);
  int inside = 0;
  const int samples = 4000;
  for (int s = 0; s < samples; ++s) {
    Vec x(2);
    for (size_t j = 0; j < 2; ++j) {
      x[j] = rng.Uniform(box.lo[j], box.hi[j]);
    }
    const TopkResult topk = ComputeTopKReduced(ds, all_ids, x, k);
    const auto set = topk.IdSet();
    if (std::binary_search(set.begin(), set.end(), target)) ++inside;
  }
  const double sampled = static_cast<double>(inside) / samples;
  EXPECT_NEAR(impact.volume_fraction, sampled, 0.05);
}

TEST(ImpactRegionsTest, MatchesSampledMembership2D) {
  // 3-attribute data: favorable cells must agree with direct top-k
  // membership at sampled preference points.
  const Dataset ds = GenerateSynthetic(300, 3, Distribution::kIndependent,
                                       90);
  PrefBox box;
  box.lo = Vec{0.25, 0.25};
  box.hi = Vec{0.31, 0.31};
  const int k = 5;
  std::vector<int> all_ids(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) all_ids[i] = static_cast<int>(i);
  // Pick an option that is sometimes (not always) in the top-k: the k-th
  // option at the box center.
  const Vec center = box.Center();
  const int target = ComputeTopKReduced(ds, all_ids, center, k).KthId();
  const auto result = ComputeImpactRegions(ds, target, k, box);
  ASSERT_FALSE(result.timed_out);
  Rng rng(91);
  int mismatches = 0;
  for (int s = 0; s < 300; ++s) {
    Vec x(2);
    for (size_t j = 0; j < 2; ++j) {
      x[j] = rng.Uniform(box.lo[j], box.hi[j]);
    }
    const TopkResult topk = ComputeTopKReduced(ds, all_ids, x, k);
    const bool in_topk =
        std::binary_search(topk.IdSet().begin(), topk.IdSet().end(), target);
    // Points on cell boundaries can disagree within tolerance; require a
    // clear score margin before judging.
    const double kth = topk.KthScore();
    const double target_score = ReducedScore(ds.Row(target), x);
    if (std::abs(target_score - kth) < 1e-9 && !in_topk) continue;
    if (Covered(result.favorable, x) != in_topk) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace toprr
