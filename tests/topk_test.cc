#include "topk/topk.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "pref/pref_space.h"

namespace toprr {
namespace {

// The running example of paper Figure 1(a).
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

TEST(TopkTest, PaperRunningExample) {
  const Dataset ds = PaperFigure1Dataset();
  // w[0] = 0.75 (speed-leaning, right of the p1/p2 crossover at 5/7):
  // Figure 1(d) has the top-3 set {p1, p2, p3} with p1 on top.
  const TopkResult r = ComputeTopK(ds, Vec{0.75, 0.25}, 3);
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_EQ(r.entries[0].id, 0);  // p1
  EXPECT_EQ(r.entries[1].id, 1);  // p2
  EXPECT_EQ(r.entries[2].id, 2);  // p3
  EXPECT_EQ(r.KthId(), 2);
  EXPECT_NEAR(r.KthScore(), 0.6 * 0.75 + 0.2 * 0.25, 1e-12);
}

TEST(TopkTest, BatterySideOfExample) {
  const Dataset ds = PaperFigure1Dataset();
  // w[0] = 0.2: battery matters; p2 and p4 lead.
  const TopkResult r = ComputeTopK(ds, Vec{0.2, 0.8}, 3);
  EXPECT_EQ(r.entries[0].id, 1);  // p2
  EXPECT_EQ(r.entries[1].id, 3);  // p4
  EXPECT_EQ(r.entries[2].id, 0);  // p1
}

TEST(TopkTest, TieBrokenByIdAscending) {
  const Dataset ds = Dataset::FromRows(
      {Vec{0.5, 0.5}, Vec{0.5, 0.5}, Vec{0.4, 0.4}});
  const TopkResult r = ComputeTopK(ds, Vec{0.5, 0.5}, 2);
  EXPECT_EQ(r.entries[0].id, 0);
  EXPECT_EQ(r.entries[1].id, 1);
}

TEST(TopkTest, IdSetSorted) {
  const Dataset ds = PaperFigure1Dataset();
  const TopkResult r = ComputeTopK(ds, Vec{0.2, 0.8}, 3);
  EXPECT_EQ(r.IdSet(), (std::vector<int>{0, 1, 3}));
}

TEST(TopkReducedTest, MatchesFullWeightEvaluation) {
  const Dataset ds = GenerateSynthetic(500, 4,
                                       Distribution::kIndependent, 6);
  std::vector<int> all_ids(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) all_ids[i] = static_cast<int>(i);
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    Vec x(3);
    double sum = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      x[j] = rng.Uniform(0.0, 0.33);
      sum += x[j];
    }
    ASSERT_LE(sum, 1.0);
    const TopkResult reduced = ComputeTopKReduced(ds, all_ids, x, 7);
    const TopkResult full = ComputeTopK(ds, FullWeight(x), 7);
    ASSERT_EQ(reduced.entries.size(), full.entries.size());
    for (size_t i = 0; i < full.entries.size(); ++i) {
      EXPECT_EQ(reduced.entries[i].id, full.entries[i].id);
      EXPECT_NEAR(reduced.entries[i].score, full.entries[i].score, 1e-12);
    }
  }
}

TEST(TopkReducedTest, SubsetRestriction) {
  const Dataset ds = PaperFigure1Dataset();
  const std::vector<int> subset = {2, 3, 4};  // p3, p4, p5
  const TopkResult r = ComputeTopKReduced(ds, subset, Vec{0.5}, 2);
  EXPECT_EQ(r.entries[0].id, 3);  // p4: 0.55
  EXPECT_EQ(r.entries[1].id, 2);  // p3: 0.40
}

TEST(TopkTest, KLargerThanDatasetReturnsAll) {
  const Dataset ds = Dataset::FromRows({Vec{0.1, 0.1}, Vec{0.9, 0.9}});
  const TopkResult r = ComputeTopK(ds, Vec{0.5, 0.5}, 10);
  EXPECT_EQ(r.entries.size(), 2u);
}

}  // namespace
}  // namespace toprr
