#include "topk/skyband.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "pref/pref_space.h"
#include "topk/topk.h"

namespace toprr {
namespace {

// O(n^2) reference k-skyband.
std::vector<int> BruteForceKSkyband(const Dataset& ds, int k) {
  std::vector<int> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    int dominators = 0;
    for (size_t j = 0; j < ds.size(); ++j) {
      if (i != j && Dominates(ds, static_cast<int>(j), static_cast<int>(i))) {
        ++dominators;
      }
    }
    if (dominators < k) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(DominatesTest, Basics) {
  const Dataset ds = Dataset::FromRows(
      {Vec{0.5, 0.5}, Vec{0.6, 0.5}, Vec{0.5, 0.5}, Vec{0.6, 0.4}});
  EXPECT_TRUE(Dominates(ds, 1, 0));   // strictly better in x, equal y
  EXPECT_FALSE(Dominates(ds, 0, 1));
  EXPECT_FALSE(Dominates(ds, 0, 2));  // equal points do not dominate
  EXPECT_FALSE(Dominates(ds, 3, 0));  // incomparable
  EXPECT_FALSE(Dominates(ds, 0, 3));
}

// Rows whose attribute sums collide although one dominates another: the
// first coordinate is 0.5 or 1, the others 0, 1e-17, 2e-17 or 0.5, so
// the 1e-17 steps vanish from every sum (1 + 1e-17 rounds to 1), and
// duplicates are frequent.
Vec SumCollisionRow(size_t d, Rng& rng) {
  static const double kValues[] = {0.0, 1e-17, 2e-17, 0.5};
  Vec row(d);
  row[0] = rng.Uniform() < 0.5 ? 0.5 : 1.0;
  for (size_t j = 1; j < d; ++j) row[j] = kValues[rng.UniformInt(0, 3)];
  return row;
}

Dataset SumCollisionDataset(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  for (size_t i = 0; i < n; ++i) ds.Append(SumCollisionRow(d, rng));
  return ds;
}

TEST(SkybandTest, MatchesBruteForce) {
  for (Distribution dist : {Distribution::kIndependent,
                            Distribution::kCorrelated,
                            Distribution::kAnticorrelated}) {
    const Dataset ds = GenerateSynthetic(400, 3, dist, 10);
    for (int k : {1, 2, 5}) {
      EXPECT_EQ(SortBasedKSkyband(ds, k), BruteForceKSkyband(ds, k))
          << DistributionName(dist) << " k=" << k;
    }
  }
  // Row 1 dominates rows 0 and 2 at an equal float sum.
  const Dataset tie = Dataset::FromRows(
      {Vec{1.0, 0.0}, Vec{1.0, 1e-17}, Vec{1.0, 0.0}});
  EXPECT_EQ(SortBasedKSkyband(tie, 1), (std::vector<int>{1}));
  for (size_t d = 2; d <= 4; ++d) {
    const Dataset ds = SumCollisionDataset(150, d, 12 + d);
    for (int k : {1, 2, 5}) {
      EXPECT_EQ(SortBasedKSkyband(ds, k), BruteForceKSkyband(ds, k))
          << "sum collisions d=" << d << " k=" << k;
    }
  }
}

TEST(SkybandTest, SkybandGrowsWithK) {
  const Dataset ds = GenerateSynthetic(1000, 4,
                                       Distribution::kIndependent, 11);
  size_t prev = 0;
  for (int k : {1, 2, 4, 8}) {
    const size_t size = SortBasedKSkyband(ds, k).size();
    EXPECT_GE(size, prev);
    prev = size;
  }
}

TEST(SkybandTest, ContainsEveryTopKResult) {
  // The k-skyband must contain the top-k for any weight vector.
  const Dataset ds = GenerateSynthetic(800, 3,
                                       Distribution::kIndependent, 12);
  const int k = 5;
  const std::vector<int> skyband = SortBasedKSkyband(ds, k);
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    Vec w(3);
    double sum = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      w[j] = rng.Uniform() + 1e-3;
      sum += w[j];
    }
    w /= sum;
    const TopkResult topk = ComputeTopK(ds, w, k);
    for (const ScoredOption& e : topk.entries) {
      EXPECT_TRUE(std::binary_search(skyband.begin(), skyband.end(), e.id))
          << "top-k member missing from skyband";
    }
  }
}

TEST(SkybandTest, DuplicatePointsStayUpToK) {
  // Identical maximal points do not dominate each other, so all four stay
  // in the skyline; the dominated point is excluded.
  Dataset ds;
  for (int i = 0; i < 4; ++i) ds.Append(Vec{0.9, 0.9});
  ds.Append(Vec{0.1, 0.1});
  const std::vector<int> sb1 = SortBasedKSkyband(ds, 1);
  EXPECT_EQ(sb1, (std::vector<int>{0, 1, 2, 3}));
  // With k = 5 the dominated point returns.
  EXPECT_EQ(SortBasedKSkyband(ds, 5).size(), 5u);
}

TEST(SkybandTest, AllPointsWhenKIsLarge) {
  const Dataset ds = GenerateSynthetic(50, 2,
                                       Distribution::kAnticorrelated, 14);
  EXPECT_EQ(SortBasedKSkyband(ds, 50).size(), 50u);
}

// ---- Incremental maintenance (data/snapshot.h deltas) -----------------

TEST(SkybandTest, PoolVariantMatchesFullScan) {
  const Dataset ds = GenerateSynthetic(400, 3,
                                       Distribution::kAnticorrelated, 20);
  const SnapshotPtr snap = DatasetSnapshot::FromDataset(ds);
  for (int k : {1, 3, 10}) {
    const KSkybandState state =
        SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
    EXPECT_EQ(state.ids, SortBasedKSkyband(ds, k)) << "k=" << k;
    ASSERT_EQ(state.band.counts.size(), state.ids.size());
    for (const int count : state.band.counts) EXPECT_LT(count, k);
    EXPECT_TRUE(std::is_sorted(state.ids.begin(), state.ids.end()));
  }
}

// Rows on a 1/8 grid, every fifth one a copy of an earlier row: exact
// attribute-sum ties, equal rows that do not dominate each other, and
// dominance chains that share coordinates.
Dataset TieHeavyDataset(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 4) {
      const double* row = ds.Row(
          static_cast<size_t>(rng.UniformInt(0, static_cast<int>(i) - 1)));
      ds.Append(Vec(std::vector<double>(row, row + d)));
      continue;
    }
    Vec row(d);
    for (size_t j = 0; j < d; ++j) row[j] = std::floor(rng.Uniform() * 8) / 8;
    ds.Append(row);
  }
  return ds;
}

Vec RandomRow(size_t d, bool ties, Rng& rng) {
  Vec row(d);
  for (size_t j = 0; j < d; ++j) {
    row[j] = ties ? std::floor(rng.Uniform() * 8) / 8 : rng.Uniform();
  }
  return row;
}

// Carries `state` across `snap`'s delta and asserts it equals a rebuild
// over the snapshot's live rows bit for bit: ids, counts and the
// sum-ordered working form. Returns whether the carry ran incrementally.
bool ExpectCarriesExactly(const SnapshotPtr& snap, int k,
                          KSkybandState* state) {
  const bool incremental = KSkybandApplyDelta(
      snap->View(), snap->live_ids(), k, snap->delta(), state);
  const KSkybandState rebuilt =
      SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
  EXPECT_EQ(state->ids, rebuilt.ids);
  EXPECT_EQ(state->band.ids, rebuilt.band.ids);
  EXPECT_EQ(state->band.counts, rebuilt.band.counts);
  EXPECT_TRUE(*state == rebuilt);
  return incremental;
}

// Stages `count` deletes of live rows that are (member = true) or are
// not skyband members, spread over the id range. Returns how many.
int StageDeletes(MutableCatalog& catalog, const SnapshotPtr& snap,
                 const std::vector<int>& members, bool member, int count,
                 Rng& rng) {
  std::vector<int> pool;
  for (const int id : snap->live_ids()) {
    if (std::binary_search(members.begin(), members.end(), id) == member) {
      pool.push_back(id);
    }
  }
  int staged = 0;
  while (staged < count && !pool.empty()) {
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(pool.size()) - 1));
    catalog.StageDelete(pool[at]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(at));
    ++staged;
  }
  return staged;
}

TEST(SkybandTest, IncrementalMatchesRebuildAcrossDeltaMatrix) {
  // Insert-only, non-member-delete-only, mixed, member-delete-only and
  // mixed member-delete deltas, plus a bulk member delete, across dims,
  // ks and a tie-heavy table: the carried state must be *bit-identical*
  // (ids and counts) to a full rebuild over the new snapshot's
  // live rows.
  enum Pattern { kInsert, kDelete, kMixed, kMemberDelete, kMixedMember,
                 kBulkMember };
  Rng rng(21);
  for (const bool ties : {false, true}) {
    for (const size_t d : {size_t{2}, size_t{4}}) {
      for (const int k : {1, 3, 8}) {
        for (const Pattern pattern : {kInsert, kDelete, kMixed,
                                      kMemberDelete, kMixedMember,
                                      kBulkMember}) {
          SCOPED_TRACE(testing::Message() << "ties=" << ties << " d=" << d
                                          << " k=" << k
                                          << " pattern=" << pattern);
          const uint64_t seed = 100 + 10 * d + k + pattern;
          const Dataset ds =
              ties ? TieHeavyDataset(300, d, seed)
                   : GenerateSynthetic(300, d, Distribution::kIndependent,
                                       seed);
          MutableCatalog catalog(ds);
          const SnapshotPtr v1 = catalog.Current();
          KSkybandState state =
              SortBasedKSkybandPool(v1->View(), v1->live_ids(), k);

          if (pattern == kInsert || pattern == kMixed ||
              pattern == kMixedMember) {
            for (int i = 0; i < 15; ++i) {
              catalog.StageInsert(RandomRow(d, ties, rng));
            }
          }
          if (pattern == kDelete || pattern == kMixed ||
              pattern == kMixedMember) {
            ASSERT_EQ(StageDeletes(catalog, v1, state.ids, false, 10, rng),
                      10);
          }
          const int members = static_cast<int>(state.ids.size());
          int member_deletes = 0;
          if (pattern == kMemberDelete || pattern == kMixedMember) {
            member_deletes = std::min(3, members / 2);
            ASSERT_GT(member_deletes, 0);
          } else if (pattern == kBulkMember) {
            member_deletes = members / 2 + 1;
          }
          ASSERT_EQ(StageDeletes(catalog, v1, state.ids, true,
                                 member_deletes, rng),
                    member_deletes);
          const SnapshotPtr v2 = catalog.Publish();
          ASSERT_NE(v2->id(), v1->id());
          // Only a delete of more than half the members rebuilds.
          EXPECT_EQ(ExpectCarriesExactly(v2, k, &state),
                    pattern != kBulkMember);
        }
      }
    }
  }
}

TEST(SkybandTest, ChainedIncrementalPublishesStayExact) {
  // Several publishes applied one after the other onto the same carried
  // state -- the induction step of the correctness argument. Every
  // other round also deletes skyband members.
  for (const bool ties : {false, true}) {
    SCOPED_TRACE(ties);
    const Dataset ds =
        ties ? TieHeavyDataset(250, 3, 22)
             : GenerateSynthetic(250, 3, Distribution::kCorrelated, 22);
    MutableCatalog catalog(ds);
    const int k = 5;
    SnapshotPtr snap = catalog.Current();
    KSkybandState state =
        SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
    Rng rng(23);
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE(round);
      for (int i = 0; i < 6; ++i) catalog.StageInsert(RandomRow(3, ties, rng));
      if (round % 2 == 1) {
        StageDeletes(catalog, snap, state.ids, true, 2, rng);
        StageDeletes(catalog, snap, state.ids, false, 2, rng);
      }
      snap = catalog.Publish();
      EXPECT_TRUE(ExpectCarriesExactly(snap, k, &state));
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(SkybandTest, EqualSumDominatorsAreCounted) {
  // 1.0 + 1e-17 rounds to 1.0: row 0 dominates row 1 at an equal
  // attribute sum. Deleting row 2 promotes row 1, whose count must
  // include its equal-sum dominator, as the rebuild's scan does.
  MutableCatalog catalog(Dataset::FromRows(
      {Vec{1.0, 1e-17}, Vec{1.0, 0.0}, Vec{1.0, 0.5}}));
  const int k = 2;
  SnapshotPtr snap = catalog.Current();
  KSkybandState state =
      SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
  ASSERT_EQ(state.ids, (std::vector<int>{0, 2}));
  catalog.StageDelete(2);
  snap = catalog.Publish();
  EXPECT_TRUE(ExpectCarriesExactly(snap, k, &state));
  EXPECT_EQ(state.ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(state.band.counts, (std::vector<int>{0, 1}));
}

TEST(SkybandTest, RandomizedDeltasStayExact) {
  // Random deltas of inserts, member deletes and non-member deletes over
  // tie-heavy and continuous tables, d 2-5, k 1/3/10.
  Rng rng(24);
  for (const bool ties : {false, true}) {
    for (size_t d = 2; d <= 5; ++d) {
      for (const int k : {1, 3, 10}) {
        SCOPED_TRACE(testing::Message() << "ties=" << ties << " d=" << d
                                        << " k=" << k);
        const uint64_t seed = 300 + 10 * d + k;
        const Dataset ds =
            ties ? TieHeavyDataset(200, d, seed)
                 : GenerateSynthetic(200, d, Distribution::kIndependent,
                                     seed);
        MutableCatalog catalog(ds);
        SnapshotPtr snap = catalog.Current();
        KSkybandState state =
            SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
        for (int round = 0; round < 6; ++round) {
          const int inserts = static_cast<int>(rng.UniformInt(0, 4));
          for (int i = 0; i < inserts; ++i) {
            catalog.StageInsert(RandomRow(d, ties, rng));
          }
          StageDeletes(catalog, snap, state.ids, true,
                       static_cast<int>(rng.UniformInt(0, 2)), rng);
          StageDeletes(catalog, snap, state.ids, false,
                       static_cast<int>(rng.UniformInt(0, 3)), rng);
          const SnapshotPtr next = catalog.Publish();
          // An empty delta republishes the unchanged snapshot, whose
          // delta() is the one already applied.
          if (next == snap) continue;
          snap = next;
          ExpectCarriesExactly(snap, k, &state);
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// Stages deletes of the `count` highest-sum members: the widest
// dominance cones, so the largest promotion scans. Returns how many.
int StageTopSumDeletes(MutableCatalog& catalog, const KSkybandState& state,
                       int count) {
  int staged = 0;
  for (const int id : state.band.ids) {
    if (staged == count) break;
    if (catalog.StageDelete(id)) ++staged;
  }
  return staged;
}

TEST(SkybandTest, RowEqualToACertificateCornerIsCounted) {
  // k = 2. Deleting row 0 leaves rows 1 and 2 as the only members, so
  // its certificate corner is their minimum (0.5, 0.5). Row 3 equals the
  // corner: no member need be strictly above it, so the certificate
  // must leave it to the dominator count (which finds rows 1 and 2).
  // Row 4 lies strictly below the corner in one coordinate and is
  // rejected by the certificate alone.
  MutableCatalog catalog(Dataset::FromRows(
      {Vec{1.0, 1.0}, Vec{0.9, 0.5}, Vec{0.5, 0.9}, Vec{0.5, 0.5},
       Vec{0.4, 0.5}}));
  const int k = 2;
  SnapshotPtr snap = catalog.Current();
  KSkybandState state =
      SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
  ASSERT_EQ(state.ids, (std::vector<int>{0, 1, 2}));
  catalog.StageDelete(0);
  snap = catalog.Publish();
  KSkybandPromotionStats stats;
  EXPECT_TRUE(KSkybandApplyDelta(snap->View(), snap->live_ids(), k,
                                 snap->delta(), &state, &stats));
  EXPECT_EQ(stats.rows, 2u);     // rows 3 and 4
  EXPECT_EQ(stats.counted, 1u);  // row 3 only
  EXPECT_TRUE(state ==
              SortBasedKSkybandPool(snap->View(), snap->live_ids(), k));
  EXPECT_EQ(state.ids, (std::vector<int>{1, 2}));
}

TEST(SkybandTest, DuplicatesOfSurvivingMembersStayExact) {
  // Every member gets one or two exact copies (equal rows do not
  // dominate each other, so copies share their original's count); the
  // top-sum deletes then hit originals and copies alike, leaving
  // survivors whose duplicates sit on or below certificate corners.
  for (const int k : {1, 2, 4}) {
    SCOPED_TRACE(k);
    Dataset ds = GenerateSynthetic(200, 3, Distribution::kIndependent, 30);
    const SnapshotPtr root = DatasetSnapshot::FromDataset(ds);
    const KSkybandState members =
        SortBasedKSkybandPool(root->View(), root->live_ids(), k);
    for (size_t i = 0; i < members.ids.size(); ++i) {
      const double* row = ds.Row(static_cast<size_t>(members.ids[i]));
      const Vec copy(std::vector<double>(row, row + 3));
      for (size_t c = 0; c <= i % 2; ++c) ds.Append(copy);
    }
    MutableCatalog catalog(ds);
    SnapshotPtr snap = catalog.Current();
    KSkybandState state =
        SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE(round);
      ASSERT_GT(StageTopSumDeletes(catalog, state, 1 + round % 2), 0);
      snap = catalog.Publish();
      ExpectCarriesExactly(snap, k, &state);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(SkybandTest, EqualSumTiesStayExactUnderTopSumDeletes) {
  // Grid rows: many members share an attribute sum, so the promotion's
  // sum order, the band's tie-break by id and the equal-sum scans all
  // matter.
  Rng rng(31);
  for (const int k : {1, 3, 10}) {
    SCOPED_TRACE(k);
    MutableCatalog catalog(TieHeavyDataset(400, 3, 32 + k));
    SnapshotPtr snap = catalog.Current();
    KSkybandState state =
        SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
    for (int round = 0; round < 10; ++round) {
      SCOPED_TRACE(round);
      for (int i = 0; i < 3; ++i) {
        catalog.StageInsert(RandomRow(3, /*ties=*/true, rng));
      }
      StageTopSumDeletes(catalog, state, 1 + round % 3);
      snap = catalog.Publish();
      ExpectCarriesExactly(snap, k, &state);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(SkybandTest, TopSumDeleteFuzzStaysExactAcrossDistributions) {
  // Chains of 50 publishes, each deleting 1-3 of the highest-sum members
  // on top of random inserts and non-member deletes, on independent,
  // correlated and anti-correlated tables, and on sum-collision tables
  // whose inserts collide too, d 2-5. The certificate must actually
  // reject rows somewhere, or this would not test it.
  Rng rng(33);
  size_t rows = 0;
  size_t counted = 0;
  const Distribution kDists[] = {Distribution::kIndependent,
                                 Distribution::kCorrelated,
                                 Distribution::kAnticorrelated};
  for (size_t table = 0; table < 4; ++table) {
    const bool collide = table == 3;
    const Distribution dist = kDists[collide ? 0 : table];
    for (size_t d = 2; d <= 5; ++d) {
      const int k = d % 3 == 2 ? 10 : (d % 3 == 0 ? 3 : 1);
      SCOPED_TRACE(testing::Message()
                   << (collide ? "sum-collision" : DistributionName(dist))
                   << " d=" << d << " k=" << k);
      MutableCatalog catalog(collide ? SumCollisionDataset(400, d, 40 + d)
                                     : GenerateSynthetic(400, d, dist, 40 + d));
      SnapshotPtr snap = catalog.Current();
      KSkybandState state =
          SortBasedKSkybandPool(snap->View(), snap->live_ids(), k);
      for (int round = 0; round < 50; ++round) {
        const int inserts = static_cast<int>(rng.UniformInt(0, 4));
        for (int i = 0; i < inserts; ++i) {
          catalog.StageInsert(collide ? SumCollisionRow(d, rng)
                                      : RandomRow(d, /*ties=*/false, rng));
        }
        StageDeletes(catalog, snap, state.ids, false,
                     static_cast<int>(rng.UniformInt(0, 3)), rng);
        StageTopSumDeletes(catalog, state,
                           static_cast<int>(rng.UniformInt(1, 3)));
        snap = catalog.Publish();
        KSkybandPromotionStats stats;
        KSkybandApplyDelta(snap->View(), snap->live_ids(), k, snap->delta(),
                           &state, &stats);
        rows += stats.rows;
        counted += stats.counted;
        EXPECT_TRUE(state == SortBasedKSkybandPool(snap->View(),
                                                   snap->live_ids(), k))
            << "round " << round;
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(rows, counted);
}

}  // namespace
}  // namespace toprr
