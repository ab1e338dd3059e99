#include "data/dataset.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/snapshot.h"

namespace toprr {
namespace {

TEST(DatasetTest, ConstructionAndAccess) {
  Dataset ds(3, 2);
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.dim(), 2u);
  ds.At(1, 0) = 0.5;
  EXPECT_DOUBLE_EQ(ds.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 0.0);
}

TEST(DatasetTest, FromRowsAndOption) {
  const Dataset ds = Dataset::FromRows({Vec{0.1, 0.2}, Vec{0.3, 0.4}});
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_TRUE(ApproxEqual(ds.Option(1), Vec{0.3, 0.4}, 1e-15));
}

TEST(DatasetTest, AppendSetsDimension) {
  Dataset ds;
  ds.Append(Vec{1.0, 2.0, 3.0});
  EXPECT_EQ(ds.dim(), 3u);
  ds.Append(Vec{4.0, 5.0, 6.0});
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds.At(1, 2), 6.0);
}

TEST(DatasetTest, RowPointer) {
  const Dataset ds = Dataset::FromRows({Vec{0.7, 0.9}});
  const double* row = ds.Row(0);
  EXPECT_DOUBLE_EQ(row[0], 0.7);
  EXPECT_DOUBLE_EQ(row[1], 0.9);
}

TEST(DatasetTest, Score) {
  const Dataset ds = Dataset::FromRows({Vec{0.9, 0.4}});
  EXPECT_NEAR(ds.Score(0, Vec{0.8, 0.2}), 0.9 * 0.8 + 0.4 * 0.2, 1e-12);
}

TEST(DatasetTest, NormalizeUnit) {
  Dataset ds = Dataset::FromRows({Vec{0.0, 10.0}, Vec{5.0, 20.0},
                                  Vec{10.0, 30.0}});
  const auto ranges = ds.NormalizeUnit();
  EXPECT_DOUBLE_EQ(ranges[0].first, 0.0);
  EXPECT_DOUBLE_EQ(ranges[0].second, 10.0);
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ds.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(ds.At(2, 1), 1.0);
}

TEST(DatasetTest, NormalizeConstantColumn) {
  Dataset ds = Dataset::FromRows({Vec{3.0, 1.0}, Vec{3.0, 2.0}});
  ds.NormalizeUnit();
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ds.At(1, 0), 0.5);
}

TEST(DatasetTest, DebugStringTruncates) {
  Dataset ds(20, 2);
  const std::string s = ds.DebugString(3);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// ---- DatasetView -----------------------------------------------------

TEST(DatasetViewTest, ContiguousViewMirrorsDataset) {
  const Dataset ds = Dataset::FromRows({Vec{0.1, 0.2}, Vec{0.3, 0.4}});
  const DatasetView view(ds);
  ASSERT_EQ(view.size(), ds.size());
  ASSERT_EQ(view.dim(), ds.dim());
  EXPECT_EQ(view.Row(1), ds.Row(1));  // same pointer, zero indirection
  EXPECT_DOUBLE_EQ(view.At(1, 0), 0.3);
  EXPECT_DOUBLE_EQ(view.Score(0, Vec{1.0, 1.0}), 0.1 + 0.2);
}

TEST(DatasetViewTest, ChunkedViewCrossesChunkBoundaries) {
  // A snapshot larger than one chunk: the view must address rows across
  // the chunk seam identically to the snapshot's own Row().
  DatasetBuilder builder(2);
  const size_t n = DatasetSnapshot::kChunkRows + 7;
  for (size_t i = 0; i < n; ++i) {
    builder.Append(Vec{static_cast<double>(i), static_cast<double>(2 * i)});
  }
  const SnapshotPtr snap = builder.Build();
  const DatasetView view = snap->View();
  ASSERT_EQ(view.size(), n);
  for (const size_t row : {size_t{0}, DatasetSnapshot::kChunkRows - 1,
                           DatasetSnapshot::kChunkRows, n - 1}) {
    EXPECT_EQ(view.Row(row), snap->Row(row));
    EXPECT_DOUBLE_EQ(view.At(row, 0), static_cast<double>(row));
  }
}

// ---- DatasetSnapshot / DatasetBuilder / MutableCatalog ----------------

Vec Row2(double a, double b) { return Vec{a, b}; }

TEST(SnapshotTest, BuilderBuildsRoot) {
  DatasetBuilder builder;
  EXPECT_EQ(builder.Append(Row2(0.1, 0.9)), 0);
  EXPECT_EQ(builder.Append(Row2(0.8, 0.2)), 1);
  const SnapshotPtr snap = builder.Build();
  EXPECT_EQ(snap->rows(), 2u);
  EXPECT_EQ(snap->dim(), 2u);
  EXPECT_EQ(snap->live_rows(), 2u);
  EXPECT_EQ(snap->parent_id(), 0u);
  EXPECT_TRUE(snap->delta().empty());
  EXPECT_DOUBLE_EQ(snap->Row(1)[0], 0.8);
  // Root ids match the plain-Dataset content hash of the same table.
  const Dataset same =
      Dataset::FromRows({Row2(0.1, 0.9), Row2(0.8, 0.2)});
  EXPECT_EQ(snap->id(), DatasetContentHash(same));
  // Different content, different id.
  const Dataset other =
      Dataset::FromRows({Row2(0.1, 0.9), Row2(0.8, 0.3)});
  EXPECT_NE(snap->id(), DatasetContentHash(other));
}

TEST(SnapshotTest, PublishAssignsStableIdsAndTombstones) {
  MutableCatalog catalog(
      Dataset::FromRows({Row2(0.1, 0.2), Row2(0.3, 0.4), Row2(0.5, 0.6)}));
  const SnapshotPtr v1 = catalog.Current();
  EXPECT_EQ(catalog.StageInsert(Row2(0.7, 0.8)), 3);
  EXPECT_EQ(catalog.StageInsert(Row2(0.9, 1.0)), 4);
  EXPECT_TRUE(catalog.StageDelete(1));
  EXPECT_FALSE(catalog.StageDelete(1));   // already staged
  EXPECT_FALSE(catalog.StageDelete(99));  // unknown id
  EXPECT_EQ(catalog.staged_inserts(), 2u);
  EXPECT_EQ(catalog.staged_deletes(), 1u);

  const SnapshotPtr v2 = catalog.Publish();
  EXPECT_EQ(v2->rows(), 5u);       // physical rows grow, never shrink
  EXPECT_EQ(v2->live_rows(), 4u);  // 3 - 1 + 2
  EXPECT_FALSE(v2->IsLive(1));
  EXPECT_TRUE(v2->IsLive(3));
  EXPECT_EQ(v2->live_ids(), (std::vector<int>{0, 2, 3, 4}));
  // Parent rows keep their ids and values; v1 is untouched.
  EXPECT_DOUBLE_EQ(v2->Row(2)[0], 0.5);
  EXPECT_DOUBLE_EQ(v2->Row(4)[1], 1.0);
  EXPECT_EQ(v1->live_rows(), 3u);
  EXPECT_TRUE(v1->IsLive(1));
  // Version bookkeeping.
  EXPECT_EQ(v2->parent_id(), v1->id());
  EXPECT_NE(v2->id(), v1->id());
  EXPECT_EQ(v2->delta().inserted, (std::vector<int>{3, 4}));
  EXPECT_EQ(v2->delta().deleted, (std::vector<int>{1}));
  // Staging area is clear: publishing again is a no-op.
  EXPECT_EQ(catalog.Publish(), v2);
}

// The live ids a walk of the tombstone bitmap over every physical row
// finds.
std::vector<int> WalkLiveIds(const DatasetSnapshot& snap) {
  std::vector<int> ids;
  for (size_t row = 0; row < snap.rows(); ++row) {
    if (snap.IsLive(row)) ids.push_back(static_cast<int>(row));
  }
  return ids;
}

TEST(SnapshotTest, MergedLiveIdsMatchTheBitmapWalk) {
  // Publish derives live_ids() from the parent's list by merge. Across
  // random publishes -- deletes of root rows and of rows an earlier
  // publish inserted, inserts unstaged again before their publish
  // (tombstones), inserts crossing a chunk seam -- it must equal the
  // bitmap walk.
  DatasetBuilder builder(2);
  for (int i = 0; i < 1000; ++i) builder.Append(Row2(0.001 * i, 0.5));
  MutableCatalog catalog(builder.Build());
  Rng rng(41);
  int tombstones = 0;
  int late_deletes = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    const SnapshotPtr parent = catalog.Current();
    const int inserts = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < inserts; ++i) {
      const int id = catalog.StageInsert(Row2(rng.Uniform(), rng.Uniform()));
      if (rng.Uniform() < 0.2) {
        EXPECT_TRUE(catalog.StageDelete(id));
        ++tombstones;
      }
    }
    const std::vector<int>& live = parent->live_ids();
    // The newest live row, once an earlier publish inserted one.
    if (live.back() >= 1000 && catalog.StageDelete(live.back())) {
      ++late_deletes;
    }
    const int deletes = static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < deletes; ++i) {
      catalog.StageDelete(live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))]);
    }
    const SnapshotPtr snap = catalog.Publish();
    EXPECT_EQ(snap->live_ids(), WalkLiveIds(*snap));
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GT(tombstones, 0);
  EXPECT_GT(late_deletes, 0);
  EXPECT_GT(catalog.Current()->rows(), DatasetSnapshot::kChunkRows);
}

TEST(SnapshotTest, PublishSharesUnchangedChunksCopyOnWrite) {
  // Two full chunks plus a partial tail; the publish must share the full
  // chunks by pointer and clone only the tail it extends.
  DatasetBuilder builder(2);
  const size_t n = 2 * DatasetSnapshot::kChunkRows + 10;
  for (size_t i = 0; i < n; ++i) {
    builder.Append(Row2(static_cast<double>(i), 0.5));
  }
  MutableCatalog catalog(builder.Build());
  const SnapshotPtr v1 = catalog.Current();
  catalog.StageInsert(Row2(-1.0, -2.0));
  const SnapshotPtr v2 = catalog.Publish();

  EXPECT_EQ(v2->ChunkForRow(0), v1->ChunkForRow(0));
  EXPECT_EQ(v2->ChunkForRow(DatasetSnapshot::kChunkRows),
            v1->ChunkForRow(DatasetSnapshot::kChunkRows));
  // The partial tail was cloned, not mutated in place.
  EXPECT_NE(v2->ChunkForRow(n), v1->ChunkForRow(n - 1));
  EXPECT_DOUBLE_EQ(v2->Row(n)[0], -1.0);
  EXPECT_DOUBLE_EQ(v1->Row(n - 1)[0], static_cast<double>(n - 1));

  // A delete-only publish shares every chunk (tombstone bit flip only).
  catalog.StageDelete(0);
  const SnapshotPtr v3 = catalog.Publish();
  EXPECT_EQ(v3->ChunkForRow(0), v2->ChunkForRow(0));
  EXPECT_EQ(v3->ChunkForRow(n), v2->ChunkForRow(n));
  EXPECT_FALSE(v3->IsLive(0));
  EXPECT_TRUE(v2->IsLive(0));
}

TEST(SnapshotTest, UnstagedInsertMaterializesAsTombstone) {
  MutableCatalog catalog(Dataset::FromRows({Row2(0.1, 0.2)}));
  const int first = catalog.StageInsert(Row2(0.3, 0.4));
  const int second = catalog.StageInsert(Row2(0.5, 0.6));
  EXPECT_TRUE(catalog.StageDelete(first));  // un-stage before publish
  const SnapshotPtr snap = catalog.Publish();
  // The un-staged row still occupies its promised physical id (as a
  // tombstone) so `second`'s id keeps its promise.
  EXPECT_EQ(snap->rows(), 3u);
  EXPECT_FALSE(snap->IsLive(static_cast<size_t>(first)));
  EXPECT_TRUE(snap->IsLive(static_cast<size_t>(second)));
  EXPECT_DOUBLE_EQ(snap->Row(static_cast<size_t>(second))[0], 0.5);
  EXPECT_EQ(snap->delta().inserted, (std::vector<int>{second}));
  EXPECT_TRUE(snap->delta().deleted.empty());
}

TEST(SnapshotTest, PublishIdReflectsTheDelta) {
  // Equal roots hash equal; publishes mix the delta's bytes into the
  // parent id, so any difference in what was inserted changes the id.
  MutableCatalog a(Dataset::FromRows({Row2(0.1, 0.2)}));
  MutableCatalog b(Dataset::FromRows({Row2(0.1, 0.2)}));
  EXPECT_EQ(a.CurrentId(), b.CurrentId());
  a.StageInsert(Row2(0.3, 0.4));
  const uint64_t a2 = a.Publish()->id();
  b.StageInsert(Row2(0.3, 0.5));
  const uint64_t b2 = b.Publish()->id();
  EXPECT_NE(a2, b2);
}

TEST(SnapshotTest, EmptyRootAdoptsStagedDimension) {
  MutableCatalog catalog(DatasetBuilder().Build());
  EXPECT_EQ(catalog.StageInsert(Row2(0.2, 0.8)), 0);
  const SnapshotPtr snap = catalog.Publish();
  EXPECT_EQ(snap->dim(), 2u);
  EXPECT_EQ(snap->live_rows(), 1u);
  EXPECT_DOUBLE_EQ(snap->Row(0)[1], 0.8);
}

}  // namespace
}  // namespace toprr
