#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/rng.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "topk/skyband.h"

namespace toprr {
namespace {

PrefBox Box(std::initializer_list<double> lo, std::initializer_list<double> hi) {
  PrefBox box;
  box.lo = Vec(lo);
  box.hi = Vec(hi);
  return box;
}

TEST(EngineTest, SkybandIsCachedAndCorrect) {
  const Dataset ds = GenerateSynthetic(2000, 3, Distribution::kIndependent,
                                       42);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  const std::vector<int>& first = engine.KSkyband(5);
  EXPECT_EQ(first, SortBasedKSkyband(ds, 5));
  // Second call returns the same cached object.
  const std::vector<int>& second = engine.KSkyband(5);
  EXPECT_EQ(&first, &second);
  // Different k: different entry.
  const std::vector<int>& other = engine.KSkyband(2);
  EXPECT_NE(&first, &other);
}

TEST(EngineTest, SolveMatchesDirectSolve) {
  const Dataset ds = GenerateSynthetic(3000, 3, Distribution::kIndependent,
                                       43);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(44);
  for (int trial = 0; trial < 4; ++trial) {
    const PrefBox box = RandomPrefBox(2, 0.03, rng);
    const int k = 3 + trial * 3;
    const ToprrResult via_engine = engine.Solve(k, box);
    const ToprrResult direct = SolveToprr(ds, k, box);
    ASSERT_FALSE(via_engine.timed_out);
    // Same candidate pool and same impact constraints.
    EXPECT_EQ(via_engine.stats.candidates_after_filter,
              direct.stats.candidates_after_filter);
    EXPECT_EQ(via_engine.impact_halfspaces.size(),
              direct.impact_halfspaces.size());
    // Membership agreement on random probes.
    for (int probe = 0; probe < 300; ++probe) {
      const Vec o{rng.Uniform(), rng.Uniform(), rng.Uniform()};
      EXPECT_EQ(via_engine.Contains(o), direct.Contains(o));
    }
  }
}

TEST(EngineTest, RepeatedQueriesFilterWithinSkyband) {
  // The per-query r-skyband scan over the cached skyband must produce the
  // same filter set as the full-dataset scan.
  const Dataset ds = GenerateSynthetic(5000, 4,
                                       Distribution::kAnticorrelated, 45);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(46);
  const PrefBox box = RandomPrefBox(3, 0.02, rng);
  const ToprrResult a = engine.Solve(10, box);
  const ToprrResult b = SolveToprr(ds, 10, box);
  EXPECT_EQ(a.stats.candidates_after_filter,
            b.stats.candidates_after_filter);
}

TEST(EngineTest, PolytopeRegionOverload) {
  const Dataset ds = GenerateSynthetic(1000, 3, Distribution::kIndependent,
                                       47);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  const PrefBox box = Box({0.2, 0.2}, {0.25, 0.25});
  const ToprrResult via_box = engine.Solve(5, box);
  const ToprrResult via_region = engine.Solve(5, PrefRegion::FromBox(box));
  EXPECT_EQ(via_box.impact_halfspaces.size(),
            via_region.impact_halfspaces.size());
}

void ExpectSameRegion(const ToprrResult& a, const ToprrResult& b) {
  ASSERT_EQ(a.timed_out, b.timed_out);
  ASSERT_EQ(a.impact_halfspaces.size(), b.impact_halfspaces.size());
  for (size_t i = 0; i < a.impact_halfspaces.size(); ++i) {
    EXPECT_EQ(a.impact_halfspaces[i].offset, b.impact_halfspaces[i].offset);
    for (size_t j = 0; j < a.impact_halfspaces[i].normal.dim(); ++j) {
      EXPECT_EQ(a.impact_halfspaces[i].normal[j],
                b.impact_halfspaces[i].normal[j]);
    }
  }
  ASSERT_EQ(a.vall.size(), b.vall.size());
  for (size_t i = 0; i < a.vall.size(); ++i) {
    for (size_t j = 0; j < a.vall[i].dim(); ++j) {
      EXPECT_EQ(a.vall[i][j], b.vall[i][j]);
    }
  }
}

TEST(EngineTest, SolveBatchMatchesIndividualSolves) {
  const Dataset ds = GenerateSynthetic(1500, 3, Distribution::kIndependent,
                                       49);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(50);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 12; ++i) {
    ToprrOptions options;
    if (i % 3 == 0) options.method = ToprrMethod::kTas;
    queries.push_back(
        ToprrQuery::FromBox(2 + i % 5, RandomPrefBox(2, 0.03, rng), options));
  }
  const std::vector<ToprrResult> batch = engine.SolveBatch(queries, 4);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const ToprrResult single = engine.Solve(queries[i]);
    SCOPED_TRACE(i);
    ExpectSameRegion(batch[i], single);
  }
}

TEST(EngineTest, SolveBatchSequentialAndParallelAgree) {
  const Dataset ds = GenerateSynthetic(1000, 4, Distribution::kCorrelated,
                                       51);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(52);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        ToprrQuery::FromBox(5, RandomPrefBox(3, 0.02, rng)));
  }
  const std::vector<ToprrResult> serial = engine.SolveBatch(queries, 1);
  const std::vector<ToprrResult> parallel = engine.SolveBatch(queries, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRegion(serial[i], parallel[i]);
  }
}

TEST(EngineTest, SolveBatchWithRegionLevelParallelismComposes) {
  // Query-level and region-level parallelism share one pool; both levels
  // active at once must stay correct (the pool saturates gracefully).
  const Dataset ds = GenerateSynthetic(800, 3, Distribution::kIndependent,
                                       53);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(54);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 6; ++i) {
    ToprrOptions options;
    options.num_threads = 2;  // region-level parallelism inside each query
    queries.push_back(
        ToprrQuery::FromBox(4, RandomPrefBox(2, 0.03, rng), options));
  }
  const std::vector<ToprrResult> batch = engine.SolveBatch(queries, 3);
  for (size_t i = 0; i < queries.size(); ++i) {
    ToprrQuery plain = queries[i];
    plain.options.num_threads = 1;
    const ToprrResult single = engine.Solve(plain);
    SCOPED_TRACE(i);
    ExpectSameRegion(batch[i], single);
  }
}

TEST(EngineTest, SolveBatchSurfacesSchedulerTelemetry) {
  // Each query of a batch carries its own executor telemetry; with
  // region-level parallelism requested the per-query stats must show the
  // requested worker-slot count and account every tested region, even
  // when the batch dispatch saturates the pool.
  const Dataset ds = GenerateSynthetic(900, 3, Distribution::kIndependent,
                                       58);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(59);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 5; ++i) {
    ToprrOptions options;
    options.num_threads = 2;
    queries.push_back(
        ToprrQuery::FromBox(4, RandomPrefBox(2, 0.03, rng), options));
  }
  const std::vector<ToprrResult> batch = engine.SolveBatch(queries, 2);
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_FALSE(batch[i].timed_out);
    ASSERT_EQ(batch[i].stats.scheduler.workers.size(), 2u);
    EXPECT_EQ(batch[i].stats.scheduler.TotalExecuted(),
              batch[i].stats.regions_tested);
  }
}

TEST(EngineTest, SolveBatchEmpty) {
  const Dataset ds = GenerateSynthetic(100, 3, Distribution::kIndependent,
                                       55);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  EXPECT_TRUE(engine.SolveBatch({}, 4).empty());
}

TEST(EngineTest, ConcurrentSolvesShareTheCache) {
  const Dataset ds = GenerateSynthetic(1200, 3, Distribution::kIndependent,
                                       56);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(57);
  // Same k across all queries: every worker hits the same cache entry.
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(ToprrQuery::FromBox(6, RandomPrefBox(2, 0.02, rng)));
  }
  const std::vector<ToprrResult> batch = engine.SolveBatch(queries, 4);
  for (const ToprrResult& r : batch) {
    EXPECT_FALSE(r.timed_out);
    EXPECT_GT(r.stats.candidates_after_filter, 0u);
  }
  EXPECT_EQ(engine.KSkyband(6), SortBasedKSkyband(ds, 6));
}

TEST(EngineTest, SolveBatchMixedKBuildsSkybandsConcurrently) {
  // A batch mixing k values must not serialize behind the first query's
  // skyband build: every worker computes its own k's skyband outside the
  // cache lock (per-k once slots). Results must match the per-query
  // solves of a cold engine exactly, and every skyband must equal the
  // direct computation.
  const Dataset ds = GenerateSynthetic(2500, 3, Distribution::kAnticorrelated,
                                       58);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(59);
  std::vector<ToprrQuery> queries;
  const int ks[] = {1, 3, 5, 8, 12, 3, 8, 1, 12, 5, 7, 2};
  for (int k : ks) {
    queries.push_back(ToprrQuery::FromBox(k, RandomPrefBox(2, 0.03, rng)));
  }
  const std::vector<ToprrResult> batch = engine.SolveBatch(queries, 4);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_FALSE(batch[i].timed_out) << "query " << i;
    ToprrEngine cold(DatasetSnapshot::FromDataset(ds));
    const ToprrResult reference = cold.Solve(queries[i]);
    EXPECT_EQ(batch[i].impact_halfspaces.size(),
              reference.impact_halfspaces.size())
        << "query " << i;
    ASSERT_EQ(batch[i].vall.size(), reference.vall.size()) << "query " << i;
    for (size_t v = 0; v < batch[i].vall.size(); ++v) {
      EXPECT_EQ(batch[i].vall[v].raw(), reference.vall[v].raw())
          << "query " << i << " vall " << v;
    }
  }
  for (int k : {1, 2, 3, 5, 7, 8, 12}) {
    EXPECT_EQ(engine.KSkyband(k), SortBasedKSkyband(ds, k)) << "k=" << k;
  }
}

TEST(EngineTest, CancelFlagAbortsBothExecutors) {
  // A pre-set cancel flag must abort the solve at the scheduler's first
  // per-region poll, on the sequential and the work-stealing executor
  // alike, with both timed_out and cancelled set; a past deadline stops
  // both executors the same way but leaves cancelled clear.
  const Dataset ds = GenerateSynthetic(2000, 3, Distribution::kIndependent,
                                       60);
  Rng rng(61);
  const PrefBox box = RandomPrefBox(2, 0.05, rng);
  std::atomic<bool> cancel{true};
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ToprrOptions options;
    options.num_threads = threads;
    options.cancel = &cancel;
    const ToprrResult result = SolveToprr(ds, 10, box, options);
    EXPECT_TRUE(result.timed_out);
    EXPECT_TRUE(result.cancelled);

    ToprrOptions expired;
    expired.num_threads = threads;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    const ToprrResult late = SolveToprr(ds, 10, box, expired);
    EXPECT_TRUE(late.timed_out);
    EXPECT_FALSE(late.cancelled);
    EXPECT_EQ(late.stats.regions_tested, 0u);
  }
  // Budget expiry without cancellation keeps the two flags distinct.
  ToprrOptions budget_only;
  budget_only.time_budget_seconds = 1e-9;
  const ToprrResult budget = SolveToprr(ds, 10, box, budget_only);
  EXPECT_TRUE(budget.timed_out);
  EXPECT_FALSE(budget.cancelled);
}

TEST(EngineTest, SolveBatchCancelResolvesEveryQuery) {
  // With every query's cancel flag already set, SolveBatch must still
  // return one explicit cancelled result per query -- never hang and
  // never leave slots untouched.
  const Dataset ds = GenerateSynthetic(800, 3, Distribution::kIndependent,
                                       62);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  Rng rng(63);
  std::atomic<bool> cancel{true};
  ToprrOptions options;
  options.cancel = &cancel;
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        ToprrQuery::FromBox(4, RandomPrefBox(2, 0.03, rng), options));
  }
  const std::vector<ToprrResult> results = engine.SolveBatch(queries, 3);
  ASSERT_EQ(results.size(), queries.size());
  for (const ToprrResult& result : results) {
    EXPECT_TRUE(result.timed_out);
    EXPECT_TRUE(result.cancelled);
  }
  // The same batch solves normally once the flag is clear.
  cancel.store(false);
  const std::vector<ToprrResult> solved = engine.SolveBatch(queries, 3);
  for (const ToprrResult& result : solved) {
    EXPECT_FALSE(result.timed_out);
    EXPECT_FALSE(result.cancelled);
  }
}

TEST(EngineTest, RebindingAnEqualSnapshotKeepsTheSkyband) {
  // The post-shim form of the old InvalidateCache test: moving the
  // engine onto an independently built snapshot of the same content (a
  // fresh root, so no shared delta chain) must yield the same skyband.
  const Dataset ds = GenerateSynthetic(500, 3, Distribution::kIndependent,
                                       48);
  ToprrEngine engine(DatasetSnapshot::FromDataset(ds));
  const std::vector<int> copy = engine.KSkyband(3);
  engine.SetSnapshot(DatasetSnapshot::FromDataset(ds));
  const std::vector<int>& after = engine.KSkyband(3);
  EXPECT_EQ(copy, after);  // same dataset, same answer
}

TEST(EngineTest, IndependentSnapshotsOfEqualContentAgree) {
  const Dataset ds = GenerateSynthetic(1200, 3, Distribution::kIndependent,
                                       70);
  const SnapshotPtr snap = DatasetSnapshot::FromDataset(ds);
  ToprrEngine first(snap);
  ToprrEngine second(DatasetSnapshot::FromDataset(ds));
  // Independent snapshots of the same content hash to the same id.
  EXPECT_EQ(first.snapshot_id(), second.snapshot_id());
  EXPECT_EQ(first.snapshot_id(), DatasetContentHash(ds));
  EXPECT_EQ(first.dataset_rows(), ds.size());
  EXPECT_EQ(first.dataset_dim(), ds.dim());
  // Both are roots: publish sequence 1.
  EXPECT_EQ(first.snapshot_seq(), 1u);
  EXPECT_EQ(second.snapshot_seq(), 1u);
  Rng rng(71);
  const PrefBox box = RandomPrefBox(2, 0.03, rng);
  const ToprrResult a = first.Solve(5, box);
  const ToprrResult b = second.Solve(5, box);
  ExpectSameRegion(a, b);
  // Every engine solve stamps the snapshot it pinned.
  EXPECT_EQ(a.snapshot_id, snap->id());
  EXPECT_EQ(b.snapshot_id, snap->id());
  EXPECT_EQ(a.snapshot_seq, 1u);
}

TEST(EngineTest, SetSnapshotMaintainsSkybandIncrementally) {
  const Dataset ds = GenerateSynthetic(600, 3, Distribution::kIndependent,
                                       72);
  MutableCatalog catalog(ds);
  ToprrEngine engine(catalog.Current());
  const std::vector<int> base = engine.KSkyband(4);
  EXPECT_EQ(engine.update_counters().skyband_rebuilds, 1u);
  EXPECT_EQ(engine.update_counters().skyband_incremental, 0u);

  // Insert-only delta: the publish migrates the cached skyband
  // incrementally.
  Rng rng(73);
  for (int i = 0; i < 12; ++i) {
    Vec row(3);
    for (size_t j = 0; j < 3; ++j) row[j] = rng.Uniform();
    catalog.StageInsert(row);
  }
  const SnapshotPtr v2 = catalog.Publish();
  engine.SetSnapshot(v2);
  EXPECT_EQ(engine.update_counters().publishes_seen, 1u);
  EXPECT_EQ(engine.update_counters().skyband_incremental, 1u);
  EXPECT_EQ(engine.update_counters().skyband_rebuilds, 1u);
  EXPECT_EQ(engine.KSkyband(4),
            SortBasedKSkybandPool(v2->View(), v2->live_ids(), 4).ids);

  // Deleting a non-member is free (still incremental).
  const std::vector<int> members = engine.KSkyband(4);
  int non_member = -1;
  for (const int id : v2->live_ids()) {
    if (!std::binary_search(members.begin(), members.end(), id)) {
      non_member = id;
      break;
    }
  }
  ASSERT_GE(non_member, 0);
  catalog.StageDelete(non_member);
  const SnapshotPtr v3 = catalog.Publish();
  engine.SetSnapshot(v3);
  EXPECT_EQ(engine.update_counters().skyband_incremental, 2u);
  EXPECT_EQ(engine.update_counters().skyband_rebuilds, 1u);
  EXPECT_EQ(engine.KSkyband(4),
            SortBasedKSkybandPool(v3->View(), v3->live_ids(), 4).ids);

  // No member has been deleted yet, so no promotion scan ran.
  EXPECT_EQ(engine.update_counters().promotion_rows, 0u);
  EXPECT_EQ(engine.update_counters().promotion_counted, 0u);

  // Deleting a member is incremental too: only the rows it dominated
  // are checked for promotion, and the counters report that scan.
  catalog.StageDelete(engine.KSkyband(4).front());
  const SnapshotPtr v4 = catalog.Publish();
  engine.SetSnapshot(v4);
  EXPECT_EQ(engine.update_counters().skyband_incremental, 3u);
  EXPECT_EQ(engine.update_counters().skyband_rebuilds, 1u);
  EXPECT_EQ(engine.KSkyband(4),
            SortBasedKSkybandPool(v4->View(), v4->live_ids(), 4).ids);
  KSkybandState carried =
      SortBasedKSkybandPool(v3->View(), v3->live_ids(), 4);
  KSkybandPromotionStats promotion;
  ASSERT_TRUE(KSkybandApplyDelta(v4->View(), v4->live_ids(), 4,
                                 v4->delta(), &carried, &promotion));
  EXPECT_GT(promotion.rows, 0u);
  EXPECT_EQ(engine.update_counters().promotion_rows, promotion.rows);
  EXPECT_EQ(engine.update_counters().promotion_counted, promotion.counted);
}

TEST(EngineTest, SetSnapshotAcrossASkippedVersionRebuilds) {
  // The delta of v3 is relative to v2, so an engine moving straight from
  // v1 to v3 must not apply it to v1's skyband: it rebuilds. Equal ids
  // still keep their region-cache epoch, so cached regions keep hitting.
  const Dataset ds = GenerateSynthetic(500, 3, Distribution::kIndependent,
                                       73);
  MutableCatalog catalog(ds);
  ToprrEngine engine(catalog.Current());
  engine.EnableRegionCache({});
  ToprrOptions cached;
  cached.use_region_cache = true;
  PrefBox box;
  box.lo = Vec{12.0 / 256, 13.0 / 256};
  box.hi = Vec{16.0 / 256, 17.0 / 256};
  const int k = 4;
  engine.Solve(k, box, cached);
  const std::vector<int> members = engine.KSkyband(k);

  // v2 deletes a member and v3 only adds a dominated row: applying v3's
  // delta to v1's skyband would keep the deleted member.
  catalog.StageDelete(members.front());
  catalog.Publish();
  catalog.StageInsert(Vec{0.001, 0.001, 0.001});
  const SnapshotPtr v3 = catalog.Publish();
  engine.SetSnapshot(v3);
  EXPECT_EQ(engine.update_counters().skyband_incremental, 0u);
  EXPECT_EQ(engine.update_counters().skyband_rebuilds, 2u);
  EXPECT_EQ(engine.KSkyband(k),
            SortBasedKSkybandPool(v3->View(), v3->live_ids(), k).ids);
  EXPECT_EQ(engine.Solve(k, box, cached).stats.scheduler.cache_misses, 1u);

  // v4 and v5 change nothing the skyband sees: skipping v4 rebuilds, but
  // the epoch survives and the cached region hits.
  const std::vector<int> before = engine.KSkyband(k);
  catalog.StageInsert(Vec{0.002, 0.001, 0.001});
  catalog.Publish();
  catalog.StageInsert(Vec{0.001, 0.002, 0.001});
  const SnapshotPtr v5 = catalog.Publish();
  engine.SetSnapshot(v5);
  EXPECT_EQ(engine.update_counters().skyband_rebuilds, 3u);
  EXPECT_EQ(engine.KSkyband(k), before);
  EXPECT_EQ(engine.Solve(k, box, cached).stats.scheduler.cache_hits, 1u);
}

TEST(EngineTest, ConcurrentPublishAndSolveBatchStress) {
  // A writer publishing snapshots while readers run SolveBatch: every
  // result must be bit-identical to a cold engine solving the same query
  // on the snapshot the result says it pinned. Run under TSan to verify
  // the no-shared-mutable-state claim.
  const Dataset ds = GenerateSynthetic(400, 3, Distribution::kIndependent,
                                       74);
  auto catalog = std::make_shared<MutableCatalog>(ds);
  ToprrEngine engine(catalog->Current());

  std::mutex versions_mu;
  std::map<uint64_t, SnapshotPtr> versions;
  versions[catalog->CurrentId()] = catalog->Current();

  Rng rng(75);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(ToprrQuery::FromBox(5, RandomPrefBox(2, 0.03, rng)));
  }

  std::thread writer([&] {
    Rng wrng(76);
    for (int publish = 0; publish < 4; ++publish) {
      for (int i = 0; i < 5; ++i) {
        Vec row(3);
        for (size_t j = 0; j < 3; ++j) row[j] = wrng.Uniform();
        catalog->StageInsert(row);
      }
      // An occasional delete exercises both maintenance paths.
      catalog->StageDelete(static_cast<int>(
          wrng.UniformInt(0, static_cast<int>(ds.size()) - 1)));
      const SnapshotPtr next = catalog->Publish();
      {
        std::lock_guard<std::mutex> lock(versions_mu);
        versions[next->id()] = next;
      }
      engine.SetSnapshot(next);
    }
  });

  std::vector<std::vector<ToprrResult>> rounds;
  for (int round = 0; round < 3; ++round) {
    rounds.push_back(engine.SolveBatch(queries, 3));
  }
  writer.join();

  for (const std::vector<ToprrResult>& round : rounds) {
    ASSERT_EQ(round.size(), queries.size());
    for (size_t i = 0; i < round.size(); ++i) {
      SCOPED_TRACE(i);
      ASSERT_FALSE(round[i].timed_out);
      const auto it = versions.find(round[i].snapshot_id);
      ASSERT_NE(it, versions.end())
          << "result pinned an unknown snapshot version";
      ToprrEngine cold(it->second);
      ExpectSameRegion(round[i], cold.Solve(queries[i]));
    }
  }
}

}  // namespace
}  // namespace toprr
