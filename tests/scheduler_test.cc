// Determinism contract of the partition scheduler (core/scheduler.h): the
// multi-threaded executor must produce bit-identical ToprrResults to the
// sequential executor for every method, across seeds, dimensions, and k.
#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "pref/pref_space.h"
#include "topk/rskyband.h"

namespace toprr {
namespace {

// Exact (bitwise) equality of two vectors of Vecs.
void ExpectSameVecs(const std::vector<Vec>& a, const std::vector<Vec>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dim(), b[i].dim()) << what << "[" << i << "]";
    for (size_t j = 0; j < a[i].dim(); ++j) {
      EXPECT_EQ(a[i][j], b[i][j]) << what << "[" << i << "][" << j << "]";
    }
  }
}

// Exact equality of two accepted-cell lists: ids, vertex coordinates
// and facet planes and incidences.
void ExpectSameCells(const std::vector<FlatCell>& a,
                     const std::vector<FlatCell>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    const FlatRegion& ra = a[i].region;
    const FlatRegion& rb = b[i].region;
    EXPECT_EQ(ra.coords(), rb.coords()) << i;
    ASSERT_EQ(ra.num_facets(), rb.num_facets()) << i;
    for (size_t f = 0; f < ra.num_facets(); ++f) {
      EXPECT_TRUE(std::equal(ra.facet_plane(f),
                             ra.facet_plane(f) + ra.dim() + 1,
                             rb.facet_plane(f)))
          << i;
      EXPECT_TRUE(std::equal(ra.facet_ids(f),
                             ra.facet_ids(f) + ra.facet_size(f),
                             rb.facet_ids(f), rb.facet_ids(f) +
                                                  rb.facet_size(f)))
          << i;
    }
  }
}

void ExpectSameHalfspaces(const std::vector<Halfspace>& a,
                          const std::vector<Halfspace>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset) << what << "[" << i << "]";
    ASSERT_EQ(a[i].normal.dim(), b[i].normal.dim()) << what;
    for (size_t j = 0; j < a[i].normal.dim(); ++j) {
      EXPECT_EQ(a[i].normal[j], b[i].normal[j])
          << what << "[" << i << "][" << j << "]";
    }
  }
}

// Bit-identical results, modulo wall-clock timing fields.
void ExpectIdenticalResults(const ToprrResult& seq, const ToprrResult& par) {
  ASSERT_EQ(seq.timed_out, par.timed_out);
  EXPECT_EQ(seq.degenerate, par.degenerate);
  EXPECT_EQ(seq.geometry_skipped, par.geometry_skipped);
  ExpectSameHalfspaces(seq.impact_halfspaces, par.impact_halfspaces,
                       "impact_halfspaces");
  ExpectSameHalfspaces(seq.box_halfspaces, par.box_halfspaces,
                       "box_halfspaces");
  ExpectSameVecs(seq.vall, par.vall, "vall");
  ExpectSameVecs(seq.vertices, par.vertices, "vertices");
  EXPECT_EQ(seq.supporting_halfspaces, par.supporting_halfspaces);
  EXPECT_EQ(seq.stats.candidates_after_filter,
            par.stats.candidates_after_filter);
  EXPECT_EQ(seq.stats.regions_tested, par.stats.regions_tested);
  EXPECT_EQ(seq.stats.regions_accepted, par.stats.regions_accepted);
  EXPECT_EQ(seq.stats.regions_split, par.stats.regions_split);
  EXPECT_EQ(seq.stats.kipr_accepts, par.stats.kipr_accepts);
  EXPECT_EQ(seq.stats.lemma7_accepts, par.stats.lemma7_accepts);
  EXPECT_EQ(seq.stats.lemma5_prunes, par.stats.lemma5_prunes);
  EXPECT_EQ(seq.stats.vall_raw, par.stats.vall_raw);
  EXPECT_EQ(seq.stats.vall_unique, par.stats.vall_unique);
}

TEST(SchedulerTest, ParallelMatchesSequentialAcrossMethodsDimsAndK) {
  const ToprrMethod methods[] = {ToprrMethod::kPac, ToprrMethod::kTas,
                                 ToprrMethod::kTasStar};
  Rng rng(7001);
  for (uint64_t seed : {11u, 12u}) {
    for (size_t d : {2u, 3u, 4u}) {
      const Dataset ds =
          GenerateSynthetic(300, d, Distribution::kIndependent, seed);
      const PrefBox box = RandomPrefBox(d - 1, 0.04, rng);
      for (int k : {1, 5}) {
        for (ToprrMethod method : methods) {
          ToprrOptions seq_options;
          seq_options.method = method;
          seq_options.num_threads = 1;
          ToprrOptions par_options = seq_options;
          par_options.num_threads = 4;
          const ToprrResult seq = SolveToprr(ds, k, box, seq_options);
          const ToprrResult par = SolveToprr(ds, k, box, par_options);
          ASSERT_FALSE(seq.timed_out)
              << ToprrMethodName(method) << " d=" << d << " k=" << k;
          SCOPED_TRACE(std::string(ToprrMethodName(method)) + " d=" +
                       std::to_string(d) + " k=" + std::to_string(k) +
                       " seed=" + std::to_string(seed));
          ExpectIdenticalResults(seq, par);
        }
      }
    }
  }
}

TEST(SchedulerTest, ParallelMatchesSequentialOnLargerInstance) {
  const Dataset ds =
      GenerateSynthetic(2000, 3, Distribution::kAnticorrelated, 77);
  PrefBox box;
  box.lo = Vec{0.28, 0.30};
  box.hi = Vec{0.34, 0.36};
  ToprrOptions seq_options;
  seq_options.num_threads = 1;
  ToprrOptions par_options;
  par_options.num_threads = 8;
  const ToprrResult seq = SolveToprr(ds, 10, box, seq_options);
  const ToprrResult par = SolveToprr(ds, 10, box, par_options);
  ASSERT_FALSE(seq.timed_out);
  ExpectIdenticalResults(seq, par);
  EXPECT_GT(seq.stats.regions_tested, 10u);  // nontrivial tree
}

TEST(SchedulerTest, ParallelRunsAreReproducible) {
  // Two parallel runs agree with each other (not only with sequential):
  // thread scheduling must not leak into the result.
  const Dataset ds = GenerateSynthetic(500, 4, Distribution::kCorrelated, 55);
  Rng rng(7002);
  const PrefBox box = RandomPrefBox(3, 0.03, rng);
  ToprrOptions options;
  options.num_threads = 4;
  const ToprrResult first = SolveToprr(ds, 7, box, options);
  const ToprrResult second = SolveToprr(ds, 7, box, options);
  ASSERT_FALSE(first.timed_out);
  ExpectIdenticalResults(first, second);
}

TEST(SchedulerTest, NumThreadsZeroMeansHardware) {
  const Dataset ds = GenerateSynthetic(200, 3, Distribution::kIndependent, 9);
  PrefBox box;
  box.lo = Vec{0.3, 0.3};
  box.hi = Vec{0.33, 0.33};
  ToprrOptions seq_options;  // num_threads = 1
  ToprrOptions auto_options;
  auto_options.num_threads = 0;
  const ToprrResult seq = SolveToprr(ds, 5, box, seq_options);
  const ToprrResult par = SolveToprr(ds, 5, box, auto_options);
  ASSERT_FALSE(seq.timed_out);
  ExpectIdenticalResults(seq, par);
}

TEST(SchedulerTest, PartitionOutputIdenticalWithCollectors) {
  // The auxiliary collectors (top-k union, accepted cells) must merge
  // deterministically too -- they feed the UTK filter, the impact API and
  // the region cache.
  const Dataset ds = GenerateSynthetic(400, 3, Distribution::kIndependent, 21);
  Rng rng(7003);
  const PrefBox box = RandomPrefBox(2, 0.05, rng);
  const int k = 6;
  const std::vector<int> candidates = RSkyband(ds, box, k);
  PartitionConfig config;
  config.use_lemma5 = true;
  config.use_kswitch = true;
  config.collect_topk_union = true;
  config.collect_flat_cells = true;

  PartitionConfig par_config = config;
  par_config.num_threads = 4;
  const PartitionOutput seq = PartitionPreferenceRegion(
      ds, candidates, k, PrefRegion::FromBox(box), config);
  const PartitionOutput par = PartitionPreferenceRegion(
      ds, candidates, k, PrefRegion::FromBox(box), par_config);

  ASSERT_FALSE(seq.timed_out);
  ASSERT_FALSE(par.timed_out);
  EXPECT_EQ(seq.topk_union, par.topk_union);
  ExpectSameVecs(seq.vall, par.vall, "vall");
  ExpectSameCells(seq.flat_cells, par.flat_cells);
}

TEST(SchedulerTest, TimeBudgetStopsParallelRun) {
  const Dataset ds =
      GenerateSynthetic(5000, 4, Distribution::kAnticorrelated, 31);
  PrefBox box;
  box.lo = Vec{0.2, 0.2, 0.2};
  box.hi = Vec{0.4, 0.4, 0.4};
  ToprrOptions options;
  options.num_threads = 4;
  options.time_budget_seconds = 1e-5;  // unreachable: must abort cleanly
  const ToprrResult r = SolveToprr(ds, 20, box, options);
  EXPECT_TRUE(r.timed_out);
}

TEST(SchedulerTest, RepeatedBudgetStopsDoNotDeadlock) {
  // Regression: a worker finishing its in-flight region after another
  // worker flipped the stop flag must still wake the caller even though
  // the abandoned queue is non-empty. The race needs many attempts to
  // hit; without the fix this looped test hung within ~50 iterations.
  const Dataset ds =
      GenerateSynthetic(4000, 4, Distribution::kAnticorrelated, 33);
  PrefBox box;
  box.lo = Vec{0.2, 0.2, 0.2};
  box.hi = Vec{0.4, 0.4, 0.4};
  ToprrOptions options;
  options.num_threads = 8;
  options.time_budget_seconds = 2e-4;
  for (int i = 0; i < 60; ++i) {
    const ToprrResult r = SolveToprr(ds, 15, box, options);
    EXPECT_TRUE(r.timed_out) << i;
  }
}

TEST(SchedulerTest, RegionCapStopsParallelRun) {
  const Dataset ds =
      GenerateSynthetic(3000, 4, Distribution::kAnticorrelated, 32);
  PrefBox box;
  box.lo = Vec{0.2, 0.2, 0.2};
  box.hi = Vec{0.4, 0.4, 0.4};
  ToprrOptions options;
  options.num_threads = 4;
  options.max_regions = 3;
  const ToprrResult r = SolveToprr(ds, 15, box, options);
  EXPECT_TRUE(r.timed_out);
}

TEST(SchedulerTest, RepeatedRegionCapStopsTerminate) {
  // Termination under budget-stop for the stealing executor: a worker
  // claiming the over-cap ticket flips the stop flag while peers hold
  // stolen tasks and non-empty deques; every worker must still exit (the
  // ctest timeout converts a missed termination into a failure).
  const Dataset ds =
      GenerateSynthetic(2500, 4, Distribution::kAnticorrelated, 34);
  PrefBox box;
  box.lo = Vec{0.2, 0.2, 0.2};
  box.hi = Vec{0.4, 0.4, 0.4};
  for (int i = 0; i < 40; ++i) {
    ToprrOptions options;
    options.num_threads = 2 + i % 7;  // sweep 2..8 workers
    options.max_regions = 1 + static_cast<size_t>(i) % 5;
    const ToprrResult r = SolveToprr(ds, 15, box, options);
    EXPECT_TRUE(r.timed_out) << i;
  }
}

TEST(SchedulerTest, StealingExecutorStressByteIdenticalAcrossSeeds) {
  // The satellite stress test: 2-8 workers on budget-capped deep trees
  // (generous caps that must not fire) against the sequential executor,
  // across 5 seeds, comparing the full PartitionOutput byte for byte --
  // collectors included.
  for (uint64_t seed : {101u, 102u, 103u, 104u, 105u}) {
    const Dataset ds =
        GenerateSynthetic(1200, 3, Distribution::kAnticorrelated, seed);
    Rng rng(9000 + seed);
    const PrefBox box = RandomPrefBox(2, 0.12, rng);
    const int k = 10;
    const std::vector<int> candidates = RSkyband(ds, box, k);
    PartitionConfig config;
    config.use_lemma5 = true;
    config.use_lemma7 = true;
    config.use_kswitch = true;
    config.collect_topk_union = true;
    config.collect_flat_cells = true;
    config.max_regions = 200000;        // budget-capped, cap not reached
    config.time_budget_seconds = 120.0; // ditto
    const PartitionOutput seq = PartitionPreferenceRegion(
        ds, candidates, k, PrefRegion::FromBox(box), config);
    ASSERT_FALSE(seq.timed_out) << seed;
    ASSERT_GT(seq.regions_tested, 20u) << seed << ": tree too shallow";

    for (int workers : {2, 3, 5, 8}) {
      PartitionConfig par_config = config;
      par_config.num_threads = workers;
      const PartitionOutput par = PartitionPreferenceRegion(
          ds, candidates, k, PrefRegion::FromBox(box), par_config);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " workers=" + std::to_string(workers));
      ASSERT_FALSE(par.timed_out);
      EXPECT_EQ(seq.regions_tested, par.regions_tested);
      EXPECT_EQ(seq.regions_accepted, par.regions_accepted);
      EXPECT_EQ(seq.regions_split, par.regions_split);
      EXPECT_EQ(seq.kipr_accepts, par.kipr_accepts);
      EXPECT_EQ(seq.lemma7_accepts, par.lemma7_accepts);
      EXPECT_EQ(seq.lemma5_prunes, par.lemma5_prunes);
      EXPECT_EQ(seq.topk_union, par.topk_union);
      ExpectSameVecs(seq.vall, par.vall, "vall");
      ExpectSameCells(seq.flat_cells, par.flat_cells);
      // Telemetry invariant: the per-worker executed counts partition the
      // tree exactly (worker attribution itself is timing-dependent).
      ASSERT_EQ(par.scheduler.workers.size(), static_cast<size_t>(workers));
      EXPECT_EQ(par.scheduler.TotalExecuted(), par.regions_tested);
      EXPECT_GE(par.scheduler.MaxDequeHighWater(), 1u);
    }
  }
}

TEST(SchedulerTest, SchedulerStatsAccountAllTasksAndCanBeDisabled) {
  const Dataset ds = GenerateSynthetic(600, 3, Distribution::kIndependent, 61);
  Rng rng(7004);
  const PrefBox box = RandomPrefBox(2, 0.05, rng);

  ToprrOptions options;
  options.num_threads = 1;
  const ToprrResult seq = SolveToprr(ds, 5, box, options);
  ASSERT_FALSE(seq.timed_out);
  ASSERT_EQ(seq.stats.scheduler.workers.size(), 1u);
  EXPECT_EQ(seq.stats.scheduler.TotalExecuted(), seq.stats.regions_tested);
  EXPECT_EQ(seq.stats.scheduler.TotalStolen(), 0u);
  EXPECT_GT(seq.stats.scheduler.wall_seconds, 0.0);

  options.num_threads = 4;
  const ToprrResult par = SolveToprr(ds, 5, box, options);
  ASSERT_FALSE(par.timed_out);
  ASSERT_EQ(par.stats.scheduler.workers.size(), 4u);
  EXPECT_EQ(par.stats.scheduler.TotalExecuted(), par.stats.regions_tested);

  options.collect_scheduler_stats = false;
  const ToprrResult quiet = SolveToprr(ds, 5, box, options);
  ASSERT_FALSE(quiet.timed_out);
  EXPECT_TRUE(quiet.stats.scheduler.workers.empty());
}

}  // namespace
}  // namespace toprr
