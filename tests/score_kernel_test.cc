// Bit-identical contract of the SoA scoring kernel (topk/score_kernel.h):
// kernel output must equal the naive per-vertex scan exactly -- top-k
// profiles (TopKInto vs ComputeTopKReduced) and single scores (ScoreOf
// vs ReducedScore), also under parent-to-child score reuse -- plus the
// arena's steady-state zero-allocation guarantee and the determinism of
// the kernel counters across executors.
#include "topk/score_kernel.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "pref/pref_space.h"
#include "topk/rskyband.h"
#include "topk/topk.h"

namespace toprr {
namespace {

std::vector<int> AllIds(const Dataset& ds) {
  std::vector<int> ids(ds.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// Region-vertex stand-ins: the corners of a random preference box.
std::vector<Vec> RandomVertices(size_t m, double sigma, Rng& rng) {
  return RandomPrefBox(m, sigma, rng).Vertices();
}

// Exact equality of a kernel profile and the naive reference.
void ExpectSameTopk(const TopkResult& kernel, const TopkResult& naive) {
  ASSERT_EQ(kernel.entries.size(), naive.entries.size());
  for (size_t i = 0; i < kernel.entries.size(); ++i) {
    EXPECT_EQ(kernel.entries[i].id, naive.entries[i].id) << i;
    EXPECT_EQ(kernel.entries[i].score, naive.entries[i].score) << i;
  }
}

// ScoreOf (the k-switch split's score source) must equal ReducedScore
// bit for bit for every pool id at every scored vertex.
void ExpectScoreOfMatchesReducedScore(const ScoreKernel& kernel,
                                      const Dataset& data,
                                      const std::vector<int>& ids,
                                      const std::vector<Vec>& vertices) {
  const size_t m = data.dim() - 1;
  for (size_t v = 0; v < vertices.size(); ++v) {
    for (int id : ids) {
      EXPECT_EQ(kernel.ScoreOf(v, id),
                ReducedScore(data.Row(id), vertices[v].data(), m))
          << "vertex " << v << " id " << id;
    }
  }
}

// Runs the kernel over (data, ids, vertices, k) and checks every vertex's
// top-k against ComputeTopKReduced and every score read through ScoreOf
// against ReducedScore, bit for bit.
void CheckKernelAgainstNaive(const Dataset& data,
                             const std::vector<int>& ids,
                             const std::vector<Vec>& vertices, int k,
                             const VertexScoreCache* reuse = nullptr) {
  ScoreArena arena;
  ScoreKernel kernel(arena);
  kernel.LoadBlock(data, ids);
  kernel.ScoreVertices(vertices, reuse);
  std::vector<TopkResult>& profiles = arena.Profiles(vertices.size());
  for (size_t v = 0; v < vertices.size(); ++v) {
    kernel.TopKInto(v, k, profiles[v]);
    const TopkResult naive = ComputeTopKReduced(data, ids, vertices[v], k);
    SCOPED_TRACE("vertex " + std::to_string(v));
    ExpectSameTopk(profiles[v], naive);
  }
  ExpectScoreOfMatchesReducedScore(kernel, data, ids, vertices);
}

TEST(ScoreKernelTest, MatchesNaiveAcrossDimsAndK) {
  Rng rng(4001);
  for (size_t d : {2u, 3u, 4u, 5u}) {
    const Dataset ds =
        GenerateSynthetic(300, d, Distribution::kAnticorrelated, 900 + d);
    const std::vector<int> ids = AllIds(ds);
    const std::vector<Vec> vertices = RandomVertices(d - 1, 0.05, rng);
    for (int k : {1, 5, 10}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " k=" + std::to_string(k));
      CheckKernelAgainstNaive(ds, ids, vertices, k);
    }
  }
}

TEST(ScoreKernelTest, MatchesNaiveOnSparsePools) {
  // Non-contiguous ascending pools exercise the gather indirection.
  const Dataset ds =
      GenerateSynthetic(500, 4, Distribution::kIndependent, 911);
  Rng rng(4002);
  std::vector<int> ids;
  for (int i = 3; i < 500; i += 7) ids.push_back(i);
  const std::vector<Vec> vertices = RandomVertices(3, 0.04, rng);
  for (int k : {1, 5, 10}) {
    CheckKernelAgainstNaive(ds, ids, vertices, k);
  }
}

TEST(ScoreKernelTest, EdgeCases) {
  const Dataset ds = GenerateSynthetic(40, 3, Distribution::kCorrelated, 77);
  Rng rng(4003);
  const std::vector<Vec> vertices = RandomVertices(2, 0.06, rng);

  // A single candidate.
  CheckKernelAgainstNaive(ds, {17}, vertices, 1);
  // Fewer candidates than k: the profile holds the whole pool.
  CheckKernelAgainstNaive(ds, {2, 9, 31}, vertices, 10);
  // Pool size exactly k.
  CheckKernelAgainstNaive(ds, {1, 4, 8, 22, 39}, vertices, 5);
  // An empty reuse mask (cache whose vertices match nothing) must be a
  // silent no-op.
  VertexScoreCache unrelated;
  unrelated.dim = 2;
  unrelated.coords = {0.9, 0.9};
  unrelated.candidates = {2, 9, 31};
  unrelated.rows = {1.0, 2.0, 3.0};
  CheckKernelAgainstNaive(ds, {2, 9, 31}, vertices, 2, &unrelated);
}

TEST(ScoreKernelTest, ParentToChildReuseIsExact) {
  const Dataset ds =
      GenerateSynthetic(200, 4, Distribution::kAnticorrelated, 78);
  Rng rng(4004);
  const std::vector<int> ids = AllIds(ds);
  const std::vector<Vec> parents = RandomVertices(3, 0.05, rng);

  // Parent pass over the full pool; memoize a Lemma-5-style survivor
  // subset (every third candidate).
  ScoreArena parent_arena;
  ScoreKernel parent(parent_arena);
  parent.LoadBlock(ds, ids);
  parent.ScoreVertices(parents, nullptr);
  std::vector<int> surviving;
  for (size_t i = 0; i < ids.size(); i += 3) surviving.push_back(ids[i]);
  const std::shared_ptr<const VertexScoreCache> cache =
      parent.MakeCache(parents, surviving);

  // Child: half inherited vertices (bitwise equal), half new ones.
  std::vector<Vec> child_vertices(parents.begin(),
                                  parents.begin() + parents.size() / 2);
  const std::vector<Vec> fresh = RandomVertices(3, 0.03, rng);
  child_vertices.insert(child_vertices.end(), fresh.begin(), fresh.end());

  ScoreArena child_arena;
  ScoreKernel child(child_arena);
  child.LoadBlock(ds, surviving);
  child.ScoreVertices(child_vertices, cache.get());
  EXPECT_EQ(child_arena.counters().reuse_hits, parents.size() / 2);

  std::vector<TopkResult>& profiles =
      child_arena.Profiles(child_vertices.size());
  for (size_t v = 0; v < child_vertices.size(); ++v) {
    child.TopKInto(v, 8, profiles[v]);
    const TopkResult naive =
        ComputeTopKReduced(ds, surviving, child_vertices[v], 8);
    SCOPED_TRACE("child vertex " + std::to_string(v));
    ExpectSameTopk(profiles[v], naive);
  }
  ExpectScoreOfMatchesReducedScore(child, ds, surviving, child_vertices);
}

TEST(ScoreKernelTest, SteadyStateMakesNoAllocations) {
  // The acceptance criterion of the arena design: once buffers are warm,
  // scoring a same-shaped region performs zero heap allocations (growth
  // events are counted by the arena).
  const Dataset ds =
      GenerateSynthetic(600, 4, Distribution::kIndependent, 79);
  Rng rng(4005);
  const std::vector<int> ids = AllIds(ds);
  const std::vector<Vec> vertices = RandomVertices(3, 0.05, rng);

  ScoreArena arena;
  const auto run = [&]() {
    ScoreKernel kernel(arena);
    kernel.LoadBlock(ds, ids);
    kernel.ScoreVertices(vertices, nullptr);
    std::vector<TopkResult>& profiles = arena.Profiles(vertices.size());
    for (size_t v = 0; v < vertices.size(); ++v) {
      kernel.TopKInto(v, 10, profiles[v]);
    }
  };
  run();
  const uint64_t warm = arena.counters().arena_allocations;
  EXPECT_GT(warm, 0u);  // the first pass did grow the buffers
  for (int repeat = 0; repeat < 5; ++repeat) run();
  EXPECT_EQ(arena.counters().arena_allocations, warm)
      << "steady-state region scoring must not allocate";
  // Smaller pools and vertex sets must ride the warmed buffers too.
  ScoreKernel kernel(arena);
  const std::vector<int> subset(ids.begin(), ids.begin() + 50);
  kernel.LoadBlock(ds, subset);
  kernel.ScoreVertices(vertices, nullptr);
  std::vector<TopkResult>& profiles = arena.Profiles(2);
  kernel.TopKInto(0, 5, profiles[0]);
  kernel.TopKInto(1, 5, profiles[1]);
  EXPECT_EQ(arena.counters().arena_allocations, warm);
}

TEST(ScoreKernelTest, KernelCountersDeterministicAcrossExecutors) {
  // The kernel counter totals are pure functions of the region tree, so
  // sequential and parallel runs must report identical totals (the
  // per-worker breakdown is timing-dependent, the sums are not).
  const Dataset ds =
      GenerateSynthetic(1500, 3, Distribution::kAnticorrelated, 83);
  PrefBox box;
  box.lo = Vec{0.28, 0.30};
  box.hi = Vec{0.36, 0.38};
  ToprrOptions seq_options;
  seq_options.num_threads = 1;
  ToprrOptions par_options;
  par_options.num_threads = 4;
  const ToprrResult seq = SolveToprr(ds, 10, box, seq_options);
  const ToprrResult par = SolveToprr(ds, 10, box, par_options);
  ASSERT_FALSE(seq.timed_out);
  ASSERT_GT(seq.stats.regions_split, 0u);  // reuse needs actual splits
  EXPECT_EQ(seq.stats.scheduler.TotalCandidatesScored(),
            par.stats.scheduler.TotalCandidatesScored());
  EXPECT_EQ(seq.stats.scheduler.TotalGatherBytes(),
            par.stats.scheduler.TotalGatherBytes());
  EXPECT_EQ(seq.stats.scheduler.TotalReuseHits(),
            par.stats.scheduler.TotalReuseHits());
  // Splitting shares every surviving vertex with a child, so a tree with
  // splits must see memoization hits.
  EXPECT_GT(seq.stats.scheduler.TotalReuseHits(), 0u);
}

}  // namespace
}  // namespace toprr
