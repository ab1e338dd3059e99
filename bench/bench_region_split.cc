// Split/classify throughput of FlatRegion::Split (pref/flat_region.h),
// swept over region dimension x polytope complexity.
//
// Each instance models one partition-phase split: a preference box is
// pre-split r times by random centroid planes (always descending into
// the larger child, so vertex counts grow with r), and the measured
// operation splits the resulting polytope by one more centroid plane,
// out of a warmed GeomArena exactly as TestAndSplitRegion does.
//
// Every point reports `splits_per_sec` and `arena_growth_events`, the
// GeomArena scratch growths inside the timed loop: a warmed arena must
// grow none. CI's bench-smoke job requires the large configuration
// `region_split/flat/d:4/r:8` to report zero growth events and a
// positive split rate (ci/check_bench_smoke.py --geometry). That point
// rotates 32 distinct eight-times-cut polytopes (~27 vertices each)
// through one arena, so it checks that scratch warmed by a mixed set of
// deep partition cells serves each of them again; the unit test
// FlatRegionTest.SteadyStateSplitGrowsNoArenaScratch covers one box and
// one of its children. End-to-end
// split cost is guarded by the partition and query metrics of the
// serving benchmark (perfbench/).
//
// Emit the JSON trajectory with the stock google-benchmark flags:
//   bench_region_split --benchmark_format=json
//                      --benchmark_out=region_split.json
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "pref/flat_region.h"

namespace toprr {
namespace bench {
namespace {

constexpr size_t kInstances = 32;  // (polytope, plane) pairs per config

struct SplitConfig {
  size_t dim;     // region dimension m
  size_t rounds;  // pre-split rounds (polytope complexity)

  std::string Label() const {
    return "d:" + std::to_string(dim) + "/r:" + std::to_string(rounds);
  }
};

// The sweep; `d:4/r:8` is the CI-gated large configuration.
const SplitConfig kConfigs[] = {
    {2, 4}, {3, 4}, {4, 4}, {5, 4}, {3, 8}, {4, 8}, {5, 8},
};

struct SplitInstance {
  FlatRegion region;
  Hyperplane plane;
};

Hyperplane RandomCentroidPlane(const FlatRegion& region, Rng& rng) {
  const size_t m = region.dim();
  Vec normal(m);
  for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
  if (normal.MaxAbs() < 0.2) normal[0] = 1.0;
  const double offset = Dot(normal, region.Centroid());
  return Hyperplane(std::move(normal), offset);
}

// Deterministic instances: pre-split a random box `rounds` times, always
// descending into the child with more vertices.
std::vector<SplitInstance> MakeInstances(const SplitConfig& config,
                                         uint64_t seed) {
  Rng rng(seed * 9176 + config.dim * 131 + config.rounds);
  GeomArena arena;
  std::vector<SplitInstance> instances;
  instances.reserve(kInstances);
  // Side shrinks with dimension so the box always fits the simplex
  // without the generator's shrink warning.
  const double sigma =
      std::min(0.25, 0.8 / static_cast<double>(config.dim));
  while (instances.size() < kInstances) {
    FlatRegion region =
        FlatRegion::FromBox(RandomPrefBox(config.dim, sigma, rng));
    for (size_t round = 0; round < config.rounds; ++round) {
      std::optional<FlatRegion> below;
      std::optional<FlatRegion> above;
      region.Split(RandomCentroidPlane(region, rng), 1e-10, arena, &below,
                   &above);
      if (!below.has_value() || !above.has_value()) continue;
      region = below->num_vertices() >= above->num_vertices()
                   ? std::move(*below)
                   : std::move(*above);
    }
    instances.push_back({std::move(region), Hyperplane()});
    instances.back().plane = RandomCentroidPlane(instances.back().region, rng);
  }
  return instances;
}

void RunPoint(::benchmark::State& state, const SplitConfig& config) {
  const BenchConfig& global = GlobalConfig();
  const std::vector<SplitInstance> instances =
      MakeInstances(config, global.seed);
  size_t total_vertices = 0;
  for (const SplitInstance& inst : instances) {
    total_vertices += inst.region.num_vertices();
  }

  GeomArena arena;
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  // Warm the arena so the measured loop is the steady state the
  // partition phase runs in.
  for (const SplitInstance& inst : instances) {
    inst.region.Split(inst.plane, 1e-10, arena, &below, &above);
  }
  const uint64_t warm_growths = arena.counters().geom_arena_allocations;

  double total_seconds = 0.0;
  int64_t iterations = 0;
  size_t checksum = 0;  // child vertex total; keeps the optimizer honest
  for (auto _ : state) {
    Timer timer;
    for (const SplitInstance& inst : instances) {
      inst.region.Split(inst.plane, 1e-10, arena, &below, &above);
      if (below.has_value()) checksum += below->num_vertices();
      if (above.has_value()) checksum += above->num_vertices();
    }
    const double seconds = timer.Seconds();
    total_seconds += seconds;
    ++iterations;
    state.SetIterationTime(seconds);
  }
  ::benchmark::DoNotOptimize(checksum);

  const double per_iter =
      iterations > 0 ? total_seconds / static_cast<double>(iterations) : 0.0;
  state.counters["splits_per_sec"] =
      per_iter > 0.0 ? static_cast<double>(instances.size()) / per_iter : 0.0;
  state.counters["verts_classified_per_sec"] =
      per_iter > 0.0 ? static_cast<double>(total_vertices) / per_iter : 0.0;
  state.counters["avg_vertices"] =
      static_cast<double>(total_vertices) /
      static_cast<double>(instances.size());
  state.counters["dim"] = static_cast<double>(config.dim);
  state.counters["arena_growth_events"] = static_cast<double>(
      arena.counters().geom_arena_allocations - warm_growths);
}

void RegisterAll() {
  for (const SplitConfig& config : kConfigs) {
    const std::string name = "region_split/flat/" + config.Label();
    ::benchmark::RegisterBenchmark(
        name.c_str(),
        [config](::benchmark::State& state) { RunPoint(state, config); })
        ->UseManualTime();
  }
}

}  // namespace
}  // namespace bench
}  // namespace toprr

int main(int argc, char** argv) {
  if (!toprr::bench::ParseBenchFlags(&argc, argv)) return 1;
  toprr::bench::RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
