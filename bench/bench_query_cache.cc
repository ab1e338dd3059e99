// Cross-query region-cache replay: queries/sec of a zipf-skewed clientele
// mix through the engine with the cache off (cold) vs on and populated
// (warm).
//
// The mix mirrors examples/toprr_loadgen.cpp --zipf: a fixed set of
// profile boxes whose corners sit at grid-cell centers, sampled by
// Zipf(s) rank weight, each draw shifted by under half a canonicalization
// cell per axis -- so every jittered copy of a profile snaps to the same
// cached region and repeat queries hit. Both series replay the identical
// query sequence; the cold series merely bypasses the cache, so the gap
// is the cache's doing (the per-k skyband is warm for both).
//
// Each benchmark iteration times the replay with the shared
// RunTimedRounds helper (1 warmup round, median of 3) and the warm points
// carry `speedup_vs_cold`, `hit_rate`, and `tasks_saved` counters against
// the matching cold point (registered and therefore run first). CI's
// bench-smoke job gates `query_cache/warm/d:4/k:10` at >= 2x
// (ci/check_bench_smoke.py --cache).
//
// The `distinct` series holds the other side of cache admission: traffic
// in which no box repeats. Every query is a first sighting, which must
// cost what a cache-off solve does. Each round replays a fresh slice of
// distinct random boxes through a cache-on engine and the same slice
// through a cache-off one, interleaved; `overhead_vs_cold` is the ratio
// of their median round times, gated at <= 1.15 for d:4/k:10.
//
// Emit the committed JSON trajectory with the stock flags:
//   bench_query_cache --benchmark_format=json
//                     --benchmark_out=BENCH_query_cache.json
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"

namespace toprr {
namespace bench {
namespace {

constexpr double kQuantum = 1.0 / 256.0;  // region-cache default grid
constexpr double kZipfS = 1.2;
constexpr int kWarmupRounds = 1;
constexpr int kMeasuredRounds = 3;

struct ReplayConfig {
  size_t n;
  size_t d;
  int k;
  int profiles;  // distinct clientele boxes in the mix
  int queries;   // replayed per round

  std::string Label() const {
    return "d:" + std::to_string(d) + "/k:" + std::to_string(k);
  }
};

// The sweep; the last entry is the CI-gated configuration.
const ReplayConfig kConfigs[] = {
    {20000, 3, 5, 16, 48},
    {20000, 4, 10, 16, 48},
};

// Cold per-round median seconds per config, seeded by the cold series
// (registered first) and read by the matching warm point.
std::map<std::string, double>& ColdSeconds() {
  static auto& seconds = *new std::map<std::string, double>();
  return seconds;
}

// Profile boxes with corners at grid-cell centers ((m + 0.5) * quantum),
// rejection-sampled until the snapped-out canonical box fits in the
// simplex -- the same construction as the loadgen's BuildZipfMix, so this
// replay and the CI serve-smoke replay exercise the same cache behavior.
std::vector<PrefBox> BuildProfiles(size_t dim, double sigma, int count,
                                   uint64_t seed) {
  const double cells = 1.0 / kQuantum;
  const int64_t width =
      std::max<int64_t>(1, static_cast<int64_t>(std::lround(sigma * cells)));
  Rng rng(seed);
  std::vector<PrefBox> profiles;
  while (profiles.size() < static_cast<size_t>(count)) {
    PrefBox box;
    box.lo = Vec(dim);
    box.hi = Vec(dim);
    PrefBox canonical;
    canonical.lo = Vec(dim);
    canonical.hi = Vec(dim);
    for (size_t j = 0; j < dim; ++j) {
      const int64_t cell =
          rng.UniformInt(1, static_cast<int64_t>(cells) - width - 1);
      box.lo[j] = (static_cast<double>(cell) + 0.5) * kQuantum;
      box.hi[j] = (static_cast<double>(cell + width) + 0.5) * kQuantum;
      canonical.lo[j] = static_cast<double>(cell) * kQuantum;
      canonical.hi[j] = static_cast<double>(cell + width + 1) * kQuantum;
    }
    if (canonical.InsideSimplex()) profiles.push_back(std::move(box));
  }
  return profiles;
}

// The deterministic replay sequence: Zipf(s)-ranked profile picks, each
// shifted whole-box by |delta| <= 0.4 cells per axis (jitter-invariant
// canonical keys).
std::vector<ToprrQuery> BuildReplay(const ReplayConfig& config,
                                    bool use_cache, uint64_t seed) {
  const std::vector<PrefBox> profiles =
      BuildProfiles(config.d - 1, GlobalConfig().default_sigma(),
                    config.profiles, seed);
  std::vector<double> cdf(profiles.size());
  double total = 0.0;
  for (size_t i = 0; i < cdf.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;

  Rng rng(seed * 17 + 3);
  std::vector<ToprrQuery> queries;
  queries.reserve(static_cast<size_t>(config.queries));
  for (int q = 0; q < config.queries; ++q) {
    const double u = rng.Uniform();
    const size_t pick =
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    PrefBox box = profiles[std::min(pick, profiles.size() - 1)];
    for (size_t j = 0; j < box.dim(); ++j) {
      const double delta = (rng.Uniform() - 0.5) * 0.8 * kQuantum;
      box.lo[j] += delta;
      box.hi[j] += delta;
    }
    ToprrOptions options;
    options.build_geometry = false;
    options.use_region_cache = use_cache;
    queries.push_back(ToprrQuery::FromBox(config.k, std::move(box), options));
  }
  return queries;
}

void RunPoint(::benchmark::State& state, const ReplayConfig& config,
              bool warm) {
  const BenchConfig& global = GlobalConfig();
  const Dataset& data = CachedSynthetic(config.n, config.d,
                                        Distribution::kIndependent,
                                        global.seed);
  const std::vector<ToprrQuery> queries =
      BuildReplay(config, warm, global.seed * 101 + config.d);

  ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  if (warm) engine.EnableRegionCache({});

  uint64_t hits = 0;
  uint64_t partial = 0;
  uint64_t misses = 0;
  uint64_t tasks_saved = 0;
  double checksum = 0.0;
  const auto replay = [&]() {
    const std::vector<ToprrResult> results = engine.SolveBatch(queries, 1);
    for (const ToprrResult& r : results) {
      hits += r.stats.scheduler.cache_hits;
      partial += r.stats.scheduler.cache_partial_hits;
      misses += r.stats.scheduler.cache_misses;
      tasks_saved += r.stats.scheduler.cache_tasks_saved;
      checksum += static_cast<double>(r.stats.vall_unique);
    }
  };

  uint64_t classified_queries = 0;
  RoundTiming timing;
  for (auto _ : state) {
    // The warmup round fills the per-k skyband for both series and the
    // region cache for the warm one; hit_rate below still counts its
    // mandatory cold misses.
    timing = RunTimedRounds(kWarmupRounds, kMeasuredRounds, replay);
    classified_queries += static_cast<uint64_t>(config.queries) *
                          (kWarmupRounds + kMeasuredRounds);
    state.SetIterationTime(timing.median_seconds);
  }
  ::benchmark::DoNotOptimize(checksum);

  state.counters["qps"] =
      timing.median_seconds > 0.0
          ? static_cast<double>(config.queries) / timing.median_seconds
          : 0.0;
  state.counters["round_min_ms"] = timing.min_seconds * 1e3;
  state.counters["round_median_ms"] = timing.median_seconds * 1e3;
  if (!warm) {
    ColdSeconds()[config.Label()] = timing.median_seconds;
    return;
  }
  const uint64_t classified = hits + partial + misses;
  state.counters["hit_rate"] =
      classified > 0
          ? static_cast<double>(hits + partial) /
                static_cast<double>(classified)
          : 0.0;
  state.counters["tasks_saved"] = static_cast<double>(tasks_saved);
  // Guard against a bypassing replay masquerading as a fast one: a warm
  // series that never classified a query gets no speedup counter, which
  // fails the CI gate loudly.
  if (classified_queries == 0 || classified != classified_queries) return;
  const auto it = ColdSeconds().find(config.Label());
  if (it != ColdSeconds().end() && it->second > 0.0 &&
      timing.median_seconds > 0.0) {
    state.counters["speedup_vs_cold"] = it->second / timing.median_seconds;
  }
}

// Distinct random boxes of the default side (canonical boxes pairwise
// different, so none is ever sighted twice).
std::vector<ToprrQuery> BuildDistinct(const ReplayConfig& config,
                                      size_t count, uint64_t seed) {
  Rng rng(seed);
  std::set<std::vector<int64_t>> cells;
  std::vector<ToprrQuery> queries;
  while (queries.size() < count) {
    const PrefBox box =
        RandomPrefBox(config.d - 1, GlobalConfig().default_sigma(), rng);
    std::vector<int64_t> key;
    for (size_t j = 0; j < box.dim(); ++j) {
      key.push_back(static_cast<int64_t>(std::floor(box.lo[j] / kQuantum)));
      key.push_back(static_cast<int64_t>(std::ceil(box.hi[j] / kQuantum)));
    }
    if (!cells.insert(std::move(key)).second) continue;
    ToprrOptions options;
    options.build_geometry = false;
    options.use_region_cache = true;
    queries.push_back(ToprrQuery::FromBox(config.k, box, options));
  }
  return queries;
}

void RunDistinct(::benchmark::State& state, const ReplayConfig& config) {
  const BenchConfig& global = GlobalConfig();
  const Dataset& data = CachedSynthetic(config.n, config.d,
                                        Distribution::kIndependent,
                                        global.seed);
  const size_t per_round = static_cast<size_t>(config.queries);
  const size_t rounds = kWarmupRounds + kMeasuredRounds;
  const std::vector<ToprrQuery> cached =
      BuildDistinct(config, rounds * per_round, global.seed * 131 + config.d);
  std::vector<ToprrQuery> plain = cached;
  for (ToprrQuery& query : plain) query.options.use_region_cache = false;

  // Measured round times of every iteration; the counters report medians
  // over all of them.
  std::vector<double> on_seconds;
  std::vector<double> off_seconds;
  uint64_t deferred = 0;
  uint64_t classified = 0;
  for (auto _ : state) {
    // Fresh engines per iteration keep every box a first sighting; the
    // skybands are built before any round is timed.
    const SnapshotPtr snapshot = DatasetSnapshot::FromDataset(data);
    ToprrEngine on(snapshot);
    on.EnableRegionCache({});
    ToprrEngine off(snapshot);
    on.KSkyband(config.k);
    off.KSkyband(config.k);
    double iteration_seconds = 0.0;
    for (size_t r = 0; r < rounds; ++r) {
      const auto slice = [&](const std::vector<ToprrQuery>& all) {
        return std::vector<ToprrQuery>(
            all.begin() + static_cast<std::ptrdiff_t>(r * per_round),
            all.begin() + static_cast<std::ptrdiff_t>((r + 1) * per_round));
      };
      const std::vector<ToprrQuery> on_batch = slice(cached);
      const std::vector<ToprrQuery> off_batch = slice(plain);
      Timer off_timer;
      const std::vector<ToprrResult> off_results =
          off.SolveBatch(off_batch, 1);
      const double off_round = off_timer.Seconds();
      Timer on_timer;
      const std::vector<ToprrResult> results = on.SolveBatch(on_batch, 1);
      const double on_round = on_timer.Seconds();
      ::benchmark::DoNotOptimize(off_results);
      ::benchmark::DoNotOptimize(results);
      for (const ToprrResult& result : results) {
        deferred += result.stats.scheduler.cache_deferred;
        classified += result.stats.scheduler.cache_hits +
                      result.stats.scheduler.cache_misses;
      }
      if (r < static_cast<size_t>(kWarmupRounds)) continue;
      on_seconds.push_back(on_round);
      off_seconds.push_back(off_round);
      iteration_seconds += on_round / kMeasuredRounds;
    }
    state.SetIterationTime(iteration_seconds);
  }

  const auto median = [](std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  const double on_median = median(on_seconds);
  const double off_median = median(off_seconds);

  state.counters["qps"] =
      on_median > 0.0 ? static_cast<double>(per_round) / on_median : 0.0;
  state.counters["cold_round_median_ms"] = off_median * 1e3;
  state.counters["round_median_ms"] = on_median * 1e3;
  state.counters["deferred_rate"] =
      classified > 0 ? static_cast<double>(deferred) /
                           static_cast<double>(classified)
                     : 0.0;
  // As for the warm series: a replay that bypassed the cache gets no
  // ratio, which fails the CI gate loudly.
  if (classified > 0 && off_median > 0.0) {
    state.counters["overhead_vs_cold"] = on_median / off_median;
  }
}

void RegisterAll() {
  // The cold series registers (and runs) first so every warm point finds
  // its baseline.
  for (const bool warm : {false, true}) {
    for (const ReplayConfig& config : kConfigs) {
      const std::string name = std::string("query_cache/") +
                               (warm ? "warm/" : "cold/") + config.Label();
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [config, warm](::benchmark::State& state) {
            RunPoint(state, config, warm);
          })
          ->UseManualTime();
    }
  }
  for (const ReplayConfig& config : kConfigs) {
    const std::string name = "query_cache/distinct/" + config.Label();
    ::benchmark::RegisterBenchmark(
        name.c_str(),
        [config](::benchmark::State& state) { RunDistinct(state, config); })
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
