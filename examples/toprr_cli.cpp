// toprr_cli: a command-line driver for end users.
//
// Load a product catalog from CSV (or generate a synthetic one), solve
// TopRR for a clientele box, and print the region, optimal placements, and
// optionally an enhanced version of an existing product.
//
//   toprr_cli --csv products.csv --k 5 --wr 0.2,0.3x0.25,0.35
//   toprr_cli --n 100000 --d 4 --dist ANTI --k 10 --sigma 0.05
//   toprr_cli --csv products.csv --k 3 --wr 0.7x0.8 --enhance 17
//   toprr_cli --n 200000 --k 10 --threads 4 --batch 32   # serving mode
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/placement.h"
#include "core/toprr.h"
#include "data/csv.h"
#include "data/generator.h"
#include "geom/volume.h"
#include "pref/pref_space.h"

namespace {

using namespace toprr;

// Parses "l1,l2,..xh1,h2,.." into a PrefBox ("0.2,0.3x0.25,0.35").
std::optional<PrefBox> ParseBox(const std::string& text) {
  const auto parts = Split(text, 'x');
  if (parts.size() != 2) return std::nullopt;
  PrefBox box;
  for (int side = 0; side < 2; ++side) {
    const auto cells = Split(parts[side], ',');
    Vec v(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      char* end = nullptr;
      v[i] = std::strtod(cells[i].c_str(), &end);
      if (end == cells[i].c_str() || *end != '\0') return std::nullopt;
    }
    (side == 0 ? box.lo : box.hi) = std::move(v);
  }
  if (box.lo.dim() != box.hi.dim()) return std::nullopt;
  for (size_t j = 0; j < box.lo.dim(); ++j) {
    if (box.lo[j] > box.hi[j]) return std::nullopt;
  }
  return box;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  std::string csv_path;
  std::string wr_text;
  std::string dist_text = "IND";
  std::string log_level = "warning";
  int64_t n = 10000;
  int d = 4;
  int k = 10;
  double sigma = 0.01;
  int64_t seed = 2019;
  int enhance = -1;
  int threads = 1;
  int batch = 0;
  bool normalize = true;
  bool stats = false;
  bool cache = false;
  bool help = false;
  flags.AddString("csv", &csv_path, "load options from this CSV file");
  flags.AddString("wr", &wr_text,
                  "clientele box 'lo1,..xhi1,..' in reduced weights "
                  "(random box of side --sigma when omitted)");
  flags.AddString("dist", &dist_text, "synthetic distribution IND/COR/ANTI");
  flags.AddString("log", &log_level, "log level (debug/info/warning/error)");
  flags.AddInt("n", &n, "synthetic dataset size");
  flags.AddInt("d", &d, "synthetic dimensionality");
  flags.AddInt("k", &k, "rank requirement");
  flags.AddDouble("sigma", &sigma, "random wR side length");
  flags.AddInt("seed", &seed, "random seed");
  flags.AddInt("enhance", &enhance,
               "also compute the min-cost enhancement of this option id");
  flags.AddInt("threads", &threads,
               "scheduler worker threads (1 = sequential, 0 = all cores)");
  flags.AddInt("batch", &batch,
               "serving mode: solve this many random clientele boxes "
               "through the batch engine and report throughput");
  flags.AddBool("normalize", &normalize, "min-max normalize CSV columns");
  flags.AddBool("stats", &stats,
                "print scheduler telemetry (per-worker tasks/steals)");
  flags.AddBool("cache", &cache,
                "batch mode: serve queries through the cross-query region "
                "cache (a repeated --wr box is inserted on its second "
                "solve and hits from the third)");
  flags.AddBool("help", &help, "print usage");
  if (!flags.Parse(&argc, argv)) return 1;
  if (help) {
    std::fputs(flags.HelpString().c_str(), stdout);
    return 0;
  }
  LogLevel level;
  if (ParseLogLevel(log_level, &level)) GlobalLogLevel() = level;

  // ---- Load or generate the catalog. ----
  Dataset data;
  if (!csv_path.empty()) {
    auto loaded = ReadCsv(csv_path);
    if (!loaded.has_value()) return 1;
    data = std::move(*loaded);
    if (normalize) data.NormalizeUnit();
    std::printf("loaded %zu options x %zu attributes from %s\n",
                data.size(), data.dim(), csv_path.c_str());
  } else {
    Distribution dist;
    if (!ParseDistribution(dist_text, &dist)) {
      std::fprintf(stderr, "unknown distribution '%s'\n", dist_text.c_str());
      return 1;
    }
    data = GenerateSynthetic(static_cast<size_t>(n), static_cast<size_t>(d),
                             dist, static_cast<uint64_t>(seed));
    std::printf("generated %zu x %d %s options (seed %lld)\n", data.size(),
                d, dist_text.c_str(), static_cast<long long>(seed));
  }
  if (data.dim() < 2) {
    std::fprintf(stderr, "need at least 2 attributes\n");
    return 1;
  }

  // ---- Clientele region. ----
  PrefBox box;
  const bool have_wr = !wr_text.empty();
  if (have_wr) {
    auto parsed = ParseBox(wr_text);
    if (!parsed.has_value() || parsed->dim() != data.dim() - 1) {
      std::fprintf(stderr,
                   "bad --wr (expected 'lo1,..xhi1,..' with %zu reduced "
                   "weights)\n",
                   data.dim() - 1);
      return 1;
    }
    box = std::move(*parsed);
  } else if (batch <= 0) {
    // Batch mode draws its own per-query boxes; only the single-query
    // path needs one here.
    Rng rng(static_cast<uint64_t>(seed) + 1);
    box = RandomPrefBox(data.dim() - 1, sigma, rng);
    std::printf("random clientele box: lo=%s hi=%s\n",
                box.lo.ToString(4).c_str(), box.hi.ToString(4).c_str());
  }

  // ---- Serving mode: a batch of random clientele boxes through the
  // engine (shared per-k skyband cache, pool-dispatched queries). ----
  if (batch > 0) {
    ToprrEngine engine(DatasetSnapshot::FromDataset(data));
    if (cache) engine.EnableRegionCache({});
    Rng rng(static_cast<uint64_t>(seed) + 2);
    std::vector<ToprrQuery> queries;
    queries.reserve(static_cast<size_t>(batch));
    for (int q = 0; q < batch; ++q) {
      ToprrOptions options;
      options.build_geometry = false;
      options.use_region_cache = cache;
      // --wr pins every query to the given clientele (repeated-query
      // serving); otherwise each query draws a fresh random box.
      queries.push_back(ToprrQuery::FromBox(
          k, have_wr ? box : RandomPrefBox(data.dim() - 1, sigma, rng),
          options));
    }
    Timer timer;
    // --threads drives the batch dispatch (1 = sequential, 0 = all
    // cores); per-query solves stay sequential to avoid oversubscription.
    const std::vector<ToprrResult> results =
        engine.SolveBatch(queries, threads);
    const double seconds = timer.Seconds();
    size_t vall_total = 0;
    int failed = 0;
    for (const ToprrResult& r : results) {
      vall_total += r.stats.vall_unique;
      failed += r.timed_out ? 1 : 0;
    }
    std::printf("batch of %d TopRR(k=%d) queries in %.3fs (%.1f q/s, "
                "avg |Vall| %.1f, %d failed)\n",
                batch, k, seconds, batch / seconds,
                static_cast<double>(vall_total) / batch, failed);
    if (stats) {
      // The snapshot stamp every response would carry if this batch had
      // come over the wire -- lets a human line this run up with server
      // logs and loadgen JSON (which print the same id/seq pair).
      std::printf("served snapshot: id=%016llx seq=%llu\n",
                  static_cast<unsigned long long>(engine.snapshot_id()),
                  static_cast<unsigned long long>(engine.snapshot_seq()));
      uint64_t executed = 0;
      uint64_t stolen = 0;
      uint64_t steal_failures = 0;
      uint64_t cands_scored = 0;
      uint64_t gather_bytes = 0;
      uint64_t reuse_hits = 0;
      uint64_t split_verts = 0;
      uint64_t geom_allocs = 0;
      uint64_t cache_hits = 0;
      uint64_t cache_misses = 0;
      uint64_t cache_deferred = 0;
      uint64_t cache_tasks_saved = 0;
      for (const ToprrResult& r : results) {
        executed += r.stats.scheduler.TotalExecuted();
        stolen += r.stats.scheduler.TotalStolen();
        steal_failures += r.stats.scheduler.TotalStealFailures();
        cands_scored += r.stats.scheduler.TotalCandidatesScored();
        gather_bytes += r.stats.scheduler.TotalGatherBytes();
        reuse_hits += r.stats.scheduler.TotalReuseHits();
        split_verts += r.stats.scheduler.TotalSplitVerticesClassified();
        geom_allocs += r.stats.scheduler.TotalGeomArenaAllocations();
        cache_hits += r.stats.scheduler.cache_hits;
        cache_misses += r.stats.scheduler.cache_misses;
        cache_deferred += r.stats.scheduler.cache_deferred;
        cache_tasks_saved += r.stats.scheduler.cache_tasks_saved;
      }
      std::printf("scheduler totals over the batch: executed=%llu "
                  "stolen=%llu steal_failures=%llu\n",
                  static_cast<unsigned long long>(executed),
                  static_cast<unsigned long long>(stolen),
                  static_cast<unsigned long long>(steal_failures));
      std::printf("scoring-kernel totals over the batch: "
                  "cands_scored=%llu gather_bytes=%llu reuse_hits=%llu\n",
                  static_cast<unsigned long long>(cands_scored),
                  static_cast<unsigned long long>(gather_bytes),
                  static_cast<unsigned long long>(reuse_hits));
      std::printf("flat-geometry totals over the batch: "
                  "split_verts=%llu geom_arena_allocs=%llu\n",
                  static_cast<unsigned long long>(split_verts),
                  static_cast<unsigned long long>(geom_allocs));
      if (cache) {
        std::printf("region-cache totals over the batch: hits=%llu "
                    "misses=%llu deferred=%llu "
                    "tasks_saved=%llu\n",
                    static_cast<unsigned long long>(cache_hits),
                    static_cast<unsigned long long>(cache_misses),
                    static_cast<unsigned long long>(cache_deferred),
                    static_cast<unsigned long long>(cache_tasks_saved));
      }
    }
    return failed == 0 ? 0 : 1;
  }

  // ---- Solve. ----
  // Through the engine (not bare SolveToprr) so the result carries the
  // snapshot stamp that --stats prints: the id is the same content hash
  // a server over this catalog would advertise, greppable in its logs.
  ToprrOptions solve_options;
  solve_options.num_threads = threads;
  ToprrEngine engine(DatasetSnapshot::FromDataset(data));
  const ToprrResult region = engine.Solve(k, box, solve_options);
  if (region.timed_out) {
    std::fprintf(stderr, "solver exceeded its budget\n");
    return 1;
  }
  std::printf("\nTopRR(k=%d): %s\n", k, region.stats.DebugString().c_str());
  if (stats) {
    std::printf("served snapshot: id=%016llx seq=%llu\n",
                static_cast<unsigned long long>(region.snapshot_id),
                static_cast<unsigned long long>(region.snapshot_seq));
    std::printf("scheduler: %s\n",
                region.stats.scheduler.DebugString().c_str());
  }
  std::printf("oR: %zu impact halfspaces (+ unit box)%s%s\n",
              region.impact_halfspaces.size(),
              region.degenerate ? " [degenerate]" : "",
              region.geometry_skipped ? " [geometry skipped]" : "");
  if (!region.vertices.empty()) {
    std::printf("oR vertices: %zu; volume %.6g\n", region.vertices.size(),
                PolytopeVolume(region.AllHalfspaces(), data.dim()));
  }

  const PlacementResult creation = MinimumCostCreation(region);
  if (creation.ok) {
    std::printf("cheapest new option (cost = sum of squares): %s "
                "(cost %.4f)\n",
                creation.option.ToString(4).c_str(), creation.cost);
  }

  if (enhance >= 0 && static_cast<size_t>(enhance) < data.size()) {
    const Vec current = data.Option(static_cast<size_t>(enhance));
    if (region.Contains(current)) {
      std::printf("option %d is already top-ranking for this clientele\n",
                  enhance);
    } else {
      const PlacementResult revamp = MinimumModification(region, current);
      if (revamp.ok) {
        std::printf("option %d %s -> %s (modification cost %.4f)\n",
                    enhance, current.ToString(4).c_str(),
                    revamp.option.ToString(4).c_str(), revamp.cost);
      }
    }
  }
  return 0;
}
