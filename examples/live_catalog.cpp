// Live catalog: serving TopRR queries while the option set changes.
//
// A MutableCatalog owns the writer side -- staged inserts and deletes
// become immutable, refcounted DatasetSnapshot versions on Publish() --
// while a ToprrEngine serves queries from whichever version it was last
// handed via SetSnapshot. Readers never block writers: an in-flight
// solve pins its snapshot for its whole duration and stamps the version
// it answered against into ToprrResult::snapshot_id, and the engine
// carries its per-k skyband cache across versions incrementally instead
// of recomputing it (see update_counters()).
#include <algorithm>
#include <cstdio>

#include "common/flags.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "pref/pref_space.h"

int main(int argc, char** argv) {
  using namespace toprr;
  FlagParser flags;
  int n = 2000;
  int k = 5;
  int rounds = 3;
  int batch = 25;
  flags.AddInt("n", &n, "initial catalog size");
  flags.AddInt("k", &k, "rank requirement");
  flags.AddInt("rounds", &rounds, "publish rounds to simulate");
  flags.AddInt("batch", &batch, "rows inserted (and deleted) per round");
  if (!flags.Parse(&argc, argv)) return 1;

  // Writer side: the catalog starts from a synthetic table and stages
  // row-level changes between publishes.
  auto catalog = std::make_shared<MutableCatalog>(GenerateSynthetic(
      static_cast<size_t>(n), 3, Distribution::kIndependent, 42));

  // Reader side: the engine adopts the current version and solves with
  // the production defaults, opted in to the region cache (used only
  // once an engine enables one).
  ToprrEngine engine(catalog->Current());
  ToprrOptions options;
  options.use_region_cache = true;

  PrefBox clientele;
  clientele.lo = Vec{0.2, 0.2};
  clientele.hi = Vec{0.7, 0.7};

  std::printf("initial catalog: %zu options, version %016llx\n",
              engine.dataset_rows(),
              static_cast<unsigned long long>(engine.snapshot_id()));

  Rng rng(7);
  for (int round = 0; round < rounds; ++round) {
    // Queries against the pinned version...
    const ToprrResult before = engine.Solve(k, clientele, options);
    // ...while the writer stages the next delta: `batch` new options and
    // `batch` retirements of current non-skyband rows (the cheap case
    // for the engine's incremental skyband maintenance).
    const SnapshotPtr current = catalog->Current();
    for (int i = 0; i < batch; ++i) {
      catalog->StageInsert(Vec{rng.Uniform(), rng.Uniform(), rng.Uniform()});
    }
    int staged = 0;
    const std::vector<int>& skyband = engine.KSkyband(k);
    for (const int id : current->live_ids()) {
      if (staged == batch) break;
      if (!std::binary_search(skyband.begin(), skyband.end(), id)) {
        catalog->StageDelete(id);
        ++staged;
      }
    }
    const SnapshotPtr next = catalog->Publish();
    engine.SetSnapshot(next);
    const ToprrResult after = engine.Solve(k, clientele, options);

    std::printf(
        "round %d: version %016llx -> %016llx, %zu live options, "
        "impact halfspaces %zu -> %zu\n",
        round + 1,
        static_cast<unsigned long long>(before.snapshot_id),
        static_cast<unsigned long long>(after.snapshot_id),
        engine.dataset_rows(), before.impact_halfspaces.size(),
        after.impact_halfspaces.size());
  }

  const ToprrEngine::UpdateCounters counters = engine.update_counters();
  std::printf(
      "\n%llu publishes adopted: %llu incremental skyband carries, "
      "%llu full rebuilds\n",
      static_cast<unsigned long long>(counters.publishes_seen),
      static_cast<unsigned long long>(counters.skyband_incremental),
      static_cast<unsigned long long>(counters.skyband_rebuilds));
  return 0;
}
