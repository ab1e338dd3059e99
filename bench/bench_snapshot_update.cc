// Snapshot-update skyband maintenance: cost of carrying the per-k
// skyband across a MutableCatalog publish incrementally vs rebuilding it
// from scratch over the new snapshot's live rows.
//
// Each config stages a delta of `delta_pct` percent of n (half inserts,
// half deletes of non-skyband rows -- the common case), plus
// `member_deletes` deletes of the highest-sum skyband members (the rows
// that dominate the most others, so the costliest to delete
// incrementally: their promotion scan sees ~44k of the 50k rows, and
// the certificate corners of topk/skyband.h leave about a quarter of
// those to be dominator-counted), publishes it, and then times two
// pure-function payloads over the published snapshot:
//  * rebuild     -- SortBasedKSkybandPool over all live ids (what every
//                   publish would cost without incremental maintenance);
//  * incremental -- copy the parent version's state (ids plus the
//                   sum-ordered working form) and apply the delta via
//                   KSkybandApplyDelta (which itself rebuilds a delta
//                   deleting more than half of the members).
// Both series run on identical inputs; the incremental points carry
// `speedup_vs_rebuild` against the matching rebuild point (registered
// and therefore run first), `equal` asserting bit-identity of the two
// states (ids, counts and working form), and `publish_ms` for the
// catalog publish itself (COW chunk sharing and merged live ids keep it
// O(delta + live ids)). CI's bench-smoke job gates
// `snapshot_update/incremental/d:4/k:10/delta:1pct` at >= 5x and
// `.../member_deletes:1/delta:1pct` at >= 4x, both with equal == 1
// (ci/check_bench_smoke.py --snapshot). The member-delete family at
// d:4/k:10 deletes 1, k + 1 and 800 of the ~1470 members; the last is
// past the bulk-delete rule and so times the rebuild twice.
//
// Emit the committed JSON trajectory with the stock flags:
//   bench_snapshot_update --benchmark_format=json
//                         --benchmark_out=BENCH_snapshot_update.json
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "data/snapshot.h"
#include "topk/skyband.h"

namespace toprr {
namespace bench {
namespace {

constexpr int kWarmupRounds = 1;
constexpr int kMeasuredRounds = 3;

struct UpdateConfig {
  size_t n;
  size_t d;
  int k;
  int delta_pct;  // staged rows as a percentage of n (half ins, half del)
  int member_deletes = 0;  // skyband members deleted on top of the delta

  std::string Label() const {
    std::string label = "d:" + std::to_string(d) + "/k:" + std::to_string(k);
    if (member_deletes > 0) {
      label += "/member_deletes:" + std::to_string(member_deletes);
    }
    return label + "/delta:" + std::to_string(delta_pct) + "pct";
  }
};

// The sweep: d:4/k:10/delta:1pct is the CI-gated configuration.
const UpdateConfig kConfigs[] = {
    {50000, 3, 5, 1},
    {50000, 4, 10, 1},
    {50000, 4, 10, 1, 1},
    {50000, 4, 10, 1, 11},
    {50000, 4, 10, 1, 800},
};

// Rebuild per-round median seconds per config, seeded by the rebuild
// series (registered first) and read by the matching incremental point.
std::map<std::string, double>& RebuildSeconds() {
  static auto& seconds = *new std::map<std::string, double>();
  return seconds;
}

// One prepared publish per config, shared by both series so they time
// the exact same inputs: the parent skyband state, the published
// snapshot, and the Publish() wall time.
struct Prepared {
  KSkybandState base;     // parent version's skyband state
  SnapshotPtr snap;       // the published child snapshot
  double publish_seconds = 0.0;
};

// `count` staged inserts drawn uniform, `count` staged deletes of rows
// outside the base skyband -- the non-member-delete common case -- and
// deletes of the config's member_deletes highest-sum skyband members.
const Prepared& PrepareOnce(const UpdateConfig& config, uint64_t seed) {
  static auto& prepared = *new std::map<std::string, Prepared*>();
  Prepared*& slot = prepared[config.Label()];
  if (slot != nullptr) return *slot;
  slot = new Prepared();

  const Dataset& data = CachedSynthetic(config.n, config.d,
                                        Distribution::kIndependent, seed);
  MutableCatalog catalog(data);
  const SnapshotPtr v1 = catalog.Current();
  slot->base = SortBasedKSkybandPool(v1->View(), v1->live_ids(), config.k);

  const int count = static_cast<int>(config.n) * config.delta_pct / 200;
  Rng rng(seed * 31 + config.d);
  for (int i = 0; i < count; ++i) {
    Vec row(config.d);
    for (size_t j = 0; j < config.d; ++j) row[j] = rng.Uniform();
    catalog.StageInsert(row);
  }
  std::vector<std::pair<double, int>> by_sum;
  for (const int id : slot->base.ids) {
    const double* row = v1->Row(static_cast<size_t>(id));
    double sum = 0.0;
    for (size_t j = 0; j < config.d; ++j) sum += row[j];
    by_sum.emplace_back(-sum, id);
  }
  std::sort(by_sum.begin(), by_sum.end());
  for (int i = 0; i < config.member_deletes; ++i) {
    catalog.StageDelete(by_sum[static_cast<size_t>(i)].second);
  }
  int staged = 0;
  for (const int id : v1->live_ids()) {
    if (staged == count) break;
    if (!std::binary_search(slot->base.ids.begin(), slot->base.ids.end(),
                            id)) {
      catalog.StageDelete(id);
      ++staged;
    }
  }
  Timer publish_timer;
  slot->snap = catalog.Publish();
  slot->publish_seconds = publish_timer.Seconds();
  return *slot;
}

void RunPoint(::benchmark::State& state, const UpdateConfig& config,
              bool incremental) {
  const BenchConfig& global = GlobalConfig();
  const Prepared& prep = PrepareOnce(config, global.seed);
  const KSkybandState& base = prep.base;
  const SnapshotPtr& snap = prep.snap;
  const DatasetView view = snap->View();

  // Bit-identity of the two maintenance paths, asserted on the same
  // inputs the timed payloads run on (the CI gate requires equal == 1).
  KSkybandState carried = base;
  KSkybandApplyDelta(view, snap->live_ids(), config.k, snap->delta(),
                     &carried);
  const KSkybandState rebuilt =
      SortBasedKSkybandPool(view, snap->live_ids(), config.k);
  const bool equal = carried == rebuilt;

  double checksum = 0.0;
  const auto payload = [&]() {
    if (incremental) {
      KSkybandState s = base;
      KSkybandApplyDelta(view, snap->live_ids(), config.k, snap->delta(),
                         &s);
      checksum += static_cast<double>(s.ids.size());
    } else {
      const KSkybandState s =
          SortBasedKSkybandPool(view, snap->live_ids(), config.k);
      checksum += static_cast<double>(s.ids.size());
    }
  };

  RoundTiming timing;
  for (auto _ : state) {
    timing = RunTimedRounds(kWarmupRounds, kMeasuredRounds, payload);
    state.SetIterationTime(timing.median_seconds);
  }
  ::benchmark::DoNotOptimize(checksum);

  state.counters["skyband_size"] =
      static_cast<double>(rebuilt.ids.size());
  state.counters["delta_rows"] = static_cast<double>(
      snap->delta().inserted.size() + snap->delta().deleted.size());
  state.counters["round_median_ms"] = timing.median_seconds * 1e3;
  if (!incremental) {
    RebuildSeconds()[config.Label()] = timing.median_seconds;
    return;
  }
  state.counters["equal"] = equal ? 1.0 : 0.0;
  state.counters["publish_ms"] = prep.publish_seconds * 1e3;
  const auto it = RebuildSeconds().find(config.Label());
  if (it != RebuildSeconds().end() && it->second > 0.0 &&
      timing.median_seconds > 0.0) {
    state.counters["speedup_vs_rebuild"] =
        it->second / timing.median_seconds;
  }
}

void RegisterAll() {
  // The rebuild series registers (and runs) first so every incremental
  // point finds its baseline.
  for (const bool incremental : {false, true}) {
    for (const UpdateConfig& config : kConfigs) {
      const std::string name = std::string("snapshot_update/") +
                               (incremental ? "incremental/" : "rebuild/") +
                               config.Label();
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [config, incremental](::benchmark::State& state) {
            RunPoint(state, config, incremental);
          })
          ->UseManualTime();
    }
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
