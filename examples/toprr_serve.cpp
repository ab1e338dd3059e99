// toprr_serve: the long-lived serving front-end.
//
// Generates (or loads) a catalog, starts a ToprrServer on it, and serves
// query batches until SIGINT/SIGTERM. Pair with examples/toprr_loadgen.cpp
// or any client speaking the serve/ protocol.
//
//   toprr_serve --port 7077 --n 50000 --d 4 --dist IND
//   toprr_serve --csv products.csv --max_inflight 128 --max_budget 2.0
//
// The catalog is always a DurableCatalog. Without --data_dir it is
// in-memory: publishes and their dedupe live until exit. With --data_dir
// it is crash-durable: publishes are WAL-logged (fsynced per --fsync)
// before they are acked, checkpoints land every --checkpoint_every
// publishes, and a restart from the same directory recovers every acked
// publish -- including across kill -9.
//
//   toprr_serve --port 7077 --data_dir /var/lib/toprr --fsync always
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include <unistd.h>

#include "common/flags.h"
#include "common/logging.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/recovery.h"
#include "serve/server.h"

namespace {

// Signal handlers may only touch lock-free state; the main loop polls.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace toprr;
  FlagParser flags;
  std::string csv_path;
  std::string dist_text = "IND";
  std::string host = "127.0.0.1";
  std::string log_level = "warning";
  int port = 7077;
  int64_t n = 50000;
  int d = 4;
  int64_t seed = 2019;
  int max_inflight = 64;
  double max_budget = 10.0;
  int batch_threads = 1;
  int warm_k = 10;
  int max_staged = 4096;
  int idle_timeout_ms = 0;
  int header_timeout_ms = 0;
  int64_t max_deadline_ms = 30000;
  double drain_grace = 0.0;
  std::string data_dir;
  std::string fsync_text = "always";
  int64_t checkpoint_every = 64;
  bool normalize = true;
  bool cache = false;
  double cache_budget_mb = 64.0;
  double cache_quantum = 1.0 / 256.0;
  bool help = false;
  flags.AddString("csv", &csv_path, "serve this CSV catalog");
  flags.AddString("dist", &dist_text, "synthetic distribution IND/COR/ANTI");
  flags.AddString("host", &host, "listen address");
  flags.AddString("log", &log_level, "log level (debug/info/warning/error)");
  flags.AddInt("port", &port, "TCP port (0 = ephemeral)");
  flags.AddInt("n", &n, "synthetic dataset size");
  flags.AddInt("d", &d, "synthetic dimensionality");
  flags.AddInt("seed", &seed, "random seed");
  flags.AddInt("max_inflight", &max_inflight,
               "admission control: max queries in flight across connections");
  flags.AddDouble("max_budget", &max_budget,
                  "per-query time budget ceiling in seconds (<= 0: no cap)");
  flags.AddInt("batch_threads", &batch_threads,
               "SolveBatch dispatch threads per request (0 = all cores)");
  flags.AddInt("warm_k", &warm_k,
               "pre-compute the k-skyband for this k at startup (0 = skip)");
  flags.AddInt("max_staged", &max_staged,
               "per-connection staged-mutation bound (inserts + deletes)");
  flags.AddInt("idle_timeout_ms", &idle_timeout_ms,
               "evict a connection idle between frames this long (0 = never)");
  flags.AddInt("header_timeout_ms", &header_timeout_ms,
               "evict a peer that stalls mid-frame this long (0 = never)");
  flags.AddInt("max_deadline_ms", &max_deadline_ms,
               "clamp client-requested query deadlines to this ceiling");
  flags.AddDouble("drain_grace", &drain_grace,
                  "on SIGTERM, drain: let in-flight work finish up to this "
                  "many seconds before stopping (<= 0: stop immediately)");
  flags.AddString("data_dir", &data_dir,
                  "durability directory (WAL + checkpoints); empty = "
                  "in-memory only. A populated directory recovers; the "
                  "--csv/--n bootstrap is then ignored");
  flags.AddString("fsync", &fsync_text,
                  "WAL fsync policy: always (every publish), batched "
                  "(group commit), off (page cache only)");
  flags.AddInt("checkpoint_every", &checkpoint_every,
               "publishes between checkpoints (0 = only at open/close)");
  flags.AddBool("normalize", &normalize, "min-max normalize CSV columns");
  flags.AddBool("cache", &cache,
                "enable the cross-query region cache for admitted queries");
  flags.AddDouble("cache_budget_mb", &cache_budget_mb,
                  "region cache byte budget in MiB (LRU-evicted)");
  flags.AddDouble("cache_quantum", &cache_quantum,
                  "region cache canonicalization grid (power-of-two "
                  "reciprocals stay exact)");
  flags.AddBool("help", &help, "print usage");
  if (!flags.Parse(&argc, argv)) return 1;
  if (help) {
    std::fputs(flags.HelpString().c_str(), stdout);
    return 0;
  }
  LogLevel level;
  if (ParseLogLevel(log_level, &level)) GlobalLogLevel() = level;

  Dataset data;
  if (!csv_path.empty()) {
    auto loaded = ReadCsv(csv_path);
    if (!loaded.has_value()) return 1;
    data = std::move(*loaded);
    if (normalize) data.NormalizeUnit();
  } else {
    Distribution dist;
    if (!ParseDistribution(dist_text, &dist)) {
      std::fprintf(stderr, "unknown distribution '%s'\n", dist_text.c_str());
      return 1;
    }
    data = GenerateSynthetic(static_cast<size_t>(n), static_cast<size_t>(d),
                             dist, static_cast<uint64_t>(seed));
  }
  if (data.dim() < 2) {
    std::fprintf(stderr, "need at least 2 attributes\n");
    return 1;
  }

  serve::ServerConfig config;
  config.host = host;
  config.port = port;
  config.max_inflight_queries = static_cast<size_t>(max_inflight);
  config.max_query_budget_seconds = max_budget;
  config.batch_threads = batch_threads;
  config.use_region_cache = cache;
  if (cache_budget_mb > 0.0) {
    config.region_cache_budget_bytes =
        static_cast<size_t>(cache_budget_mb * 1024.0 * 1024.0);
  }
  if (cache_quantum > 0.0 && cache_quantum < 1.0) {
    config.region_cache_quantum = cache_quantum;
  }
  if (max_staged > 0) {
    config.max_staged_mutations = static_cast<size_t>(max_staged);
  }
  config.idle_timeout_ms = idle_timeout_ms;
  config.header_read_timeout_ms = header_timeout_ms;
  config.max_deadline_ms =
      max_deadline_ms > 0 ? static_cast<uint64_t>(max_deadline_ms) : 0;
  DurabilityOptions durability;
  durability.data_dir = data_dir;
  if (!ParseFsyncPolicy(fsync_text, &durability.fsync_policy)) {
    std::fprintf(stderr, "unknown --fsync policy '%s'\n", fsync_text.c_str());
    return 1;
  }
  durability.checkpoint_every =
      checkpoint_every > 0 ? static_cast<uint64_t>(checkpoint_every) : 0;
  std::string open_error;
  std::shared_ptr<DurableCatalog> catalog =
      DurableCatalog::Open(durability, &data, &open_error);
  if (catalog == nullptr) {
    std::fprintf(stderr, "toprr_serve: open %s failed: %s\n",
                 data_dir.c_str(), open_error.c_str());
    return 1;
  }
  if (!data_dir.empty()) {
    // Greppable by operators and the --crash smoke gate: what recovery
    // found and where serving resumes.
    const RecoveryStats& recovery = catalog->recovery();
    std::printf(
        "toprr_serve: durable catalog at %s recovered=%d "
        "checkpoint_seq=%llu replayed=%llu skipped=%llu torn_tail=%d "
        "snapshot=%016llx seq=%llu recovery_ms=%.2f\n",
        data_dir.c_str(), recovery.recovered ? 1 : 0,
        static_cast<unsigned long long>(recovery.checkpoint_seq),
        static_cast<unsigned long long>(recovery.replayed_records),
        static_cast<unsigned long long>(recovery.skipped_records),
        recovery.wal_tail_truncated ? 1 : 0,
        static_cast<unsigned long long>(recovery.snapshot_id),
        static_cast<unsigned long long>(recovery.snapshot_seq),
        recovery.recovery_seconds * 1e3);
    std::fflush(stdout);
  }
  serve::ToprrServer server(catalog, config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "toprr_serve: start failed: %s\n", error.c_str());
    return 1;
  }
  // Recovery may have replayed past the bootstrap: report what is
  // actually being served, not what --n asked for.
  const SnapshotPtr served = catalog->catalog()->Current();
  const size_t served_rows = static_cast<size_t>(served->live_rows());
  const size_t served_dim = served->dim();
  if (warm_k > 0 && static_cast<size_t>(warm_k) <= served_rows) {
    server.WarmSkyband(warm_k);
  }
  // The loadgen and the serve-smoke CI job wait for this exact line.
  std::printf("toprr_serve: listening on %s:%d (n=%zu d=%zu)\n",
              host.c_str(), server.port(), served_rows, served_dim);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    ::usleep(100 * 1000);
  }

  if (drain_grace > 0.0) {
    std::printf("toprr_serve: draining (grace %.1fs)\n", drain_grace);
    std::fflush(stdout);
    server.Drain(drain_grace);
  }
  server.Stop();
  // Shutdown barrier: push any group-committed WAL bytes to disk so a
  // clean exit never loses the batched tail.
  if (!catalog->Flush()) {
    std::fprintf(stderr, "toprr_serve: WAL flush on shutdown failed\n");
  }
  const ServerStatsSnapshot stats = server.stats().Snapshot();
  std::printf("toprr_serve: shut down; %s\n", stats.DebugString().c_str());
  return 0;
}
