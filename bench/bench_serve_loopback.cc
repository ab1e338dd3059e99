// Serving-layer overhead on loopback: ToprrEngine::SolveBatch reached
// through the TCP front-end (serve/server.h + serve/client.h) versus
// called directly, over batch sizes 1/4/16. The wire_overhead_pct
// counter is the headline number: the protocol + framing + socket cost
// as a fraction of the direct solve time. Also reports per-RPC bytes so
// wire-format regressions show up as a counter, not an anecdote.
//
// Emit the JSON trajectory with the stock google-benchmark flags:
//   bench_serve_loopback --benchmark_format=json
//                        --benchmark_out=serve_loopback.json
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "data/recovery.h"
#include "serve/client.h"
#include "serve/server.h"

namespace toprr {
namespace bench {
namespace {

// One process-lifetime loopback server over the cached default dataset
// (starting a listener per benchmark iteration would measure accept(2),
// not serving).
serve::ToprrServer& LoopbackServer() {
  static serve::ToprrServer* server = [] {
    const BenchConfig& config = GlobalConfig();
    const Dataset& data =
        CachedSynthetic(config.default_n() / 4, config.default_d(),
                        Distribution::kIndependent, config.seed);
    serve::ServerConfig server_config;
    server_config.max_inflight_queries = 1024;
    std::string error;
    std::shared_ptr<DurableCatalog> catalog =
        DurableCatalog::Open(DurabilityOptions{}, &data, &error);
    CHECK(catalog != nullptr) << error;
    auto* started = new serve::ToprrServer(catalog, server_config);
    CHECK(started->Start(&error)) << error;
    started->WarmSkyband(GlobalConfig().default_k());
    return started;
  }();
  return *server;
}

std::vector<ToprrQuery> MakeBatch(int batch) {
  const BenchConfig& config = GlobalConfig();
  Rng rng(config.seed * 13 + static_cast<uint64_t>(batch));
  std::vector<ToprrQuery> queries;
  queries.reserve(static_cast<size_t>(batch));
  for (int q = 0; q < batch; ++q) {
    ToprrOptions options;
    options.build_geometry = false;
    queries.push_back(ToprrQuery::FromBox(
        config.default_k(),
        RandomPrefBox(LoopbackServer().engine().dataset_dim() - 1,
                      config.default_sigma(), rng),
        options));
  }
  return queries;
}

void BM_ServeLoopback(::benchmark::State& state) {
  serve::ToprrServer& server = LoopbackServer();
  const int batch = static_cast<int>(state.range(0));
  const std::vector<ToprrQuery> queries = MakeBatch(batch);

  // Direct-call baseline for the overhead counter (outside the timed
  // loop; one measurement is plenty for a ratio).
  Timer direct_timer;
  server.engine().SolveBatch(queries, 1);
  const double direct_seconds = direct_timer.Seconds();

  serve::ToprrClient client;
  CHECK(client.Connect("127.0.0.1", server.port())) << client.last_error();
  double served_seconds = 0.0;
  int rpcs = 0;
  for (auto _ : state) {
    Timer rpc_timer;
    auto responses = client.QueryBatch(queries);
    const double rpc_seconds = rpc_timer.Seconds();
    CHECK(responses.has_value()) << client.last_error();
    CHECK_EQ(responses->size(), queries.size());
    state.SetIterationTime(rpc_seconds);
    served_seconds += rpc_seconds;
    ++rpcs;
  }
  if (rpcs > 0 && direct_seconds > 0.0) {
    const double avg_served = served_seconds / rpcs;
    state.counters["batch"] = batch;
    state.counters["direct_sec"] = direct_seconds;
    state.counters["served_sec"] = avg_served;
    state.counters["wire_overhead_pct"] =
        100.0 * (avg_served - direct_seconds) / direct_seconds;
    const ServerStatsSnapshot stats = server.stats().Snapshot();
    state.counters["rx_bytes_total"] =
        static_cast<double>(stats.bytes_received);
    state.counters["tx_bytes_total"] = static_cast<double>(stats.bytes_sent);
  }
}

BENCHMARK(BM_ServeLoopback)
    ->Name("serve_loopback/batch")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace toprr

int main(int argc, char** argv) {
  if (!toprr::bench::ParseBenchFlags(&argc, argv)) return 1;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
