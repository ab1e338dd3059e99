// End-to-end tests of the serving front-end (serve/server.h +
// serve/client.h) over real loopback sockets: correctness against the
// engine, explicit admission-control rejections, per-query budget
// expiry, malformed-request handling, and prompt cancellation on
// shutdown. Labeled `serve` through the CMake test glob.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.h"
#include "data/generator.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/protocol.h"

namespace toprr {
namespace serve {
namespace {

PrefBox Box(std::initializer_list<double> lo,
            std::initializer_list<double> hi) {
  PrefBox box;
  box.lo = Vec(lo);
  box.hi = Vec(hi);
  return box;
}

// An in-memory catalog over `data` (no data_dir: nothing touches disk).
std::shared_ptr<DurableCatalog> InMemory(const Dataset& data) {
  std::string error;
  std::shared_ptr<DurableCatalog> catalog =
      DurableCatalog::Open(DurabilityOptions{}, &data, &error);
  EXPECT_NE(catalog, nullptr) << error;
  return catalog;
}

// Starts a server on an ephemeral loopback port; fails the test on error.
std::unique_ptr<ToprrServer> StartServer(const Dataset& data,
                                         ServerConfig config) {
  config.host = "127.0.0.1";
  config.port = 0;
  auto server = std::make_unique<ToprrServer>(InMemory(data), config);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

TEST(ServeServerTest, ServedResultsMatchTheEngine) {
  const Dataset data =
      GenerateSynthetic(2000, 3, Distribution::kIndependent, 42);
  auto server = StartServer(data, ServerConfig{});

  Rng rng(43);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(
        ToprrQuery::FromBox(2 + i, RandomPrefBox(2, 0.03, rng)));
  }
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();
  auto responses = client.QueryBatch(queries);
  ASSERT_TRUE(responses.has_value()) << client.last_error();
  ASSERT_EQ(responses->size(), queries.size());

  ToprrEngine reference(DatasetSnapshot::FromDataset(data));
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(i);
    const ServeResponse& response = (*responses)[i];
    ASSERT_EQ(response.status, ServeStatus::kOk);
    const ToprrResult expected = reference.Solve(queries[i]);
    ASSERT_EQ(response.impact_halfspaces.size(),
              expected.impact_halfspaces.size());
    for (size_t h = 0; h < expected.impact_halfspaces.size(); ++h) {
      EXPECT_EQ(response.impact_halfspaces[h].offset,
                expected.impact_halfspaces[h].offset);
    }
    EXPECT_EQ(response.stats.vall_unique, expected.stats.vall_unique);
    EXPECT_EQ(response.stats.regions_tested, expected.stats.regions_tested);
    // Scheduler telemetry flows back over the wire.
    EXPECT_EQ(response.stats.tasks_executed,
              expected.stats.scheduler.TotalExecuted());
  }
  const ServerStatsSnapshot stats = server->stats().Snapshot();
  EXPECT_EQ(stats.queries_completed, queries.size());
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServeServerTest, OverloadedBatchGetsExplicitRejection) {
  const Dataset data =
      GenerateSynthetic(500, 3, Distribution::kIndependent, 44);
  ServerConfig config;
  config.max_inflight_queries = 2;
  auto server = StartServer(data, config);

  // 5 queries against an in-flight bound of 2: the batch must be
  // rejected as a whole, immediately and explicitly -- not parked.
  Rng rng(45);
  std::vector<ToprrQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(ToprrQuery::FromBox(3, RandomPrefBox(2, 0.02, rng)));
  }
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  auto responses = client.QueryBatch(queries);
  ASSERT_TRUE(responses.has_value()) << client.last_error();
  ASSERT_EQ(responses->size(), queries.size());
  for (const ServeResponse& response : *responses) {
    EXPECT_EQ(response.status, ServeStatus::kRejectedOverload);
  }
  EXPECT_EQ(server->stats().Snapshot().queries_rejected_overload, 5u);

  // A batch that fits is admitted on the same connection afterwards.
  auto small = client.QueryBatch(
      {ToprrQuery::FromBox(3, RandomPrefBox(2, 0.02, rng))});
  ASSERT_TRUE(small.has_value()) << client.last_error();
  EXPECT_EQ((*small)[0].status, ServeStatus::kOk);
}

TEST(ServeServerTest, BudgetExpiryReturnsBudgetExceeded) {
  // An effectively-zero budget expires at the scheduler's first
  // per-region check, so the response must be kBudgetExceeded no matter
  // how fast the machine is.
  const Dataset data =
      GenerateSynthetic(3000, 4, Distribution::kAnticorrelated, 46);
  auto server = StartServer(data, ServerConfig{});

  ToprrOptions options;
  options.time_budget_seconds = 1e-9;
  ToprrQuery query = ToprrQuery::FromBox(
      10, Box({0.1, 0.1, 0.1}, {0.2, 0.2, 0.2}), options);
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  auto responses = client.QueryBatch({query});
  ASSERT_TRUE(responses.has_value()) << client.last_error();
  ASSERT_EQ(responses->size(), 1u);
  EXPECT_EQ((*responses)[0].status, ServeStatus::kBudgetExceeded);
  EXPECT_TRUE((*responses)[0].impact_halfspaces.empty());
  EXPECT_EQ(server->stats().Snapshot().queries_budget_exceeded, 1u);
}

TEST(ServeServerTest, ServerClampsRunawayBudgets) {
  const Dataset data =
      GenerateSynthetic(400, 3, Distribution::kIndependent, 47);
  ServerConfig config;
  config.max_query_budget_seconds = 1e-9;  // everything expires
  auto server = StartServer(data, config);
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  // Unlimited (0), negative, NaN, infinite and far-over-the-ceiling
  // requests must all drop to the ceiling. NaN is the one a plain
  // `budget <= 0` test would let through as "unlimited".
  const double requested[] = {0.0, -1.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 1e9};
  for (const double budget : requested) {
    SCOPED_TRACE(budget);
    ToprrQuery query = ToprrQuery::FromBox(3, Box({0.2, 0.2}, {0.3, 0.3}));
    query.options.time_budget_seconds = budget;
    auto responses = client.QueryBatch({query});
    ASSERT_TRUE(responses.has_value()) << client.last_error();
    ASSERT_EQ(responses->size(), 1u);
    EXPECT_EQ((*responses)[0].status, ServeStatus::kBudgetExceeded);
  }
  EXPECT_EQ(server->stats().Snapshot().queries_budget_exceeded,
            std::size(requested));
}

TEST(ServeServerTest, ServerClampsRunawayThreadCounts) {
  // The work-stealing executor sizes its worker slots (and each slot's
  // victim list) by the requested thread count, so an unclamped INT32_MAX
  // would ask for ~2^31 slots. The server caps the request at its pool
  // size; the answer is the one a single thread gives.
  const Dataset data =
      GenerateSynthetic(2000, 3, Distribution::kIndependent, 51);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  ToprrQuery sequential =
      ToprrQuery::FromBox(5, Box({0.2, 0.2}, {0.26, 0.26}));
  sequential.options.num_threads = 1;
  ToprrQuery greedy = sequential;
  greedy.options.num_threads = std::numeric_limits<int32_t>::max();
  auto responses = client.QueryBatch({sequential, greedy});
  ASSERT_TRUE(responses.has_value()) << client.last_error();
  ASSERT_EQ(responses->size(), 2u);
  const ServeResponse& one = (*responses)[0];
  const ServeResponse& many = (*responses)[1];
  ASSERT_EQ(one.status, ServeStatus::kOk);
  ASSERT_EQ(many.status, ServeStatus::kOk);
  ASSERT_FALSE(one.impact_halfspaces.empty());
  ASSERT_EQ(many.impact_halfspaces.size(), one.impact_halfspaces.size());
  for (size_t h = 0; h < one.impact_halfspaces.size(); ++h) {
    SCOPED_TRACE(h);
    const Halfspace& a = one.impact_halfspaces[h];
    const Halfspace& b = many.impact_halfspaces[h];
    EXPECT_EQ(b.offset, a.offset);
    ASSERT_EQ(b.dim(), a.dim());
    for (size_t c = 0; c < a.dim(); ++c) EXPECT_EQ(b.normal[c], a.normal[c]);
  }
}

// A triangle query region in reduced 2-d preference coordinates, with
// one edit applied to its vertices or facets before it is sent.
template <typename Edit>
ToprrQuery TriangleQuery(Edit edit) {
  std::vector<Vec> vertices = {Vec{0.15, 0.2}, Vec{0.25, 0.2},
                               Vec{0.2, 0.3}};
  std::vector<RegionFacet> facets = {
      {Halfspace(Vec{0.0, -1.0}, -0.2), {0, 1}},
      {Halfspace(Vec{-0.1, 0.05}, -0.005), {0, 2}},
      {Halfspace(Vec{0.1, 0.05}, 0.035), {1, 2}}};
  edit(vertices, facets);
  ToprrQuery query;
  query.k = 3;
  query.region = PrefRegion::FromVerticesAndFacets(std::move(vertices),
                                                   std::move(facets));
  return query;
}

TEST(ServeServerTest, UnsolvableQueriesAnswerMalformed) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 48);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  // k beyond the dataset, k = 0, a dimension mismatch, and regions the
  // codec passes but the split would index past (facet vertex ids out of
  // range either way, a vertex of the wrong dimension): each must be
  // answered (kMalformed), while the valid queries in the same batch are
  // solved -- a poisoned batch does not take the good queries down.
  using Vertices = std::vector<Vec>;
  using Facets = std::vector<RegionFacet>;
  std::vector<ToprrQuery> queries;
  queries.push_back(ToprrQuery::FromBox(1000000, Box({0.1, 0.1},
                                                     {0.2, 0.2})));
  queries.push_back(ToprrQuery::FromBox(0, Box({0.1, 0.1}, {0.2, 0.2})));
  queries.push_back(
      ToprrQuery::FromBox(3, Box({0.1, 0.1, 0.1}, {0.2, 0.2, 0.2})));
  queries.push_back(
      TriangleQuery([](Vertices&, Facets& f) { f[2].vertex_ids[0] = 3; }));
  queries.push_back(TriangleQuery(
      [](Vertices&, Facets& f) { f[1].vertex_ids[1] = 100000; }));
  queries.push_back(
      TriangleQuery([](Vertices&, Facets& f) { f[0].vertex_ids[0] = -1; }));
  queries.push_back(TriangleQuery(
      [](Vertices& v, Facets&) { v[1] = Vec{0.25, 0.2, 0.1}; }));
  queries.push_back(ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2})));
  queries.push_back(TriangleQuery([](Vertices&, Facets&) {}));
  auto responses = client.QueryBatch(queries);
  ASSERT_TRUE(responses.has_value()) << client.last_error();
  ASSERT_EQ(responses->size(), 9u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ((*responses)[i].status, ServeStatus::kMalformed) << i;
  }
  EXPECT_EQ((*responses)[7].status, ServeStatus::kOk);
  EXPECT_EQ((*responses)[8].status, ServeStatus::kOk);

  // The server keeps serving.
  auto next = client.QueryBatch(
      {ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2}))});
  ASSERT_TRUE(next.has_value()) << client.last_error();
  EXPECT_EQ((*next)[0].status, ServeStatus::kOk);
}

TEST(ServeServerTest, UndecodableFrameGetsMalformedMarkerAndSyncHolds) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 49);
  auto server = StartServer(data, ServerConfig{});

  ToprrClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server->port()));

  // The library client cannot send garbage, so drive the framing
  // primitives over a hand-made socket: a syntactically valid frame
  // whose payload is protocol garbage must get an explicit
  // kMalformed-marker reply, and the connection must stay in sync.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server->port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    FdStream stream(fd);
    ASSERT_TRUE(WriteFrame(stream, "this is not a toprr payload"));
    std::string reply;
    ASSERT_EQ(ReadFrame(stream, &reply), FrameReadStatus::kOk);
    std::vector<ServeResponse> responses;
    std::string error;
    ASSERT_TRUE(DecodeResponseBatch(reply, &responses, &error)) << error;
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, ServeStatus::kMalformed);
    ::close(fd);
  }
  EXPECT_GE(server->stats().Snapshot().protocol_errors, 1u);

  // The server keeps serving well-formed clients.
  auto ok = good.QueryBatch(
      {ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2}))});
  ASSERT_TRUE(ok.has_value()) << good.last_error();
  EXPECT_EQ((*ok)[0].status, ServeStatus::kOk);
}

TEST(ServeServerTest, CacheEnabledServerHitsOnRepeatedQueries) {
  const Dataset data =
      GenerateSynthetic(1500, 3, Distribution::kIndependent, 53);
  ServerConfig config;
  config.use_region_cache = true;
  auto server = StartServer(data, config);

  // The same clientele box queried repeatedly. Its first sighting is
  // solved exactly and not inserted (cache admission); the first copy of
  // the batch misses and populates, the rest hit. Results must be
  // identical across the batch and match a cache-off engine.
  const PrefBox box = Box({16.0 / 256, 20.0 / 256},
                          {24.0 / 256, 28.0 / 256});
  std::vector<ToprrQuery> queries(4, ToprrQuery::FromBox(5, box));
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  auto first = client.QueryBatch({queries[0]});
  ASSERT_TRUE(first.has_value()) << client.last_error();
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ(static_cast<CacheLookup>((*first)[0].stats.cache_lookup),
            CacheLookup::kMiss);
  EXPECT_EQ(server->stats().Snapshot().cache_deferred, 1u);
  auto responses = client.QueryBatch(queries);
  ASSERT_TRUE(responses.has_value()) << client.last_error();
  ASSERT_EQ(responses->size(), 4u);

  ToprrEngine reference(DatasetSnapshot::FromDataset(data));
  const ToprrResult expected = reference.Solve(queries[0]);
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const ServeResponse& response : *responses) {
    ASSERT_EQ(response.status, ServeStatus::kOk);
    ASSERT_EQ(response.impact_halfspaces.size(),
              expected.impact_halfspaces.size());
    for (size_t h = 0; h < expected.impact_halfspaces.size(); ++h) {
      EXPECT_EQ(response.impact_halfspaces[h].offset,
                expected.impact_halfspaces[h].offset);
    }
    const auto lookup =
        static_cast<CacheLookup>(response.stats.cache_lookup);
    if (lookup == CacheLookup::kHit) {
      ++hits;
      EXPECT_GT(response.stats.cache_tasks_saved, 0u);
    } else if (lookup == CacheLookup::kMiss) {
      ++misses;
    }
  }
  // batch_threads defaults to 1, so the four copies run sequentially:
  // exactly one miss, three hits.
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, 3u);
  const ServerStatsSnapshot stats = server->stats().Snapshot();
  EXPECT_EQ(stats.cache_misses, 2u);  // the deferred sighting + the admit
  EXPECT_EQ(stats.cache_deferred, 1u);
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_GT(stats.cache_tasks_saved, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServeServerTest, StopCancelsInFlightWork) {
  // A huge anticorrelated instance with an unlimited budget would run
  // for a very long time; Stop() must cut it loose via the cancel
  // plumbing and return promptly.
  const Dataset data =
      GenerateSynthetic(20000, 4, Distribution::kAnticorrelated, 50);
  ServerConfig config;
  config.max_query_budget_seconds = 0.0;  // no clamp: rely on cancel
  auto server = StartServer(data, config);

  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  std::thread rpc([&client] {
    // The reply may be a kShutdown response or a dropped connection,
    // depending on timing; both are acceptable shutdown behavior.
    client.QueryBatch({ToprrQuery::FromBox(
        10, Box({0.05, 0.05, 0.05}, {0.45, 0.45, 0.45}))});
  });
  // Give the query time to reach the solver.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server->Stop();
  rpc.join();
  SUCCEED();  // reaching here promptly IS the assertion (test timeout)
}

TEST(ServeServerTest, StopWhileCacheHotNeitherDeadlocksNorLeaks) {
  // Shutdown with the region cache enabled and traffic in flight:
  // solves may hold shared_ptr pins into cache entries while Stop()
  // tears the server (and with it the engine + cache) down. The
  // shared_ptr payload design makes this safe; this test is the
  // regression net, and runs under ASan (leaks) and TSan (races) in CI.
  const Dataset data =
      GenerateSynthetic(20000, 4, Distribution::kAnticorrelated, 54);
  ServerConfig config;
  config.max_query_budget_seconds = 0.0;  // no clamp: rely on cancel
  config.use_region_cache = true;
  auto server = StartServer(data, config);

  // One cheap repeated box that populates the cache and keeps hitting,
  // plus one huge slow query that is mid-solve when Stop() lands.
  const PrefBox hot = Box({16.0 / 256, 16.0 / 256, 16.0 / 256},
                          {20.0 / 256, 20.0 / 256, 20.0 / 256});
  std::atomic<bool> done{false};
  std::thread hot_loop([&] {
    ToprrClient client;
    if (!client.Connect("127.0.0.1", server->port())) return;
    while (!done.load(std::memory_order_acquire)) {
      // Failures are expected once shutdown begins; just keep the
      // cache-hit path busy until then.
      if (!client.QueryBatch({ToprrQuery::FromBox(3, hot)}).has_value()) {
        return;
      }
    }
  });
  std::thread slow_rpc([&server] {
    ToprrClient client;
    if (!client.Connect("127.0.0.1", server->port())) return;
    client.QueryBatch({ToprrQuery::FromBox(
        10, Box({0.05, 0.05, 0.05}, {0.45, 0.45, 0.45}))});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server->Stop();
  done.store(true, std::memory_order_release);
  hot_loop.join();
  slow_rpc.join();
  SUCCEED();  // prompt return without deadlock IS the assertion
}

TEST(ServeServerTest, ClientSurvivesServerGoingAway) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 51);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  auto first = client.QueryBatch(
      {ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2}))});
  ASSERT_TRUE(first.has_value());
  server->Stop();
  // The next RPC must fail cleanly (error string, no hang, no crash).
  auto second = client.QueryBatch(
      {ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2}))});
  EXPECT_FALSE(second.has_value());
  EXPECT_FALSE(client.last_error().empty());
}

TEST(ServeServerTest, ConcurrentConnectionsAllComplete) {
  const Dataset data =
      GenerateSynthetic(1500, 3, Distribution::kIndependent, 52);
  ServerConfig config;
  config.max_inflight_queries = 256;
  auto server = StartServer(data, config);

  constexpr int kClients = 4;
  constexpr int kRpcsPerClient = 3;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ToprrClient client;
      if (!client.Connect("127.0.0.1", server->port())) return;
      Rng rng(100 + c);
      for (int r = 0; r < kRpcsPerClient; ++r) {
        auto responses = client.QueryBatch(
            {ToprrQuery::FromBox(4, RandomPrefBox(2, 0.02, rng))});
        if (responses.has_value() &&
            (*responses)[0].status == ServeStatus::kOk) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kClients * kRpcsPerClient);
  EXPECT_EQ(server->stats().Snapshot().connections_accepted,
            static_cast<uint64_t>(kClients));
}

TEST(ServeServerTest, HandshakeAdvertisesLimitsAndServedSnapshot) {
  const Dataset data =
      GenerateSynthetic(700, 3, Distribution::kIndependent, 61);
  ServerConfig config;
  config.max_inflight_queries = 48;
  config.max_staged_mutations = 123;
  auto server = StartServer(data, config);

  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();
  const ServerHello& hello = client.server();
  EXPECT_EQ(hello.max_frame_payload_bytes, kMaxFramePayloadBytes);
  EXPECT_EQ(hello.max_inflight_queries, 48u);
  EXPECT_EQ(hello.max_staged_mutations, 123u);
  EXPECT_EQ(hello.live_rows, 700u);
  EXPECT_EQ(hello.physical_rows, 700u);
  EXPECT_EQ(hello.dim, 3u);
  EXPECT_EQ(hello.snapshot_seq, 1u);  // a root snapshot
  EXPECT_NE(hello.snapshot_id, 0u);
}

TEST(ServeServerTest, WireMutationsPublishAndBecomeVisible) {
  const Dataset data =
      GenerateSynthetic(800, 3, Distribution::kIndependent, 62);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();
  const ToprrQuery query =
      ToprrQuery::FromBox(3, Box({0.2, 0.2}, {0.25, 0.25}));
  auto before = client.Query(query);
  ASSERT_TRUE(before.has_value()) << client.last_error();
  ASSERT_EQ(before->status, ServeStatus::kOk);
  EXPECT_EQ(before->snapshot_seq, 1u);

  // Stage a dominating row and publish: the ack must already reflect the
  // new version (the engine is moved onto it before the ack goes out).
  auto staged = client.StageInsert({Vec{0.99, 0.99, 0.99}});
  ASSERT_TRUE(staged.has_value()) << client.last_error();
  ASSERT_EQ(staged->status, MutationStatus::kOk) << staged->message;
  EXPECT_EQ(staged->staged_inserts, 1u);
  EXPECT_EQ(staged->snapshot_seq, 1u);  // staged, not yet published
  auto published = client.Publish();
  ASSERT_TRUE(published.has_value()) << client.last_error();
  ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
  EXPECT_EQ(published->snapshot_seq, 2u);
  EXPECT_EQ(published->live_rows, 801u);
  EXPECT_EQ(published->physical_rows, 801u);
  EXPECT_EQ(published->staged_inserts, 0u);  // session cleared

  // Read-your-writes on the same connection: the very next query must
  // observe the published write, no waiting.
  auto after = client.Query(query);
  ASSERT_TRUE(after.has_value()) << client.last_error();
  ASSERT_EQ(after->status, ServeStatus::kOk);
  EXPECT_GE(after->snapshot_seq, published->snapshot_seq);
  ToprrEngine reference(server->engine().snapshot());
  const ToprrResult expected = reference.Solve(query);
  ASSERT_EQ(after->impact_halfspaces.size(),
            expected.impact_halfspaces.size());
  for (size_t h = 0; h < expected.impact_halfspaces.size(); ++h) {
    EXPECT_EQ(after->impact_halfspaces[h].offset,
              expected.impact_halfspaces[h].offset);
  }
  // The dominating row changed the answer.
  EXPECT_NE(after->impact_halfspaces.size(),
            before->impact_halfspaces.size());

  // Delete the inserted row again (its physical id counts up from the
  // pre-publish physical row count) and the original answer returns.
  const uint64_t inserted_id = published->physical_rows - 1;
  auto del = client.StageDelete({inserted_id});
  ASSERT_TRUE(del.has_value()) << client.last_error();
  ASSERT_EQ(del->status, MutationStatus::kOk) << del->message;
  auto republished = client.Publish();
  ASSERT_TRUE(republished.has_value()) << client.last_error();
  ASSERT_EQ(republished->status, MutationStatus::kOk)
      << republished->message;
  EXPECT_EQ(republished->snapshot_seq, 3u);
  EXPECT_EQ(republished->live_rows, 800u);
  auto restored = client.Query(query);
  ASSERT_TRUE(restored.has_value()) << client.last_error();
  EXPECT_EQ(restored->impact_halfspaces.size(),
            before->impact_halfspaces.size());

  const ServerStatsSnapshot stats = server->stats().Snapshot();
  EXPECT_EQ(stats.publishes_applied, 2u);
  EXPECT_EQ(stats.mutations_staged, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServeServerTest, StagedDeltaLimitRejectsWholeFrames) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 63);
  ServerConfig config;
  config.max_staged_mutations = 4;
  auto server = StartServer(data, config);
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  auto first = client.StageInsert(
      {Vec{0.1, 0.1, 0.1}, Vec{0.2, 0.2, 0.2}, Vec{0.3, 0.3, 0.3}});
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, MutationStatus::kOk);
  EXPECT_EQ(first->staged_inserts, 3u);

  // 3 + 2 > 4: rejected whole, nothing from the frame staged.
  auto over = client.StageInsert({Vec{0.4, 0.4, 0.4}, Vec{0.5, 0.5, 0.5}});
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->status, MutationStatus::kLimitExceeded);
  EXPECT_EQ(over->staged_inserts, 3u);
  auto over_del = client.StageDelete({0, 1});
  ASSERT_TRUE(over_del.has_value());
  EXPECT_EQ(over_del->status, MutationStatus::kLimitExceeded);
  EXPECT_EQ(over_del->staged_deletes, 0u);

  // Exactly at the bound is fine, and publishing frees the budget.
  auto fits = client.StageDelete({0});
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->status, MutationStatus::kOk);
  auto published = client.Publish();
  ASSERT_TRUE(published.has_value());
  ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
  auto again = client.StageInsert({Vec{0.6, 0.6, 0.6}});
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, MutationStatus::kOk);
}

TEST(ServeServerTest, InvalidMutationsStageNothing) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 64);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  // Dimension mismatch poisons the whole frame, valid rows included.
  auto bad_dim = client.StageInsert({Vec{0.1, 0.1, 0.1}, Vec{0.2, 0.2}});
  ASSERT_TRUE(bad_dim.has_value());
  EXPECT_EQ(bad_dim->status, MutationStatus::kInvalidArgument);
  EXPECT_EQ(bad_dim->staged_inserts, 0u);
  EXPECT_FALSE(bad_dim->message.empty());

  auto non_finite = client.StageInsert(
      {Vec{0.1, std::numeric_limits<double>::infinity(), 0.1}});
  ASSERT_TRUE(non_finite.has_value());
  EXPECT_EQ(non_finite->status, MutationStatus::kInvalidArgument);

  auto unknown_row = client.StageDelete({0, 999999});
  ASSERT_TRUE(unknown_row.has_value());
  EXPECT_EQ(unknown_row->status, MutationStatus::kInvalidArgument);
  EXPECT_EQ(unknown_row->staged_deletes, 0u);

  auto duplicate = client.StageDelete({5, 5});
  ASSERT_TRUE(duplicate.has_value());
  EXPECT_EQ(duplicate->status, MutationStatus::kInvalidArgument);
  EXPECT_EQ(duplicate->staged_deletes, 0u);

  // CatalogInfo is a pure read: session untouched, current version out.
  auto info = client.CatalogInfo();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->status, MutationStatus::kOk);
  EXPECT_EQ(info->staged_inserts, 0u);
  EXPECT_EQ(info->snapshot_seq, 1u);
  EXPECT_EQ(server->stats().Snapshot().publishes_applied, 0u);
}

TEST(ServeServerTest, PublishConflictKeepsTheDeltaStaged) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 65);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient loser, winner;
  ASSERT_TRUE(loser.Connect("127.0.0.1", server->port()));
  ASSERT_TRUE(winner.Connect("127.0.0.1", server->port()));

  // Both connections stage a delete of the same row; the first publish
  // wins, the second must come back kConflict with its delta kept.
  auto staged_l = loser.StageDelete({7});
  ASSERT_TRUE(staged_l.has_value());
  ASSERT_EQ(staged_l->status, MutationStatus::kOk);
  auto staged_w = winner.StageDelete({7});
  ASSERT_TRUE(staged_w.has_value());
  ASSERT_EQ(staged_w->status, MutationStatus::kOk);

  auto won = winner.Publish();
  ASSERT_TRUE(won.has_value());
  ASSERT_EQ(won->status, MutationStatus::kOk) << won->message;
  auto lost = loser.Publish();
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->status, MutationStatus::kConflict);
  EXPECT_EQ(lost->staged_deletes, 1u);  // kept for amendment
  EXPECT_FALSE(lost->message.empty());
  EXPECT_EQ(server->stats().Snapshot().publishes_rejected, 1u);
}

TEST(ServeServerTest, ForeignVersionFrameGetsFrozenRejection) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 66);
  auto server = StartServer(data, ServerConfig{});

  // Hand-roll a v2 frame: a well-formed v3 hello with the version byte
  // patched, the shape an old client generation would produce.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  FdStream stream(fd);
  std::string old_frame = EncodeHello();
  old_frame[4] = 2;  // the version byte
  ASSERT_TRUE(WriteFrame(stream, old_frame));
  std::string reply;
  ASSERT_EQ(ReadFrame(stream, &reply), FrameReadStatus::kOk);
  uint8_t server_version = 0, min_version = 0;
  ASSERT_TRUE(DecodeVersionMismatch(reply, &server_version, &min_version));
  EXPECT_EQ(server_version, kProtocolVersion);
  EXPECT_EQ(min_version, kMinProtocolVersion);
  // The server closed the connection after the rejection.
  EXPECT_EQ(ReadFrame(stream, &reply), FrameReadStatus::kEof);
  ::close(fd);
  EXPECT_EQ(server->stats().Snapshot().version_mismatches, 1u);

  // The typed client error: point a client at a fake v2 server.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &bind_addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&bind_addr),
                   sizeof(bind_addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(bind_addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&bind_addr),
                &addr_len);
  std::thread fake_server([listener] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    FdStream conn_stream(conn);
    std::string ignored;
    ReadFrame(conn_stream, &ignored);
    WriteFrame(conn_stream, EncodeVersionMismatch(2, 2));
    ::close(conn);
  });
  ToprrClient client;
  EXPECT_FALSE(
      client.Connect("127.0.0.1", ntohs(bind_addr.sin_port)));
  EXPECT_EQ(client.last_error_code(), ClientError::kVersionMismatch);
  EXPECT_NE(client.last_error().find("v2"), std::string::npos);
  fake_server.join();
  ::close(listener);
}

TEST(ServeServerTest, ReadYourWritesAcrossConnections) {
  const Dataset data =
      GenerateSynthetic(600, 3, Distribution::kIndependent, 67);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient writer, reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server->port()));
  ASSERT_TRUE(reader.Connect("127.0.0.1", server->port()));

  auto staged = writer.StageInsert({Vec{0.95, 0.95, 0.95}});
  ASSERT_TRUE(staged.has_value());
  ASSERT_EQ(staged->status, MutationStatus::kOk);
  auto published = writer.Publish();
  ASSERT_TRUE(published.has_value());
  ASSERT_EQ(published->status, MutationStatus::kOk);

  // The reader waits for the acked seq, then must observe it.
  ASSERT_TRUE(reader.WaitForSnapshot(published->snapshot_seq))
      << reader.last_error();
  auto response =
      reader.Query(ToprrQuery::FromBox(3, Box({0.2, 0.2}, {0.25, 0.25})));
  ASSERT_TRUE(response.has_value()) << reader.last_error();
  ASSERT_EQ(response->status, ServeStatus::kOk);
  EXPECT_GE(response->snapshot_seq, published->snapshot_seq);
}

TEST(ServeServerTest, ConcurrentWriterAndReadersStayMonotone) {
  // The TSan-relevant stress: one connection publishing deltas while
  // two others query. Every reader's snapshot_seq stream must be
  // monotone non-decreasing across its RPC rounds, and nothing may
  // race, drop, or error.
  const Dataset data =
      GenerateSynthetic(500, 3, Distribution::kIndependent, 68);
  ServerConfig config;
  config.max_inflight_queries = 64;
  auto server = StartServer(data, config);

  constexpr int kPublishes = 8;
  constexpr int kReaderRpcs = 12;
  std::atomic<int> ok_publishes{0};
  std::atomic<int> ok_queries{0};
  std::atomic<int> seq_regressions{0};
  std::thread writer_thread([&] {
    ToprrClient writer;
    if (!writer.Connect("127.0.0.1", server->port())) return;
    Rng rng(200);
    uint64_t last_seq = 0;
    for (int i = 0; i < kPublishes; ++i) {
      Vec row(3);
      for (size_t j = 0; j < 3; ++j) row[j] = rng.Uniform();
      auto staged = writer.StageInsert({row});
      if (!staged.has_value() || staged->status != MutationStatus::kOk) {
        return;
      }
      auto published = writer.Publish();
      if (!published.has_value() ||
          published->status != MutationStatus::kOk) {
        return;
      }
      if (published->snapshot_seq < last_seq) seq_regressions.fetch_add(1);
      last_seq = published->snapshot_seq;
      ok_publishes.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ToprrClient reader;
      if (!reader.Connect("127.0.0.1", server->port())) return;
      Rng rng(300 + r);
      uint64_t last_seq = 0;
      for (int i = 0; i < kReaderRpcs; ++i) {
        auto response = reader.Query(
            ToprrQuery::FromBox(3, RandomPrefBox(2, 0.02, rng)));
        if (!response.has_value()) return;
        if (response->status == ServeStatus::kOk) ok_queries.fetch_add(1);
        if (response->snapshot_seq < last_seq) seq_regressions.fetch_add(1);
        last_seq = response->snapshot_seq;
      }
    });
  }
  writer_thread.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(ok_publishes.load(), kPublishes);
  EXPECT_EQ(ok_queries.load(), 2 * kReaderRpcs);
  EXPECT_EQ(seq_regressions.load(), 0);
  const ServerStatsSnapshot stats = server->stats().Snapshot();
  EXPECT_EQ(stats.publishes_applied, static_cast<uint64_t>(kPublishes));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---- Failure hardening: deadlines, timeouts, drain, retry, EMFILE ----

// The stalled-solve fixture: a huge anticorrelated instance with no
// budget clamp runs far longer than any deadline in these tests.
Dataset StalledSolveData() {
  return GenerateSynthetic(20000, 4, Distribution::kAnticorrelated, 50);
}

ToprrQuery StalledSolveQuery(int num_threads) {
  ToprrOptions options;
  options.num_threads = num_threads;
  return ToprrQuery::FromBox(
      10, Box({0.05, 0.05, 0.05}, {0.45, 0.45, 0.45}), options);
}

// Sends a 50ms-deadline batch over a raw socket (no client-side read
// timeout, so a sanitizer-slowed cancel unwind cannot fail the test on
// the client end) and requires the server to answer DEADLINE_EXCEEDED
// in bounded time. The client-knob path (QueryOptions::deadline_seconds
// -> wire) is covered by ServerClampsDeadlineToConfiguredCeiling.
void ExpectDeadlineExceeded(int solver_threads) {
  ServerConfig config;
  config.max_query_budget_seconds = 0.0;  // no clamp: rely on the deadline
  auto server = StartServer(StalledSolveData(), config);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  FdStream stream(fd);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteFrame(
      stream, EncodeQueryBatch({StalledSolveQuery(solver_threads)},
                               /*deadline_ms=*/50)));
  std::string reply;
  ASSERT_EQ(ReadFrame(stream, &reply), FrameReadStatus::kOk);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ::close(fd);
  // Bounded time: the deadline fires at 50ms and the cooperative cancel
  // unwinds the solve promptly -- nowhere near the minutes the full
  // solve would take. The bound is generous for sanitizer builds.
  EXPECT_LT(elapsed, 30.0);
  std::vector<ServeResponse> responses;
  std::string error;
  ASSERT_TRUE(DecodeResponseBatch(reply, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kDeadlineExceeded);
  EXPECT_GE(server->stats().Snapshot().queries_deadline_exceeded, 1u);
}

TEST(ServeServerTest, DeadlineExceededOnStalledSequentialSolve) {
  ExpectDeadlineExceeded(/*solver_threads=*/1);
}

TEST(ServeServerTest, DeadlineExceededOnStalledWorkStealingSolve) {
  ExpectDeadlineExceeded(/*solver_threads=*/4);
}

TEST(ServeServerTest, GenerousDeadlineDoesNotDisturbFastQueries) {
  const Dataset data =
      GenerateSynthetic(500, 3, Distribution::kIndependent, 71);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  QueryOptions options;
  options.deadline_seconds = 30.0;
  auto response = client.Query(
      ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2})), options);
  ASSERT_TRUE(response.has_value()) << client.last_error();
  EXPECT_EQ(response->status, ServeStatus::kOk);
  EXPECT_EQ(server->stats().Snapshot().queries_deadline_exceeded, 0u);
}

TEST(ServeServerTest, ServerClampsDeadlineToConfiguredCeiling) {
  // With the ceiling at 1ms, even a generous client deadline expires:
  // proof the server-side clamp (not the client knob) is in charge.
  auto server = [] {
    ServerConfig config;
    config.max_query_budget_seconds = 0.0;
    config.max_deadline_ms = 1;
    return StartServer(StalledSolveData(), config);
  }();
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  QueryOptions options;
  options.deadline_seconds = 60.0;
  auto response = client.Query(StalledSolveQuery(1), options);
  ASSERT_TRUE(response.has_value()) << client.last_error();
  EXPECT_EQ(response->status, ServeStatus::kDeadlineExceeded);
}

TEST(ServeServerTest, IdleTimeoutEvictsSilentConnections) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 72);
  ServerConfig config;
  config.idle_timeout_ms = 100;
  auto server = StartServer(data, config);

  // A connection that never sends a byte must be evicted, not pinned.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  char byte;
  // The blocking read returns 0 (EOF) when the server closes our end.
  const ssize_t n = ::read(fd, &byte, 1);
  EXPECT_EQ(n, 0);
  ::close(fd);
  EXPECT_GE(server->stats().Snapshot().timeouts_idle, 1u);

  // A well-behaved client on the same server is unaffected.
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  auto ok = client.Query(ToprrQuery::FromBox(3, Box({0.1, 0.1},
                                                    {0.2, 0.2})));
  ASSERT_TRUE(ok.has_value()) << client.last_error();
  EXPECT_EQ(ok->status, ServeStatus::kOk);
}

TEST(ServeServerTest, HeaderTimeoutEvictsMidFramePeers) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 73);
  ServerConfig config;
  config.idle_timeout_ms = 10000;  // generous between frames...
  config.header_read_timeout_ms = 100;  // ...strict once one starts
  auto server = StartServer(data, config);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Two bytes of a length prefix, then silence: a slowloris peer. The
  // watcher switched to the header timeout, so eviction comes at 100ms,
  // not the 10s idle allowance.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(fd, "\x08\x00", 2, 0), 2);
  char byte;
  const ssize_t n = ::read(fd, &byte, 1);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(n, 0);
  EXPECT_LT(elapsed, 5.0);
  ::close(fd);
  EXPECT_GE(server->stats().Snapshot().timeouts_read, 1u);
}

TEST(ServeServerTest, DrainRejectsNewWorkThenStops) {
  ServerConfig config;
  config.max_query_budget_seconds = 0.0;
  auto server = StartServer(StalledSolveData(), config);

  ToprrClient stalled, probe;
  ASSERT_TRUE(stalled.Connect("127.0.0.1", server->port()));
  ASSERT_TRUE(probe.Connect("127.0.0.1", server->port()));
  std::thread stalled_rpc([&stalled] {
    // Will be cancelled when the drain grace expires; a kShutdown
    // response or a dropped connection are both acceptable.
    stalled.Query(StalledSolveQuery(1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::thread drainer([&server] { server->Drain(/*grace_seconds=*/1.5); });
  // Give Drain a moment to flip the flag, then offer new work on the
  // EXISTING connection: it must be answered (connection still up) with
  // the typed rejection, not solved and not dropped.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(server->draining());
  auto rejected = probe.Query(ToprrQuery::FromBox(
      10, Box({0.05, 0.05, 0.05}, {0.45, 0.45, 0.45})));
  if (rejected.has_value()) {
    EXPECT_EQ(rejected->status, ServeStatus::kRejectedDraining);
    EXPECT_GE(server->stats().Snapshot().queries_rejected_draining, 1u);
  }
  drainer.join();
  stalled_rpc.join();
  // Drain ends in a full stop: no accepting, no serving.
  ToprrClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server->port()));
}

TEST(ServeServerTest, RetryingClientSurvivesServerRestart) {
  const Dataset data =
      GenerateSynthetic(400, 3, Distribution::kIndependent, 74);
  auto first = StartServer(data, ServerConfig{});
  const int port = first->port();

  ToprrClient client;
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 5.0;
  client.set_retry_policy(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  const ToprrQuery query =
      ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2}));
  auto before = client.Query(query);
  ASSERT_TRUE(before.has_value()) << client.last_error();
  ASSERT_EQ(before->status, ServeStatus::kOk);

  // Kill the server, bring a fresh one up on the SAME port, query again:
  // the retry policy must reconnect + re-handshake transparently.
  first->Stop();
  first.reset();
  ServerConfig config;
  config.host = "127.0.0.1";
  config.port = port;
  auto second = std::make_unique<ToprrServer>(InMemory(data), config);
  std::string error;
  ASSERT_TRUE(second->Start(&error)) << error;

  auto after = client.Query(query);
  ASSERT_TRUE(after.has_value()) << client.last_error();
  EXPECT_EQ(after->status, ServeStatus::kOk);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.retries(), 1u);
}

TEST(ServeServerTest, RetryingClientRestoresStagedDeltaAcrossReconnect) {
  const Dataset data =
      GenerateSynthetic(400, 3, Distribution::kIndependent, 75);
  auto first = StartServer(data, ServerConfig{});
  const int port = first->port();

  ToprrClient client;
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 5.0;
  client.set_retry_policy(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  auto staged = client.StageInsert({Vec{0.9, 0.9, 0.9}});
  ASSERT_TRUE(staged.has_value());
  ASSERT_EQ(staged->status, MutationStatus::kOk);

  first->Stop();
  first.reset();
  ServerConfig config;
  config.host = "127.0.0.1";
  config.port = port;
  auto second = std::make_unique<ToprrServer>(InMemory(data), config);
  std::string error;
  ASSERT_TRUE(second->Start(&error)) << error;

  // The server-side session died with the connection; the client's
  // mirror re-stages it during the internal reconnect, so the publish
  // carries the insert.
  auto published = client.Publish();
  ASSERT_TRUE(published.has_value()) << client.last_error();
  ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
  EXPECT_EQ(published->physical_rows, 401u);
  EXPECT_GE(client.reconnects(), 1u);
}

TEST(ServeServerTest, DuplicatePublishIsDedupedByIdempotencyToken) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 76);
  auto server = StartServer(data, ServerConfig{});

  // Drive the wire directly: the library client never re-sends a
  // publish whose ack it received, so the lost-ack retry is hand-rolled
  // here -- stage, publish (token 42, id 1), re-stage the same delta
  // (what a reconnecting client's mirror restore does), re-publish the
  // SAME (token, id). The second publish must answer already_applied
  // with the catalog unchanged.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  FdStream stream(fd);
  std::string reply, error;
  MutationAck ack;

  const auto mutate = [&](const std::string& request) {
    ASSERT_TRUE(WriteFrame(stream, request));
    ASSERT_EQ(ReadFrame(stream, &reply), FrameReadStatus::kOk);
    ASSERT_TRUE(DecodeMutationAck(reply, &ack, &error)) << error;
  };

  mutate(EncodeStageInsert({Vec{0.9, 0.9, 0.9}}));
  ASSERT_EQ(ack.status, MutationStatus::kOk) << ack.message;
  mutate(EncodePublish(/*idempotency_token=*/42, /*publish_id=*/1));
  ASSERT_EQ(ack.status, MutationStatus::kOk) << ack.message;
  EXPECT_FALSE(ack.already_applied);
  EXPECT_EQ(ack.idempotency_token, 42u);
  EXPECT_EQ(ack.publish_id, 1u);
  const uint64_t rows_after_first = ack.physical_rows;
  EXPECT_EQ(rows_after_first, 301u);

  mutate(EncodeStageInsert({Vec{0.9, 0.9, 0.9}}));
  ASSERT_EQ(ack.status, MutationStatus::kOk) << ack.message;
  mutate(EncodePublish(/*idempotency_token=*/42, /*publish_id=*/1));
  ASSERT_EQ(ack.status, MutationStatus::kOk) << ack.message;
  EXPECT_TRUE(ack.already_applied);
  EXPECT_EQ(ack.physical_rows, rows_after_first);  // nothing re-applied
  EXPECT_EQ(ack.staged_inserts, 0u);  // the duplicate delta was cleared

  // A NEW publish id from the same token applies normally.
  mutate(EncodeStageInsert({Vec{0.8, 0.8, 0.8}}));
  ASSERT_EQ(ack.status, MutationStatus::kOk) << ack.message;
  mutate(EncodePublish(/*idempotency_token=*/42, /*publish_id=*/2));
  ASSERT_EQ(ack.status, MutationStatus::kOk) << ack.message;
  EXPECT_FALSE(ack.already_applied);
  EXPECT_EQ(ack.physical_rows, rows_after_first + 1);
  ::close(fd);

  const ServerStatsSnapshot stats = server->stats().Snapshot();
  EXPECT_EQ(stats.publishes_applied, 2u);
  EXPECT_EQ(stats.publishes_deduped, 1u);
}

TEST(ServeServerTest, WaitForSnapshotHonorsItsDeadlineExactly) {
  const Dataset data =
      GenerateSynthetic(300, 3, Distribution::kIndependent, 77);
  auto server = StartServer(data, ServerConfig{});
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  // Already satisfied: returns immediately.
  EXPECT_TRUE(client.WaitForSnapshot(1, /*timeout_seconds=*/5.0));

  // Unsatisfiable: must give up at the deadline -- not at the next
  // multiple of a fixed poll interval past it, and not early.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.WaitForSnapshot(999999, /*timeout_seconds=*/0.3));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.28);
  EXPECT_LT(elapsed, 1.0);
}

TEST(ServeServerTest, AcceptSurvivesFdExhaustion) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan cannot run threads after a multi-threaded fork";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "TSan cannot run threads after a multi-threaded fork";
#endif
#endif
  // RLIMIT_NOFILE games poison the whole process, so the scenario runs
  // in a forked child: exhaust fds, prove accept fails EMFILE without
  // killing the accept loop, prove existing connections keep being
  // served, lift the limit, prove new connections work again. Each
  // numbered _exit marks the failing step.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const Dataset data =
        GenerateSynthetic(200, 3, Distribution::kIndependent, 78);
    ServerConfig config;
    config.host = "127.0.0.1";
    config.port = 0;
    ToprrServer server(InMemory(data), config);
    std::string error;
    if (!server.Start(&error)) ::_exit(2);
    ToprrClient existing;
    if (!existing.Connect("127.0.0.1", server.port())) ::_exit(3);
    const ToprrQuery query =
        ToprrQuery::FromBox(3, Box({0.1, 0.1}, {0.2, 0.2}));
    auto first = existing.Query(query);
    if (!first.has_value() || first->status != ServeStatus::kOk) ::_exit(4);

    // Pre-open the probe socket while fds are still available, then
    // drop the soft limit to zero: every accept(2) now fails EMFILE.
    const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    if (probe < 0) ::_exit(5);
    struct rlimit saved;
    if (::getrlimit(RLIMIT_NOFILE, &saved) != 0) ::_exit(6);
    struct rlimit tight = saved;
    tight.rlim_cur = 0;
    if (::setrlimit(RLIMIT_NOFILE, &tight) != 0) ::_exit(7);

    // The TCP handshake completes via the backlog regardless; the
    // server-side accept fails EMFILE, logs, breathes, and keeps going.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // The accept loop must still be alive AND existing connections must
    // still be served while fds are exhausted.
    auto during = existing.Query(query);
    if (!during.has_value() || during->status != ServeStatus::kOk) {
      ::_exit(8);
    }

    // Lift the limit: the loop (which never died) accepts again.
    if (::setrlimit(RLIMIT_NOFILE, &saved) != 0) ::_exit(9);
    ::close(probe);
    ToprrClient late;
    if (!late.Connect("127.0.0.1", server.port())) ::_exit(10);
    auto after = late.Query(query);
    if (!after.has_value() || after->status != ServeStatus::kOk) {
      ::_exit(11);
    }
    server.Stop();
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "failing child step";
}

}  // namespace
}  // namespace serve
}  // namespace toprr
