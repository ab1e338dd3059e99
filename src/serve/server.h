// ToprrServer: a long-lived TCP front-end over ToprrEngine::SolveBatch
// and, since protocol v3, over the catalog mutation path.
//
// One server owns one engine over one DurableCatalog (data/recovery.h):
// a WAL-backed catalog when opened with a data_dir, an in-memory one
// when opened without. Clients connect over TCP and exchange
// length-prefixed frames (serve/framing.h); each payload is dispatched
// on its v3 header type: query batches, the Hello/ServerHello
// handshake, and the mutation RPCs (StageInsert / StageDelete / Publish
// / CatalogInfo). A connection serves any number of frames
// sequentially; concurrency comes from concurrent connections, which
// all feed the one engine and its shared skyband cache.
//
// Frames whose header carries a foreign protocol version are answered
// with the frozen kVersionMismatch frame and the connection is closed --
// an old client gets a decodable rejection, never a garbage frame.
//
// Mutation model: each connection buffers its staged rows/deletes
// locally (bounded by ServerConfig::max_staged_mutations, all-or-nothing
// per frame). Publish has one path: under a server-wide publish mutex it
// hands the delta to DurableCatalog::Publish, which owns the idempotency
// table (an exact (token, publish id) retry answers already_applied),
// rejects a delete of a row that is no longer live as a conflict, and
// otherwise logs (durable mode) and publishes. The engine is moved onto
// the new snapshot before the ack -- so a Publish ack carrying
// snapshot_seq S promises every later response (any connection) carries
// seq >= S: read-your-writes. A conflicting delta (a staged delete lost
// a race with another writer's publish) is rejected whole and stays
// staged on the connection for amendment.
//
// Admission control: the server maintains a bounded in-flight query
// count (ServerConfig::max_inflight_queries). A batch is admitted
// all-or-nothing; when it does not fit, every query in it is answered
// immediately with an explicit kRejectedOverload response -- requests
// are never parked in a hidden queue, so a saturated server stays
// responsive and the client owns the retry policy (backpressure).
//
// Budgets, deadlines and shutdown: each admitted query's time budget is
// clamped to ServerConfig::max_query_budget_seconds, and its options
// carry the batch's absolute wire deadline (clamped by max_deadline_ms)
// and the server's stopping flag as the cancel flag. The scheduler
// polls all three once per region, so no serving thread watches a
// solve. Stop() sets the flag and returns promptly even mid-solve; a
// cancelled query answers kShutdown (when the connection is still
// writable), a stop at or after the deadline kDeadlineExceeded, and any
// other budget stop kBudgetExceeded, for that query only.
#ifndef TOPRR_SERVE_SERVER_H_
#define TOPRR_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/server_stats.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "data/recovery.h"
#include "data/snapshot.h"
#include "serve/protocol.h"

namespace toprr {
namespace serve {

struct ServerConfig {
  /// Listen address. The default binds loopback only; serving real
  /// traffic across hosts is the multi-node sharding item's business.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;

  /// Admission control: maximum queries admitted concurrently across all
  /// connections. Batches that would exceed it are rejected whole with
  /// kRejectedOverload.
  size_t max_inflight_queries = 64;

  /// Upper bound on any single query's time budget (seconds). Requests
  /// asking for more (or for unlimited, i.e. <= 0) are clamped down to
  /// this; <= 0 disables the clamp (trusted clients only).
  double max_query_budget_seconds = 10.0;

  /// Worker threads for each batch's dispatch through SolveBatch
  /// (0 = one per hardware thread, 1 = solve in the connection thread).
  int batch_threads = 1;

  /// Per-connection staged-delta bound: staged inserts + staged deletes.
  /// A StageInsert/StageDelete frame that would push a connection past it
  /// is rejected whole with kLimitExceeded (nothing from the frame is
  /// staged) -- publish or drop the connection to reclaim the budget.
  size_t max_staged_mutations = 4096;

  /// Ceiling on a batch's wire-requested deadline (milliseconds).
  /// Requests asking for longer are clamped down; 0 trusts the client.
  /// The scheduler polls the deadline once per region, so an expired
  /// batch answers kDeadlineExceeded in bounded time instead of running
  /// to budget expiry.
  uint64_t max_deadline_ms = 30000;

  /// Connection read timeouts (milliseconds, 0 = disabled). The idle
  /// timeout bounds how long a connection may sit between frames; once
  /// the first byte of a frame arrives the (typically much shorter)
  /// header-read timeout takes over, so a slowloris peer trickling a
  /// frame cannot pin a connection thread. Expiry drops the connection
  /// and bumps ServerStats::timeouts_{idle,read}.
  int idle_timeout_ms = 0;
  int header_read_timeout_ms = 0;
  /// Reply-write timeout (milliseconds, 0 = disabled): a peer that stops
  /// draining its receive buffer is dropped (timeouts_write).
  int write_timeout_ms = 0;

  /// Enables the engine's cross-query region cache
  /// (core/region_cache.h) and opts every admitted query into it.
  /// Server-side policy only -- nothing on the wire selects caching, so
  /// clients cannot toggle it. Per-query outcomes travel back in
  /// ServeQueryStats::cache_lookup.
  bool use_region_cache = false;
  /// Region-cache byte budget (LRU-evicted per shard).
  size_t region_cache_budget_bytes = size_t{64} << 20;
  /// Canonicalization grid; power-of-two reciprocals keep snapped
  /// coordinates exact in floating point.
  double region_cache_quantum = 1.0 / 256.0;
};

class ToprrServer {
 public:
  /// Serves `catalog`'s current snapshot and routes every wire Publish
  /// through DurableCatalog::Publish before acking. With a data_dir the
  /// WAL append (fsync per the catalog's policy) precedes the ack, so an
  /// acked publish survives kill -9, and a writer retrying (or probing)
  /// a pre-crash publish against a restarted server is answered
  /// already_applied from the recovered idempotency table. Recovery and
  /// WAL counters surface through stats(). For a fixed table:
  ///   ToprrServer server(DurableCatalog::Open({}, &data, &error), config);
  ToprrServer(std::shared_ptr<DurableCatalog> catalog, ServerConfig config);

  ToprrServer(const ToprrServer&) = delete;
  ToprrServer& operator=(const ToprrServer&) = delete;

  /// Stops the server if still running.
  ~ToprrServer();

  /// Binds, listens, and starts the accept thread. Returns false with a
  /// one-line reason on failure (port in use, bad host, ...).
  bool Start(std::string* error);

  /// The bound TCP port (useful with config.port = 0).
  int port() const { return port_; }

  /// Graceful-but-prompt shutdown: sets the stopping flag that every
  /// in-flight solve polls as its cancel flag, stops accepting, shuts
  /// client sockets down, and joins all threads. Idempotent.
  void Stop();

  /// Draining shutdown: stops accepting new connections, answers new
  /// query frames with kRejectedDraining (mutations with kShutdown acks)
  /// while letting admitted work finish, waits up to `grace_seconds` for
  /// the in-flight count to hit zero, then Stop()s — which cancels
  /// whatever is still running. Idempotent; callable from a signal
  /// handler's drain thread.
  void Drain(double grace_seconds);

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  const ServerStats& stats() const { return stats_; }
  ToprrEngine& engine() { return engine_; }

  /// Pre-computes the k-skyband for `k` so the first query does not pay
  /// the warm-up cost.
  void WarmSkyband(int k) { engine_.KSkyband(k); }

 private:
  /// One connection's locally buffered mutation delta (not yet in the
  /// catalog). Dropped with the connection if never published.
  struct MutationSession {
    std::vector<Vec> rows;           // staged inserts
    std::vector<uint64_t> deletes;   // staged physical row ids
    size_t size() const { return rows.size() + deletes.size(); }
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  /// Handles one decoded query-batch payload; returns the encoded reply
  /// frame (admission, solving, and oversized-reply degradation inside).
  std::string HandleQueryBatch(const std::string& payload);

  /// Mutation RPC bodies. Each returns the ack to send; session state is
  /// mutated only on kOk.
  MutationAck HandleStageInsert(MutationSession* session,
                                std::vector<Vec> rows);
  MutationAck HandleStageDelete(MutationSession* session,
                                std::vector<uint64_t> row_ids);
  MutationAck HandlePublish(MutationSession* session,
                            uint64_t idempotency_token, uint64_t publish_id,
                            bool probe = false);

  /// Copies the catalog's WAL/checkpoint counters into stats_.
  void MirrorDurableCounters();

  /// An ack stamped with the engine's current snapshot and the session's
  /// post-RPC staged sizes.
  MutationAck StampAck(MutationStatus status, const MutationSession& session,
                       std::string message = std::string());

  /// All-or-nothing admission of `count` queries against the in-flight
  /// bound. Returns true when admitted; the caller must ReleaseQueries.
  bool TryAdmitQueries(size_t count);
  void ReleaseQueries(size_t count);

  /// Solves one admitted batch with budgets and worker counts clamped.
  /// Every query's options carry stopping_ as the cancel flag and the
  /// batch's absolute `deadline` (time_point::max() = none), which the
  /// scheduler polls per region. A cancelled query answers kShutdown, one
  /// stopped at or after the deadline kDeadlineExceeded, and any other
  /// stopped one kBudgetExceeded.
  std::vector<ServeResponse> SolveAdmitted(
      std::vector<ToprrQuery> queries,
      std::chrono::steady_clock::time_point deadline);

  const ServerConfig config_;
  // Declared before engine_: the engine is seeded from the catalog's
  // current snapshot in the member-init list. Never null.
  std::shared_ptr<DurableCatalog> catalog_;
  ToprrEngine engine_;
  ServerStats stats_;

  /// Serializes publishes with the engine rebind and ack that follow
  /// them (and probes with both), so acks leave in publish order and
  /// each ack's snapshot is already being served.
  std::mutex publish_mu_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  /// Set by Stop(); the cancel flag of every admitted solve.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<size_t> inflight_queries_{0};

  std::thread accept_thread_;
  std::mutex connections_mu_;
  struct Connection {
    int fd = -1;
    std::thread thread;
    bool finished = false;
  };
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace serve
}  // namespace toprr

#endif  // TOPRR_SERVE_SERVER_H_
