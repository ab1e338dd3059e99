#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve/framing.h"

namespace toprr {
namespace serve {
namespace {

constexpr int kListenBacklog = 64;

// A query the server refuses to hand to the engine: the engine
// CHECK-fails on out-of-range k or mismatched dimensions, the split
// indexes by facet vertex ids unchecked, and a hostile frame must never
// be able to abort or corrupt the process. Bounds come from the engine's
// current snapshot (live rows, not physical rows).
bool QueryIsSolvable(size_t live_rows, size_t dim,
                     const ToprrQuery& query) {
  if (query.k <= 0 || static_cast<size_t>(query.k) > live_rows) {
    return false;
  }
  if (query.region.empty()) return false;
  return query.region.dim() + 1 == dim && query.region.WellFormed(dim - 1);
}

// The stream is still in sync (framing was intact) but the payload did
// not parse as anything actionable: a one-response batch with the
// explicit malformed marker, so the client sees a reply, not a hang.
std::string MalformedMarkerReply() {
  ServeResponse malformed;
  malformed.status = ServeStatus::kMalformed;
  return EncodeResponseBatch({malformed});
}

}  // namespace

ToprrServer::ToprrServer(std::shared_ptr<DurableCatalog> catalog,
                         ServerConfig config)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      engine_(catalog_->catalog()->Current()) {
  if (config_.use_region_cache) {
    RegionCacheConfig cache_config;
    cache_config.byte_budget = config_.region_cache_budget_bytes;
    cache_config.quantum = config_.region_cache_quantum;
    engine_.EnableRegionCache(cache_config);
  }
  const RecoveryStats& recovery = catalog_->recovery();
  stats_.SetRecovery(recovery.recovered, recovery.replayed_records,
                     recovery.skipped_records, recovery.snapshot_seq,
                     recovery.recovery_seconds);
  MirrorDurableCounters();
}

void ToprrServer::MirrorDurableCounters() {
  const DurableCounters counters = catalog_->counters();
  stats_.SetDurableCounters(counters.wal_appends, counters.wal_bytes,
                            counters.wal_fsyncs,
                            counters.checkpoints_written);
}

ToprrServer::~ToprrServer() { Stop(); }

bool ToprrServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = LogErrno("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad listen host " + config_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (error != nullptr) {
      *error = LogErrno("bind " + config_.host + ":" +
                        std::to_string(config_.port));
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    if (error != nullptr) *error = LogErrno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  LOG(INFO) << "toprr server listening on " << config_.host << ":" << port_;
  return true;
}

void ToprrServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // Every batch inside SolveAdmitted polls its own cancel flag (the
  // deadline timer shares it); flip them all so in-flight solves unwind
  // promptly even though they no longer watch stopping_ directly.
  {
    std::lock_guard<std::mutex> lock(cancels_mu_);
    for (std::atomic<bool>* cancel : active_cancels_) {
      cancel->store(true, std::memory_order_release);
    }
  }

  // Unblock accept(2), then the per-connection reads. shutdown() rather
  // than close() so each thread keeps a valid fd until it exits and
  // closes it itself -- no fd reuse race.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (!conn->finished && conn->fd >= 0) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // After the accept thread exits no new connections appear, so the
  // vector is stable from here on.
  for (const std::unique_ptr<Connection>& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ToprrServer::Drain(double grace_seconds) {
  if (!running_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Second Drain (or Drain after Drain): just finish the shutdown.
    Stop();
    return;
  }
  LOG(INFO) << "toprr server draining (grace "
            << grace_seconds << "s)";
  // Stop accepting. The accept loop sees draining_ and exits silently;
  // existing connections stay up so in-flight work can answer and new
  // frames get explicit kRejectedDraining responses.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RD);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(grace_seconds > 0.0 ? grace_seconds
                                                            : 0.0));
  while (inflight_queries_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (inflight_queries_.load(std::memory_order_acquire) == 0) {
    // Give the connection threads a beat to flush the final replies
    // before Stop() shuts their sockets down.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  } else {
    LOG(WARNING) << "drain grace expired with "
                 << inflight_queries_.load(std::memory_order_acquire)
                 << " queries in flight; cancelling";
  }
  Stop();
}

void ToprrServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire) ||
          draining_.load(std::memory_order_acquire)) {
        return;
      }
      if (errno == EINTR) continue;
      // A client that reset before we accepted, or transient fd
      // exhaustion under a connection burst, must not brick the server:
      // log, breathe (so EMFILE does not spin), and keep accepting.
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
          errno == EAGAIN || errno == ENOBUFS || errno == ENOMEM) {
        LOG(WARNING) << LogErrno("accept failed (transient)");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // Anything else (EBADF/EINVAL from Stop's shutdown, or a real
      // listener failure) ends the loop.
      LOG(WARNING) << LogErrno("accept failed");
      return;
    }
    // Request/response framing sends the 4-byte prefix and the payload
    // in separate write(2)s; without TCP_NODELAY, Nagle + delayed ACK
    // turns every RPC into a ~40 ms round trip.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(connections_mu_);
    if (stopping_.load(std::memory_order_acquire) ||
        draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    stats_.OnConnectionAccepted();
    // Reap connections that already finished so a long-lived server
    // does not accumulate one zombie thread per past client.
    for (std::unique_ptr<Connection>& conn : connections_) {
      if (conn->finished && conn->thread.joinable()) conn->thread.join();
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& conn) {
                         return conn->finished && !conn->thread.joinable();
                       }),
        connections_.end());
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = fd;
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] {
      ServeConnection(raw->fd);
      std::lock_guard<std::mutex> exit_lock(connections_mu_);
      ::close(raw->fd);
      raw->fd = -1;
      raw->finished = true;
    });
  }
}

bool ToprrServer::TryAdmitQueries(size_t count) {
  size_t current = inflight_queries_.load(std::memory_order_relaxed);
  for (;;) {
    if (current + count > config_.max_inflight_queries) return false;
    if (inflight_queries_.compare_exchange_weak(current, current + count,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
      return true;
    }
  }
}

void ToprrServer::ReleaseQueries(size_t count) {
  inflight_queries_.fetch_sub(count, std::memory_order_acq_rel);
}

std::vector<ServeResponse> ToprrServer::SolveAdmitted(
    std::vector<ToprrQuery> queries,
    const std::chrono::steady_clock::time_point* deadline) {
  const double budget_ceiling = config_.max_query_budget_seconds;
  for (ToprrQuery& query : queries) {
    // Clamp the budget: unlimited (<= 0), over-the-cap, and NaN requests
    // all drop to the server's ceiling, enforced by the scheduler budget
    // hooks. The negated comparison is deliberate: `!(budget > 0)` is
    // true for NaN where `budget <= 0` would not be, and a NaN that
    // slipped through would read as "unlimited" in the scheduler too.
    double budget = query.options.time_budget_seconds;
    if (budget_ceiling > 0.0 &&
        (!(budget > 0.0) || budget > budget_ceiling)) {
      budget = budget_ceiling;
    }
    query.options.time_budget_seconds = budget;
    // A client must not be able to grab every core via num_threads=0
    // (the "all hardware threads" knob); region-level parallelism stays
    // an explicit positive request. The upper bound matters as much: the
    // work-stealing executor builds one worker slot (each with a victim
    // list over all peers) per requested thread, so an unbounded wire
    // value is quadratic memory. Results are identical for any worker
    // count, so capping at the pool size changes no answer.
    int& threads = query.options.num_threads;
    if (threads < 1) threads = 1;
    if (threads > 1) {
      threads = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(threads), SharedThreadPool().num_threads()));
    }
    // Caching is server-side policy: the wire has no cache bit, the
    // server opts admitted queries in (or not) uniformly.
    query.options.use_region_cache = config_.use_region_cache;
  }

  // Per-batch cancel flag: armed by Stop() (via active_cancels_) and by
  // the deadline watcher. Registered before the stopping_ re-check so a
  // Stop() racing this batch cannot miss it.
  std::atomic<bool> cancel{false};
  std::atomic<bool> deadline_fired{false};
  {
    std::lock_guard<std::mutex> lock(cancels_mu_);
    active_cancels_.push_back(&cancel);
  }
  if (stopping_.load(std::memory_order_acquire)) {
    cancel.store(true, std::memory_order_release);
  }

  std::thread watcher;
  std::mutex watch_mu;
  std::condition_variable watch_cv;
  bool solve_done = false;
  if (deadline != nullptr) {
    const auto when = *deadline;
    watcher = std::thread([&, when] {
      std::unique_lock<std::mutex> lk(watch_mu);
      if (!watch_cv.wait_until(lk, when, [&] { return solve_done; })) {
        deadline_fired.store(true, std::memory_order_release);
        cancel.store(true, std::memory_order_release);
      }
    });
  }

  const std::vector<ToprrResult> results =
      engine_.SolveBatch(queries, config_.batch_threads, &cancel);

  if (watcher.joinable()) {
    {
      std::lock_guard<std::mutex> lk(watch_mu);
      solve_done = true;
    }
    watch_cv.notify_all();
    watcher.join();
  }
  {
    std::lock_guard<std::mutex> lock(cancels_mu_);
    active_cancels_.erase(
        std::remove(active_cancels_.begin(), active_cancels_.end(), &cancel),
        active_cancels_.end());
  }
  // A cancel can have two causes; shutdown wins the tie because those
  // queries genuinely were cut loose by Stop(), deadline or not.
  const bool attribute_deadline =
      deadline_fired.load(std::memory_order_acquire) &&
      !stopping_.load(std::memory_order_acquire);

  std::vector<ServeResponse> responses;
  responses.reserve(results.size());
  for (const ToprrResult& result : results) {
    responses.push_back(ResponseFromResult(result));
    if (result.stats.scheduler.cache_deferred > 0) stats_.OnCacheDeferred();
    if (attribute_deadline &&
        responses.back().status == ServeStatus::kShutdown) {
      responses.back().status = ServeStatus::kDeadlineExceeded;
    }
    switch (static_cast<CacheLookup>(responses.back().stats.cache_lookup)) {
      case CacheLookup::kHit:
        stats_.OnCacheHit();
        break;
      case CacheLookup::kPartial:
        stats_.OnCachePartialHit();
        break;
      case CacheLookup::kMiss:
        stats_.OnCacheMiss();
        break;
      case CacheLookup::kBypass:
        break;
    }
    if (responses.back().stats.cache_tasks_saved > 0) {
      stats_.OnCacheTasksSaved(responses.back().stats.cache_tasks_saved);
    }
    switch (responses.back().status) {
      case ServeStatus::kOk:
        stats_.OnQueryCompleted();
        break;
      case ServeStatus::kBudgetExceeded:
        stats_.OnQueryBudgetExceeded();
        break;
      case ServeStatus::kShutdown:
        stats_.OnQueryCancelled();
        break;
      case ServeStatus::kDeadlineExceeded:
        stats_.OnQueryDeadlineExceeded();
        break;
      default:
        break;
    }
  }
  return responses;
}

std::string ToprrServer::HandleQueryBatch(const std::string& payload) {
  const auto arrival = std::chrono::steady_clock::now();
  std::vector<ToprrQuery> queries;
  uint64_t deadline_ms = 0;
  std::string decode_error;
  if (!DecodeQueryBatch(payload, &queries, &deadline_ms, &decode_error)) {
    stats_.OnProtocolError();
    LOG(WARNING) << "malformed query batch: " << decode_error;
    return MalformedMarkerReply();
  }
  stats_.OnQueriesReceived(queries.size());

  // The wire deadline is relative to frame arrival; clamp it to the
  // server's ceiling and convert to an absolute point so decode and
  // admission time count against it.
  if (deadline_ms > 0 && config_.max_deadline_ms > 0 &&
      deadline_ms > config_.max_deadline_ms) {
    deadline_ms = config_.max_deadline_ms;
  }
  std::chrono::steady_clock::time_point deadline_point;
  const std::chrono::steady_clock::time_point* deadline = nullptr;
  if (deadline_ms > 0) {
    deadline_point = arrival + std::chrono::milliseconds(deadline_ms);
    deadline = &deadline_point;
  }

  // Per-query validation, then all-or-nothing admission of the
  // solvable remainder. The bounds are sampled once per frame; a
  // publish racing with admission is harmless -- physical rows
  // never shrink, so a query validated here cannot trip the engine's
  // hard bound even if a delete publishes before its solve pins.
  const size_t live_rows = engine_.dataset_rows();
  const size_t data_dim = engine_.dataset_dim();
  std::vector<ServeResponse> responses(queries.size());
  std::vector<size_t> solvable;
  solvable.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (QueryIsSolvable(live_rows, data_dim, queries[i])) {
      solvable.push_back(i);
    } else {
      responses[i].status = ServeStatus::kMalformed;
    }
  }
  if (!solvable.empty()) {
    if (stopping_.load(std::memory_order_acquire)) {
      for (size_t i : solvable) {
        responses[i].status = ServeStatus::kShutdown;
        stats_.OnQueryCancelled();
      }
    } else if (draining_.load(std::memory_order_acquire)) {
      // Drain mode: in-flight work finishes, new work is turned away
      // with an explicitly retryable status.
      for (size_t i : solvable) {
        responses[i].status = ServeStatus::kRejectedDraining;
      }
      stats_.OnQueriesRejectedDraining(solvable.size());
    } else if (deadline != nullptr &&
               std::chrono::steady_clock::now() >= *deadline) {
      // Expired on arrival (or while decoding): answering without
      // solving IS the deadline contract.
      for (size_t i : solvable) {
        responses[i].status = ServeStatus::kDeadlineExceeded;
        stats_.OnQueryDeadlineExceeded();
      }
    } else if (!TryAdmitQueries(solvable.size())) {
      for (size_t i : solvable) {
        responses[i].status = ServeStatus::kRejectedOverload;
      }
      stats_.OnQueriesRejectedOverload(solvable.size());
    } else {
      std::vector<ToprrQuery> admitted;
      admitted.reserve(solvable.size());
      for (size_t i : solvable) admitted.push_back(queries[i]);
      std::vector<ServeResponse> solved =
          SolveAdmitted(std::move(admitted), deadline);
      ReleaseQueries(solvable.size());
      for (size_t j = 0; j < solvable.size(); ++j) {
        responses[solvable[j]] = std::move(solved[j]);
      }
    }
  }

  // Responses that never reached a solve (malformed, rejected, shutdown)
  // carry the engine's current version stamp, so every response on a
  // connection participates in the monotone snapshot_seq stream. A solve
  // pinned before a concurrent publish may stamp an older seq than a
  // rejection stamped here after it -- still monotone across frames,
  // which is the contract.
  const SnapshotPtr snap = engine_.snapshot();
  for (ServeResponse& response : responses) {
    if (response.snapshot_id == 0) {
      response.snapshot_id = snap->id();
      response.snapshot_seq = snap->seq();
    }
  }

  std::string reply = EncodeResponseBatch(responses);
  if (reply.size() > kMaxFramePayloadBytes) {
    // The client's ReadFrame would reject this as oversized and tear
    // the connection down, discarding solved work. Degrade instead:
    // drop the vertex geometry first (the halfspace description stays
    // exact), then the payloads entirely (stats survive).
    for (ServeResponse& response : responses) {
      if (!response.vertices.empty()) {
        response.vertices.clear();
        response.geometry_skipped = true;
      }
    }
    reply = EncodeResponseBatch(responses);
    if (reply.size() > kMaxFramePayloadBytes) {
      for (ServeResponse& response : responses) {
        response.impact_halfspaces.clear();
        if (response.status == ServeStatus::kOk) {
          response.status = ServeStatus::kInternalError;
        }
      }
      reply = EncodeResponseBatch(responses);
    }
  }
  return reply;
}

MutationAck ToprrServer::StampAck(MutationStatus status,
                                  const MutationSession& session,
                                  std::string message) {
  MutationAck ack;
  ack.status = status;
  const SnapshotPtr snap = engine_.snapshot();
  ack.snapshot_id = snap->id();
  ack.snapshot_seq = snap->seq();
  ack.live_rows = snap->live_rows();
  ack.physical_rows = snap->rows();
  ack.staged_inserts = static_cast<uint32_t>(session.rows.size());
  ack.staged_deletes = static_cast<uint32_t>(session.deletes.size());
  ack.message = std::move(message);
  return ack;
}

MutationAck ToprrServer::HandleStageInsert(MutationSession* session,
                                           std::vector<Vec> rows) {
  // Validate the whole frame before staging any of it: admission is
  // all-or-nothing, so a rejected frame leaves the session untouched.
  const size_t dim = engine_.dataset_dim();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].dim() != dim) {
      stats_.OnMutationsRejected(rows.size());
      return StampAck(MutationStatus::kInvalidArgument, *session,
                      "row " + std::to_string(i) + " has dimension " +
                          std::to_string(rows[i].dim()) + ", dataset is " +
                          std::to_string(dim));
    }
    for (const double value : rows[i]) {
      if (!std::isfinite(value)) {
        stats_.OnMutationsRejected(rows.size());
        return StampAck(MutationStatus::kInvalidArgument, *session,
                        "row " + std::to_string(i) +
                            " has a non-finite coordinate");
      }
    }
  }
  if (session->size() + rows.size() > config_.max_staged_mutations) {
    stats_.OnMutationsRejected(rows.size());
    return StampAck(MutationStatus::kLimitExceeded, *session,
                    "staged-delta bound is " +
                        std::to_string(config_.max_staged_mutations));
  }
  session->rows.insert(session->rows.end(),
                       std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
  stats_.OnMutationsStaged(rows.size());
  return StampAck(MutationStatus::kOk, *session);
}

MutationAck ToprrServer::HandleStageDelete(MutationSession* session,
                                           std::vector<uint64_t> row_ids) {
  // Validated against the currently served snapshot; a row that dies
  // between staging and Publish is caught again there (kConflict).
  const SnapshotPtr snap = engine_.snapshot();
  std::unordered_set<uint64_t> seen(session->deletes.begin(),
                                    session->deletes.end());
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const uint64_t id = row_ids[i];
    if (id >= snap->rows() || !snap->IsLive(id)) {
      stats_.OnMutationsRejected(row_ids.size());
      return StampAck(MutationStatus::kInvalidArgument, *session,
                      "row id " + std::to_string(id) +
                          " is unknown or not live");
    }
    if (!seen.insert(id).second) {
      stats_.OnMutationsRejected(row_ids.size());
      return StampAck(MutationStatus::kInvalidArgument, *session,
                      "row id " + std::to_string(id) +
                          " staged for deletion twice");
    }
  }
  if (session->size() + row_ids.size() > config_.max_staged_mutations) {
    stats_.OnMutationsRejected(row_ids.size());
    return StampAck(MutationStatus::kLimitExceeded, *session,
                    "staged-delta bound is " +
                        std::to_string(config_.max_staged_mutations));
  }
  session->deletes.insert(session->deletes.end(), row_ids.begin(),
                          row_ids.end());
  stats_.OnMutationsStaged(row_ids.size());
  return StampAck(MutationStatus::kOk, *session);
}

MutationAck ToprrServer::HandlePublish(MutationSession* session,
                                       uint64_t idempotency_token,
                                       uint64_t publish_id, bool probe) {
  if (stopping_.load(std::memory_order_acquire) ||
      draining_.load(std::memory_order_acquire)) {
    stats_.OnPublishRejected();
    return StampAck(MutationStatus::kShutdown, *session,
                    draining_.load(std::memory_order_acquire)
                        ? "server draining"
                        : "server shutting down");
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  // Set when (token, id) was applied before: the ack then reports the
  // snapshot that publish produced, flagged already_applied.
  std::optional<AppliedPublishRecord> replayed;
  if (probe) {
    // Read-only query of the idempotency table: did (token, id) land?
    // Nothing is published and the session's staged delta is left
    // untouched, so a reconnecting writer can probe before deciding
    // whether to re-stage (the decoder guarantees a non-zero token).
    replayed = catalog_->LookupPublish(idempotency_token, publish_id);
  } else {
    // A retried Publish whose original ack was lost arrives with the
    // same (token, publish_id), usually after the client re-staged its
    // delta on a fresh connection; the catalog answers it already
    // applied. An empty delta is a no-op acking the served version.
    const DurableCatalog::PublishOutcome outcome = catalog_->Publish(
        session->rows, session->deletes, idempotency_token, publish_id);
    switch (outcome.status) {
      case DurableCatalog::PublishStatus::kConflict:
        // Another connection's publish tombstoned a row since it was
        // staged here. Nothing was applied.
        stats_.OnPublishRejected();
        return StampAck(MutationStatus::kConflict, *session,
                        outcome.error + "; delta kept staged");
      case DurableCatalog::PublishStatus::kFailed:
        // Nothing was applied (a failed WAL append rolls the staged
        // delta back); the session keeps its copy for amendment/retry.
        stats_.OnPublishRejected();
        LOG(ERROR) << "durable publish failed: " << outcome.error;
        return StampAck(MutationStatus::kInternalError, *session,
                        "durable publish failed: " + outcome.error);
      case DurableCatalog::PublishStatus::kAlreadyApplied:
        stats_.OnPublishDeduped();
        replayed = outcome.applied;
        break;
      case DurableCatalog::PublishStatus::kApplied:
        if (session->size() == 0) break;
        engine_.SetSnapshot(outcome.snapshot);
        stats_.OnPublishApplied();
        MirrorDurableCounters();
        break;
    }
    session->rows.clear();
    session->deletes.clear();
  }
  MutationAck ack = StampAck(MutationStatus::kOk, *session);
  ack.idempotency_token = idempotency_token;
  ack.publish_id = publish_id;
  if (replayed.has_value()) {
    ack.snapshot_id = replayed->snapshot_id;
    ack.snapshot_seq = replayed->snapshot_seq;
    ack.live_rows = replayed->live_rows;
    ack.physical_rows = replayed->physical_rows;
    ack.already_applied = true;
  }
  return ack;
}

void ToprrServer::ServeConnection(int fd) {
  FdStream stream(fd);
  std::string payload;
  MutationSession session;

  // Slowloris defense: between frames the (long) idle timeout applies;
  // the moment a peer commits to a frame — first prefix byte — the
  // watcher switches the socket to the (short) header-read timeout, so
  // a trickling peer cannot pin this thread. Restored per frame below.
  struct HeaderTimeoutSwitcher : FrameWatcher {
    FdStream* stream = nullptr;
    int header_timeout_ms = 0;
    void OnFrameStart() override {
      if (header_timeout_ms > 0) stream->SetReadTimeoutMs(header_timeout_ms);
    }
  };
  HeaderTimeoutSwitcher switcher;
  switcher.stream = &stream;
  switcher.header_timeout_ms = config_.header_read_timeout_ms;
  const bool use_read_timeouts =
      config_.idle_timeout_ms > 0 || config_.header_read_timeout_ms > 0;
  if (config_.write_timeout_ms > 0) {
    stream.SetWriteTimeoutMs(config_.write_timeout_ms);
  }

  while (!stopping_.load(std::memory_order_acquire)) {
    if (use_read_timeouts) {
      stream.SetReadTimeoutMs(config_.idle_timeout_ms > 0
                                  ? config_.idle_timeout_ms
                                  : config_.header_read_timeout_ms);
    }
    bool frame_started = false;
    const FrameReadStatus read_status =
        ReadFrame(stream, &payload, kMaxFramePayloadBytes,
                  use_read_timeouts ? &switcher : nullptr, &frame_started);
    if (read_status == FrameReadStatus::kEof) return;  // clean close
    if (read_status == FrameReadStatus::kTimeout) {
      if (!stopping_.load(std::memory_order_acquire)) {
        if (frame_started) {
          stats_.OnReadTimeout();
          LOG(WARNING) << "connection dropped: stalled mid-frame";
        } else {
          stats_.OnIdleTimeout();
          LOG(WARNING) << "connection dropped: idle timeout";
        }
      }
      return;
    }
    if (read_status != FrameReadStatus::kOk) {
      // Oversized/truncated/io-error: the stream is out of sync (or
      // gone); count it and drop the connection. A response cannot be
      // trusted to line up with a request anymore.
      if (!stopping_.load(std::memory_order_acquire)) {
        stats_.OnProtocolError();
        LOG(WARNING) << "connection dropped: frame "
                     << FrameReadStatusName(read_status);
      }
      return;
    }
    stats_.OnFrameReceived(payload.size() + 4);

    // Dispatch on the version-invariant header. Bad magic or a short
    // payload keeps the connection (framing is still in sync); a foreign
    // protocol version gets the frozen rejection frame and a close --
    // nothing else we send would parse on the peer's side.
    FrameHeader header;
    bool close_connection = false;
    std::string reply;
    std::string decode_error;
    if (!PeekHeader(payload, &header) || header.magic != kProtocolMagic) {
      stats_.OnProtocolError();
      LOG(WARNING) << "malformed frame: bad or short header";
      reply = MalformedMarkerReply();
    } else if (header.version != kProtocolVersion) {
      stats_.OnVersionMismatch();
      stats_.OnProtocolError();
      LOG(WARNING) << "closing connection: peer spoke protocol v"
                   << static_cast<int>(header.version)
                   << ", this server is v"
                   << static_cast<int>(kProtocolVersion);
      reply = EncodeVersionMismatch(kProtocolVersion, kMinProtocolVersion);
      close_connection = true;
    } else {
      switch (static_cast<MessageType>(header.type)) {
        case MessageType::kQueryBatch:
          reply = HandleQueryBatch(payload);
          break;
        case MessageType::kHello: {
          if (!DecodeHello(payload, &decode_error)) {
            stats_.OnProtocolError();
            LOG(WARNING) << "malformed hello: " << decode_error;
            reply = MalformedMarkerReply();
            break;
          }
          const SnapshotPtr snap = engine_.snapshot();
          ServerHello hello;
          hello.max_frame_payload_bytes = kMaxFramePayloadBytes;
          hello.max_inflight_queries =
              static_cast<uint32_t>(config_.max_inflight_queries);
          hello.max_staged_mutations =
              static_cast<uint32_t>(config_.max_staged_mutations);
          hello.snapshot_id = snap->id();
          hello.snapshot_seq = snap->seq();
          hello.live_rows = snap->live_rows();
          hello.physical_rows = snap->rows();
          hello.dim = static_cast<uint32_t>(snap->dim());
          reply = EncodeServerHello(hello);
          break;
        }
        case MessageType::kStageInsert: {
          std::vector<Vec> rows;
          if (!DecodeStageInsert(payload, &rows, &decode_error)) {
            stats_.OnProtocolError();
            reply = EncodeMutationAck(
                StampAck(MutationStatus::kInvalidArgument, session,
                         decode_error));
            break;
          }
          reply = EncodeMutationAck(
              HandleStageInsert(&session, std::move(rows)));
          break;
        }
        case MessageType::kStageDelete: {
          std::vector<uint64_t> row_ids;
          if (!DecodeStageDelete(payload, &row_ids, &decode_error)) {
            stats_.OnProtocolError();
            reply = EncodeMutationAck(
                StampAck(MutationStatus::kInvalidArgument, session,
                         decode_error));
            break;
          }
          reply = EncodeMutationAck(
              HandleStageDelete(&session, std::move(row_ids)));
          break;
        }
        case MessageType::kPublish: {
          uint64_t token = 0;
          uint64_t publish_id = 0;
          bool probe = false;
          if (!DecodePublish(payload, &token, &publish_id, &probe,
                             &decode_error)) {
            stats_.OnProtocolError();
            reply = EncodeMutationAck(
                StampAck(MutationStatus::kInvalidArgument, session,
                         decode_error));
            break;
          }
          reply = EncodeMutationAck(
              HandlePublish(&session, token, publish_id, probe));
          break;
        }
        case MessageType::kCatalogInfo: {
          if (!DecodeCatalogInfo(payload, &decode_error)) {
            stats_.OnProtocolError();
            reply = EncodeMutationAck(
                StampAck(MutationStatus::kInvalidArgument, session,
                         decode_error));
            break;
          }
          MutationAck info = StampAck(MutationStatus::kOk, session);
          if (!catalog_->in_memory()) {
            // Durability one-liner for human correlation with client
            // logs (capped on the wire alongside error messages).
            const DurableCounters counters = catalog_->counters();
            const RecoveryStats& recovery = catalog_->recovery();
            info.message = "durable wal_appends=" +
                           std::to_string(counters.wal_appends) +
                           " checkpoints=" +
                           std::to_string(counters.checkpoints_written) +
                           " recovered=" + (recovery.recovered ? "1" : "0") +
                           " replayed=" +
                           std::to_string(recovery.replayed_records);
          }
          reply = EncodeMutationAck(info);
          break;
        }
        default:
          // A v3 frame of a kind the server never accepts (a response
          // kind, or from a future minor). Stream is in sync: marker,
          // keep the connection.
          stats_.OnProtocolError();
          LOG(WARNING) << "unexpected message type "
                       << static_cast<int>(header.type);
          reply = MalformedMarkerReply();
          break;
      }
    }

    if (!WriteFrame(stream, reply)) {
      if (!stopping_.load(std::memory_order_acquire)) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          stats_.OnWriteTimeout();
          LOG(WARNING) << "connection dropped: reply write timed out";
        } else {
          stats_.OnProtocolError();
          LOG(WARNING) << LogErrno("reply write failed");
        }
      }
      return;
    }
    stats_.OnBytesSent(reply.size() + 4);
    if (close_connection) return;
  }
}

}  // namespace serve
}  // namespace toprr
