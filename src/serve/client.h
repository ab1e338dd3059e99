// ToprrClient: blocking TCP session client for the v3 serving protocol.
//
// One client owns one connection. Connect() performs the Hello /
// ServerHello handshake, so a connected client knows the server's limits
// (server()). The session surface is unified: Query / QueryBatch for
// solves, StageInsert / StageDelete / Publish / CatalogInfo for the
// mutation RPCs, and WaitForSnapshot as the read-your-writes helper (the
// bare pre-v3 SolveBatch name survives as a deprecated alias of
// QueryBatch). Drive parallel load with one client per thread (see
// examples/toprr_loadgen.cpp).
//
// All failures -- connect errors, a server-closed connection, short
// frames, undecodable replies -- surface as a false/empty return plus a
// one-line last_error() and a typed last_error_code(); the framing layer
// retries EINTR and partial transfers internally, so an error here is a
// real one. A server from another protocol generation answers with the
// frozen version-mismatch frame, which the client surfaces as
// ClientError::kVersionMismatch instead of a generic decode failure.
//
// Retry (opt-in via set_retry_policy): queries are read-only, so on a
// retryable failure the client transparently reconnects, re-handshakes,
// and re-sends -- with exponential backoff and decorrelated jitter,
// bounded by a retry budget. Mutations are made retry-safe by a
// client-side mirror of the staged delta (re-staged after a reconnect,
// since the server session died with the connection) plus an idempotency
// token on Publish: a retried Publish whose ack was lost is recognized
// by the server as already applied instead of being applied twice.
//
// Deadlines: QueryOptions::deadline_seconds rides the wire (the server
// arms its cooperative-cancel timer and answers kDeadlineExceeded) AND
// arms SO_RCVTIMEO/SO_SNDTIMEO on the socket with a little slack -- so
// even a dead or wedged server cannot hang the caller past the deadline;
// the local expiry surfaces as ClientError::kTimeout.
#ifndef TOPRR_SERVE_CLIENT_H_
#define TOPRR_SERVE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "geom/vec.h"
#include "serve/protocol.h"

namespace toprr {
namespace serve {

/// The typed failure category behind a false/empty client return.
enum class ClientError : uint8_t {
  kNone = 0,
  kNotConnected = 1,
  /// Socket-level failure, or the stream lost request/response
  /// alignment; the connection was closed.
  kTransport = 2,
  /// The reply did not decode under this client's protocol version.
  kProtocol = 3,
  /// The server speaks a different protocol generation and sent the
  /// frozen rejection frame (see last_error() for its versions).
  kVersionMismatch = 4,
  /// A locally armed deadline expired mid-RPC (SO_RCVTIMEO/SO_SNDTIMEO);
  /// the connection was closed -- a reply arriving later could not be
  /// matched to its request.
  kTimeout = 5,
};

const char* ClientErrorName(ClientError error);

/// Opt-in transparent retry. Attempts beyond the first reconnect (and
/// re-handshake) before re-sending; sleeps between attempts follow
/// exponential backoff with decorrelated jitter. The retry budget is a
/// token bucket shared by all RPCs on the client: each retry spends one
/// token, each success refunds a fraction -- so a hard-down server costs
/// a bounded number of retries instead of max_attempts per call forever.
struct RetryPolicy {
  /// Total attempts per RPC (1 = no retry, the default).
  int max_attempts = 1;
  double initial_backoff_ms = 10.0;
  double max_backoff_ms = 500.0;
  /// Token-bucket capacity (and starting balance) for retries across the
  /// client's lifetime; successes refund retry_refund tokens (capped).
  double retry_budget = 64.0;
  double retry_refund = 0.1;
};

/// Per-call query knobs.
struct QueryOptions {
  /// End-to-end deadline for the batch, in seconds (0 = none). Sent on
  /// the wire (server-side enforcement, clamped by the server's
  /// max_deadline_ms) and armed locally as a socket timeout with
  /// kDeadlineSocketSlackMs of grace for the reply to arrive.
  double deadline_seconds = 0.0;
};

/// Extra socket-timeout slack past the wire deadline, leaving the server
/// room to answer kDeadlineExceeded itself before the client hangs up.
constexpr int kDeadlineSocketSlackMs = 250;

class ToprrClient {
 public:
  ToprrClient();
  ToprrClient(const ToprrClient&) = delete;
  ToprrClient& operator=(const ToprrClient&) = delete;
  ~ToprrClient();

  /// Connects to host:port and runs the Hello/ServerHello handshake.
  /// Returns false (see last_error()/last_error_code()) on failure --
  /// including a clean typed kVersionMismatch when the server is from
  /// another protocol generation. Starts a fresh mutation session (any
  /// un-published client-side staged delta is discarded).
  bool Connect(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }

  /// The server's advertised limits and served snapshot, captured at
  /// handshake time. Zero-initialized until Connect() succeeds.
  const ServerHello& server() const { return server_; }

  /// Installs the retry policy for every subsequent RPC (and resets the
  /// retry-budget token bucket to the new capacity).
  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Lifetime telemetry: re-sent RPC attempts, and successful internal
  /// reconnect+re-handshake cycles (explicit Connect calls not counted).
  uint64_t retries() const { return retries_; }
  uint64_t reconnects() const { return reconnects_; }

  /// Sends one query and blocks for its response.
  std::optional<ServeResponse> Query(const ToprrQuery& query);
  std::optional<ServeResponse> Query(const ToprrQuery& query,
                                     const QueryOptions& options);

  /// Sends one query batch and blocks for the response batch. Returns
  /// std::nullopt on any transport or protocol failure (the connection
  /// is closed: request/response alignment cannot be trusted after an
  /// error -- though with a retry policy installed, retryable failures
  /// reconnect and re-send before giving up). A successful return is
  /// positionally aligned with `queries`.
  std::optional<std::vector<ServeResponse>> QueryBatch(
      const std::vector<ToprrQuery>& queries);
  std::optional<std::vector<ServeResponse>> QueryBatch(
      const std::vector<ToprrQuery>& queries, const QueryOptions& options);

  /// Mutation RPCs: stage rows/deletes into this connection's session on
  /// the server, publish the staged delta, or read the served snapshot
  /// (CatalogInfo also reports this session's staged sizes). Each blocks
  /// for its MutationAck; std::nullopt means transport/protocol failure
  /// (connection closed), while a returned ack with a non-kOk status is
  /// a server-side rejection on a healthy connection.
  ///
  /// Retry-safety: the client mirrors the staged delta. After an
  /// internal reconnect the server-side session is empty, so the mirror
  /// is re-staged before the failed RPC is re-sent -- and Publish
  /// carries a stable idempotency token plus a per-publish id, so a
  /// retried Publish whose ack was lost comes back already_applied
  /// instead of double-publishing the re-staged delta.
  std::optional<MutationAck> StageInsert(const std::vector<Vec>& rows);
  std::optional<MutationAck> StageDelete(
      const std::vector<uint64_t>& row_ids);
  std::optional<MutationAck> Publish();
  std::optional<MutationAck> CatalogInfo();

  /// Read-your-writes helper: polls CatalogInfo until the served
  /// snapshot's seq reaches `min_snapshot_seq` (typically a Publish
  /// ack's snapshot_seq) or `timeout_seconds` elapses. On this server a
  /// publish ack already implies visibility -- the engine serves the new
  /// snapshot before the ack -- so this exists for cross-connection
  /// ordering: wait here before reading a write acked to a different
  /// connection.
  bool WaitForSnapshot(uint64_t min_snapshot_seq,
                       double timeout_seconds = 5.0);

  void Close();

  const std::string& last_error() const { return last_error_; }
  ClientError last_error_code() const { return last_error_code_; }

 private:
  /// One request/reply exchange. On success leaves the reply payload in
  /// `payload`; on failure sets the typed error (detecting the frozen
  /// version-mismatch frame) and closes the connection.
  bool RoundTrip(const std::string& request, std::string* payload);

  /// Shared body of the four mutation RPCs (single attempt, no retry).
  std::optional<MutationAck> MutationRoundTrip(const std::string& request);

  /// Socket-level connect + handshake against the remembered host/port.
  /// Does NOT touch the staged-delta mirror.
  bool ConnectInternal();

  /// True when the policy allows another attempt for this error class
  /// and the token bucket still has a retry in it (spends the token).
  bool ConsumeRetry(ClientError error);

  /// Decorrelated-jitter sleep; `remaining_ms` (when >= 0) caps the
  /// sleep so a deadline is never overshot.
  void Backoff(double remaining_ms);
  void ResetBackoff() { prev_backoff_ms_ = 0.0; }

  /// Reconnect + re-handshake + re-stage the mutation mirror. Counts a
  /// reconnect on success.
  bool ReconnectAndRestore();

  /// Arms (deadline_ms > 0) or disarms both socket timeouts.
  void ArmSocketDeadline(uint64_t deadline_ms);

  void RefundRetryToken();

  /// Records the error and returns false (every failure path closes).
  bool Fail(ClientError code, std::string message);

  int fd_ = -1;
  ServerHello server_{};
  std::string last_error_;
  ClientError last_error_code_ = ClientError::kNone;

  std::string host_;
  int port_ = 0;
  bool ever_connected_ = false;

  RetryPolicy retry_policy_;
  double retry_tokens_ = 0.0;
  double prev_backoff_ms_ = 0.0;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
  std::mt19937_64 rng_;

  /// Client-side mirror of the server session's staged delta, plus the
  /// idempotency identity of the next Publish.
  std::vector<Vec> staged_rows_;
  std::vector<uint64_t> staged_deletes_;
  uint64_t mutation_token_ = 0;
  uint64_t next_publish_id_ = 1;
};

}  // namespace serve
}  // namespace toprr

#endif  // TOPRR_SERVE_CLIENT_H_
