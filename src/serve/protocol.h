// Message layer of the serving protocol: binary serialization of
// ToprrQuery batches, their responses, and (since v3) the catalog
// mutation RPCs.
//
// Every frame payload starts with a fixed header (magic, protocol
// version, message type); the framing layer (serve/framing.h) only moves
// opaque payloads, so all protocol validation lives here. Scalars are
// little-endian via serve/wire.h and doubles round-trip bit-exactly,
// which the serve-labeled protocol tests verify field by field.
//
// A query carries the full ToprrQuery: k, the convex preference region
// (vertices + facets, so general polytopes survive the wire, not just
// boxes), and the solver options. A response carries a per-query status
// -- admission control and budget expiry are explicit statuses, never
// silence -- plus, for accepted queries, the region constraints and a
// compact stats block including the scheduler telemetry totals.
//
// v3 adds the mutation RPCs (StageInsert / StageDelete / Publish /
// CatalogInfo, each answered by a MutationAck), a Hello/ServerHello
// handshake through which the server advertises its version and limits,
// and the snapshot stamp (content id + monotone publish sequence) on
// every query response. The read-your-writes contract: a Publish ack
// carries the new snapshot_seq S, and every response the server sends
// afterwards -- on any connection -- carries snapshot_seq >= S.
#ifndef TOPRR_SERVE_PROTOCOL_H_
#define TOPRR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/toprr.h"
#include "geom/hyperplane.h"
#include "geom/vec.h"

namespace toprr {
namespace serve {

/// First bytes of every payload: "TPRR" read as a little-endian u32.
constexpr uint32_t kProtocolMagic = 0x52525054;
/// v3 added the mutation RPC message kinds, the Hello/ServerHello
/// handshake, and the snapshot stamp (id + seq) trailing every query
/// response's stats block. The format is not self-describing, so the
/// bump is breaking by design: a v2 client would misparse the longer
/// response. Version-mismatched peers are answered with the frozen
/// kVersionMismatch frame (below) instead of a garbage-frame drop.
constexpr uint8_t kProtocolVersion = 3;
/// Oldest version this server generation can still name in a mismatch
/// reply (purely informational; only kProtocolVersion is spoken).
constexpr uint8_t kMinProtocolVersion = 3;

/// Hard ceiling on a frame payload; ReadFrame rejects bigger length
/// prefixes before buffering anything (oversized-frame protection).
constexpr size_t kMaxFramePayloadBytes = size_t{64} << 20;

enum class MessageType : uint8_t {
  kQueryBatch = 1,
  kResponseBatch = 2,
  /// v3 handshake: client opens with kHello, server answers kServerHello
  /// advertising its version and limits. Optional -- a v3 client may
  /// send queries without it -- but the only way to learn the limits.
  kHello = 3,
  kServerHello = 4,
  /// v3 mutation RPCs. Staging is per connection; Publish applies the
  /// connection's staged delta atomically. Each is answered by one
  /// kMutationAck.
  kStageInsert = 5,
  kStageDelete = 6,
  kPublish = 7,
  kCatalogInfo = 8,
  kMutationAck = 9,
  /// FROZEN across all protocol versions: the reply a server sends when
  /// the peer's version byte does not match. Layout (magic u32, version
  /// u8 = the server's version, type u8 = 255, min_version u8) must
  /// never change, so any client generation can decode the rejection.
  kVersionMismatch = 255,
};

/// Per-query outcome carried in every response. Values are wire-stable;
/// append only.
enum class ServeStatus : uint8_t {
  kOk = 0,
  /// Admission control: the server's in-flight budget could not fit the
  /// batch. Explicit backpressure -- the client should retry later.
  kRejectedOverload = 1,
  /// The per-query time budget (client-requested, server-clamped)
  /// expired before the solve finished.
  kBudgetExceeded = 2,
  /// The request failed to decode, or its k, dimensions or region are
  /// unsolvable (PrefRegion::WellFormed: finite values, a polytope in
  /// the preference simplex, facets consistent with their vertices).
  kMalformed = 3,
  /// The server is shutting down; in-flight work was cancelled.
  kShutdown = 4,
  kInternalError = 5,
  /// The batch's deadline (client-requested, server-clamped by
  /// ServerConfig::max_deadline_ms) expired before the solve finished.
  /// Unlike kBudgetExceeded this is an end-to-end wall-clock promise,
  /// counted from frame arrival: the scheduler polls the absolute
  /// deadline once per region and the solve stopped at or after it.
  kDeadlineExceeded = 6,
  /// The server is draining (Drain() was called): it finishes in-flight
  /// work but answers new queries with this status. Retryable against
  /// another replica -- or the same address after the restart completes.
  kRejectedDraining = 7,
};

const char* ServeStatusName(ServeStatus status);

/// Per-mutation-RPC outcome. Values are wire-stable; append only.
enum class MutationStatus : uint8_t {
  kOk = 0,
  /// A row/id in the request failed validation (dimension mismatch,
  /// non-finite value, unknown or dead row id). Nothing was staged.
  kInvalidArgument = 1,
  /// Staging the request would exceed the server's per-connection
  /// staged-delta bound (ServerConfig::max_staged_mutations). Nothing
  /// was staged; publish (or drop the connection) first.
  kLimitExceeded = 2,
  /// Publish only: a staged delete no longer names a live row (another
  /// writer's publish won). The whole delta was rejected -- it stays
  /// staged on the connection so the client can amend and retry.
  kConflict = 3,
  kShutdown = 4,
  kInternalError = 5,
};

const char* MutationStatusName(MutationStatus status);

/// How the cross-query region cache classified a query. Values are
/// wire-stable; append only.
enum class CacheLookup : uint8_t {
  kBypass = 0,   // cache disabled, or the query shape is not cacheable
  kMiss = 1,     // no containing entry: solved cold
  kHit = 2,      // served by clipping a cached superset
  kPartial = 3,  // not produced; reserved for wire compatibility
};

/// The parsed fixed header every payload opens with.
struct FrameHeader {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
};

/// Reads the 6-byte header without consuming the payload. Returns false
/// when the payload is shorter than a header. The header layout is
/// version-invariant, so this is how the server detects (and cleanly
/// rejects) frames from other protocol generations.
bool PeekHeader(const std::string& payload, FrameHeader* header);

/// Compact per-query solve statistics (a stable subset of ToprrStats
/// plus the scheduler telemetry totals).
struct ServeQueryStats {
  double total_seconds = 0.0;
  uint64_t candidates_after_filter = 0;
  uint64_t regions_tested = 0;
  uint64_t vall_unique = 0;
  uint64_t tasks_executed = 0;
  uint64_t tasks_stolen = 0;
  uint64_t steal_failures = 0;
  uint8_t cache_lookup = 0;  // a CacheLookup value
  uint64_t cache_tasks_saved = 0;
};

/// One query's response. Only kOk responses carry region payloads; every
/// response carries the stats block (zeroed when nothing ran) and the
/// snapshot stamp of the version it was answered against.
struct ServeResponse {
  ServeStatus status = ServeStatus::kInternalError;
  bool degenerate = false;
  bool geometry_skipped = false;
  std::vector<Halfspace> impact_halfspaces;
  std::vector<Vec> vertices;  // when the query asked for geometry
  ServeQueryStats stats;
  /// Content id of the snapshot this query was solved against (the
  /// engine's current version for non-solved statuses).
  uint64_t snapshot_id = 0;
  /// Monotone publish sequence of that snapshot. Per connection the
  /// server guarantees: every response in frame N+1 has snapshot_seq >=
  /// every response in frame N, and >= the seq of any publish this
  /// connection was acked before frame N+1 (read-your-writes).
  uint64_t snapshot_seq = 0;
};

/// The server side of the v3 handshake: version (in the header) plus
/// the limits a well-behaved client needs to stay under.
struct ServerHello {
  uint64_t max_frame_payload_bytes = 0;
  uint32_t max_inflight_queries = 0;
  /// Per-connection staged-delta bound (inserts + deletes).
  uint32_t max_staged_mutations = 0;
  uint64_t snapshot_id = 0;
  uint64_t snapshot_seq = 0;
  /// Live rows / physical rows / dimension of the served snapshot.
  uint64_t live_rows = 0;
  uint64_t physical_rows = 0;
  uint32_t dim = 0;
};

/// The answer to every mutation RPC. `snapshot_*` is the version the
/// server is serving after the RPC (for a successful Publish: the newly
/// published one -- already being served when the ack is sent).
struct MutationAck {
  MutationStatus status = MutationStatus::kInternalError;
  uint64_t snapshot_id = 0;
  uint64_t snapshot_seq = 0;
  uint64_t live_rows = 0;
  /// Physical rows of the served snapshot. A single writer can derive
  /// the ids its published inserts received: the previous physical row
  /// count counts up.
  uint64_t physical_rows = 0;
  /// This connection's staged-delta sizes after the RPC.
  uint32_t staged_inserts = 0;
  uint32_t staged_deletes = 0;
  /// Echo of the Publish request's idempotency token and publish id
  /// (both 0 when the request carried none). A retried Publish whose
  /// original ack was lost is answered from the server's applied-publish
  /// record with already_applied = true instead of being applied twice.
  uint64_t idempotency_token = 0;
  uint64_t publish_id = 0;
  bool already_applied = false;
  /// One-line diagnostic for non-kOk statuses (capped on the wire).
  std::string message;
};

/// Builds a response from a finished solve (status chosen from the
/// result's timed_out/cancelled flags; snapshot stamp copied through).
ServeResponse ResponseFromResult(const ToprrResult& result);

/// Serializes a query batch into a frame payload (header included).
/// `deadline_ms` > 0 appends the optional deadline extension block (a
/// flags word + the relative wall-clock deadline in milliseconds);
/// 0 emits a byte-identical payload to pre-deadline encoders, so old
/// clients are unaffected and old servers never see the block.
std::string EncodeQueryBatch(const std::vector<ToprrQuery>& queries,
                             uint64_t deadline_ms = 0);

/// Parses a query-batch payload. On failure returns false and leaves a
/// one-line reason in `error`; `queries` is cleared. `deadline_ms`
/// (when non-null) receives the extension block's deadline, or 0 when
/// the batch carries none.
bool DecodeQueryBatch(const std::string& payload,
                      std::vector<ToprrQuery>* queries, uint64_t* deadline_ms,
                      std::string* error);
bool DecodeQueryBatch(const std::string& payload,
                      std::vector<ToprrQuery>* queries, std::string* error);

/// Serializes a response batch into a frame payload (header included).
std::string EncodeResponseBatch(const std::vector<ServeResponse>& responses);

/// Parses a response-batch payload (same error contract as
/// DecodeQueryBatch).
bool DecodeResponseBatch(const std::string& payload,
                         std::vector<ServeResponse>* responses,
                         std::string* error);

/// Handshake frames.
std::string EncodeHello();
bool DecodeHello(const std::string& payload, std::string* error);
std::string EncodeServerHello(const ServerHello& hello);
bool DecodeServerHello(const std::string& payload, ServerHello* hello,
                       std::string* error);

/// Mutation RPC requests. StageDelete carries physical row ids.
std::string EncodeStageInsert(const std::vector<Vec>& rows);
bool DecodeStageInsert(const std::string& payload, std::vector<Vec>* rows,
                       std::string* error);
std::string EncodeStageDelete(const std::vector<uint64_t>& row_ids);
bool DecodeStageDelete(const std::string& payload,
                       std::vector<uint64_t>* row_ids, std::string* error);
/// Publish. A non-zero `idempotency_token` (with its per-token
/// `publish_id`) rides the previously-reserved flags word, so token-less
/// publishes stay byte-identical to older encoders. The server records
/// (token, publish_id) after applying and answers an exact retry with
/// the recorded ack (already_applied = true) instead of publishing the
/// re-staged delta twice.
///
/// `probe` = true asks only whether (token, publish_id) was already
/// applied -- the server answers from its applied-publish record
/// (already_applied = true, the recorded ack) or with a fresh-state ack
/// (already_applied = false) WITHOUT publishing or touching the staged
/// delta. A reconnecting writer probes before re-staging so a publish
/// that was applied-but-unacked before a crash is not replayed. A probe
/// requires a token; probe-without-token is a decode error.
std::string EncodePublish(uint64_t idempotency_token = 0,
                          uint64_t publish_id = 0, bool probe = false);
bool DecodePublish(const std::string& payload, uint64_t* idempotency_token,
                   uint64_t* publish_id, bool* probe, std::string* error);
bool DecodePublish(const std::string& payload, uint64_t* idempotency_token,
                   uint64_t* publish_id, std::string* error);
bool DecodePublish(const std::string& payload, std::string* error);
std::string EncodeCatalogInfo();
bool DecodeCatalogInfo(const std::string& payload, std::string* error);
std::string EncodeMutationAck(const MutationAck& ack);
bool DecodeMutationAck(const std::string& payload, MutationAck* ack,
                       std::string* error);

/// The frozen version-mismatch frame (layout documented at
/// kVersionMismatch). Decode accepts ANY version byte -- that is the
/// point -- and reports the server's advertised versions back.
std::string EncodeVersionMismatch(uint8_t server_version,
                                  uint8_t min_version);
bool DecodeVersionMismatch(const std::string& payload,
                           uint8_t* server_version, uint8_t* min_version);

}  // namespace serve
}  // namespace toprr

#endif  // TOPRR_SERVE_PROTOCOL_H_
