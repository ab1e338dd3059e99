#include "serve/protocol.h"

#include <utility>

#include "pref/region.h"
#include "serve/wire.h"

namespace toprr {
namespace serve {
namespace {

// ToprrOptions booleans packed into one byte.
constexpr uint8_t kFlagLemma5 = 1u << 0;
constexpr uint8_t kFlagLemma7 = 1u << 1;
constexpr uint8_t kFlagKswitch = 1u << 2;
constexpr uint8_t kFlagRskybandFilter = 1u << 3;
constexpr uint8_t kFlagBuildGeometry = 1u << 4;
constexpr uint8_t kFlagSchedulerStats = 1u << 5;

// ServeResponse booleans.
constexpr uint8_t kFlagDegenerate = 1u << 0;
constexpr uint8_t kFlagGeometrySkipped = 1u << 1;

// Minimum encoded sizes, used to validate decoded element counts before
// resize() allocates count * sizeof(in-memory struct): the bound must
// reflect what the wire actually requires per element, or a small frame
// claiming a huge count could force a multi-GB allocation.
// Query: k + method + flags + eps + budget + max_regions + dim_limit +
// halfspace_limit + num_threads + empty region (two u32 counts).
constexpr size_t kMinQueryBytes =
    4 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4;
// Response: status + flags + stats block (f64 + 6 u64 counters + cache
// lookup byte + cache u64) + snapshot stamp (id + seq u64) + two u32
// counts.
constexpr size_t kMinResponseBytes =
    1 + 1 + 8 + 6 * 8 + 1 + 8 + 2 * 8 + 4 + 4;

// Longest MutationAck diagnostic accepted off the wire; a hostile frame
// must not make the server/client buffer an arbitrary string.
constexpr uint32_t kMaxAckMessageBytes = 256;

// Query-batch extension-block flags (the optional trailing block after
// the last query). Unknown bits are a decode error: the block is only
// emitted by encoders that know about it, so garbage here means a
// desynced or corrupt frame, not a future peer.
constexpr uint32_t kBatchFlagDeadline = 1u << 0;
constexpr uint32_t kBatchFlagsKnown = kBatchFlagDeadline;

// Publish reserved-word flags. A probe asks "was (token, publish_id)
// already applied?" without publishing anything, so a reconnecting
// writer can learn whether its unacked publish landed before a crash.
constexpr uint32_t kPublishFlagIdempotency = 1u << 0;
constexpr uint32_t kPublishFlagProbe = 1u << 1;
constexpr uint32_t kPublishFlagsKnown =
    kPublishFlagIdempotency | kPublishFlagProbe;

// MutationAck flags byte.
constexpr uint8_t kAckFlagAlreadyApplied = 1u << 0;

void WriteHeader(WireWriter& writer, MessageType type) {
  writer.U32(kProtocolMagic);
  writer.U8(kProtocolVersion);
  writer.U8(static_cast<uint8_t>(type));
}

bool FailDecode(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

// Validates magic/version and that the payload is of the wanted type.
bool ReadHeader(WireReader& reader, MessageType wanted, std::string* error) {
  uint32_t magic;
  uint8_t version;
  uint8_t type;
  if (!reader.U32(&magic) || !reader.U8(&version) || !reader.U8(&type)) {
    return FailDecode(error, "payload shorter than the protocol header");
  }
  if (magic != kProtocolMagic) {
    return FailDecode(error, "bad magic (not a toprr frame)");
  }
  if (version != kProtocolVersion) {
    return FailDecode(error, "unsupported protocol version " +
                                 std::to_string(version));
  }
  if (type != static_cast<uint8_t>(wanted)) {
    return FailDecode(error,
                      "unexpected message type " + std::to_string(type));
  }
  return true;
}

void WriteRegion(WireWriter& writer, const PrefRegion& region) {
  writer.U32(static_cast<uint32_t>(region.vertices().size()));
  for (const Vec& v : region.vertices()) writer.VecField(v);
  writer.U32(static_cast<uint32_t>(region.facets().size()));
  for (const RegionFacet& facet : region.facets()) {
    writer.VecField(facet.halfspace.normal);
    writer.F64(facet.halfspace.offset);
    writer.U32(static_cast<uint32_t>(facet.vertex_ids.size()));
    for (int id : facet.vertex_ids) writer.I32(id);
  }
}

bool ReadRegion(WireReader& reader, PrefRegion* region) {
  uint32_t vertex_count;
  if (!reader.U32(&vertex_count)) return false;
  // Count bounds use the smallest *meaningful* element (dimension >= 1):
  // a vertex is a dim prefix + one coordinate, a facet a 1-d normal +
  // offset + id count. Zero-dimensional elements are semantically
  // invalid anyway, and the tighter bound keeps resize(count) within a
  // small constant of the frame size.
  if (!reader.CheckCount(vertex_count, sizeof(uint32_t) + sizeof(double))) {
    return false;
  }
  std::vector<Vec> vertices(vertex_count);
  for (Vec& v : vertices) {
    if (!reader.VecField(&v)) return false;
  }
  uint32_t facet_count;
  if (!reader.U32(&facet_count)) return false;
  if (!reader.CheckCount(facet_count, 2 * sizeof(uint32_t) +
                                          2 * sizeof(double))) {
    return false;
  }
  std::vector<RegionFacet> facets(facet_count);
  for (RegionFacet& facet : facets) {
    if (!reader.VecField(&facet.halfspace.normal)) return false;
    if (!reader.F64(&facet.halfspace.offset)) return false;
    uint32_t id_count;
    if (!reader.U32(&id_count)) return false;
    if (!reader.CheckCount(id_count, sizeof(int32_t))) return false;
    facet.vertex_ids.resize(id_count);
    for (uint32_t i = 0; i < id_count; ++i) {
      int32_t id;
      if (!reader.I32(&id)) return false;
      facet.vertex_ids[i] = id;
    }
  }
  *region =
      PrefRegion::FromVerticesAndFacets(std::move(vertices), std::move(facets));
  return true;
}

void WriteQuery(WireWriter& writer, const ToprrQuery& query) {
  const ToprrOptions& options = query.options;
  writer.I32(query.k);
  writer.U8(static_cast<uint8_t>(options.method));
  uint8_t flags = 0;
  if (options.use_lemma5) flags |= kFlagLemma5;
  if (options.use_lemma7) flags |= kFlagLemma7;
  if (options.use_kswitch) flags |= kFlagKswitch;
  if (options.use_rskyband_filter) flags |= kFlagRskybandFilter;
  if (options.build_geometry) flags |= kFlagBuildGeometry;
  if (options.collect_scheduler_stats) flags |= kFlagSchedulerStats;
  writer.U8(flags);
  writer.F64(options.eps);
  writer.F64(options.time_budget_seconds);
  writer.U64(options.max_regions);
  writer.U64(options.geometry_dim_limit);
  writer.U64(options.geometry_halfspace_limit);
  writer.I32(options.num_threads);
  WriteRegion(writer, query.region);
}

bool ReadQuery(WireReader& reader, ToprrQuery* query) {
  uint8_t method;
  uint8_t flags;
  uint64_t max_regions;
  uint64_t dim_limit;
  uint64_t halfspace_limit;
  if (!reader.I32(&query->k) || !reader.U8(&method) || !reader.U8(&flags) ||
      !reader.F64(&query->options.eps) ||
      !reader.F64(&query->options.time_budget_seconds) ||
      !reader.U64(&max_regions) || !reader.U64(&dim_limit) ||
      !reader.U64(&halfspace_limit) ||
      !reader.I32(&query->options.num_threads)) {
    return false;
  }
  if (method > static_cast<uint8_t>(ToprrMethod::kTasStar)) return false;
  query->options.method = static_cast<ToprrMethod>(method);
  query->options.use_lemma5 = (flags & kFlagLemma5) != 0;
  query->options.use_lemma7 = (flags & kFlagLemma7) != 0;
  query->options.use_kswitch = (flags & kFlagKswitch) != 0;
  query->options.use_rskyband_filter = (flags & kFlagRskybandFilter) != 0;
  query->options.build_geometry = (flags & kFlagBuildGeometry) != 0;
  query->options.collect_scheduler_stats = (flags & kFlagSchedulerStats) != 0;
  query->options.max_regions = static_cast<size_t>(max_regions);
  query->options.geometry_dim_limit = static_cast<size_t>(dim_limit);
  query->options.geometry_halfspace_limit =
      static_cast<size_t>(halfspace_limit);
  return ReadRegion(reader, &query->region);
}

void WriteResponse(WireWriter& writer, const ServeResponse& response) {
  writer.U8(static_cast<uint8_t>(response.status));
  uint8_t flags = 0;
  if (response.degenerate) flags |= kFlagDegenerate;
  if (response.geometry_skipped) flags |= kFlagGeometrySkipped;
  writer.U8(flags);
  writer.F64(response.stats.total_seconds);
  writer.U64(response.stats.candidates_after_filter);
  writer.U64(response.stats.regions_tested);
  writer.U64(response.stats.vall_unique);
  writer.U64(response.stats.tasks_executed);
  writer.U64(response.stats.tasks_stolen);
  writer.U64(response.stats.steal_failures);
  writer.U8(response.stats.cache_lookup);
  writer.U64(response.stats.cache_tasks_saved);
  writer.U64(response.snapshot_id);
  writer.U64(response.snapshot_seq);
  writer.U32(static_cast<uint32_t>(response.impact_halfspaces.size()));
  for (const Halfspace& hs : response.impact_halfspaces) {
    writer.VecField(hs.normal);
    writer.F64(hs.offset);
  }
  writer.U32(static_cast<uint32_t>(response.vertices.size()));
  for (const Vec& v : response.vertices) writer.VecField(v);
}

bool ReadResponse(WireReader& reader, ServeResponse* response) {
  uint8_t status;
  uint8_t flags;
  if (!reader.U8(&status) || !reader.U8(&flags) ||
      !reader.F64(&response->stats.total_seconds) ||
      !reader.U64(&response->stats.candidates_after_filter) ||
      !reader.U64(&response->stats.regions_tested) ||
      !reader.U64(&response->stats.vall_unique) ||
      !reader.U64(&response->stats.tasks_executed) ||
      !reader.U64(&response->stats.tasks_stolen) ||
      !reader.U64(&response->stats.steal_failures) ||
      !reader.U8(&response->stats.cache_lookup) ||
      !reader.U64(&response->stats.cache_tasks_saved) ||
      !reader.U64(&response->snapshot_id) ||
      !reader.U64(&response->snapshot_seq)) {
    return false;
  }
  if (status > static_cast<uint8_t>(ServeStatus::kRejectedDraining)) {
    return false;
  }
  if (response->stats.cache_lookup >
      static_cast<uint8_t>(CacheLookup::kPartial)) {
    return false;
  }
  response->status = static_cast<ServeStatus>(status);
  response->degenerate = (flags & kFlagDegenerate) != 0;
  response->geometry_skipped = (flags & kFlagGeometrySkipped) != 0;
  uint32_t halfspace_count;
  if (!reader.U32(&halfspace_count)) return false;
  // Smallest meaningful halfspace: 1-d normal + offset.
  if (!reader.CheckCount(halfspace_count,
                         sizeof(uint32_t) + 2 * sizeof(double))) {
    return false;
  }
  response->impact_halfspaces.resize(halfspace_count);
  for (Halfspace& hs : response->impact_halfspaces) {
    if (!reader.VecField(&hs.normal) || !reader.F64(&hs.offset)) return false;
  }
  uint32_t vertex_count;
  if (!reader.U32(&vertex_count)) return false;
  if (!reader.CheckCount(vertex_count, sizeof(uint32_t) + sizeof(double))) {
    return false;
  }
  response->vertices.resize(vertex_count);
  for (Vec& v : response->vertices) {
    if (!reader.VecField(&v)) return false;
  }
  return true;
}

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "OK";
    case ServeStatus::kRejectedOverload:
      return "REJECTED_OVERLOAD";
    case ServeStatus::kBudgetExceeded:
      return "BUDGET_EXCEEDED";
    case ServeStatus::kMalformed:
      return "MALFORMED";
    case ServeStatus::kShutdown:
      return "SHUTDOWN";
    case ServeStatus::kInternalError:
      return "INTERNAL_ERROR";
    case ServeStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ServeStatus::kRejectedDraining:
      return "REJECTED_DRAINING";
  }
  return "UNKNOWN";
}

ServeResponse ResponseFromResult(const ToprrResult& result) {
  ServeResponse response;
  if (result.cancelled) {
    response.status = ServeStatus::kShutdown;
  } else if (result.timed_out) {
    response.status = ServeStatus::kBudgetExceeded;
  } else {
    response.status = ServeStatus::kOk;
    response.degenerate = result.degenerate;
    response.geometry_skipped = result.geometry_skipped;
    response.impact_halfspaces = result.impact_halfspaces;
    response.vertices = result.vertices;
  }
  response.stats.total_seconds = result.stats.total_seconds;
  response.stats.candidates_after_filter =
      result.stats.candidates_after_filter;
  response.stats.regions_tested = result.stats.regions_tested;
  response.stats.vall_unique = result.stats.vall_unique;
  response.stats.tasks_executed = result.stats.scheduler.TotalExecuted();
  response.stats.tasks_stolen = result.stats.scheduler.TotalStolen();
  response.stats.steal_failures = result.stats.scheduler.TotalStealFailures();
  const SchedulerStats& sched = result.stats.scheduler;
  CacheLookup lookup = CacheLookup::kBypass;
  if (sched.cache_hits > 0) {
    lookup = CacheLookup::kHit;
  } else if (sched.cache_misses > 0) {
    lookup = CacheLookup::kMiss;
  }
  response.stats.cache_lookup = static_cast<uint8_t>(lookup);
  response.stats.cache_tasks_saved = sched.cache_tasks_saved;
  response.snapshot_id = result.snapshot_id;
  response.snapshot_seq = result.snapshot_seq;
  return response;
}

std::string EncodeQueryBatch(const std::vector<ToprrQuery>& queries,
                             uint64_t deadline_ms) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kQueryBatch);
  writer.U32(static_cast<uint32_t>(queries.size()));
  for (const ToprrQuery& query : queries) WriteQuery(writer, query);
  if (deadline_ms > 0) {
    writer.U32(kBatchFlagDeadline);
    writer.U64(deadline_ms);
  }
  return payload;
}

bool DecodeQueryBatch(const std::string& payload,
                      std::vector<ToprrQuery>* queries, uint64_t* deadline_ms,
                      std::string* error) {
  queries->clear();
  if (deadline_ms != nullptr) *deadline_ms = 0;
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kQueryBatch, error)) return false;
  uint32_t count;
  if (!reader.U32(&count) || !reader.CheckCount(count, kMinQueryBytes)) {
    return FailDecode(error, "bad query count");
  }
  queries->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!ReadQuery(reader, &(*queries)[i])) {
      queries->clear();
      return FailDecode(error,
                        "truncated or malformed query " + std::to_string(i));
    }
  }
  // Optional extension block: absent entirely on pre-deadline encoders.
  if (reader.remaining() != 0) {
    uint32_t flags;
    if (!reader.U32(&flags) || (flags & ~kBatchFlagsKnown) != 0) {
      queries->clear();
      return FailDecode(error, "bad query-batch extension flags");
    }
    if ((flags & kBatchFlagDeadline) != 0) {
      uint64_t deadline;
      if (!reader.U64(&deadline)) {
        queries->clear();
        return FailDecode(error, "truncated query-batch deadline");
      }
      if (deadline_ms != nullptr) *deadline_ms = deadline;
    }
    if (reader.remaining() != 0) {
      queries->clear();
      return FailDecode(error, "trailing bytes after the extension block");
    }
  }
  return true;
}

bool DecodeQueryBatch(const std::string& payload,
                      std::vector<ToprrQuery>* queries, std::string* error) {
  return DecodeQueryBatch(payload, queries, nullptr, error);
}

std::string EncodeResponseBatch(const std::vector<ServeResponse>& responses) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kResponseBatch);
  writer.U32(static_cast<uint32_t>(responses.size()));
  for (const ServeResponse& response : responses) {
    WriteResponse(writer, response);
  }
  return payload;
}

bool DecodeResponseBatch(const std::string& payload,
                         std::vector<ServeResponse>* responses,
                         std::string* error) {
  responses->clear();
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kResponseBatch, error)) return false;
  uint32_t count;
  if (!reader.U32(&count) || !reader.CheckCount(count, kMinResponseBytes)) {
    return FailDecode(error, "bad response count");
  }
  responses->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!ReadResponse(reader, &(*responses)[i])) {
      responses->clear();
      return FailDecode(
          error, "truncated or malformed response " + std::to_string(i));
    }
  }
  if (reader.remaining() != 0) {
    responses->clear();
    return FailDecode(error, "trailing bytes after the last response");
  }
  return true;
}

const char* MutationStatusName(MutationStatus status) {
  switch (status) {
    case MutationStatus::kOk:
      return "OK";
    case MutationStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case MutationStatus::kLimitExceeded:
      return "LIMIT_EXCEEDED";
    case MutationStatus::kConflict:
      return "CONFLICT";
    case MutationStatus::kShutdown:
      return "SHUTDOWN";
    case MutationStatus::kInternalError:
      return "INTERNAL_ERROR";
  }
  return "UNKNOWN";
}

bool PeekHeader(const std::string& payload, FrameHeader* header) {
  WireReader reader(payload);
  return reader.U32(&header->magic) && reader.U8(&header->version) &&
         reader.U8(&header->type);
}

namespace {

// Shared shape of the three body-less requests (Hello / Publish /
// CatalogInfo): header + one reserved u32 (0 for now; gives a future
// minor revision somewhere to put flags without a new message kind).
std::string EncodeEmptyBody(MessageType type) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, type);
  writer.U32(0);
  return payload;
}

bool DecodeEmptyBody(const std::string& payload, MessageType type,
                     const char* what, std::string* error) {
  WireReader reader(payload);
  if (!ReadHeader(reader, type, error)) return false;
  uint32_t reserved;
  if (!reader.U32(&reserved)) {
    return FailDecode(error, std::string("truncated ") + what);
  }
  if (reader.remaining() != 0) {
    return FailDecode(error,
                      std::string("trailing bytes after the ") + what);
  }
  return true;
}

}  // namespace

std::string EncodeHello() { return EncodeEmptyBody(MessageType::kHello); }

bool DecodeHello(const std::string& payload, std::string* error) {
  return DecodeEmptyBody(payload, MessageType::kHello, "hello", error);
}

std::string EncodeServerHello(const ServerHello& hello) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kServerHello);
  writer.U64(hello.max_frame_payload_bytes);
  writer.U32(hello.max_inflight_queries);
  writer.U32(hello.max_staged_mutations);
  writer.U64(hello.snapshot_id);
  writer.U64(hello.snapshot_seq);
  writer.U64(hello.live_rows);
  writer.U64(hello.physical_rows);
  writer.U32(hello.dim);
  return payload;
}

bool DecodeServerHello(const std::string& payload, ServerHello* hello,
                       std::string* error) {
  *hello = ServerHello{};
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kServerHello, error)) return false;
  if (!reader.U64(&hello->max_frame_payload_bytes) ||
      !reader.U32(&hello->max_inflight_queries) ||
      !reader.U32(&hello->max_staged_mutations) ||
      !reader.U64(&hello->snapshot_id) || !reader.U64(&hello->snapshot_seq) ||
      !reader.U64(&hello->live_rows) || !reader.U64(&hello->physical_rows) ||
      !reader.U32(&hello->dim)) {
    return FailDecode(error, "truncated server hello");
  }
  if (reader.remaining() != 0) {
    return FailDecode(error, "trailing bytes after the server hello");
  }
  return true;
}

std::string EncodeStageInsert(const std::vector<Vec>& rows) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kStageInsert);
  writer.U32(static_cast<uint32_t>(rows.size()));
  for (const Vec& row : rows) writer.VecField(row);
  return payload;
}

bool DecodeStageInsert(const std::string& payload, std::vector<Vec>* rows,
                       std::string* error) {
  rows->clear();
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kStageInsert, error)) return false;
  uint32_t count;
  // Smallest meaningful row: dim prefix + one coordinate.
  if (!reader.U32(&count) ||
      !reader.CheckCount(count, sizeof(uint32_t) + sizeof(double))) {
    return FailDecode(error, "bad staged-row count");
  }
  rows->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.VecField(&(*rows)[i])) {
      rows->clear();
      return FailDecode(error,
                        "truncated or malformed row " + std::to_string(i));
    }
  }
  if (reader.remaining() != 0) {
    rows->clear();
    return FailDecode(error, "trailing bytes after the last row");
  }
  return true;
}

std::string EncodeStageDelete(const std::vector<uint64_t>& row_ids) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kStageDelete);
  writer.U32(static_cast<uint32_t>(row_ids.size()));
  for (const uint64_t id : row_ids) writer.U64(id);
  return payload;
}

bool DecodeStageDelete(const std::string& payload,
                       std::vector<uint64_t>* row_ids, std::string* error) {
  row_ids->clear();
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kStageDelete, error)) return false;
  uint32_t count;
  if (!reader.U32(&count) || !reader.CheckCount(count, sizeof(uint64_t))) {
    return FailDecode(error, "bad delete-id count");
  }
  row_ids->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.U64(&(*row_ids)[i])) {
      row_ids->clear();
      return FailDecode(error, "truncated delete id " + std::to_string(i));
    }
  }
  if (reader.remaining() != 0) {
    row_ids->clear();
    return FailDecode(error, "trailing bytes after the last delete id");
  }
  return true;
}

std::string EncodePublish(uint64_t idempotency_token, uint64_t publish_id,
                          bool probe) {
  if (idempotency_token == 0) {
    // Byte-identical to the pre-idempotency encoding (reserved word 0).
    // A probe without a token is meaningless, so it falls through here.
    return EncodeEmptyBody(MessageType::kPublish);
  }
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kPublish);
  writer.U32(kPublishFlagIdempotency | (probe ? kPublishFlagProbe : 0u));
  writer.U64(idempotency_token);
  writer.U64(publish_id);
  return payload;
}

bool DecodePublish(const std::string& payload, uint64_t* idempotency_token,
                   uint64_t* publish_id, bool* probe, std::string* error) {
  if (idempotency_token != nullptr) *idempotency_token = 0;
  if (publish_id != nullptr) *publish_id = 0;
  if (probe != nullptr) *probe = false;
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kPublish, error)) return false;
  uint32_t flags;
  if (!reader.U32(&flags)) {
    return FailDecode(error, "truncated publish");
  }
  if ((flags & ~kPublishFlagsKnown) != 0) {
    return FailDecode(error, "unknown publish flags");
  }
  if ((flags & kPublishFlagProbe) != 0 &&
      (flags & kPublishFlagIdempotency) == 0) {
    return FailDecode(error, "publish probe without an idempotency token");
  }
  if ((flags & kPublishFlagIdempotency) != 0) {
    uint64_t token;
    uint64_t id;
    if (!reader.U64(&token) || !reader.U64(&id)) {
      return FailDecode(error, "truncated publish idempotency token");
    }
    if (token == 0) {
      return FailDecode(error, "zero publish idempotency token");
    }
    if (idempotency_token != nullptr) *idempotency_token = token;
    if (publish_id != nullptr) *publish_id = id;
    if (probe != nullptr) *probe = (flags & kPublishFlagProbe) != 0;
  }
  if (reader.remaining() != 0) {
    return FailDecode(error, "trailing bytes after the publish");
  }
  return true;
}

bool DecodePublish(const std::string& payload, uint64_t* idempotency_token,
                   uint64_t* publish_id, std::string* error) {
  return DecodePublish(payload, idempotency_token, publish_id, nullptr, error);
}

bool DecodePublish(const std::string& payload, std::string* error) {
  return DecodePublish(payload, nullptr, nullptr, nullptr, error);
}

std::string EncodeCatalogInfo() {
  return EncodeEmptyBody(MessageType::kCatalogInfo);
}

bool DecodeCatalogInfo(const std::string& payload, std::string* error) {
  return DecodeEmptyBody(payload, MessageType::kCatalogInfo, "catalog info",
                         error);
}

std::string EncodeMutationAck(const MutationAck& ack) {
  std::string payload;
  WireWriter writer(&payload);
  WriteHeader(writer, MessageType::kMutationAck);
  writer.U8(static_cast<uint8_t>(ack.status));
  writer.U64(ack.snapshot_id);
  writer.U64(ack.snapshot_seq);
  writer.U64(ack.live_rows);
  writer.U64(ack.physical_rows);
  writer.U32(ack.staged_inserts);
  writer.U32(ack.staged_deletes);
  writer.U8(ack.already_applied ? kAckFlagAlreadyApplied : 0);
  writer.U64(ack.idempotency_token);
  writer.U64(ack.publish_id);
  const uint32_t message_len = static_cast<uint32_t>(
      std::min<size_t>(ack.message.size(), kMaxAckMessageBytes));
  writer.U32(message_len);
  for (uint32_t i = 0; i < message_len; ++i) {
    writer.U8(static_cast<uint8_t>(ack.message[i]));
  }
  return payload;
}

bool DecodeMutationAck(const std::string& payload, MutationAck* ack,
                       std::string* error) {
  *ack = MutationAck{};
  WireReader reader(payload);
  if (!ReadHeader(reader, MessageType::kMutationAck, error)) return false;
  uint8_t status;
  uint8_t ack_flags;
  uint32_t message_len;
  if (!reader.U8(&status) || !reader.U64(&ack->snapshot_id) ||
      !reader.U64(&ack->snapshot_seq) || !reader.U64(&ack->live_rows) ||
      !reader.U64(&ack->physical_rows) || !reader.U32(&ack->staged_inserts) ||
      !reader.U32(&ack->staged_deletes) || !reader.U8(&ack_flags) ||
      !reader.U64(&ack->idempotency_token) || !reader.U64(&ack->publish_id) ||
      !reader.U32(&message_len)) {
    return FailDecode(error, "truncated mutation ack");
  }
  if (status > static_cast<uint8_t>(MutationStatus::kInternalError)) {
    return FailDecode(error, "unknown mutation status");
  }
  if ((ack_flags & ~kAckFlagAlreadyApplied) != 0) {
    return FailDecode(error, "unknown mutation-ack flags");
  }
  ack->status = static_cast<MutationStatus>(status);
  ack->already_applied = (ack_flags & kAckFlagAlreadyApplied) != 0;
  if (message_len > kMaxAckMessageBytes ||
      !reader.CheckCount(message_len, 1)) {
    return FailDecode(error, "bad ack message length");
  }
  ack->message.reserve(message_len);
  for (uint32_t i = 0; i < message_len; ++i) {
    uint8_t ch;
    if (!reader.U8(&ch)) return FailDecode(error, "truncated ack message");
    ack->message.push_back(static_cast<char>(ch));
  }
  if (reader.remaining() != 0) {
    return FailDecode(error, "trailing bytes after the mutation ack");
  }
  return true;
}

std::string EncodeVersionMismatch(uint8_t server_version,
                                  uint8_t min_version) {
  std::string payload;
  WireWriter writer(&payload);
  // Hand-rolled header: the version byte is the SERVER's version, which
  // by definition differs from the peer's; the frozen type byte is what
  // the peer keys on.
  writer.U32(kProtocolMagic);
  writer.U8(server_version);
  writer.U8(static_cast<uint8_t>(MessageType::kVersionMismatch));
  writer.U8(min_version);
  return payload;
}

bool DecodeVersionMismatch(const std::string& payload,
                           uint8_t* server_version, uint8_t* min_version) {
  WireReader reader(payload);
  uint32_t magic;
  uint8_t type;
  if (!reader.U32(&magic) || !reader.U8(server_version) ||
      !reader.U8(&type) || !reader.U8(min_version)) {
    return false;
  }
  // Any version byte is acceptable -- this frame exists to cross version
  // boundaries -- but magic and the frozen type byte must match.
  return magic == kProtocolMagic &&
         type == static_cast<uint8_t>(MessageType::kVersionMismatch) &&
         reader.remaining() == 0;
}

}  // namespace serve
}  // namespace toprr
