// Serving-side counters, kept next to the scheduler telemetry in
// src/common/ so stats types stay independent of the socket code in
// src/serve/ (benches and tests can consume snapshots without linking
// the server).
//
// ServerStats is the live, thread-safe counter block the server mutates
// from its connection threads; Snapshot() copies it into the plain
// ServerStatsSnapshot for printing or assertions. Counters are
// monotonic; relaxed atomics suffice (they are telemetry, never control
// flow).
#ifndef TOPRR_COMMON_SERVER_STATS_H_
#define TOPRR_COMMON_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace toprr {

/// A point-in-time copy of the serving counters.
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t queries_received = 0;
  uint64_t queries_completed = 0;       // solved and answered kOk
  uint64_t queries_rejected_overload = 0;  // admission control said no
  uint64_t queries_budget_exceeded = 0;
  uint64_t queries_cancelled = 0;  // cut loose by shutdown
  uint64_t protocol_errors = 0;    // frames that failed to decode/frame
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;

  // Cross-query region cache outcomes (zero unless the server enabled
  // the cache; bypassed queries bump none of them).
  uint64_t cache_hits = 0;
  uint64_t cache_partial_hits = 0;
  uint64_t cache_misses = 0;
  // Of the misses: first sightings solved on the exact box and not
  // inserted (cache admission). All misses deferred means all-distinct
  // traffic, not a broken cache.
  uint64_t cache_deferred = 0;
  uint64_t cache_tasks_saved = 0;  // partition tasks avoided via reuse

  // Protocol v3 mutation path (zero on a read-only workload).
  uint64_t mutations_staged = 0;     // rows + delete ids accepted
  uint64_t mutations_rejected = 0;   // rows/ids refused (validation/limit)
  uint64_t publishes_applied = 0;    // deltas published and served
  uint64_t publishes_rejected = 0;   // conflict/empty/shutdown publishes
  uint64_t publishes_deduped = 0;    // retried publishes answered from the
                                     // applied-publish record (idempotency)
  uint64_t version_mismatches = 0;   // connections rejected at handshake

  // Failure-hardening counters (PR 9): socket timeouts, deadline
  // expiries, draining rejections, and overload brownouts.
  uint64_t timeouts_idle = 0;   // connections dropped: no frame started
  uint64_t timeouts_read = 0;   // connections dropped: stalled mid-frame
  uint64_t timeouts_write = 0;  // connections dropped: reply write stalled
  uint64_t queries_deadline_exceeded = 0;
  uint64_t queries_rejected_draining = 0;
  uint64_t brownout_clamps = 0;  // budgets clamped under sustained overload

  // Durability (PR 10): mirrored from the durable catalog after each
  // publish so `--stats` readers see WAL traffic without linking data/.
  // All zero when the catalog is in-memory (no data_dir).
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t checkpoints_written = 0;
  // Startup recovery outcome (set once, before serving begins).
  bool recovered = false;               // true: state rebuilt from disk
  uint64_t recovery_replayed_records = 0;
  uint64_t recovery_skipped_records = 0;  // already in the checkpoint
  uint64_t recovery_snapshot_seq = 0;     // seq recovery landed on
  double recovery_seconds = 0.0;

  std::string DebugString() const;
};

/// Thread-safe monotonic counters of one server instance.
class ServerStats {
 public:
  ServerStats() = default;
  ServerStats(const ServerStats&) = delete;
  ServerStats& operator=(const ServerStats&) = delete;

  void OnConnectionAccepted() { Bump(connections_accepted_); }
  void OnFrameReceived(uint64_t bytes) {
    Bump(frames_received_);
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void OnQueriesReceived(uint64_t count) {
    queries_received_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnQueryCompleted() { Bump(queries_completed_); }
  void OnQueriesRejectedOverload(uint64_t count) {
    queries_rejected_overload_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnQueryBudgetExceeded() { Bump(queries_budget_exceeded_); }
  void OnQueryCancelled() { Bump(queries_cancelled_); }
  void OnProtocolError() { Bump(protocol_errors_); }
  void OnBytesSent(uint64_t bytes) {
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void OnCacheHit() { Bump(cache_hits_); }
  void OnCachePartialHit() { Bump(cache_partial_hits_); }
  void OnCacheMiss() { Bump(cache_misses_); }
  void OnCacheDeferred() { Bump(cache_deferred_); }
  void OnCacheTasksSaved(uint64_t count) {
    cache_tasks_saved_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnMutationsStaged(uint64_t count) {
    mutations_staged_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnMutationsRejected(uint64_t count) {
    mutations_rejected_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnPublishApplied() { Bump(publishes_applied_); }
  void OnPublishRejected() { Bump(publishes_rejected_); }
  void OnPublishDeduped() { Bump(publishes_deduped_); }
  void OnVersionMismatch() { Bump(version_mismatches_); }
  void OnIdleTimeout() { Bump(timeouts_idle_); }
  void OnReadTimeout() { Bump(timeouts_read_); }
  void OnWriteTimeout() { Bump(timeouts_write_); }
  void OnQueryDeadlineExceeded() { Bump(queries_deadline_exceeded_); }
  void OnQueriesRejectedDraining(uint64_t count) {
    queries_rejected_draining_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnBrownoutClamp() { Bump(brownout_clamps_); }

  /// Mirrors the durable catalog's monotonic counters (absolute values,
  /// not increments -- the catalog owns the counts, stats just reflect
  /// them). Plain uint64 parameters keep this header free of data/
  /// includes: toprr_data depends on toprr_common, never the reverse.
  void SetDurableCounters(uint64_t wal_appends, uint64_t wal_bytes,
                          uint64_t wal_fsyncs, uint64_t checkpoints_written) {
    wal_appends_.store(wal_appends, std::memory_order_relaxed);
    wal_bytes_.store(wal_bytes, std::memory_order_relaxed);
    wal_fsyncs_.store(wal_fsyncs, std::memory_order_relaxed);
    checkpoints_written_.store(checkpoints_written,
                               std::memory_order_relaxed);
  }

  /// Records the startup-recovery outcome. Called once, before the
  /// accept loop starts, so the non-atomic double is never raced.
  void SetRecovery(bool recovered, uint64_t replayed_records,
                   uint64_t skipped_records, uint64_t snapshot_seq,
                   double seconds) {
    recovered_.store(recovered, std::memory_order_relaxed);
    recovery_replayed_records_.store(replayed_records,
                                     std::memory_order_relaxed);
    recovery_skipped_records_.store(skipped_records,
                                    std::memory_order_relaxed);
    recovery_snapshot_seq_.store(snapshot_seq, std::memory_order_relaxed);
    recovery_seconds_ = seconds;
  }

  ServerStatsSnapshot Snapshot() const;

 private:
  static void Bump(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> queries_received_{0};
  std::atomic<uint64_t> queries_completed_{0};
  std::atomic<uint64_t> queries_rejected_overload_{0};
  std::atomic<uint64_t> queries_budget_exceeded_{0};
  std::atomic<uint64_t> queries_cancelled_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_partial_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_deferred_{0};
  std::atomic<uint64_t> cache_tasks_saved_{0};
  std::atomic<uint64_t> mutations_staged_{0};
  std::atomic<uint64_t> mutations_rejected_{0};
  std::atomic<uint64_t> publishes_applied_{0};
  std::atomic<uint64_t> publishes_rejected_{0};
  std::atomic<uint64_t> publishes_deduped_{0};
  std::atomic<uint64_t> version_mismatches_{0};
  std::atomic<uint64_t> timeouts_idle_{0};
  std::atomic<uint64_t> timeouts_read_{0};
  std::atomic<uint64_t> timeouts_write_{0};
  std::atomic<uint64_t> queries_deadline_exceeded_{0};
  std::atomic<uint64_t> queries_rejected_draining_{0};
  std::atomic<uint64_t> brownout_clamps_{0};
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> wal_fsyncs_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<bool> recovered_{false};
  std::atomic<uint64_t> recovery_replayed_records_{0};
  std::atomic<uint64_t> recovery_skipped_records_{0};
  std::atomic<uint64_t> recovery_snapshot_seq_{0};
  // Written once in SetRecovery before the accept loop exists; read by
  // Snapshot afterwards. No concurrent writer, so a plain double is safe.
  double recovery_seconds_ = 0.0;
};

}  // namespace toprr

#endif  // TOPRR_COMMON_SERVER_STATS_H_
