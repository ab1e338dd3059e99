#include "common/server_stats.h"

#include <sstream>

namespace toprr {

std::string ServerStatsSnapshot::DebugString() const {
  std::ostringstream out;
  out << "connections=" << connections_accepted
      << " frames=" << frames_received << " queries=" << queries_received
      << " completed=" << queries_completed
      << " rejected=" << queries_rejected_overload
      << " budget_exceeded=" << queries_budget_exceeded
      << " cancelled=" << queries_cancelled
      << " protocol_errors=" << protocol_errors << " rx=" << bytes_received
      << "B tx=" << bytes_sent << "B";
  if (cache_hits + cache_partial_hits + cache_misses > 0) {
    out << " cache_hits=" << cache_hits
        << " cache_partial=" << cache_partial_hits
        << " cache_misses=" << cache_misses
        << " cache_deferred=" << cache_deferred
        << " cache_tasks_saved=" << cache_tasks_saved;
  }
  if (mutations_staged + mutations_rejected + publishes_applied +
          publishes_rejected + publishes_deduped + version_mismatches >
      0) {
    out << " mutations_staged=" << mutations_staged
        << " mutations_rejected=" << mutations_rejected
        << " publishes=" << publishes_applied
        << " publishes_rejected=" << publishes_rejected
        << " publishes_deduped=" << publishes_deduped
        << " version_mismatches=" << version_mismatches;
  }
  if (timeouts_idle + timeouts_read + timeouts_write +
          queries_deadline_exceeded + queries_rejected_draining +
          brownout_clamps >
      0) {
    out << " timeouts_idle=" << timeouts_idle
        << " timeouts_read=" << timeouts_read
        << " timeouts_write=" << timeouts_write
        << " deadline_exceeded=" << queries_deadline_exceeded
        << " rejected_draining=" << queries_rejected_draining
        << " brownout_clamps=" << brownout_clamps;
  }
  if (recovered || wal_appends + wal_bytes + checkpoints_written > 0) {
    out << " wal_appends=" << wal_appends << " wal_bytes=" << wal_bytes
        << " wal_fsyncs=" << wal_fsyncs
        << " checkpoints=" << checkpoints_written
        << " recovered=" << (recovered ? 1 : 0)
        << " recovery_replayed=" << recovery_replayed_records
        << " recovery_skipped=" << recovery_skipped_records
        << " recovery_seq=" << recovery_snapshot_seq
        << " recovery_ms=" << recovery_seconds * 1e3;
  }
  return out.str();
}

ServerStatsSnapshot ServerStats::Snapshot() const {
  ServerStatsSnapshot snap;
  snap.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  snap.frames_received = frames_received_.load(std::memory_order_relaxed);
  snap.queries_received = queries_received_.load(std::memory_order_relaxed);
  snap.queries_completed = queries_completed_.load(std::memory_order_relaxed);
  snap.queries_rejected_overload =
      queries_rejected_overload_.load(std::memory_order_relaxed);
  snap.queries_budget_exceeded =
      queries_budget_exceeded_.load(std::memory_order_relaxed);
  snap.queries_cancelled = queries_cancelled_.load(std::memory_order_relaxed);
  snap.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  snap.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  snap.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snap.cache_partial_hits =
      cache_partial_hits_.load(std::memory_order_relaxed);
  snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  snap.cache_deferred = cache_deferred_.load(std::memory_order_relaxed);
  snap.cache_tasks_saved = cache_tasks_saved_.load(std::memory_order_relaxed);
  snap.mutations_staged = mutations_staged_.load(std::memory_order_relaxed);
  snap.mutations_rejected =
      mutations_rejected_.load(std::memory_order_relaxed);
  snap.publishes_applied = publishes_applied_.load(std::memory_order_relaxed);
  snap.publishes_rejected =
      publishes_rejected_.load(std::memory_order_relaxed);
  snap.publishes_deduped = publishes_deduped_.load(std::memory_order_relaxed);
  snap.version_mismatches =
      version_mismatches_.load(std::memory_order_relaxed);
  snap.timeouts_idle = timeouts_idle_.load(std::memory_order_relaxed);
  snap.timeouts_read = timeouts_read_.load(std::memory_order_relaxed);
  snap.timeouts_write = timeouts_write_.load(std::memory_order_relaxed);
  snap.queries_deadline_exceeded =
      queries_deadline_exceeded_.load(std::memory_order_relaxed);
  snap.queries_rejected_draining =
      queries_rejected_draining_.load(std::memory_order_relaxed);
  snap.brownout_clamps = brownout_clamps_.load(std::memory_order_relaxed);
  snap.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  snap.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  snap.wal_fsyncs = wal_fsyncs_.load(std::memory_order_relaxed);
  snap.checkpoints_written =
      checkpoints_written_.load(std::memory_order_relaxed);
  snap.recovered = recovered_.load(std::memory_order_relaxed);
  snap.recovery_replayed_records =
      recovery_replayed_records_.load(std::memory_order_relaxed);
  snap.recovery_skipped_records =
      recovery_skipped_records_.load(std::memory_order_relaxed);
  snap.recovery_snapshot_seq =
      recovery_snapshot_seq_.load(std::memory_order_relaxed);
  snap.recovery_seconds = recovery_seconds_;
  return snap;
}

}  // namespace toprr
