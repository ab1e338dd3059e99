// Crash recovery for the mutable catalog: checkpoints + WAL replay.
//
// DurableCatalog wraps a MutableCatalog. With a non-empty `data_dir`:
//
//   data_dir/checkpoint-<seq16hex>.ckpt   full DatasetSnapshot + the
//                                         applied-publish dedupe table,
//                                         written tmp+fsync+rename
//   data_dir/wal-<seq16hex>.log           publish deltas with child
//                                         seq > <seq> (the file's base)
//
// With an empty `data_dir` the catalog is in-memory: it starts from the
// bootstrap dataset and touches no file. Both modes publish through the
// same Publish() and answer the same idempotency questions.
//
// The durable publish path is append-then-apply: the child snapshot's
// FNV id is *predicted* from the staged delta
// (MutableCatalog::PredictPublish), the WAL record -- parent/child
// ids+seqs, idempotency token/id, the row batch -- is appended and (per
// FsyncPolicy) fsynced, and only then is the in-memory snapshot
// published. A failed append rolls the staged delta back and reports a
// typed error: nothing was acknowledged, nothing was applied, the
// catalog is exactly as before.
//
// Recovery = best checkpoint + WAL-tail replay. Replay re-stages each
// record through the real MutableCatalog and verifies the re-derived
// snapshot id is bit-identical to the recorded one; any mismatch, chain
// gap, or decode failure rejects the candidate (typed error -- corrupt
// state is never served). Torn WAL tails (the crash shape) are
// truncated at the last valid record; recovery always ends by writing a
// fresh checkpoint and rotating the log, which physically discards the
// torn bytes. The replayed idempotency tokens rebuild the catalog's
// dedupe table, so a client retrying a Publish across the crash still
// hears `already_applied` instead of double-applying.
#ifndef TOPRR_DATA_RECOVERY_H_
#define TOPRR_DATA_RECOVERY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/snapshot.h"
#include "data/wal.h"

namespace toprr {

struct DurabilityOptions {
  /// Empty = an in-memory catalog (see DurableCatalog::Open).
  std::string data_dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  /// Publishes between automatic checkpoints (0 = only at open/close).
  uint64_t checkpoint_every = 64;
  /// Group-commit threshold for FsyncPolicy::kBatched.
  size_t wal_batch_bytes = size_t{1} << 20;
  /// Test hook: wraps every newly opened WAL sink (fault injection, see
  /// tests/support/faulty_file.h).
  std::function<std::unique_ptr<WalFile>(std::unique_ptr<WalFile>)>
      wrap_wal_file;
};

/// What Open() found on disk (surfaced through ServerStats and the
/// toprr_serve recovery log line).
struct RecoveryStats {
  bool recovered = false;  // state came from disk, not the bootstrap
  uint64_t checkpoint_seq = 0;
  uint64_t replayed_records = 0;
  uint64_t skipped_records = 0;  // already covered by the checkpoint
  bool wal_tail_truncated = false;
  double recovery_seconds = 0.0;
  uint64_t snapshot_id = 0;  // the recovered head of the chain
  uint64_t snapshot_seq = 0;
};

/// One durably applied publish: enough to reconstruct the MutationAck a
/// retrying client must hear again after a crash-restart.
struct AppliedPublishRecord {
  uint64_t token = 0;
  uint64_t publish_id = 0;
  uint64_t snapshot_id = 0;
  uint64_t snapshot_seq = 0;
  uint64_t live_rows = 0;
  uint64_t physical_rows = 0;
};

/// A decoded WAL publish record (exposed for tests and fuzzing).
struct PublishWalRecord {
  uint64_t parent_id = 0;
  uint64_t parent_seq = 0;
  uint64_t child_id = 0;
  uint64_t child_seq = 0;
  uint64_t token = 0;
  uint64_t publish_id = 0;
  uint64_t first_insert_id = 0;
  uint32_t dim = 0;
  std::vector<Vec> inserts;
  std::vector<int> deletes;  // ascending parent-live ids
};

std::string EncodePublishWalRecord(const PublishWalRecord& record);
/// Bounds-checked decode; false + *error on any malformed payload.
bool DecodePublishWalRecord(const std::string& payload,
                            PublishWalRecord* record, std::string* error);

/// Serializes `snapshot` (+ the dedupe table) as a checkpoint file at
/// `path`: framed, checksummed records, written to path+".tmp", fsynced,
/// renamed, directory fsynced. False + *error on failure.
bool WriteCheckpointFile(const std::string& path,
                         const DatasetSnapshot& snapshot,
                         const std::vector<AppliedPublishRecord>& applied,
                         std::string* error);

/// Loads a checkpoint file. Null + *error on any damage (bad frame,
/// missing footer, shape mismatch, id/seq inconsistency) -- typed
/// rejection, never an abort, never a partially loaded snapshot.
SnapshotPtr LoadCheckpointFile(const std::string& path,
                               std::vector<AppliedPublishRecord>* applied,
                               std::string* error);

/// Counter snapshot for ServerStats.
struct DurableCounters {
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t checkpoints_written = 0;
};

class DurableCatalog {
 public:
  /// Opens the catalog under options.data_dir. A populated directory
  /// recovers (checkpoint + WAL replay; `bootstrap` is ignored); an
  /// empty one initializes from `bootstrap` and writes the first
  /// checkpoint. An empty data_dir opens an in-memory catalog over
  /// `bootstrap`: no directory, lock, WAL or checkpoint, and an all-zero
  /// recovery(). Null + *error on unrecoverable/corrupt state.
  ///
  /// Single-writer: Open takes an exclusive flock on `LOCK` inside the
  /// directory and fails fast if another live process holds it. Without
  /// this, a second opener would checkpoint + rotate the log underneath
  /// the first and corrupt the chain. The lock dies with the process
  /// (kill -9 included), so crash recovery is never blocked.
  static std::unique_ptr<DurableCatalog> Open(
      const DurabilityOptions& options, const Dataset* bootstrap,
      std::string* error);

  ~DurableCatalog();

  /// The wrapped catalog. Reads (Current()) are free-threaded; all
  /// writes MUST go through Publish() below or durability and dedupe
  /// are silently lost -- never call catalog()->Publish() directly.
  const std::shared_ptr<MutableCatalog>& catalog() const {
    return catalog_;
  }

  /// True when opened without a data_dir (nothing reaches disk).
  bool in_memory() const { return options_.data_dir.empty(); }

  const RecoveryStats& recovery() const { return recovery_; }

  /// Bound on the idempotency table: distinct tokens remembered. The
  /// token seen first is evicted first; a token publishing again keeps
  /// its place and only replaces its record.
  static constexpr size_t kMaxAppliedTokens = 1024;

  /// The record of the exact publish (token, publish_id) when it was
  /// applied and is still remembered; nullopt otherwise. Read-only.
  std::optional<AppliedPublishRecord> LookupPublish(
      uint64_t token, uint64_t publish_id) const;

  enum class PublishStatus {
    kApplied,         // published (an empty delta publishes nothing)
    kAlreadyApplied,  // exact (token, publish_id) replay; nothing staged
    kConflict,        // a delete names a row that is not live
    kFailed,          // bad input or WAL failure; nothing applied
  };

  struct PublishOutcome {
    bool ok = false;       // kApplied or kAlreadyApplied
    SnapshotPtr snapshot;  // the new current snapshot when ok
    std::string error;
    PublishStatus status = PublishStatus::kFailed;
    /// When ok: the publish being answered -- the new snapshot, or for
    /// kAlreadyApplied the original publish's record.
    AppliedPublishRecord applied;
  };

  /// The one publish path. A non-zero `token` whose (token, publish_id)
  /// is in the idempotency table is answered kAlreadyApplied without
  /// staging anything. Otherwise validates that `deletes` are live
  /// (kConflict if not), stages the delta, appends the WAL record
  /// (fsync per policy; durable mode only), publishes in memory,
  /// remembers the token, and (every checkpoint_every publishes)
  /// checkpoints + rotates. On WAL failure the staged delta is rolled
  /// back -- the caller must not acknowledge. Thread-safe (serializes).
  PublishOutcome Publish(const std::vector<Vec>& inserts,
                         const std::vector<uint64_t>& deletes,
                         uint64_t token, uint64_t publish_id);

  /// Forces a checkpoint + log rotation now (no-op when in-memory).
  bool Checkpoint(std::string* error);

  /// Flushes any batched WAL bytes (shutdown barrier).
  bool Flush();

  DurableCounters counters() const;

 private:
  DurableCatalog() = default;

  bool OpenWalForAppend(uint64_t base_seq, std::string* error);
  bool CheckpointLocked(std::string* error);
  /// Records `record` in the idempotency table (token 0 is ignored).
  void RememberLocked(const AppliedPublishRecord& record);
  /// The idempotency table, oldest token first (what checkpoints hold).
  std::vector<AppliedPublishRecord> AppliedLocked() const;
  /// The remembered record of exactly (token, publish_id), or null.
  const AppliedPublishRecord* FindLocked(uint64_t token,
                                         uint64_t publish_id) const;

  DurabilityOptions options_;
  int lock_fd_ = -1;  // exclusive flock on <data_dir>/LOCK
  std::shared_ptr<MutableCatalog> catalog_;
  RecoveryStats recovery_;

  mutable std::mutex mu_;
  // Guarded by mu_: token -> latest record, and tokens oldest first.
  std::unordered_map<uint64_t, AppliedPublishRecord> applied_;
  std::deque<uint64_t> applied_order_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t wal_base_seq_ = 0;
  uint64_t publishes_since_checkpoint_ = 0;
  uint64_t checkpoints_written_ = 0;
  // WalWriter counters accumulate across rotations (a rotation replaces
  // the writer, which would otherwise zero them).
  DurableCounters retired_;
};

}  // namespace toprr

#endif  // TOPRR_DATA_RECOVERY_H_
