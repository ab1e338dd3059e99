// Immutable, refcounted dataset snapshots with a staging writer -- the
// live-catalog half of the serving story (ROADMAP "snapshot-versioned
// dataset"; Polynesia in PAPERS.md frames the same shape: a transactional
// update stream co-existing with analytical serving).
//
// Ownership model:
//  * DatasetSnapshot is a frozen, shared_ptr-held row-major table. Rows
//    live in fixed-size value chunks held by shared_ptr, so publishing a
//    new snapshot shares every unchanged chunk with its parent
//    (copy-on-write: an insert copies at most the partial tail chunk).
//  * Row ids are physical and stable forever: a delete only flips a
//    tombstone bit, it never renumbers, and a row's values never change.
//    Cached skybands, region-cache candidate lists, and solver results
//    therefore stay id-compatible across publishes; readers enumerate
//    live rows via live_ids().
//  * MutableCatalog is the single writer: it stages inserts/deletes and
//    Publish()es a new snapshot. Readers (ToprrEngine solves) pin the
//    snapshot they started on via shared_ptr and never observe a write.
//
// Every snapshot carries a 64-bit FNV-1a content id: root snapshots hash
// the full table, published snapshots mix the parent id with the delta
// (O(delta) per publish). The id keys the engine's versioned skyband
// cache, replacing the old debug-only double fingerprint. (Region-cache
// entries are keyed by the k-skyband they were solved under instead, so
// they outlive publishes that leave it unchanged; see core/engine.h.)
#ifndef TOPRR_DATA_SNAPSHOT_H_
#define TOPRR_DATA_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/dataset.h"
#include "geom/vec.h"

namespace toprr {

class DatasetSnapshot;
using SnapshotPtr = std::shared_ptr<const DatasetSnapshot>;

/// 64-bit FNV-1a over a byte range, seedable for incremental mixing.
uint64_t Fnv1a64(const void* bytes, size_t len,
                 uint64_t seed = 14695981039346656037ull);

/// Content id of a plain Dataset: dims, then every row's bytes. Equal
/// tables hash equal; the engine's debug mutation check compares this.
uint64_t DatasetContentHash(const Dataset& data);

/// The row-id delta between a snapshot and its parent. Ids are physical:
/// `inserted` rows did not exist in the parent, `deleted` rows were live
/// in the parent and are tombstoned here. Inserts that were deleted again
/// before Publish() net out and appear in neither list.
struct SnapshotDelta {
  std::vector<int> inserted;  // ascending
  std::vector<int> deleted;   // ascending
  bool empty() const { return inserted.empty() && deleted.empty(); }
};

/// One frozen version of the catalog. Immutable after construction;
/// always held by shared_ptr (SnapshotPtr) so every reader -- an
/// in-flight solve, the engine serving it -- keeps its version alive for
/// exactly as long as it needs it.
class DatasetSnapshot {
 public:
  /// Rows per value chunk (power of two). 1024 rows keeps the COW unit
  /// small (32 KiB at d = 4) while the chunk-base indirection stays out
  /// of the way of the solvers' row scans.
  static constexpr unsigned kChunkShift = 10;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;

  /// Roots: snapshot an existing contiguous Dataset (copies once) or an
  /// explicit row list. parent_id() is 0 and delta() is empty.
  static SnapshotPtr FromDataset(const Dataset& data);
  static SnapshotPtr FromRows(const std::vector<Vec>& rows);

  /// Rehydrates a snapshot from checkpointed state (data/recovery.cc):
  /// value chunks, tombstone bitmap, and the recorded id/seq/parent --
  /// recovery trusts the per-record checksums, not a re-hash, because a
  /// published snapshot's id is a chain mix that cannot be recomputed
  /// from its bytes alone. Returns null (never aborts) when the shapes
  /// are inconsistent: wrong chunk count, wrong chunk sizes, or a
  /// bitmap that does not cover `rows`. delta() is empty, like a root.
  static SnapshotPtr Restore(
      std::vector<std::shared_ptr<const std::vector<double>>> chunks,
      std::vector<uint8_t> live, size_t rows, size_t dim, uint64_t id,
      uint64_t seq, uint64_t parent_id);

  /// Physical rows, including tombstones. Valid row ids are [0, rows()).
  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }
  /// Live (non-tombstoned) rows; the dataset size a query observes.
  size_t live_rows() const { return live_ids_.size(); }
  bool IsLive(size_t row) const { return live_[row] != 0; }
  /// Ascending ids of all live rows.
  const std::vector<int>& live_ids() const { return live_ids_; }

  const double* Row(size_t row) const {
    DCHECK_LT(row, rows_);
    return chunk_bases_[row >> kChunkShift] +
           (row & (kChunkRows - 1)) * dim_;
  }

  /// The solver-facing view (physical rows; see DatasetView's tombstone
  /// note). Valid while this snapshot is alive.
  DatasetView View() const {
    return DatasetView(rows_, dim_, chunk_bases_.data(), kChunkShift);
  }

  /// 64-bit FNV-1a content id; equal only when the live table is equal
  /// (modulo hash collisions). Keys the versioned skyband cache.
  uint64_t id() const { return id_; }
  /// Monotone publish sequence number: 1 for roots, parent + 1 for every
  /// published successor. Unlike id() (a content hash with no order),
  /// seq() totally orders a snapshot chain, which is what the serving
  /// protocol's read-your-writes contract compares (a client that saw a
  /// publish ack with seq S is promised every later response has
  /// seq >= S).
  uint64_t seq() const { return seq_; }
  /// The parent snapshot's id (0 for roots). With delta(), lets the
  /// engine maintain caches incrementally instead of rebuilding.
  uint64_t parent_id() const { return parent_id_; }
  const SnapshotDelta& delta() const { return delta_; }

  /// COW introspection for tests: the shared chunk holding `row`.
  std::shared_ptr<const std::vector<double>> ChunkForRow(size_t row) const {
    DCHECK_LT(row, rows_);
    return chunks_[row >> kChunkShift];
  }

 private:
  friend class MutableCatalog;
  DatasetSnapshot() = default;

  /// Shared root construction: n rows of d doubles through `row_at`.
  using RowAtFn = const double* (*)(const void*, size_t);
  static SnapshotPtr BuildRoot(size_t n, size_t d, RowAtFn row_at,
                               const void* source);

  std::vector<std::shared_ptr<const std::vector<double>>> chunks_;
  std::vector<const double*> chunk_bases_;  // chunks_[c]->data()
  std::vector<uint8_t> live_;               // tombstone bitmap, 1 = live
  std::vector<int> live_ids_;               // ascending
  size_t rows_ = 0;
  size_t dim_ = 0;
  uint64_t id_ = 0;
  uint64_t seq_ = 1;
  uint64_t parent_id_ = 0;
  SnapshotDelta delta_;
};

/// Builds a root snapshot row by row -- the from-scratch construction
/// path (file loaders, generators). One-shot: Build() seals the rows
/// into a snapshot; the builder is empty again afterwards.
class DatasetBuilder {
 public:
  explicit DatasetBuilder(size_t dim = 0) : dim_(dim) {}

  /// Appends a row (dimension must match; the first row sets it when the
  /// builder was constructed with dim = 0). Returns the row id.
  int Append(const Vec& row);

  size_t rows() const { return rows_.size(); }

  SnapshotPtr Build();

 private:
  size_t dim_;
  std::vector<Vec> rows_;
};

/// The single-writer staging area over a snapshot chain. Thread-safe:
/// Current() may be called from any thread (readers pin their version);
/// staging and Publish() serialize internally, so one logical writer may
/// be multiple threads.
class MutableCatalog {
 public:
  explicit MutableCatalog(SnapshotPtr initial);
  /// Convenience root: snapshots `data` (copies once).
  explicit MutableCatalog(const Dataset& data);

  /// The latest published snapshot. Pin it (keep the shared_ptr) for the
  /// duration of whatever you compute from it.
  SnapshotPtr Current() const;
  uint64_t CurrentId() const;

  /// Stages a row insert; returns the id the row will have once
  /// published. Ids are assigned past the current snapshot's physical
  /// rows, so they are stable across the publish.
  int StageInsert(const Vec& row);

  /// Stages a delete of a live row (or un-stages a staged insert).
  /// Returns false when `row_id` is unknown or already dead.
  bool StageDelete(int row_id);

  size_t staged_inserts() const;
  size_t staged_deletes() const;

  /// The id and seq the snapshot produced by Publish() WILL carry,
  /// computed from the staged state without publishing. The WAL append
  /// path (data/recovery.cc) logs this id BEFORE mutating memory, so a
  /// failed append leaves the catalog untouched and replay can verify
  /// it re-derived the recorded id bit-for-bit. Returns false when
  /// nothing is staged (Publish would be a no-op).
  bool PredictPublish(uint64_t* child_id, uint64_t* child_seq) const;

  /// Applies the staged delta as a new immutable snapshot, shares every
  /// untouched value chunk with the parent, clears the staging area, and
  /// returns the new current snapshot. With nothing staged this is a
  /// no-op returning the unchanged current snapshot.
  SnapshotPtr Publish();

  /// Drops every staged (unpublished) insert and delete. The durable
  /// publish path (data/recovery.cc) rolls staging back with this when
  /// the WAL append fails, so a failed publish leaves no trace.
  void DiscardStaged();

 private:
  mutable std::mutex mu_;
  SnapshotPtr current_;
  std::vector<double> staged_values_;    // staged rows, row-major
  std::vector<uint8_t> staged_alive_;    // staged row still wanted?
  std::vector<int> staged_deleted_;      // parent-live ids to tombstone
};

}  // namespace toprr

#endif  // TOPRR_DATA_SNAPSHOT_H_
