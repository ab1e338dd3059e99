#include "data/snapshot.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace toprr {
namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixU64(uint64_t h, uint64_t value) {
  return Fnv1a64(&value, sizeof(value), h);
}

uint64_t MixRow(uint64_t h, const double* row, size_t d) {
  return Fnv1a64(row, d * sizeof(double), h);
}

}  // namespace

uint64_t Fnv1a64(const void* bytes, size_t len, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

uint64_t DatasetContentHash(const Dataset& data) {
  uint64_t h = MixU64(14695981039346656037ull,
                      static_cast<uint64_t>(data.size()));
  h = MixU64(h, static_cast<uint64_t>(data.dim()));
  if (!data.empty()) {
    h = Fnv1a64(data.RawValues(),
                data.size() * data.dim() * sizeof(double), h);
  }
  return h;
}

SnapshotPtr DatasetSnapshot::BuildRoot(size_t n, size_t d, RowAtFn row_at,
                                       const void* source) {
  auto snapshot = std::shared_ptr<DatasetSnapshot>(new DatasetSnapshot());
  snapshot->rows_ = n;
  snapshot->dim_ = d;
  snapshot->live_.assign(n, 1);
  snapshot->live_ids_.resize(n);
  uint64_t h = MixU64(14695981039346656037ull, static_cast<uint64_t>(n));
  h = MixU64(h, static_cast<uint64_t>(d));
  std::shared_ptr<std::vector<double>> open;
  for (size_t i = 0; i < n; ++i) {
    snapshot->live_ids_[i] = static_cast<int>(i);
    if ((i & (DatasetSnapshot::kChunkRows - 1)) == 0) {
      open = std::make_shared<std::vector<double>>();
      open->reserve(
          std::min(DatasetSnapshot::kChunkRows, n - i) * d);
      snapshot->chunks_.push_back(open);
    }
    const double* row = row_at(source, i);
    open->insert(open->end(), row, row + d);
    h = MixRow(h, row, d);
  }
  snapshot->chunk_bases_.reserve(snapshot->chunks_.size());
  for (const auto& chunk : snapshot->chunks_) {
    snapshot->chunk_bases_.push_back(chunk->data());
  }
  snapshot->id_ = h;
  return snapshot;
}

namespace {

const double* DatasetRowAt(const void* source, size_t i) {
  return static_cast<const Dataset*>(source)->Row(i);
}

const double* VecRowAt(const void* source, size_t i) {
  return (*static_cast<const std::vector<Vec>*>(source))[i].data();
}

}  // namespace

SnapshotPtr DatasetSnapshot::Restore(
    std::vector<std::shared_ptr<const std::vector<double>>> chunks,
    std::vector<uint8_t> live, size_t rows, size_t dim, uint64_t id,
    uint64_t seq, uint64_t parent_id) {
  if (dim == 0 && rows != 0) return nullptr;
  if (live.size() != rows) return nullptr;
  const size_t want_chunks =
      (rows + DatasetSnapshot::kChunkRows - 1) >> DatasetSnapshot::kChunkShift;
  if (chunks.size() != want_chunks) return nullptr;
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (chunks[c] == nullptr) return nullptr;
    const size_t chunk_rows =
        c + 1 < chunks.size()
            ? DatasetSnapshot::kChunkRows
            : rows - c * DatasetSnapshot::kChunkRows;
    if (chunks[c]->size() != chunk_rows * dim) return nullptr;
  }
  for (const uint8_t bit : live) {
    if (bit > 1) return nullptr;
  }
  auto snapshot = std::shared_ptr<DatasetSnapshot>(new DatasetSnapshot());
  snapshot->chunks_ = std::move(chunks);
  snapshot->chunk_bases_.reserve(snapshot->chunks_.size());
  for (const auto& chunk : snapshot->chunks_) {
    snapshot->chunk_bases_.push_back(chunk->data());
  }
  snapshot->live_ = std::move(live);
  snapshot->rows_ = rows;
  snapshot->dim_ = dim;
  snapshot->id_ = id;
  snapshot->seq_ = seq;
  snapshot->parent_id_ = parent_id;
  for (size_t row = 0; row < rows; ++row) {
    if (snapshot->live_[row] != 0) {
      snapshot->live_ids_.push_back(static_cast<int>(row));
    }
  }
  return snapshot;
}

SnapshotPtr DatasetSnapshot::FromDataset(const Dataset& data) {
  return BuildRoot(data.size(), data.dim(), &DatasetRowAt, &data);
}

SnapshotPtr DatasetSnapshot::FromRows(const std::vector<Vec>& rows) {
  const size_t d = rows.empty() ? 0 : rows.front().dim();
  for (const Vec& row : rows) CHECK_EQ(row.dim(), d);
  return BuildRoot(rows.size(), d, &VecRowAt, &rows);
}

int DatasetBuilder::Append(const Vec& row) {
  if (dim_ == 0) dim_ = row.dim();
  CHECK_EQ(row.dim(), dim_);
  rows_.push_back(row);
  return static_cast<int>(rows_.size()) - 1;
}

SnapshotPtr DatasetBuilder::Build() {
  SnapshotPtr snapshot = DatasetSnapshot::FromRows(rows_);
  rows_.clear();
  return snapshot;
}

MutableCatalog::MutableCatalog(SnapshotPtr initial)
    : current_(std::move(initial)) {
  CHECK(current_ != nullptr);
}

MutableCatalog::MutableCatalog(const Dataset& data)
    : current_(DatasetSnapshot::FromDataset(data)) {}

SnapshotPtr MutableCatalog::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t MutableCatalog::CurrentId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->id();
}

int MutableCatalog::StageInsert(const Vec& row) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK_GT(row.dim(), 0u);
  // The parent dim governs; an empty root adopts the first staged row's.
  size_t d = current_->dim();
  if (d == 0 && !staged_alive_.empty()) {
    d = staged_values_.size() / staged_alive_.size();
  }
  if (d != 0) {
    CHECK_EQ(row.dim(), d);
  }
  staged_values_.insert(staged_values_.end(), row.begin(), row.end());
  staged_alive_.push_back(1);
  return static_cast<int>(current_->rows() + staged_alive_.size()) - 1;
}

bool MutableCatalog::StageDelete(int row_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (row_id < 0) return false;
  const size_t id = static_cast<size_t>(row_id);
  if (id >= current_->rows()) {
    // A staged insert of this cycle: un-stage it (the row is materialized
    // as a tombstone at Publish so later staged ids keep their promise).
    const size_t idx = id - current_->rows();
    if (idx >= staged_alive_.size() || staged_alive_[idx] == 0) return false;
    staged_alive_[idx] = 0;
    return true;
  }
  if (!current_->IsLive(id)) return false;
  for (const int staged : staged_deleted_) {
    if (staged == row_id) return false;  // already staged
  }
  staged_deleted_.push_back(row_id);
  return true;
}

size_t MutableCatalog::staged_inserts() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t alive = 0;
  for (const uint8_t a : staged_alive_) alive += a;
  return alive;
}

size_t MutableCatalog::staged_deletes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_deleted_.size();
}

void MutableCatalog::DiscardStaged() {
  std::lock_guard<std::mutex> lock(mu_);
  staged_values_.clear();
  staged_alive_.clear();
  staged_deleted_.clear();
}

bool MutableCatalog::PredictPublish(uint64_t* child_id,
                                    uint64_t* child_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (staged_alive_.empty() && staged_deleted_.empty()) return false;
  const DatasetSnapshot& parent = *current_;
  const size_t d = parent.dim() != 0
                       ? parent.dim()
                       : staged_values_.size() / staged_alive_.size();
  const size_t old_rows = parent.rows();

  // Mirrors Publish()'s chain mix exactly: sorted deletes, then the
  // alive staged ids with their row bytes, under the same section
  // markers. Any drift between the two is a logic bug the durable
  // publish path turns into a typed error (and a test failure).
  std::vector<int> deleted(staged_deleted_);
  std::sort(deleted.begin(), deleted.end());
  uint64_t h = MixU64(parent.id(), 0x64656c65ull);  // "dele"
  for (const int id : deleted) {
    h = MixU64(h, static_cast<uint64_t>(id));
  }
  h = MixU64(h, 0x696e7372ull);  // "insr"
  for (size_t idx = 0; idx < staged_alive_.size(); ++idx) {
    if (staged_alive_[idx] == 0) continue;
    h = MixU64(h, static_cast<uint64_t>(old_rows + idx));
    h = MixRow(h, staged_values_.data() + idx * d, d);
  }
  *child_id = h;
  *child_seq = parent.seq() + 1;
  return true;
}

SnapshotPtr MutableCatalog::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (staged_alive_.empty() && staged_deleted_.empty()) return current_;

  const DatasetSnapshot& parent = *current_;
  const size_t d = parent.dim() != 0
                       ? parent.dim()
                       : staged_values_.size() / staged_alive_.size();
  const size_t old_rows = parent.rows();
  const size_t new_rows = old_rows + staged_alive_.size();

  auto snapshot = std::shared_ptr<DatasetSnapshot>(new DatasetSnapshot());
  snapshot->dim_ = d;
  snapshot->rows_ = new_rows;
  snapshot->parent_id_ = parent.id();
  snapshot->seq_ = parent.seq() + 1;

  // Copy-on-write chunk table: every full parent chunk is shared by
  // pointer; only the partial tail chunk (when inserts extend it) is
  // cloned. Staged rows -- including ones deleted again before Publish,
  // which materialize as tombstones so every promised id stays physical
  // -- fill the tail and fresh chunks.
  snapshot->chunks_ = parent.chunks_;
  std::vector<double>* open = nullptr;  // the chunk currently being filled
  for (size_t idx = 0; idx < staged_alive_.size(); ++idx) {
    const size_t row = old_rows + idx;
    const size_t within = row & (DatasetSnapshot::kChunkRows - 1);
    if (within == 0) {
      auto chunk = std::make_shared<std::vector<double>>();
      chunk->reserve(
          std::min(DatasetSnapshot::kChunkRows, new_rows - row) * d);
      open = chunk.get();
      snapshot->chunks_.push_back(std::move(chunk));
    } else if (open == nullptr) {
      // First insert lands mid-chunk: clone the parent's tail chunk.
      auto clone = std::make_shared<std::vector<double>>(
          *snapshot->chunks_.back());
      open = clone.get();
      snapshot->chunks_.back() = std::move(clone);
    }
    const double* values = staged_values_.data() + idx * d;
    open->insert(open->end(), values, values + d);
  }
  snapshot->chunk_bases_.reserve(snapshot->chunks_.size());
  for (const auto& chunk : snapshot->chunks_) {
    snapshot->chunk_bases_.push_back(chunk->data());
  }

  // Tombstone bitmap and delta.
  snapshot->live_ = parent.live_;
  snapshot->live_.resize(new_rows);
  for (size_t idx = 0; idx < staged_alive_.size(); ++idx) {
    snapshot->live_[old_rows + idx] = staged_alive_[idx];
    if (staged_alive_[idx] != 0) {
      snapshot->delta_.inserted.push_back(
          static_cast<int>(old_rows + idx));
    }
  }
  std::sort(staged_deleted_.begin(), staged_deleted_.end());
  for (const int id : staged_deleted_) {
    snapshot->live_[static_cast<size_t>(id)] = 0;
    snapshot->delta_.deleted.push_back(id);
  }
  // Live ids by merge, O(live) copies instead of a walk over every
  // physical row: the parent's minus the (parent-live, distinct, sorted)
  // deletes, then the inserts, which all lie past the parent's rows.
  snapshot->live_ids_.reserve(parent.live_ids_.size() +
                              snapshot->delta_.inserted.size());
  std::set_difference(parent.live_ids_.begin(), parent.live_ids_.end(),
                      snapshot->delta_.deleted.begin(),
                      snapshot->delta_.deleted.end(),
                      std::back_inserter(snapshot->live_ids_));
  snapshot->live_ids_.insert(snapshot->live_ids_.end(),
                             snapshot->delta_.inserted.begin(),
                             snapshot->delta_.inserted.end());

  // O(delta) content id: parent id mixed with the delta's ids and the
  // inserted rows' bytes (section markers keep insert/delete ambiguity
  // out of the stream).
  uint64_t h = MixU64(parent.id(), 0x64656c65ull);  // "dele"
  for (const int id : snapshot->delta_.deleted) {
    h = MixU64(h, static_cast<uint64_t>(id));
  }
  h = MixU64(h, 0x696e7372ull);  // "insr"
  for (const int id : snapshot->delta_.inserted) {
    h = MixU64(h, static_cast<uint64_t>(id));
    h = MixRow(h, snapshot->Row(static_cast<size_t>(id)), d);
  }
  snapshot->id_ = h;

  staged_values_.clear();
  staged_alive_.clear();
  staged_deleted_.clear();
  current_ = snapshot;
  return current_;
}

}  // namespace toprr
