#include "data/recovery.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace toprr {
namespace {

// Record kinds (first u32 of every payload). ASCII tags so a hexdump of
// a log is self-describing.
constexpr uint32_t kPublishKind = 0x4c425550u;     // "PUBL"
constexpr uint32_t kCkptHeaderKind = 0x48504b43u;  // "CKPH"
constexpr uint32_t kCkptChunkKind = 0x43504b43u;   // "CKPC"
constexpr uint32_t kCkptLiveKind = 0x4c504b43u;    // "CKPL"
constexpr uint32_t kCkptDedupeKind = 0x44504b43u;  // "CKPD"
constexpr uint32_t kCkptFooterKind = 0x46504b43u;  // "CKPF"

constexpr uint32_t kCheckpointVersion = 1;
// Hostile-input guards: decoded counts larger than these are garbage
// regardless of what the (checksummed but possibly stale) payload says.
constexpr uint32_t kMaxDim = 4096;
constexpr uint64_t kMaxRecordRows = 1u << 22;

std::string CheckpointName(uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%016" PRIx64 ".ckpt", seq);
  return name;
}

std::string WalName(uint64_t base_seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%016" PRIx64 ".log", base_seq);
  return name;
}

// Parses "<prefix><16 hex digits><suffix>"; false on anything else.
bool ParseSeqName(const std::string& name, const char* prefix,
                  const char* suffix, uint64_t* seq) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() != prefix_len + 16 + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (name.compare(prefix_len + 16, suffix_len, suffix) != 0) return false;
  uint64_t value = 0;
  for (size_t i = prefix_len; i < prefix_len + 16; ++i) {
    const char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *seq = value;
  return true;
}

bool MakeDirs(const std::string& path, std::string* error) {
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    const size_t end = slash == std::string::npos ? path.size() : slash;
    partial = path.substr(0, end);
    pos = end + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      *error = "mkdir " + partial + ": " + std::strerror(errno);
      return false;
    }
    if (slash == std::string::npos) break;
  }
  return true;
}

bool SyncDir(const std::string& dir, std::string* error) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    *error = "open dir " + dir + ": " + std::strerror(errno);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok) *error = "fsync dir " + dir + ": " + std::strerror(errno);
  ::close(fd);
  return ok;
}

struct DirListing {
  std::vector<uint64_t> checkpoint_seqs;  // sorted descending
  std::vector<uint64_t> wal_bases;        // sorted ascending
};

bool ListDataDir(const std::string& dir, DirListing* listing,
                 std::string* error) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    *error = "opendir " + dir + ": " + std::strerror(errno);
    return false;
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    uint64_t seq;
    if (ParseSeqName(name, "checkpoint-", ".ckpt", &seq)) {
      listing->checkpoint_seqs.push_back(seq);
    } else if (ParseSeqName(name, "wal-", ".log", &seq)) {
      listing->wal_bases.push_back(seq);
    }
  }
  ::closedir(d);
  std::sort(listing->checkpoint_seqs.rbegin(),
            listing->checkpoint_seqs.rend());
  std::sort(listing->wal_bases.begin(), listing->wal_bases.end());
  return true;
}

void EncodeAppliedEntry(const AppliedPublishRecord& entry, std::string* out) {
  PutU64(out, entry.token);
  PutU64(out, entry.publish_id);
  PutU64(out, entry.snapshot_id);
  PutU64(out, entry.snapshot_seq);
  PutU64(out, entry.live_rows);
  PutU64(out, entry.physical_rows);
}

AppliedPublishRecord RecordOf(uint64_t token, uint64_t publish_id,
                              const DatasetSnapshot& snapshot) {
  AppliedPublishRecord record;
  record.token = token;
  record.publish_id = publish_id;
  record.snapshot_id = snapshot.id();
  record.snapshot_seq = snapshot.seq();
  record.live_rows = snapshot.live_rows();
  record.physical_rows = snapshot.rows();
  return record;
}

bool DecodeAppliedEntry(ByteReader* reader, AppliedPublishRecord* entry) {
  return reader->U64(&entry->token) && reader->U64(&entry->publish_id) &&
         reader->U64(&entry->snapshot_id) &&
         reader->U64(&entry->snapshot_seq) &&
         reader->U64(&entry->live_rows) &&
         reader->U64(&entry->physical_rows);
}

}  // namespace

// ---------------------------------------------------------------------------
// Publish WAL records.

std::string EncodePublishWalRecord(const PublishWalRecord& record) {
  std::string payload;
  PutU32(&payload, kPublishKind);
  PutU64(&payload, record.parent_id);
  PutU64(&payload, record.parent_seq);
  PutU64(&payload, record.child_id);
  PutU64(&payload, record.child_seq);
  PutU64(&payload, record.token);
  PutU64(&payload, record.publish_id);
  PutU64(&payload, record.first_insert_id);
  PutU32(&payload, record.dim);
  PutU32(&payload, static_cast<uint32_t>(record.deletes.size()));
  for (const int id : record.deletes) {
    PutU64(&payload, static_cast<uint64_t>(id));
  }
  PutU32(&payload, static_cast<uint32_t>(record.inserts.size()));
  for (const Vec& row : record.inserts) {
    PutBytes(&payload, row.data(), record.dim * sizeof(double));
  }
  return payload;
}

bool DecodePublishWalRecord(const std::string& payload,
                            PublishWalRecord* record, std::string* error) {
  ByteReader reader(payload.data(), payload.size());
  uint32_t kind = 0;
  if (!reader.U32(&kind) || kind != kPublishKind) {
    *error = "not a publish record";
    return false;
  }
  uint32_t n_deletes = 0;
  if (!reader.U64(&record->parent_id) || !reader.U64(&record->parent_seq) ||
      !reader.U64(&record->child_id) || !reader.U64(&record->child_seq) ||
      !reader.U64(&record->token) || !reader.U64(&record->publish_id) ||
      !reader.U64(&record->first_insert_id) || !reader.U32(&record->dim) ||
      !reader.U32(&n_deletes)) {
    *error = "publish record truncated";
    return false;
  }
  if (record->dim == 0 || record->dim > kMaxDim) {
    *error = "publish record: implausible dim";
    return false;
  }
  if (n_deletes > kMaxRecordRows ||
      reader.remaining() < static_cast<size_t>(n_deletes) * 8) {
    *error = "publish record: implausible delete count";
    return false;
  }
  record->deletes.clear();
  record->deletes.reserve(n_deletes);
  for (uint32_t i = 0; i < n_deletes; ++i) {
    uint64_t id = 0;
    reader.U64(&id);
    if (id > static_cast<uint64_t>(INT32_MAX)) {
      *error = "publish record: delete id out of range";
      return false;
    }
    record->deletes.push_back(static_cast<int>(id));
  }
  uint32_t n_inserts = 0;
  if (!reader.U32(&n_inserts)) {
    *error = "publish record truncated";
    return false;
  }
  const size_t row_bytes = static_cast<size_t>(record->dim) * sizeof(double);
  if (n_inserts > kMaxRecordRows ||
      reader.remaining() != static_cast<size_t>(n_inserts) * row_bytes) {
    *error = "publish record: insert payload size mismatch";
    return false;
  }
  record->inserts.clear();
  record->inserts.reserve(n_inserts);
  for (uint32_t i = 0; i < n_inserts; ++i) {
    Vec row(record->dim);
    if (!reader.Bytes(row.data(), row_bytes)) {
      *error = "publish record truncated";
      return false;
    }
    record->inserts.push_back(std::move(row));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoints.

bool WriteCheckpointFile(const std::string& path,
                         const DatasetSnapshot& snapshot,
                         const std::vector<AppliedPublishRecord>& applied,
                         std::string* error) {
  const std::string tmp = path + ".tmp";
  ::unlink(tmp.c_str());
  auto file = PosixWalFile::OpenAppend(tmp, error);
  if (file == nullptr) return false;

  const size_t n_chunks =
      (snapshot.rows() + DatasetSnapshot::kChunkRows - 1) >>
      DatasetSnapshot::kChunkShift;
  std::string out;
  {
    std::string payload;
    PutU32(&payload, kCkptHeaderKind);
    PutU32(&payload, kCheckpointVersion);
    PutU64(&payload, snapshot.id());
    PutU64(&payload, snapshot.seq());
    PutU64(&payload, snapshot.parent_id());
    PutU64(&payload, static_cast<uint64_t>(snapshot.rows()));
    PutU32(&payload, static_cast<uint32_t>(snapshot.dim()));
    PutU32(&payload, static_cast<uint32_t>(n_chunks));
    FrameWalRecord(payload, &out);
  }
  for (size_t c = 0; c < n_chunks; ++c) {
    const auto chunk = snapshot.ChunkForRow(c << DatasetSnapshot::kChunkShift);
    std::string payload;
    PutU32(&payload, kCkptChunkKind);
    PutU32(&payload, static_cast<uint32_t>(c));
    PutU32(&payload, static_cast<uint32_t>(chunk->size()));
    PutBytes(&payload, chunk->data(), chunk->size() * sizeof(double));
    FrameWalRecord(payload, &out);
  }
  {
    std::string payload;
    PutU32(&payload, kCkptLiveKind);
    PutU64(&payload, static_cast<uint64_t>(snapshot.rows()));
    for (size_t row = 0; row < snapshot.rows(); ++row) {
      payload.push_back(snapshot.IsLive(row) ? '\1' : '\0');
    }
    FrameWalRecord(payload, &out);
  }
  {
    std::string payload;
    PutU32(&payload, kCkptDedupeKind);
    PutU32(&payload, static_cast<uint32_t>(applied.size()));
    for (const AppliedPublishRecord& entry : applied) {
      EncodeAppliedEntry(entry, &payload);
    }
    FrameWalRecord(payload, &out);
  }
  {
    std::string payload;
    PutU32(&payload, kCkptFooterKind);
    PutU64(&payload, snapshot.id());
    FrameWalRecord(payload, &out);
  }

  if (!file->Append(out.data(), out.size()) || !file->Sync()) {
    *error = "checkpoint write: " + file->last_error();
    file.reset();
    ::unlink(tmp.c_str());
    return false;
  }
  file.reset();  // close before rename
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename " + tmp + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  return SyncDir(dir, error);
}

SnapshotPtr LoadCheckpointFile(const std::string& path,
                               std::vector<AppliedPublishRecord>* applied,
                               std::string* error) {
  WalReadResult scan = ReadWalRecords(path);
  if (!scan.ok || scan.torn_tail) {
    // Checkpoints land atomically via rename, so a torn tail here is
    // damage, not a crash artifact -- reject the whole file.
    *error = "checkpoint damaged: " +
             (scan.detail.empty() ? std::string("unreadable") : scan.detail);
    return nullptr;
  }
  if (scan.records.empty()) {
    *error = "checkpoint empty";
    return nullptr;
  }

  uint64_t id = 0;
  uint64_t seq = 0;
  uint64_t parent_id = 0;
  uint64_t rows = 0;
  uint32_t dim = 0;
  uint32_t n_chunks = 0;
  {
    ByteReader reader(scan.records[0].data(), scan.records[0].size());
    uint32_t kind = 0;
    uint32_t version = 0;
    if (!reader.U32(&kind) || kind != kCkptHeaderKind ||
        !reader.U32(&version) || version != kCheckpointVersion ||
        !reader.U64(&id) || !reader.U64(&seq) || !reader.U64(&parent_id) ||
        !reader.U64(&rows) || !reader.U32(&dim) || !reader.U32(&n_chunks) ||
        !reader.Done()) {
      *error = "checkpoint header malformed";
      return nullptr;
    }
  }
  if (rows > 0 && (dim == 0 || dim > kMaxDim)) {
    *error = "checkpoint header: implausible dim";
    return nullptr;
  }
  const uint64_t want_chunks =
      (rows + DatasetSnapshot::kChunkRows - 1) >> DatasetSnapshot::kChunkShift;
  if (n_chunks != want_chunks ||
      scan.records.size() != 1 + n_chunks + 3) {
    *error = "checkpoint record count mismatch";
    return nullptr;
  }

  std::vector<std::shared_ptr<const std::vector<double>>> chunks;
  chunks.reserve(n_chunks);
  for (uint32_t c = 0; c < n_chunks; ++c) {
    const std::string& payload = scan.records[1 + c];
    ByteReader reader(payload.data(), payload.size());
    uint32_t kind = 0;
    uint32_t index = 0;
    uint32_t n_values = 0;
    if (!reader.U32(&kind) || kind != kCkptChunkKind ||
        !reader.U32(&index) || index != c || !reader.U32(&n_values) ||
        reader.remaining() != static_cast<size_t>(n_values) *
                                  sizeof(double)) {
      *error = "checkpoint chunk malformed";
      return nullptr;
    }
    auto values = std::make_shared<std::vector<double>>(n_values);
    if (n_values > 0 &&
        !reader.Bytes(values->data(), n_values * sizeof(double))) {
      *error = "checkpoint chunk truncated";
      return nullptr;
    }
    chunks.push_back(std::move(values));
  }

  std::vector<uint8_t> live;
  {
    const std::string& payload = scan.records[1 + n_chunks];
    ByteReader reader(payload.data(), payload.size());
    uint32_t kind = 0;
    uint64_t live_rows = 0;
    if (!reader.U32(&kind) || kind != kCkptLiveKind ||
        !reader.U64(&live_rows) || live_rows != rows ||
        reader.remaining() != rows) {
      *error = "checkpoint live bitmap malformed";
      return nullptr;
    }
    live.resize(rows);
    if (rows > 0 && !reader.Bytes(live.data(), rows)) {
      *error = "checkpoint live bitmap truncated";
      return nullptr;
    }
  }

  std::vector<AppliedPublishRecord> dedupe;
  {
    const std::string& payload = scan.records[1 + n_chunks + 1];
    ByteReader reader(payload.data(), payload.size());
    uint32_t kind = 0;
    uint32_t n_entries = 0;
    if (!reader.U32(&kind) || kind != kCkptDedupeKind ||
        !reader.U32(&n_entries) ||
        reader.remaining() != static_cast<size_t>(n_entries) * 48) {
      *error = "checkpoint dedupe table malformed";
      return nullptr;
    }
    dedupe.resize(n_entries);
    for (uint32_t i = 0; i < n_entries; ++i) {
      if (!DecodeAppliedEntry(&reader, &dedupe[i])) {
        *error = "checkpoint dedupe table truncated";
        return nullptr;
      }
    }
  }

  {
    const std::string& payload = scan.records[1 + n_chunks + 2];
    ByteReader reader(payload.data(), payload.size());
    uint32_t kind = 0;
    uint64_t footer_id = 0;
    if (!reader.U32(&kind) || kind != kCkptFooterKind ||
        !reader.U64(&footer_id) || footer_id != id || !reader.Done()) {
      *error = "checkpoint footer missing or inconsistent";
      return nullptr;
    }
  }

  SnapshotPtr snapshot = DatasetSnapshot::Restore(
      std::move(chunks), std::move(live), static_cast<size_t>(rows), dim, id,
      seq, parent_id);
  if (snapshot == nullptr) {
    *error = "checkpoint shapes inconsistent";
    return nullptr;
  }
  if (applied != nullptr) *applied = std::move(dedupe);
  return snapshot;
}

// ---------------------------------------------------------------------------
// DurableCatalog.

namespace {

/// Replays the WAL tail onto `catalog`. Returns false + *error on any
/// record that fails to decode, chain, or re-derive its recorded id.
bool ReplayWalTail(const std::vector<std::string>& records,
                   MutableCatalog* catalog,
                   std::vector<AppliedPublishRecord>* applied,
                   RecoveryStats* stats, std::string* error) {
  for (const std::string& payload : records) {
    PublishWalRecord record;
    if (!DecodePublishWalRecord(payload, &record, error)) return false;
    SnapshotPtr current = catalog->Current();
    if (record.child_seq <= current->seq()) {
      ++stats->skipped_records;  // already inside the checkpoint
      continue;
    }
    if (record.child_seq != current->seq() + 1 ||
        record.parent_id != current->id() ||
        record.parent_seq != current->seq()) {
      *error = "wal replay: chain break (record does not extend the "
               "recovered snapshot)";
      return false;
    }
    if (current->dim() != 0 && record.dim != current->dim()) {
      *error = "wal replay: dimension mismatch";
      return false;
    }
    if (record.first_insert_id != current->rows()) {
      *error = "wal replay: insert ids do not start at the parent's rows";
      return false;
    }
    for (const Vec& row : record.inserts) catalog->StageInsert(row);
    for (const int id : record.deletes) {
      if (!catalog->StageDelete(id)) {
        catalog->DiscardStaged();
        *error = "wal replay: delete of a dead or unknown row";
        return false;
      }
    }
    uint64_t predicted_id = 0;
    uint64_t predicted_seq = 0;
    if (!catalog->PredictPublish(&predicted_id, &predicted_seq) ||
        predicted_id != record.child_id ||
        predicted_seq != record.child_seq) {
      catalog->DiscardStaged();
      *error = "wal replay: re-derived snapshot id differs from the "
               "recorded one (corrupt or foreign record)";
      return false;
    }
    SnapshotPtr published = catalog->Publish();
    ++stats->replayed_records;
    if (record.token != 0) {
      applied->push_back(
          RecordOf(record.token, record.publish_id, *published));
    }
  }
  return true;
}

// Takes the single-writer lock: an exclusive, non-blocking flock on
// <data_dir>/LOCK. Returns the held fd, or -1 with *error (EWOULDBLOCK
// means another live DurableCatalog owns the directory). flock (not
// fcntl record locks) on purpose: the lock follows the open file
// description, so it survives fork-without-exec but is released by the
// kernel the instant the owning process dies -- including SIGKILL --
// which is exactly the recovery story this directory needs.
int AcquireDirLock(const std::string& data_dir, std::string* error) {
  const std::string path = data_dir + "/LOCK";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    *error = "durability: open " + path + ": " + std::strerror(errno);
    return -1;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int saved = errno;
    ::close(fd);
    if (saved == EWOULDBLOCK) {
      *error = "durability: " + data_dir +
               " is locked by another live process (single-writer: stop "
               "it before reopening this directory)";
    } else {
      *error = "durability: flock " + path + ": " + std::strerror(saved);
    }
    return -1;
  }
  return fd;
}

}  // namespace

DurableCatalog::~DurableCatalog() {
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
}

std::unique_ptr<DurableCatalog> DurableCatalog::Open(
    const DurabilityOptions& options, const Dataset* bootstrap,
    std::string* error) {
  if (options.data_dir.empty()) {
    if (bootstrap == nullptr) {
      *error = "durability: in-memory catalog needs a bootstrap dataset";
      return nullptr;
    }
    auto memory = std::unique_ptr<DurableCatalog>(new DurableCatalog());
    memory->options_ = options;
    memory->catalog_ = std::make_shared<MutableCatalog>(
        DatasetSnapshot::FromDataset(*bootstrap));
    return memory;
  }
  Timer timer;
  if (!MakeDirs(options.data_dir, error)) return nullptr;
  const int lock_fd = AcquireDirLock(options.data_dir, error);
  if (lock_fd < 0) return nullptr;
  DirListing listing;
  if (!ListDataDir(options.data_dir, &listing, error)) {
    ::close(lock_fd);
    return nullptr;
  }

  auto durable = std::unique_ptr<DurableCatalog>(new DurableCatalog());
  durable->options_ = options;
  durable->lock_fd_ = lock_fd;

  if (listing.checkpoint_seqs.empty() && listing.wal_bases.empty()) {
    // Fresh directory: initialize from the bootstrap dataset.
    if (bootstrap == nullptr) {
      *error = "durability: empty data_dir and no bootstrap dataset";
      return nullptr;
    }
    durable->catalog_ = std::make_shared<MutableCatalog>(
        DatasetSnapshot::FromDataset(*bootstrap));
  } else if (listing.checkpoint_seqs.empty()) {
    // A WAL with no checkpoint cannot anchor a replay: the chain's base
    // snapshot is gone. Reject rather than guess.
    *error = "durability: wal files present but no checkpoint";
    return nullptr;
  } else {
    // Recover: newest loadable checkpoint, then the WAL tail.
    std::string last_failure;
    bool recovered = false;
    for (const uint64_t ckpt_seq : listing.checkpoint_seqs) {
      std::vector<AppliedPublishRecord> applied;
      SnapshotPtr base = LoadCheckpointFile(
          options.data_dir + "/" + CheckpointName(ckpt_seq), &applied,
          &last_failure);
      if (base == nullptr) continue;
      if (base->seq() != ckpt_seq) {
        last_failure = "checkpoint seq does not match its filename "
                       "(stale or renamed generation)";
        continue;
      }
      auto catalog = std::make_shared<MutableCatalog>(base);
      RecoveryStats stats;
      stats.checkpoint_seq = ckpt_seq;
      bool tail_ok = true;
      for (const uint64_t wal_base : listing.wal_bases) {
        // Logs below the checkpoint's base are fully covered by it
        // (rotation happens atomically with the checkpoint).
        if (wal_base < ckpt_seq) continue;
        WalReadResult scan = ReadWalRecords(
            options.data_dir + "/" + WalName(wal_base));
        if (!scan.ok) {
          last_failure = "wal-" + std::to_string(wal_base) + ": " +
                         scan.detail;
          tail_ok = false;
          break;
        }
        if (scan.torn_tail) stats.wal_tail_truncated = true;
        if (!ReplayWalTail(scan.records, catalog.get(), &applied, &stats,
                           &last_failure)) {
          tail_ok = false;
          break;
        }
      }
      if (!tail_ok) continue;
      durable->catalog_ = std::move(catalog);
      {
        std::lock_guard<std::mutex> lock(durable->mu_);
        for (const AppliedPublishRecord& record : applied) {
          durable->RememberLocked(record);
        }
      }
      durable->recovery_ = stats;
      durable->recovery_.recovered = true;
      recovered = true;
      break;
    }
    if (!recovered) {
      *error = "durability: no recoverable checkpoint/wal generation (" +
               (last_failure.empty() ? std::string("none found")
                                     : last_failure) +
               ")";
      return nullptr;
    }
  }

  // Seal the recovered (or fresh) state: a new checkpoint at the current
  // seq, a new log, and GC of everything older. This is what physically
  // discards torn WAL tails.
  {
    std::lock_guard<std::mutex> lock(durable->mu_);
    if (!durable->CheckpointLocked(error)) return nullptr;
  }
  SnapshotPtr head = durable->catalog_->Current();
  durable->recovery_.snapshot_id = head->id();
  durable->recovery_.snapshot_seq = head->seq();
  durable->recovery_.recovery_seconds = timer.Seconds();
  return durable;
}

bool DurableCatalog::OpenWalForAppend(uint64_t base_seq, std::string* error) {
  if (wal_ != nullptr) {
    retired_.wal_appends += wal_->appends();
    retired_.wal_bytes += wal_->bytes();
    retired_.wal_fsyncs += wal_->syncs();
  }
  std::unique_ptr<WalFile> file = PosixWalFile::OpenAppend(
      options_.data_dir + "/" + WalName(base_seq), error);
  if (file == nullptr) return false;
  if (options_.wrap_wal_file) file = options_.wrap_wal_file(std::move(file));
  wal_ = std::make_unique<WalWriter>(std::move(file), options_.fsync_policy,
                                     options_.wal_batch_bytes);
  wal_base_seq_ = base_seq;
  return true;
}

bool DurableCatalog::CheckpointLocked(std::string* error) {
  SnapshotPtr head = catalog_->Current();
  if (!WriteCheckpointFile(
          options_.data_dir + "/" + CheckpointName(head->seq()), *head,
          AppliedLocked(), error)) {
    return false;
  }
  ++checkpoints_written_;
  if (!OpenWalForAppend(head->seq(), error)) return false;
  std::string sync_error;
  if (!SyncDir(options_.data_dir, &sync_error)) {
    *error = sync_error;
    return false;
  }
  // GC superseded generations; best-effort (a leftover file is only
  // wasted bytes, recovery skips it).
  DirListing listing;
  std::string list_error;
  if (ListDataDir(options_.data_dir, &listing, &list_error)) {
    for (const uint64_t seq : listing.checkpoint_seqs) {
      if (seq != head->seq()) {
        ::unlink(
            (options_.data_dir + "/" + CheckpointName(seq)).c_str());
      }
    }
    for (const uint64_t base : listing.wal_bases) {
      if (base != head->seq()) {
        ::unlink((options_.data_dir + "/" + WalName(base)).c_str());
      }
    }
  }
  publishes_since_checkpoint_ = 0;
  return true;
}

void DurableCatalog::RememberLocked(const AppliedPublishRecord& record) {
  if (record.token == 0) return;
  // A known token only replaces its record; it keeps its place.
  if (!applied_.insert_or_assign(record.token, record).second) return;
  applied_order_.push_back(record.token);
  if (applied_order_.size() > kMaxAppliedTokens) {
    applied_.erase(applied_order_.front());
    applied_order_.pop_front();
  }
}

std::vector<AppliedPublishRecord> DurableCatalog::AppliedLocked() const {
  std::vector<AppliedPublishRecord> applied;
  applied.reserve(applied_order_.size());
  for (const uint64_t token : applied_order_) {
    applied.push_back(applied_.at(token));
  }
  return applied;
}

const AppliedPublishRecord* DurableCatalog::FindLocked(
    uint64_t token, uint64_t publish_id) const {
  if (token == 0) return nullptr;
  const auto it = applied_.find(token);
  return it != applied_.end() && it->second.publish_id == publish_id
             ? &it->second
             : nullptr;
}

std::optional<AppliedPublishRecord> DurableCatalog::LookupPublish(
    uint64_t token, uint64_t publish_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const AppliedPublishRecord* record = FindLocked(token, publish_id);
  if (record == nullptr) return std::nullopt;
  return *record;
}

DurableCatalog::PublishOutcome DurableCatalog::Publish(
    const std::vector<Vec>& inserts, const std::vector<uint64_t>& deletes,
    uint64_t token, uint64_t publish_id) {
  std::lock_guard<std::mutex> lock(mu_);
  PublishOutcome outcome;
  SnapshotPtr parent = catalog_->Current();
  if (const AppliedPublishRecord* seen = FindLocked(token, publish_id)) {
    outcome.ok = true;
    outcome.status = PublishStatus::kAlreadyApplied;
    outcome.snapshot = std::move(parent);
    outcome.applied = *seen;
    return outcome;
  }
  // Answers this publish with `snapshot`, the now-current version.
  const auto applied = [&](SnapshotPtr snapshot) {
    outcome.ok = true;
    outcome.status = PublishStatus::kApplied;
    outcome.applied = RecordOf(token, publish_id, *snapshot);
    outcome.snapshot = std::move(snapshot);
  };
  if (inserts.empty() && deletes.empty()) {
    applied(std::move(parent));
    return outcome;
  }

  // Validate the whole delta before staging anything, so a rejected
  // publish has no side effects at all.
  PublishWalRecord record;
  record.deletes.reserve(deletes.size());
  for (const uint64_t id : deletes) {
    if (id >= parent->rows() || !parent->IsLive(id)) {
      outcome.status = PublishStatus::kConflict;
      outcome.error = "row id " + std::to_string(id) + " is no longer live";
      return outcome;
    }
    record.deletes.push_back(static_cast<int>(id));
  }
  std::sort(record.deletes.begin(), record.deletes.end());
  record.deletes.erase(
      std::unique(record.deletes.begin(), record.deletes.end()),
      record.deletes.end());
  const size_t dim = parent->dim() != 0 ? parent->dim()
                                        : (inserts.empty()
                                               ? 0
                                               : inserts.front().dim());
  for (const Vec& row : inserts) {
    if (row.dim() != dim || dim == 0) {
      outcome.error = "durable publish: insert dimension mismatch";
      return outcome;
    }
  }

  for (const Vec& row : inserts) catalog_->StageInsert(row);
  for (const int id : record.deletes) catalog_->StageDelete(id);

  if (in_memory()) {
    applied(catalog_->Publish());
    RememberLocked(outcome.applied);
    return outcome;
  }

  uint64_t child_id = 0;
  uint64_t child_seq = 0;
  if (!catalog_->PredictPublish(&child_id, &child_seq)) {
    catalog_->DiscardStaged();
    outcome.error = "durable publish: nothing staged after validation";
    return outcome;
  }
  record.parent_id = parent->id();
  record.parent_seq = parent->seq();
  record.child_id = child_id;
  record.child_seq = child_seq;
  record.token = token;
  record.publish_id = publish_id;
  record.first_insert_id = parent->rows();
  record.dim = static_cast<uint32_t>(dim);
  record.inserts = inserts;

  // Append-then-apply: the record must be durable (per policy) before
  // the in-memory state moves. A failed append rolls staging back and
  // nothing is acknowledged.
  if (!wal_->AppendRecord(EncodePublishWalRecord(record))) {
    catalog_->DiscardStaged();
    outcome.error = "wal append failed: " + wal_->last_error();
    return outcome;
  }

  SnapshotPtr published = catalog_->Publish();
  if (published->id() != child_id || published->seq() != child_seq) {
    // Prediction drift would make replay reject this record; surface it
    // loudly instead of serving state the log cannot reproduce.
    outcome.error = "durable publish: published id drifted from the "
                    "logged prediction";
    LOG(ERROR) << outcome.error;
    return outcome;
  }
  applied(std::move(published));
  RememberLocked(outcome.applied);

  ++publishes_since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      publishes_since_checkpoint_ >= options_.checkpoint_every) {
    std::string ckpt_error;
    if (!CheckpointLocked(&ckpt_error)) {
      // The WAL still covers everything; the checkpoint retries after
      // the next batch of publishes.
      LOG(WARNING) << "checkpoint failed (will retry): " << ckpt_error;
      publishes_since_checkpoint_ = 0;
    }
  }
  return outcome;
}

bool DurableCatalog::Checkpoint(std::string* error) {
  if (in_memory()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked(error);
}

bool DurableCatalog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ != nullptr ? wal_->Sync() : true;
}

DurableCounters DurableCatalog::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurableCounters counters = retired_;
  if (wal_ != nullptr) {
    counters.wal_appends += wal_->appends();
    counters.wal_bytes += wal_->bytes();
    counters.wal_fsyncs += wal_->syncs();
  }
  counters.checkpoints_written = checkpoints_written_;
  return counters;
}

}  // namespace toprr
