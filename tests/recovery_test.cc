// Checkpoint + WAL recovery tests, including the seeded corruption
// corpus from the durability issue: every mutant of a real on-disk
// generation must either recover to a state that existed on the true
// chain (bit-identical snapshot id) or be rejected with a typed error.
// No mutant may crash the process or load wrong data.
#include "data/recovery.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/snapshot.h"
#include "data/wal.h"

namespace toprr {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/toprr_recovery_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buf[64 * 1024];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

void RemoveAllIn(const std::string& dir) {
  for (const std::string& name : ListDir(dir)) {
    ::unlink((dir + "/" + name).c_str());
  }
}

bool HasPrefixSuffix(const std::string& name, const char* prefix,
                     const char* suffix) {
  const size_t pre = std::strlen(prefix);
  const size_t suf = std::strlen(suffix);
  return name.size() > pre + suf && name.compare(0, pre, prefix) == 0 &&
         name.compare(name.size() - suf, suf, suffix) == 0;
}

Dataset MakeBootstrap(size_t n, size_t d) {
  Dataset data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      data.At(i, j) = 0.01 * static_cast<double>(i * d + j + 1);
    }
  }
  return data;
}

DurabilityOptions FastOptions(const std::string& dir) {
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kOff;  // tests care about bytes
  options.checkpoint_every = 0;              // only the open-time checkpoint
  return options;
}

/// One closed session's on-disk generation plus the ground-truth chain:
/// the (seq, id) of the bootstrap root and of every publish.
struct SessionFiles {
  std::string ckpt_name;
  std::string wal_name;
  std::string ckpt_bytes;
  std::string wal_bytes;
  std::map<uint64_t, uint64_t> id_by_seq;
  uint64_t head_seq = 0;
};

SessionFiles RunSealedSession(int publishes) {
  SessionFiles session;
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(20, 3);
  std::string error;
  auto durable = DurableCatalog::Open(FastOptions(dir), &bootstrap, &error);
  EXPECT_NE(durable, nullptr) << error;
  if (durable == nullptr) return session;
  SnapshotPtr root = durable->catalog()->Current();
  session.id_by_seq[root->seq()] = root->id();
  for (int i = 1; i <= publishes; ++i) {
    Vec row(3);
    row[0] = 0.5 + 0.01 * i;
    row[1] = 0.25;
    row[2] = 0.125 * i;
    const auto outcome =
        durable->Publish({row}, {static_cast<uint64_t>(i - 1)},
                         /*token=*/77, /*publish_id=*/static_cast<uint64_t>(i));
    EXPECT_TRUE(outcome.ok) << outcome.error;
    session.id_by_seq[outcome.snapshot->seq()] = outcome.snapshot->id();
    session.head_seq = outcome.snapshot->seq();
  }
  durable.reset();  // close; checkpoint_every=0 leaves the WAL as the tail
  for (const std::string& name : ListDir(dir)) {
    if (HasPrefixSuffix(name, "checkpoint-", ".ckpt")) {
      EXPECT_TRUE(session.ckpt_name.empty()) << "more than one checkpoint";
      session.ckpt_name = name;
    } else if (HasPrefixSuffix(name, "wal-", ".log")) {
      EXPECT_TRUE(session.wal_name.empty()) << "more than one wal";
      session.wal_name = name;
    }
  }
  EXPECT_FALSE(session.ckpt_name.empty());
  EXPECT_FALSE(session.wal_name.empty());
  session.ckpt_bytes = ReadFileBytes(dir + "/" + session.ckpt_name);
  session.wal_bytes = ReadFileBytes(dir + "/" + session.wal_name);
  return session;
}

/// Offsets of every frame boundary in a record stream (0, after frame 1,
/// ...), trusting only the length headers.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> bounds = {0};
  size_t pos = 0;
  while (pos + kWalHeaderBytes <= bytes.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(
                 static_cast<unsigned char>(bytes[pos + static_cast<size_t>(i)]))
             << (8 * i);
    }
    if (bytes.size() - pos - kWalHeaderBytes < len) break;
    pos += kWalHeaderBytes + len;
    bounds.push_back(pos);
  }
  return bounds;
}

/// Opens a scratch generation assembled from the given bytes and checks
/// the recover-or-reject contract against the session's true chain.
/// Returns true when the mutant recovered.
bool CheckMutant(const SessionFiles& session, const std::string& scratch,
                 const std::string& ckpt_bytes, const std::string& wal_bytes) {
  RemoveAllIn(scratch);
  WriteFileBytes(scratch + "/" + session.ckpt_name, ckpt_bytes);
  WriteFileBytes(scratch + "/" + session.wal_name, wal_bytes);
  std::string error;
  auto durable = DurableCatalog::Open(FastOptions(scratch), nullptr, &error);
  if (durable == nullptr) {
    EXPECT_FALSE(error.empty());  // typed rejection, never silent
    return false;
  }
  const RecoveryStats& recovery = durable->recovery();
  EXPECT_TRUE(recovery.recovered);
  const auto truth = session.id_by_seq.find(recovery.snapshot_seq);
  EXPECT_NE(truth, session.id_by_seq.end())
      << "recovered to seq " << recovery.snapshot_seq
      << " which was never published";
  if (truth != session.id_by_seq.end()) {
    EXPECT_EQ(recovery.snapshot_id, truth->second)
        << "recovered snapshot id differs from the true chain at seq "
        << recovery.snapshot_seq;
  }
  return true;
}

TEST(PublishWalRecordTest, EncodeDecodeRoundTrips) {
  PublishWalRecord record;
  record.parent_id = 0x1111222233334444ull;
  record.parent_seq = 7;
  record.child_id = 0x5555666677778888ull;
  record.child_seq = 8;
  record.token = 42;
  record.publish_id = 9001;
  record.first_insert_id = 123;
  record.dim = 3;
  record.inserts = {Vec{0.1, 0.2, 0.3}, Vec{0.4, 0.5, 0.6}};
  record.deletes = {4, 9, 77};
  const std::string payload = EncodePublishWalRecord(record);

  PublishWalRecord decoded;
  std::string error;
  ASSERT_TRUE(DecodePublishWalRecord(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded.parent_id, record.parent_id);
  EXPECT_EQ(decoded.parent_seq, record.parent_seq);
  EXPECT_EQ(decoded.child_id, record.child_id);
  EXPECT_EQ(decoded.child_seq, record.child_seq);
  EXPECT_EQ(decoded.token, record.token);
  EXPECT_EQ(decoded.publish_id, record.publish_id);
  EXPECT_EQ(decoded.first_insert_id, record.first_insert_id);
  EXPECT_EQ(decoded.dim, record.dim);
  EXPECT_EQ(decoded.deletes, record.deletes);
  ASSERT_EQ(decoded.inserts.size(), 2u);
  EXPECT_EQ(decoded.inserts[1][2], 0.6);
}

TEST(PublishWalRecordTest, DecodeRejectsEveryTruncation) {
  PublishWalRecord record;
  record.child_seq = 2;
  record.dim = 2;
  record.inserts = {Vec{0.1, 0.2}};
  record.deletes = {3};
  const std::string payload = EncodePublishWalRecord(record);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    PublishWalRecord decoded;
    std::string error;
    EXPECT_FALSE(
        DecodePublishWalRecord(payload.substr(0, cut), &decoded, &error))
        << "truncation to " << cut << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(PublishWalRecordTest, DecodeRejectsImplausibleShapes) {
  PublishWalRecord record;
  record.dim = 2;
  record.inserts = {Vec{0.1, 0.2}};
  std::string payload = EncodePublishWalRecord(record);
  // dim sits right after kind + 7 u64 fields.
  const size_t dim_offset = 4 + 7 * 8;
  std::string zero_dim = payload;
  zero_dim[dim_offset] = '\0';
  PublishWalRecord decoded;
  std::string error;
  EXPECT_FALSE(DecodePublishWalRecord(zero_dim, &decoded, &error));
  std::string huge_dim = payload;
  huge_dim[dim_offset + 2] = '\x7f';  // dim |= 0x7f0000 > kMaxDim
  EXPECT_FALSE(DecodePublishWalRecord(huge_dim, &decoded, &error));
}

TEST(CheckpointTest, RoundTripsSnapshotAndDedupeTable) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/checkpoint-x.ckpt";
  const Dataset bootstrap = MakeBootstrap(30, 3);
  MutableCatalog catalog(bootstrap);
  catalog.StageInsert(Vec{0.9, 0.8, 0.7});
  ASSERT_TRUE(catalog.StageDelete(5));
  SnapshotPtr snapshot = catalog.Publish();

  std::vector<AppliedPublishRecord> applied(2);
  applied[0].token = 10;
  applied[0].publish_id = 1;
  applied[0].snapshot_id = snapshot->id();
  applied[0].snapshot_seq = snapshot->seq();
  applied[1].token = 11;
  applied[1].publish_id = 2;

  std::string error;
  ASSERT_TRUE(WriteCheckpointFile(path, *snapshot, applied, &error)) << error;

  std::vector<AppliedPublishRecord> loaded_applied;
  SnapshotPtr loaded = LoadCheckpointFile(path, &loaded_applied, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->id(), snapshot->id());
  EXPECT_EQ(loaded->seq(), snapshot->seq());
  EXPECT_EQ(loaded->parent_id(), snapshot->parent_id());
  EXPECT_EQ(loaded->rows(), snapshot->rows());
  EXPECT_EQ(loaded->live_rows(), snapshot->live_rows());
  EXPECT_FALSE(loaded->IsLive(5));
  EXPECT_EQ(loaded->Row(30)[0], 0.9);  // the inserted row (id = old rows)
  ASSERT_EQ(loaded_applied.size(), 2u);
  EXPECT_EQ(loaded_applied[0].token, 10u);
  EXPECT_EQ(loaded_applied[0].snapshot_id, snapshot->id());
  EXPECT_EQ(loaded_applied[1].publish_id, 2u);
}

TEST(CheckpointTest, LoadRejectsByteFlip) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/checkpoint-x.ckpt";
  const Dataset bootstrap = MakeBootstrap(8, 2);
  SnapshotPtr snapshot = DatasetSnapshot::FromDataset(bootstrap);
  std::string error;
  ASSERT_TRUE(WriteCheckpointFile(path, *snapshot, {}, &error)) << error;
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFileBytes(path, bytes);
  SnapshotPtr loaded = LoadCheckpointFile(path, nullptr, &error);
  EXPECT_EQ(loaded, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(DurableCatalogTest, FreshDirBootstrapsThenRecoversWithDedupe) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(20, 3);
  std::string error;
  uint64_t head_id = 0;
  uint64_t head_seq = 0;
  {
    auto durable = DurableCatalog::Open(FastOptions(dir), &bootstrap, &error);
    ASSERT_NE(durable, nullptr) << error;
    EXPECT_FALSE(durable->recovery().recovered);  // fresh bootstrap
    for (int i = 1; i <= 4; ++i) {
      const auto outcome = durable->Publish(
          {Vec{0.1 * i, 0.2, 0.3}}, {static_cast<uint64_t>(i - 1)},
          /*token=*/77, /*publish_id=*/static_cast<uint64_t>(i));
      ASSERT_TRUE(outcome.ok) << outcome.error;
      head_id = outcome.snapshot->id();
      head_seq = outcome.snapshot->seq();
    }
    const DurableCounters counters = durable->counters();
    EXPECT_EQ(counters.wal_appends, 4u);
    EXPECT_GT(counters.wal_bytes, 0u);
    EXPECT_EQ(counters.checkpoints_written, 1u);  // the open-time seal
  }
  {
    // Second generation: replays the 4-record tail onto the checkpoint.
    auto durable = DurableCatalog::Open(FastOptions(dir), nullptr, &error);
    ASSERT_NE(durable, nullptr) << error;
    EXPECT_TRUE(durable->recovery().recovered);
    EXPECT_EQ(durable->recovery().replayed_records, 4u);
    EXPECT_EQ(durable->recovery().snapshot_id, head_id);
    EXPECT_EQ(durable->recovery().snapshot_seq, head_seq);
    // One token: the table keeps its latest publish only.
    const std::optional<AppliedPublishRecord> applied =
        durable->LookupPublish(77, 4);
    ASSERT_TRUE(applied.has_value());
    EXPECT_EQ(applied->snapshot_id, head_id);
    EXPECT_EQ(applied->snapshot_seq, head_seq);
    EXPECT_FALSE(durable->LookupPublish(77, 3).has_value());
  }
  {
    // Third generation: the replayed dedupe table was persisted into the
    // second generation's seal checkpoint, so it survives with an empty
    // WAL tail too.
    auto durable = DurableCatalog::Open(FastOptions(dir), nullptr, &error);
    ASSERT_NE(durable, nullptr) << error;
    EXPECT_TRUE(durable->recovery().recovered);
    EXPECT_EQ(durable->recovery().replayed_records, 0u);
    EXPECT_EQ(durable->recovery().snapshot_id, head_id);
    const std::optional<AppliedPublishRecord> applied =
        durable->LookupPublish(77, 4);
    ASSERT_TRUE(applied.has_value());
    EXPECT_EQ(applied->snapshot_id, head_id);
    EXPECT_EQ(applied->snapshot_seq, head_seq);
  }
}

TEST(DurableCatalogTest, RecoveredLiveIdsMatchTheBitmapWalk) {
  // Publish merges live ids from the parent's list; recovery loads them
  // from a checkpoint and replays the WAL tail through the same Publish.
  // Each publish deletes a root row and the first row the previous
  // publish inserted; a checkpoint midway makes recovery take both
  // paths. The recovered head must equal the walk of its bitmap and the
  // pre-crash list.
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(20, 3);
  std::string error;
  std::vector<int> live_before;
  const auto walk = [](const DatasetSnapshot& snap) {
    std::vector<int> ids;
    for (size_t row = 0; row < snap.rows(); ++row) {
      if (snap.IsLive(row)) ids.push_back(static_cast<int>(row));
    }
    return ids;
  };
  {
    auto durable = DurableCatalog::Open(FastOptions(dir), &bootstrap, &error);
    ASSERT_NE(durable, nullptr) << error;
    for (int i = 1; i <= 6; ++i) {
      std::vector<uint64_t> deletes = {static_cast<uint64_t>(i - 1)};
      if (i > 1) deletes.push_back(static_cast<uint64_t>(20 + 2 * (i - 2)));
      const auto outcome = durable->Publish(
          {Vec{0.1 * i, 0.2, 0.3}, Vec{0.3, 0.2, 0.1 * i}}, deletes,
          /*token=*/0, /*publish_id=*/0);
      ASSERT_TRUE(outcome.ok) << outcome.error;
      EXPECT_EQ(outcome.snapshot->live_ids(), walk(*outcome.snapshot));
      if (i == 3) {
        ASSERT_TRUE(durable->Checkpoint(&error)) << error;
      }
    }
    live_before = durable->catalog()->Current()->live_ids();
  }
  auto durable = DurableCatalog::Open(FastOptions(dir), nullptr, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_TRUE(durable->recovery().recovered);
  EXPECT_EQ(durable->recovery().replayed_records, 3u);
  const SnapshotPtr head = durable->catalog()->Current();
  EXPECT_EQ(head->live_ids(), live_before);
  EXPECT_EQ(head->live_ids(), walk(*head));
}

TEST(DurableCatalogTest, TornWalTailIsTruncatedOnRecovery) {
  SessionFiles session = RunSealedSession(3);
  const std::string scratch = MakeTempDir();
  WriteFileBytes(scratch + "/" + session.ckpt_name, session.ckpt_bytes);
  // A crash mid-append: half a frame of a fourth record.
  std::string torn = session.wal_bytes;
  std::string extra;
  FrameWalRecord(std::string(40, 'x'), &extra);
  torn.append(extra.substr(0, extra.size() - 11));
  WriteFileBytes(scratch + "/" + session.wal_name, torn);

  std::string error;
  auto durable = DurableCatalog::Open(FastOptions(scratch), nullptr, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_TRUE(durable->recovery().wal_tail_truncated);
  EXPECT_EQ(durable->recovery().replayed_records, 3u);
  EXPECT_EQ(durable->recovery().snapshot_seq, session.head_seq);
  EXPECT_EQ(durable->recovery().snapshot_id,
            session.id_by_seq.at(session.head_seq));
}

TEST(DurableCatalogTest, MidWalCorruptionIsATypedRejection) {
  SessionFiles session = RunSealedSession(3);
  const std::string scratch = MakeTempDir();
  std::string corrupt = session.wal_bytes;
  corrupt[kWalHeaderBytes + 5] ^= 0x01;  // damage the FIRST record
  EXPECT_FALSE(
      CheckMutant(session, scratch, session.ckpt_bytes, corrupt));
}

TEST(DurableCatalogTest, DuplicatedWalRecordsAreSkipped) {
  SessionFiles session = RunSealedSession(3);
  const std::string scratch = MakeTempDir();
  // The whole log appended twice: every second-copy record is already
  // covered by the replayed first copy.
  EXPECT_TRUE(CheckMutant(session, scratch, session.ckpt_bytes,
                          session.wal_bytes + session.wal_bytes));
  // And a single duplicated record in the middle.
  const std::vector<size_t> bounds = FrameBoundaries(session.wal_bytes);
  ASSERT_GE(bounds.size(), 3u);
  const std::string second =
      session.wal_bytes.substr(bounds[1], bounds[2] - bounds[1]);
  EXPECT_TRUE(CheckMutant(session, scratch, session.ckpt_bytes,
                          session.wal_bytes + second));
}

TEST(DurableCatalogTest, StaleGenerationCheckpointIsSkipped) {
  SessionFiles session = RunSealedSession(3);
  const std::string scratch = MakeTempDir();
  WriteFileBytes(scratch + "/" + session.ckpt_name, session.ckpt_bytes);
  WriteFileBytes(scratch + "/" + session.wal_name, session.wal_bytes);
  // A renamed copy claiming a newer seq than it contains: recovery must
  // reject it (filename/header mismatch) and fall back to the real one.
  WriteFileBytes(scratch + "/checkpoint-00000000000000ff.ckpt",
                 session.ckpt_bytes);
  std::string error;
  auto durable = DurableCatalog::Open(FastOptions(scratch), nullptr, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->recovery().snapshot_seq, session.head_seq);
  EXPECT_EQ(durable->recovery().snapshot_id,
            session.id_by_seq.at(session.head_seq));
}

TEST(DurableCatalogTest, WalWithoutAnyCheckpointIsRejected) {
  SessionFiles session = RunSealedSession(3);
  const std::string scratch = MakeTempDir();
  WriteFileBytes(scratch + "/" + session.wal_name, session.wal_bytes);
  std::string error;
  auto durable = DurableCatalog::Open(FastOptions(scratch), nullptr, &error);
  EXPECT_EQ(durable, nullptr);
  EXPECT_NE(error.find("no checkpoint"), std::string::npos) << error;
}

// The fuzz corpus over the WAL: truncate at every byte offset (the crash
// shape -- every one of these must RECOVER to a true-chain prefix) and
// flip every byte (must recover a prefix or reject; never wrong data).
TEST(RecoveryFuzzTest, WalMutantsRecoverOrReject) {
  SessionFiles session = RunSealedSession(4);
  ASSERT_FALSE(session.wal_bytes.empty());
  const std::string scratch = MakeTempDir();

  size_t recovered = 0;
  size_t rejected = 0;
  for (size_t cut = 0; cut <= session.wal_bytes.size(); ++cut) {
    const bool ok = CheckMutant(session, scratch, session.ckpt_bytes,
                                session.wal_bytes.substr(0, cut));
    // Truncation is exactly the crash artifact; it must always recover.
    EXPECT_TRUE(ok) << "truncation to " << cut << " bytes was rejected";
    ++recovered;
  }
  for (size_t at = 0; at < session.wal_bytes.size(); ++at) {
    std::string flipped = session.wal_bytes;
    flipped[at] ^= 0x20;
    if (CheckMutant(session, scratch, session.ckpt_bytes, flipped)) {
      ++recovered;
    } else {
      ++rejected;
    }
  }
  // Sanity: the corpus exercised both outcomes.
  EXPECT_GT(recovered, session.wal_bytes.size());
  EXPECT_GT(rejected, 0u);
}

// Same contract for the checkpoint file. Checkpoints land via rename, so
// (unlike the WAL) any truncation is damage: every strict prefix and
// every byte flip must reject; only the pristine file recovers.
TEST(RecoveryFuzzTest, CheckpointMutantsRecoverOrReject) {
  SessionFiles session = RunSealedSession(4);
  ASSERT_FALSE(session.ckpt_bytes.empty());
  const std::string scratch = MakeTempDir();

  EXPECT_TRUE(CheckMutant(session, scratch, session.ckpt_bytes,
                          session.wal_bytes));

  const std::vector<size_t> bounds = FrameBoundaries(session.ckpt_bytes);
  std::vector<size_t> cuts;
  for (const size_t b : bounds) {
    if (b < session.ckpt_bytes.size()) cuts.push_back(b);
    if (b + 3 < session.ckpt_bytes.size()) cuts.push_back(b + 3);
  }
  for (size_t cut = 0; cut < session.ckpt_bytes.size(); cut += 173) {
    cuts.push_back(cut);
  }
  for (const size_t cut : cuts) {
    EXPECT_FALSE(CheckMutant(session, scratch,
                             session.ckpt_bytes.substr(0, cut),
                             session.wal_bytes))
        << "truncated checkpoint (" << cut << " bytes) was accepted";
  }
  for (size_t at = 0; at < session.ckpt_bytes.size(); at += 97) {
    std::string flipped = session.ckpt_bytes;
    flipped[at] ^= 0x04;
    EXPECT_FALSE(CheckMutant(session, scratch, flipped, session.wal_bytes))
        << "flipped checkpoint byte " << at << " was accepted";
  }
}

}  // namespace
}  // namespace toprr
