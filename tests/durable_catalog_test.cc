// DurableCatalog behavior tests: PredictPublish/Publish id agreement,
// append-then-apply rollback on WAL failure, counter accounting across
// rotations, and a real kill -9: a forked child churns durable
// publishes, reports each ack over a pipe, and is SIGKILLed mid-churn;
// the parent reopens the data_dir and proves every acked publish
// survived with a bit-identical snapshot id and nothing was applied
// twice.
#include "data/recovery.h"

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/snapshot.h"
#include "data/wal.h"

// fork() without exec() is unsupported under ThreadSanitizer; the crash
// test is covered by the ASan/UBSan and plain jobs instead.
#if defined(__SANITIZE_THREAD__)
#define TOPRR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TOPRR_TSAN 1
#endif
#endif

namespace toprr {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/toprr_durable_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

Dataset MakeBootstrap(size_t n, size_t d) {
  Dataset data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      data.At(i, j) = 0.015 * static_cast<double>(i * d + j + 1);
    }
  }
  return data;
}

TEST(PredictPublishTest, MatchesPublishAcrossRandomDeltas) {
  std::mt19937 rng(20260809);
  MutableCatalog catalog(MakeBootstrap(40, 3));
  for (int round = 0; round < 60; ++round) {
    SnapshotPtr parent = catalog.Current();
    const int n_inserts = static_cast<int>(rng() % 4);
    std::vector<int> staged_ids;
    for (int i = 0; i < n_inserts; ++i) {
      Vec row(3);
      for (size_t j = 0; j < 3; ++j) {
        row[j] = static_cast<double>(rng() % 1000) / 1000.0;
      }
      staged_ids.push_back(catalog.StageInsert(row));
    }
    // Delete a live parent row sometimes, and sometimes net out a staged
    // insert (PredictPublish must mirror Publish's netting exactly).
    if (rng() % 2 == 0 && !parent->live_ids().empty()) {
      const int victim = parent->live_ids()[rng() % parent->live_ids().size()];
      catalog.StageDelete(victim);
    }
    if (rng() % 3 == 0 && !staged_ids.empty()) {
      ASSERT_TRUE(catalog.StageDelete(staged_ids.back()));
    }
    uint64_t predicted_id = 0;
    uint64_t predicted_seq = 0;
    const bool predicted =
        catalog.PredictPublish(&predicted_id, &predicted_seq);
    SnapshotPtr published = catalog.Publish();
    if (predicted) {
      EXPECT_EQ(published->id(), predicted_id) << "round " << round;
      EXPECT_EQ(published->seq(), predicted_seq) << "round " << round;
    } else {
      // Nothing staged at all: Publish must have been a no-op.
      EXPECT_EQ(published->id(), parent->id());
      EXPECT_EQ(published->seq(), parent->seq());
    }
  }
}

TEST(PredictPublishTest, FalseWhenNothingStagedTrueForNettedTombstone) {
  MutableCatalog catalog(MakeBootstrap(5, 2));
  uint64_t id = 0;
  uint64_t seq = 0;
  EXPECT_FALSE(catalog.PredictPublish(&id, &seq));
  // A staged insert netted out by its own delete still materializes as a
  // tombstone row (promised ids stay physical), so Publish is NOT a
  // no-op and the prediction must say so -- and still match.
  const int staged = catalog.StageInsert(Vec{0.5, 0.5});
  ASSERT_TRUE(catalog.StageDelete(staged));
  ASSERT_TRUE(catalog.PredictPublish(&id, &seq));
  SnapshotPtr published = catalog.Publish();
  EXPECT_EQ(published->id(), id);
  EXPECT_EQ(published->seq(), seq);
  EXPECT_EQ(published->rows(), 6u);
  EXPECT_EQ(published->live_rows(), 5u);
  EXPECT_FALSE(published->IsLive(5));
}

TEST(DurablePublishTest, SecondOpenOnALiveDirectoryIsRejected) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(12, 3);
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kOff;
  std::string error;
  auto first = DurableCatalog::Open(options, &bootstrap, &error);
  ASSERT_NE(first, nullptr) << error;

  // A second opener would checkpoint + rotate under the first; the
  // single-writer flock turns that into a typed failure instead.
  auto second = DurableCatalog::Open(options, &bootstrap, &error);
  EXPECT_EQ(second, nullptr);
  EXPECT_NE(error.find("locked by another live process"),
            std::string::npos)
      << error;

  // Releasing the first (clean shutdown or process death -- flock dies
  // with the process) makes the directory openable again.
  first.reset();
  auto third = DurableCatalog::Open(options, &bootstrap, &error);
  ASSERT_NE(third, nullptr) << error;
  EXPECT_TRUE(third->recovery().recovered);
}

TEST(DurablePublishTest, WalFailureRollsBackAndIsNeverAcked) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(12, 3);
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  options.checkpoint_every = 0;
  options.wrap_wal_file = [](std::unique_ptr<WalFile> inner) {
    FileFaultPlan plan;
    plan.seed = 3;
    plan.short_write_probability = 1.0;  // every WAL append tears
    return std::unique_ptr<WalFile>(
        new FaultyFile(std::move(inner), plan));
  };
  std::string error;
  uint64_t root_id = 0;
  uint64_t root_seq = 0;
  {
    auto durable = DurableCatalog::Open(options, &bootstrap, &error);
    ASSERT_NE(durable, nullptr) << error;
    SnapshotPtr root = durable->catalog()->Current();
    root_id = root->id();
    root_seq = root->seq();
    const auto outcome =
        durable->Publish({Vec{0.1, 0.2, 0.3}}, {}, /*token=*/5,
                         /*publish_id=*/1);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("wal append failed"), std::string::npos)
        << outcome.error;
    // Rolled back: nothing applied, nothing staged, catalog unchanged.
    EXPECT_EQ(durable->catalog()->Current()->id(), root_id);
    EXPECT_EQ(durable->catalog()->staged_inserts(), 0u);
    EXPECT_EQ(durable->catalog()->staged_deletes(), 0u);
  }
  // The torn on-disk tail from the failed append must recover to exactly
  // the pre-publish state: the publish was never acknowledged, so losing
  // it is correct; resurrecting half of it would not be.
  DurabilityOptions clean = options;
  clean.wrap_wal_file = nullptr;
  auto durable = DurableCatalog::Open(clean, nullptr, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->recovery().snapshot_id, root_id);
  EXPECT_EQ(durable->recovery().snapshot_seq, root_seq);
  EXPECT_EQ(durable->recovery().replayed_records, 0u);
}

TEST(DurablePublishTest, FailureAfterFirstPublishKeepsTheAckedOne) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(12, 3);
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  options.checkpoint_every = 0;
  options.wrap_wal_file = [](std::unique_ptr<WalFile> inner) {
    FileFaultPlan plan;
    plan.fail_after_bytes = 64;  // first record fits, second hard-fails
    return std::unique_ptr<WalFile>(
        new FaultyFile(std::move(inner), plan));
  };
  std::string error;
  uint64_t acked_id = 0;
  uint64_t acked_seq = 0;
  {
    auto durable = DurableCatalog::Open(options, &bootstrap, &error);
    ASSERT_NE(durable, nullptr) << error;
    const auto first =
        durable->Publish({Vec{0.4, 0.5, 0.6}}, {}, /*token=*/5,
                         /*publish_id=*/1);
    ASSERT_TRUE(first.ok) << first.error;
    acked_id = first.snapshot->id();
    acked_seq = first.snapshot->seq();
    const auto second =
        durable->Publish({Vec{0.7, 0.8, 0.9}}, {}, /*token=*/5,
                         /*publish_id=*/2);
    EXPECT_FALSE(second.ok);
    EXPECT_EQ(durable->catalog()->Current()->id(), acked_id);
  }
  DurabilityOptions clean = options;
  clean.wrap_wal_file = nullptr;
  auto durable = DurableCatalog::Open(clean, nullptr, &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->recovery().snapshot_id, acked_id);
  EXPECT_EQ(durable->recovery().snapshot_seq, acked_seq);
  EXPECT_TRUE(durable->LookupPublish(5, 1).has_value());
  EXPECT_FALSE(durable->LookupPublish(5, 2).has_value());
}

TEST(DurablePublishTest, CountersAccumulateAcrossRotations) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(10, 2);
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  options.checkpoint_every = 1;  // rotate the WAL after every publish
  std::string error;
  auto durable = DurableCatalog::Open(options, &bootstrap, &error);
  ASSERT_NE(durable, nullptr) << error;
  for (int i = 1; i <= 3; ++i) {
    const auto outcome = durable->Publish({Vec{0.1 * i, 0.2}}, {}, 0, 0);
    ASSERT_TRUE(outcome.ok) << outcome.error;
  }
  const DurableCounters counters = durable->counters();
  // Rotations replace the WalWriter; the counters must still see all 3.
  EXPECT_EQ(counters.wal_appends, 3u);
  EXPECT_EQ(counters.wal_fsyncs, 3u);
  EXPECT_EQ(counters.checkpoints_written, 4u);  // open seal + 3 rotations
  EXPECT_TRUE(durable->Flush());
}

// Names in `dir` other than "." and "..".
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

TEST(InMemoryCatalogTest, EmptyDataDirOpensInMemoryAndWritesNoFiles) {
  // Run from a fresh working directory so any relative path the catalog
  // might write would show up in it.
  const std::string dir = MakeTempDir();
  char cwd[4096];
  ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
  ASSERT_EQ(::chdir(dir.c_str()), 0);
  const Dataset bootstrap = MakeBootstrap(12, 3);
  std::string error;
  auto memory = DurableCatalog::Open(DurabilityOptions{}, &bootstrap, &error);
  ASSERT_NE(memory, nullptr) << error;
  EXPECT_TRUE(memory->in_memory());
  const auto published =
      memory->Publish({Vec{0.9, 0.9, 0.9}}, {0, 1}, /*token=*/3,
                      /*publish_id=*/1);
  ASSERT_TRUE(published.ok) << published.error;
  EXPECT_EQ(published.status, DurableCatalog::PublishStatus::kApplied);
  EXPECT_EQ(published.snapshot->live_rows(), 11u);
  EXPECT_EQ(published.applied.snapshot_id, published.snapshot->id());
  EXPECT_TRUE(memory->Checkpoint(&error)) << error;
  EXPECT_TRUE(memory->Flush());

  const RecoveryStats& recovery = memory->recovery();
  EXPECT_FALSE(recovery.recovered);
  EXPECT_EQ(recovery.checkpoint_seq, 0u);
  EXPECT_EQ(recovery.replayed_records, 0u);
  EXPECT_EQ(recovery.snapshot_id, 0u);
  EXPECT_EQ(recovery.snapshot_seq, 0u);
  EXPECT_EQ(recovery.recovery_seconds, 0.0);
  const DurableCounters counters = memory->counters();
  EXPECT_EQ(counters.wal_appends, 0u);
  EXPECT_EQ(counters.wal_bytes, 0u);
  EXPECT_EQ(counters.wal_fsyncs, 0u);
  EXPECT_EQ(counters.checkpoints_written, 0u);
  memory.reset();
  ASSERT_EQ(::chdir(cwd), 0);
  EXPECT_TRUE(ListDir(dir).empty());

  EXPECT_EQ(DurableCatalog::Open(DurabilityOptions{}, nullptr, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(InMemoryCatalogTest, ExactReplayIsAlreadyAppliedAndStagesNothing) {
  const Dataset bootstrap = MakeBootstrap(10, 3);
  std::string error;
  auto memory = DurableCatalog::Open(DurabilityOptions{}, &bootstrap, &error);
  ASSERT_NE(memory, nullptr) << error;
  const auto first = memory->Publish({Vec{0.9, 0.9, 0.9}}, {}, 7, 1);
  ASSERT_TRUE(first.ok) << first.error;
  const uint64_t head = memory->catalog()->CurrentId();

  // The same (token, id) with a different delta: answered from the
  // table, nothing staged or published.
  const auto replay = memory->Publish({Vec{0.1, 0.1, 0.1}}, {2}, 7, 1);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.status, DurableCatalog::PublishStatus::kAlreadyApplied);
  EXPECT_EQ(replay.applied.snapshot_id, first.snapshot->id());
  EXPECT_EQ(replay.applied.snapshot_seq, first.snapshot->seq());
  EXPECT_EQ(memory->catalog()->CurrentId(), head);
  EXPECT_EQ(memory->catalog()->staged_inserts(), 0u);
  EXPECT_EQ(memory->catalog()->staged_deletes(), 0u);

  ASSERT_TRUE(memory->LookupPublish(7, 1).has_value());
  EXPECT_EQ(memory->LookupPublish(7, 1)->snapshot_id, head);
  EXPECT_FALSE(memory->LookupPublish(7, 2).has_value());
  EXPECT_FALSE(memory->LookupPublish(0, 0).has_value());

  // A delete of a row that is gone is a typed conflict, not a failure.
  ASSERT_TRUE(memory->Publish({}, {4}, 8, 1).ok);
  const auto conflict = memory->Publish({}, {4}, 8, 2);
  EXPECT_FALSE(conflict.ok);
  EXPECT_EQ(conflict.status, DurableCatalog::PublishStatus::kConflict);
  EXPECT_NE(conflict.error.find("row id 4"), std::string::npos)
      << conflict.error;
  EXPECT_FALSE(memory->LookupPublish(8, 2).has_value());
}

TEST(InMemoryCatalogTest, TableBoundsTokensAndEvictsTheOldestFirst) {
  const Dataset bootstrap = MakeBootstrap(4, 2);
  std::string error;
  auto memory = DurableCatalog::Open(DurabilityOptions{}, &bootstrap, &error);
  ASSERT_NE(memory, nullptr) << error;
  constexpr uint64_t kTokens = DurableCatalog::kMaxAppliedTokens;
  for (uint64_t token = 1; token <= kTokens; ++token) {
    ASSERT_TRUE(memory->Publish({Vec{0.5, 0.5}}, {}, token, 1).ok);
  }
  // Token 1 publishing again replaces its record but stays the oldest.
  ASSERT_TRUE(memory->Publish({Vec{0.5, 0.5}}, {}, 1, 2).ok);
  EXPECT_TRUE(memory->LookupPublish(1, 2).has_value());
  EXPECT_FALSE(memory->LookupPublish(1, 1).has_value());

  // One token too many: token 1 goes, everything younger stays.
  ASSERT_TRUE(memory->Publish({Vec{0.5, 0.5}}, {}, kTokens + 1, 1).ok);
  EXPECT_FALSE(memory->LookupPublish(1, 2).has_value());
  for (uint64_t token = 2; token <= kTokens + 1; ++token) {
    EXPECT_TRUE(memory->LookupPublish(token, 1).has_value()) << token;
  }
  // The next eviction takes token 2, now the oldest.
  ASSERT_TRUE(memory->Publish({Vec{0.5, 0.5}}, {}, kTokens + 2, 1).ok);
  EXPECT_FALSE(memory->LookupPublish(2, 1).has_value());
  EXPECT_TRUE(memory->LookupPublish(3, 1).has_value());
}

#ifndef TOPRR_TSAN

// One acked publish as reported over the crash pipe.
struct AckedPublish {
  uint64_t seq = 0;
  uint64_t id = 0;
  uint64_t publish_id = 0;
};

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t left = len;
  while (left > 0) {
    const ssize_t wrote = ::write(fd, p, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += wrote;
    left -= static_cast<size_t>(wrote);
  }
  return true;
}

// The child's publish i carries idempotency token kCrashTokenBase + i:
// one token per publish (500 stay under the table's 1024-token bound),
// so every acked publish keeps its own record in the dedupe table.
constexpr uint64_t kCrashTokenBase = 9000;

// The child side: durable churn, one 24-byte ack per successful publish.
// Exits only via _exit (no gtest, no destructors) -- it is going to be
// SIGKILLed anyway.
void CrashChildMain(const std::string& dir, int ack_fd) {
  const Dataset bootstrap = MakeBootstrap(16, 3);
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;  // acked == durable
  options.checkpoint_every = 4;
  std::string error;
  auto durable = DurableCatalog::Open(options, &bootstrap, &error);
  if (durable == nullptr) _exit(2);
  std::vector<uint64_t> own_rows;
  for (uint64_t i = 1; i <= 500; ++i) {
    SnapshotPtr parent = durable->catalog()->Current();
    std::vector<Vec> inserts;
    const int n_inserts = 1 + static_cast<int>(i % 2);
    for (int k = 0; k < n_inserts; ++k) {
      Vec row(3);
      row[0] = 0.001 * static_cast<double>(i);
      row[1] = 0.01 * static_cast<double>(k + 1);
      row[2] = 0.5;
      inserts.push_back(row);
      own_rows.push_back(parent->rows() + static_cast<uint64_t>(k));
    }
    std::vector<uint64_t> deletes;
    if (i % 3 == 0 && own_rows.size() > 4) {
      deletes.push_back(own_rows.front());
      own_rows.erase(own_rows.begin());
    }
    const auto outcome =
        durable->Publish(inserts, deletes, kCrashTokenBase + i, i);
    if (!outcome.ok) _exit(3);
    const uint64_t ack[3] = {outcome.snapshot->seq(), outcome.snapshot->id(),
                             i};
    if (!WriteAll(ack_fd, ack, sizeof(ack))) _exit(4);
    // Pace the churn so the parent's SIGKILL always lands mid-run (on a
    // tmpfs-backed /tmp, 500 fsynced publishes could otherwise finish
    // before the parent reads its first chunk of acks).
    ::usleep(300);
  }
  _exit(0);
}

TEST(CrashRecoveryTest, SigkillMidChurnLosesNoAckedPublish) {
  const std::string dir = MakeTempDir();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    CrashChildMain(dir, fds[1]);  // never returns
  }
  ::close(fds[1]);

  std::vector<AckedPublish> acked;
  bool killed = false;
  std::string buffered;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::read(fds[0], chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (got == 0) break;  // child is gone; everything acked is in hand
    buffered.append(chunk, static_cast<size_t>(got));
    size_t pos = 0;
    while (buffered.size() - pos >= 24) {
      AckedPublish ack;
      std::memcpy(&ack.seq, buffered.data() + pos, 8);
      std::memcpy(&ack.id, buffered.data() + pos + 8, 8);
      std::memcpy(&ack.publish_id, buffered.data() + pos + 16, 8);
      acked.push_back(ack);
      pos += 24;
    }
    buffered.erase(0, pos);
    if (!killed && acked.size() >= 25) {
      // Mid-churn, mid-whatever-the-child-is-doing: kill -9.
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      killed = true;
    }
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(killed) << "child finished its 500 publishes before the "
                         "parent could read 25 acks";
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_GE(acked.size(), 25u);

  // Restart from the same data_dir, exactly like toprr_serve would.
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  options.checkpoint_every = 4;
  std::string error;
  auto durable = DurableCatalog::Open(options, nullptr, &error);
  ASSERT_NE(durable, nullptr) << error;
  const RecoveryStats& recovery = durable->recovery();
  EXPECT_TRUE(recovery.recovered);

  // Zero acked-publish loss: the recovered head covers every ack...
  uint64_t last_acked_seq = 0;
  for (const AckedPublish& ack : acked) {
    last_acked_seq = std::max(last_acked_seq, ack.seq);
  }
  EXPECT_GE(recovery.snapshot_seq, last_acked_seq);

  // ...with bit-identical ids: every acked publish is in the recovered
  // dedupe table under its own token, with exactly the seq and snapshot
  // id the child was acked...
  for (const AckedPublish& ack : acked) {
    const std::optional<AppliedPublishRecord> entry = durable->LookupPublish(
        kCrashTokenBase + ack.publish_id, ack.publish_id);
    ASSERT_TRUE(entry.has_value())
        << "acked publish " << ack.publish_id << " lost after kill -9";
    EXPECT_EQ(entry->snapshot_seq, ack.seq);
    EXPECT_EQ(entry->snapshot_id, ack.id)
        << "recovered snapshot id for publish " << ack.publish_id
        << " is not bit-identical to the acked one";
  }
  // ...and zero duplicate applies: the recovered chain is publishes
  // 1..n in order, publish p producing seq p + 1 on the seq-1 root.
  for (uint64_t p = 1; p < recovery.snapshot_seq; ++p) {
    const std::optional<AppliedPublishRecord> entry =
        durable->LookupPublish(kCrashTokenBase + p, p);
    ASSERT_TRUE(entry.has_value()) << "publish " << p << " missing";
    EXPECT_EQ(entry->snapshot_seq, p + 1)
        << "publish " << p << " applied twice or out of order";
  }
}

#endif  // !TOPRR_TSAN

}  // namespace
}  // namespace toprr
