#include "data/wal.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/faulty_file.h"

namespace toprr {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/toprr_wal_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

TEST(Crc32cTest, KnownVectors) {
  // The iSCSI test vector (RFC 3720 appendix / every CRC32C impl).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 bytes of zeros, another standard vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  const std::string text = "hello, write-ahead world";
  const uint32_t whole = Crc32c(text.data(), text.size());
  const uint32_t first = Crc32c(text.data(), 10);
  const uint32_t chained = Crc32c(text.data() + 10, text.size() - 10, first);
  EXPECT_EQ(chained, whole);
}

TEST(FsyncPolicyTest, ParseAndName) {
  FsyncPolicy policy;
  EXPECT_TRUE(ParseFsyncPolicy("always", &policy));
  EXPECT_EQ(policy, FsyncPolicy::kAlways);
  EXPECT_TRUE(ParseFsyncPolicy("Batched", &policy));
  EXPECT_EQ(policy, FsyncPolicy::kBatched);
  EXPECT_TRUE(ParseFsyncPolicy("OFF", &policy));
  EXPECT_EQ(policy, FsyncPolicy::kOff);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes", &policy));
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kBatched), "batched");
}

TEST(WalFramingTest, WriteThenReadRoundTrips) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::vector<std::string> payloads = {"first", "", "third record",
                                       std::string(5000, 'x')};
  {
    std::string error;
    auto file = PosixWalFile::OpenAppend(path, &error);
    ASSERT_NE(file, nullptr) << error;
    WalWriter writer(std::move(file), FsyncPolicy::kAlways);
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(writer.AppendRecord(payload)) << writer.last_error();
    }
    EXPECT_EQ(writer.appends(), payloads.size());
    EXPECT_EQ(writer.syncs(), payloads.size());  // kAlways: one per append
  }
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(result.records[i], payloads[i]);
  }
  EXPECT_EQ(result.valid_bytes, ReadFileBytes(path).size());
}

TEST(WalFramingTest, MissingFileReadsAsEmptyLog) {
  const WalReadResult result =
      ReadWalRecords("/tmp/toprr_wal_test_does_not_exist.log");
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_TRUE(result.records.empty());
}

TEST(WalFramingTest, BatchedPolicySyncsOnThreshold) {
  const std::string dir = MakeTempDir();
  std::string error;
  auto file = PosixWalFile::OpenAppend(dir + "/wal.log", &error);
  ASSERT_NE(file, nullptr) << error;
  // Threshold of 64 bytes: two 20-byte payloads stay unsynced, the third
  // crosses it.
  WalWriter writer(std::move(file), FsyncPolicy::kBatched, 64);
  const std::string payload(20, 'p');
  ASSERT_TRUE(writer.AppendRecord(payload));
  ASSERT_TRUE(writer.AppendRecord(payload));
  EXPECT_EQ(writer.syncs(), 0u);
  ASSERT_TRUE(writer.AppendRecord(payload));
  EXPECT_EQ(writer.syncs(), 1u);
  // An explicit Sync() with nothing unsynced is a no-op.
  ASSERT_TRUE(writer.Sync());
  EXPECT_EQ(writer.syncs(), 1u);
}

// Builds a well-formed two-record log as raw bytes.
std::string TwoRecordLog(std::string* first, std::string* second) {
  *first = "record one payload";
  *second = "the second record";
  std::string bytes;
  FrameWalRecord(*first, &bytes);
  FrameWalRecord(*second, &bytes);
  return bytes;
}

TEST(WalFramingTest, TornHeaderTruncatesToLastValidRecord) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string first, second;
  std::string bytes = TwoRecordLog(&first, &second);
  bytes.append("\x05\x00\x00", 3);  // 3 bytes of a next header
  WriteFileBytes(path, bytes);
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[1], second);
  EXPECT_EQ(result.valid_bytes, bytes.size() - 3);
}

TEST(WalFramingTest, TornPayloadTruncates) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string first, second;
  std::string bytes = TwoRecordLog(&first, &second);
  std::string torn;
  FrameWalRecord("a payload that will be cut short", &torn);
  bytes.append(torn.substr(0, torn.size() - 5));
  WriteFileBytes(path, bytes);
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.records.size(), 2u);
}

TEST(WalFramingTest, ChecksumMismatchOnFinalFrameIsTornTail) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string first, second;
  std::string bytes = TwoRecordLog(&first, &second);
  bytes.back() ^= 0x40;  // damage the last payload byte
  WriteFileBytes(path, bytes);
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], first);
}

TEST(WalFramingTest, ChecksumMismatchMidLogIsCorruption) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string first, second;
  std::string bytes = TwoRecordLog(&first, &second);
  bytes[kWalHeaderBytes + 3] ^= 0x01;  // damage the FIRST record's payload
  WriteFileBytes(path, bytes);
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_FALSE(result.ok);  // typed rejection, not silent truncation
  EXPECT_TRUE(result.records.empty());
}

TEST(WalFramingTest, GarbageLengthHeaderIsCorruption) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string bytes;
  PutU32(&bytes, 0xFFFFFFFFu);  // implausible length
  PutU32(&bytes, 0x12345678u);
  bytes.append(64, 'g');
  WriteFileBytes(path, bytes);
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.records.empty());
}

TEST(FaultyFileTest, ShortWritesLeaveATornTail) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string error;
  auto posix = PosixWalFile::OpenAppend(path, &error);
  ASSERT_NE(posix, nullptr) << error;
  FileFaultPlan plan;
  plan.seed = 11;
  plan.short_write_probability = 1.0;  // every append tears
  auto faulty = std::make_unique<FaultyFile>(std::move(posix), plan);
  FaultyFile* telemetry = faulty.get();
  WalWriter writer(std::move(faulty), FsyncPolicy::kOff);
  EXPECT_FALSE(writer.AppendRecord(std::string(200, 'z')));
  EXPECT_EQ(telemetry->short_writes(), 1u);
  // Whatever landed on disk is a torn prefix the reader truncates away.
  const WalReadResult result = ReadWalRecords(path);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.records.empty());
}

TEST(FaultyFileTest, BitFlipsAreCaughtByTheChecksum) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  std::string error;
  auto posix = PosixWalFile::OpenAppend(path, &error);
  ASSERT_NE(posix, nullptr) << error;
  FileFaultPlan plan;
  plan.seed = 23;
  plan.bit_flip_probability = 1.0;
  auto faulty = std::make_unique<FaultyFile>(std::move(posix), plan);
  FaultyFile* telemetry = faulty.get();
  WalWriter writer(std::move(faulty), FsyncPolicy::kOff);
  EXPECT_TRUE(writer.AppendRecord(std::string(100, 'q')));  // flip is silent
  EXPECT_GE(telemetry->bit_flips(), 1u);
  const WalReadResult result = ReadWalRecords(path);
  // One damaged record at EOF: either the header or the payload took the
  // flip; both read as a torn/damaged tail, never as a valid record.
  EXPECT_TRUE(result.records.empty());
}

TEST(FaultyFileTest, HardFailureAfterByteBudget) {
  const std::string dir = MakeTempDir();
  std::string error;
  auto posix = PosixWalFile::OpenAppend(dir + "/wal.log", &error);
  ASSERT_NE(posix, nullptr) << error;
  FileFaultPlan plan;
  plan.fail_after_bytes = 50;
  auto faulty = std::make_unique<FaultyFile>(std::move(posix), plan);
  FaultyFile* telemetry = faulty.get();
  WalWriter writer(std::move(faulty), FsyncPolicy::kAlways);
  EXPECT_TRUE(writer.AppendRecord(std::string(48, 'a')));
  EXPECT_FALSE(writer.AppendRecord(std::string(48, 'b')));
  EXPECT_EQ(telemetry->hard_failures(), 1u);
  EXPECT_NE(writer.last_error().find("injected"), std::string::npos);
}

}  // namespace
}  // namespace toprr
