// Fault-injection decorator tests (tests/support/faulty_stream.h):
// determinism of the seeded schedule, short-transfer and delay
// composition with the framing loops, and the hard byte-offset faults
// (reset / truncating EOF) that script "the connection dies exactly here"
// scenarios. Labeled `serve` through the CMake test glob.
#include "support/faulty_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace toprr {
namespace serve {
namespace {

// Loopback ByteStream: writes append to a buffer, reads consume it.
class MemoryStream : public ByteStream {
 public:
  explicit MemoryStream(std::string input = "") : buffer_(std::move(input)) {}

  ssize_t ReadSome(void* out, size_t length) override {
    if (pos_ >= buffer_.size()) return 0;  // EOF
    const size_t n = std::min(length, buffer_.size() - pos_);
    std::memcpy(out, buffer_.data() + pos_, n);
    pos_ += n;
    return static_cast<ssize_t>(n);
  }

  ssize_t WriteSome(const void* data, size_t length) override {
    buffer_.append(static_cast<const char*>(data), length);
    return static_cast<ssize_t>(length);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
};

// Length-prefixes `payload` the way WriteFrame does.
std::string Framed(const std::string& payload) {
  std::string framed;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    framed.push_back(static_cast<char>((length >> shift) & 0xff));
  }
  return framed + payload;
}

TEST(ServeFaultsTest, NoFaultsIsTransparent) {
  MemoryStream inner;
  FaultyStream faulty(inner, FaultPlan{});
  ASSERT_TRUE(WriteFrame(faulty, "untouched payload"));
  std::string decoded;
  EXPECT_EQ(ReadFrame(faulty, &decoded), FrameReadStatus::kOk);
  EXPECT_EQ(decoded, "untouched payload");
  EXPECT_EQ(faulty.short_transfers(), 0u);
  EXPECT_EQ(faulty.bit_flips(), 0u);
  EXPECT_EQ(faulty.resets(), 0u);
}

TEST(ServeFaultsTest, ShortTransfersStillDeliverFrames) {
  // Aggressive fragmentation on both directions: the framing loops must
  // reassemble everything regardless.
  FaultPlan plan;
  plan.seed = 42;
  plan.short_transfer_probability = 1.0;
  plan.short_transfer_max_bytes = 2;
  MemoryStream inner;
  FaultyStream faulty(inner, plan);
  const std::string payload(512, 'q');
  ASSERT_TRUE(WriteFrame(faulty, payload));
  EXPECT_EQ(inner.buffer(), Framed(payload));
  std::string decoded;
  EXPECT_EQ(ReadFrame(faulty, &decoded), FrameReadStatus::kOk);
  EXPECT_EQ(decoded, payload);
  // (4 + 512) bytes at <= 2 bytes per call, both directions.
  EXPECT_GE(faulty.short_transfers(), 2u * 258u);
}

TEST(ServeFaultsTest, SameSeedSameFaults) {
  const auto run = [](uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.short_transfer_probability = 0.35;
    plan.short_transfer_max_bytes = 3;
    plan.bit_flip_probability = 0.1;
    MemoryStream inner;
    FaultyStream faulty(inner, plan);
    WriteFrame(faulty, std::string(256, 'd'));
    struct Outcome {
      std::string bytes;
      uint64_t shorts, flips;
    };
    return Outcome{inner.buffer(), faulty.short_transfers(),
                   faulty.bit_flips()};
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  // Identical seeds replay byte-for-byte, including the corruption.
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.shorts, b.shorts);
  EXPECT_EQ(a.flips, b.flips);
  // A different seed gives a different schedule (flip counts or bytes).
  EXPECT_TRUE(a.bytes != c.bytes || a.flips != c.flips);
}

TEST(ServeFaultsTest, EofAtExactOffsetTruncatesMidFrame) {
  // Kill the stream two bytes into the length prefix: the reader must
  // see a mid-frame truncation, not a clean EOF.
  FaultPlan plan;
  plan.eof_after_read_bytes = 2;
  MemoryStream inner(Framed("doomed payload"));
  FaultyStream faulty(inner, plan);
  std::string decoded;
  bool frame_started = false;
  EXPECT_EQ(ReadFrame(faulty, &decoded, kMaxFramePayloadBytes, nullptr,
                      &frame_started),
            FrameReadStatus::kTruncated);
  EXPECT_TRUE(frame_started);
  EXPECT_EQ(faulty.bytes_read(), 2u);
}

TEST(ServeFaultsTest, ResetAtExactOffsetIsIoError) {
  FaultPlan plan;
  plan.reset_after_read_bytes = 6;  // two bytes into the payload
  MemoryStream inner(Framed("doomed payload"));
  FaultyStream faulty(inner, plan);
  std::string decoded;
  errno = 0;
  EXPECT_EQ(ReadFrame(faulty, &decoded), FrameReadStatus::kIoError);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(faulty.bytes_read(), 6u);
  EXPECT_GE(faulty.resets(), 1u);
}

TEST(ServeFaultsTest, WriteResetAtExactOffset) {
  FaultPlan plan;
  plan.reset_after_write_bytes = 4;  // the prefix lands, the payload dies
  MemoryStream inner;
  FaultyStream faulty(inner, plan);
  errno = 0;
  EXPECT_FALSE(WriteFrame(faulty, "doomed payload"));
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(faulty.bytes_written(), 4u);
}

TEST(ServeFaultsTest, BitFlipCorruptsWithoutTouchingCallerBuffer) {
  FaultPlan plan;
  plan.seed = 3;
  plan.bit_flip_probability = 1.0;
  MemoryStream inner;
  FaultyStream faulty(inner, plan);
  const std::string payload(64, 'c');
  ASSERT_TRUE(WriteFrame(faulty, payload));
  EXPECT_GE(faulty.bit_flips(), 1u);
  // Same length, different bytes: corruption happened on the wire copy.
  const std::string clean = Framed(payload);
  ASSERT_EQ(inner.buffer().size(), clean.size());
  EXPECT_NE(inner.buffer(), clean);
  // And the caller's payload string was never modified (C++11 strings
  // are never CoW, so the constant above proves it).
  EXPECT_EQ(payload, std::string(64, 'c'));
}

TEST(ServeFaultsTest, DelaysFireAndAreCounted) {
  FaultPlan plan;
  plan.delay_probability = 1.0;
  plan.delay_ms = 1;
  MemoryStream inner(Framed("slow"));
  FaultyStream faulty(inner, plan);
  std::string decoded;
  EXPECT_EQ(ReadFrame(faulty, &decoded), FrameReadStatus::kOk);
  EXPECT_EQ(decoded, "slow");
  EXPECT_GE(faulty.delays(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace toprr
