#include "support/faulty_stream.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace toprr {
namespace serve {

FaultyStream::FaultyStream(ByteStream& inner, const FaultPlan& plan)
    : inner_(inner), plan_(plan), rng_(plan.seed) {}

bool FaultyStream::Chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < probability;
}

ssize_t FaultyStream::ReadSome(void* buffer, size_t length) {
  if (plan_.reset_after_read_bytes != 0 &&
      bytes_read_ >= plan_.reset_after_read_bytes) {
    ++resets_;
    errno = ECONNRESET;
    return -1;
  }
  if (plan_.eof_after_read_bytes != 0 &&
      bytes_read_ >= plan_.eof_after_read_bytes) {
    return 0;
  }
  if (Chance(plan_.delay_probability) && plan_.delay_ms > 0) {
    ++delays_;
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.delay_ms));
  }
  size_t ask = length;
  if (Chance(plan_.short_transfer_probability)) {
    ++short_transfers_;
    ask = std::min(ask, std::max<size_t>(plan_.short_transfer_max_bytes, 1));
  }
  // Clip the ask so a hard fault lands at its exact byte offset even
  // when the caller asked for a chunk that straddles it.
  if (plan_.reset_after_read_bytes != 0) {
    ask = std::min<uint64_t>(ask, plan_.reset_after_read_bytes - bytes_read_);
  }
  if (plan_.eof_after_read_bytes != 0) {
    ask = std::min<uint64_t>(ask, plan_.eof_after_read_bytes - bytes_read_);
  }
  const ssize_t n = inner_.ReadSome(buffer, ask);
  if (n > 0) {
    bytes_read_ += static_cast<uint64_t>(n);
    if (Chance(plan_.bit_flip_probability)) {
      ++bit_flips_;
      unsigned char* bytes = static_cast<unsigned char*>(buffer);
      const uint64_t bit =
          rng_() % (static_cast<uint64_t>(n) * 8);
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
  }
  return n;
}

ssize_t FaultyStream::WriteSome(const void* buffer, size_t length) {
  if (plan_.reset_after_write_bytes != 0 &&
      bytes_written_ >= plan_.reset_after_write_bytes) {
    ++resets_;
    errno = ECONNRESET;
    return -1;
  }
  if (Chance(plan_.delay_probability) && plan_.delay_ms > 0) {
    ++delays_;
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.delay_ms));
  }
  size_t ask = length;
  if (Chance(plan_.short_transfer_probability)) {
    ++short_transfers_;
    ask = std::min(ask, std::max<size_t>(plan_.short_transfer_max_bytes, 1));
  }
  if (plan_.reset_after_write_bytes != 0) {
    ask = std::min<uint64_t>(ask,
                             plan_.reset_after_write_bytes - bytes_written_);
  }
  if (Chance(plan_.bit_flip_probability) && ask > 0) {
    // WriteSome takes a const buffer; corrupt a private copy so the
    // caller's frame bytes stay intact for its own retry bookkeeping.
    ++bit_flips_;
    std::string corrupted(static_cast<const char*>(buffer), ask);
    const uint64_t bit = rng_() % (static_cast<uint64_t>(ask) * 8);
    corrupted[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    const ssize_t n = inner_.WriteSome(corrupted.data(), corrupted.size());
    if (n > 0) bytes_written_ += static_cast<uint64_t>(n);
    return n;
  }
  const ssize_t n = inner_.WriteSome(buffer, ask);
  if (n > 0) bytes_written_ += static_cast<uint64_t>(n);
  return n;
}

}  // namespace serve
}  // namespace toprr
