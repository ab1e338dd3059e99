#include "support/faulty_file.h"

#include <algorithm>
#include <utility>

namespace toprr {

FaultyFile::FaultyFile(std::unique_ptr<WalFile> inner,
                       const FileFaultPlan& plan)
    : inner_(std::move(inner)),
      plan_(plan),
      rng_state_(plan.seed != 0 ? plan.seed : 1) {}

double FaultyFile::NextUniform() {
  // xorshift64*: seeded, so a failing fault schedule replays exactly.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  const uint64_t x = rng_state_ * 2685821657736338717ull;
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

bool FaultyFile::Append(const void* data, size_t len) {
  if (plan_.fail_after_bytes != 0 &&
      bytes_written_ >= plan_.fail_after_bytes) {
    ++hard_failures_;
    error_ = "injected: fail_after_bytes reached";
    return false;
  }
  if (len > 0 && plan_.short_write_probability > 0.0 &&
      NextUniform() < plan_.short_write_probability) {
    // Persist a strict prefix, then report failure: the torn-tail shape
    // a crash mid-write() leaves behind.
    const size_t keep = static_cast<size_t>(
        NextUniform() * static_cast<double>(len));
    if (keep > 0) {
      inner_->Append(data, std::min(keep, len - 1));
      bytes_written_ += std::min(keep, len - 1);
    }
    ++short_writes_;
    error_ = "injected: short write";
    return false;
  }
  if (len > 0 && plan_.bit_flip_probability > 0.0 &&
      NextUniform() < plan_.bit_flip_probability) {
    std::string corrupted(static_cast<const char*>(data), len);
    const size_t at = static_cast<size_t>(
        NextUniform() * static_cast<double>(len));
    corrupted[std::min(at, len - 1)] ^=
        static_cast<char>(1u << (rng_state_ & 7u));
    ++bit_flips_;
    if (!inner_->Append(corrupted.data(), corrupted.size())) {
      error_ = inner_->last_error();
      return false;
    }
    bytes_written_ += len;
    return true;
  }
  if (!inner_->Append(data, len)) {
    error_ = inner_->last_error();
    return false;
  }
  bytes_written_ += len;
  return true;
}

bool FaultyFile::Sync() {
  if (!inner_->Sync()) {
    error_ = inner_->last_error();
    return false;
  }
  return true;
}

}  // namespace toprr
