// Deterministic fault injection for the write-ahead log's byte sink.
//
// FaultyFile decorates any WalFile (data/wal.h) with a seeded schedule
// of the failures a disk write can produce -- short writes that tear the
// tail, single-bit corruption, and a hard failure once a byte budget is
// spent -- the file-system analog of FaultyStream (faulty_stream.h).
// Tests hand it to WalWriter directly, or install it on a durable
// catalog through DurabilityOptions::wrap_wal_file.
#ifndef TOPRR_TESTS_SUPPORT_FAULTY_FILE_H_
#define TOPRR_TESTS_SUPPORT_FAULTY_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "data/wal.h"

namespace toprr {

/// Seeded fault plan for FaultyFile (the file-system analog of
/// serve::FaultPlan): probabilities are per Append() call.
struct FileFaultPlan {
  uint64_t seed = 1;
  double short_write_probability = 0.0;  // write a prefix, then fail
  double bit_flip_probability = 0.0;     // corrupt one byte, then succeed
  uint64_t fail_after_bytes = 0;         // hard-fail once N bytes written
};

/// Decorator injecting write-side faults into any WalFile. Telemetry
/// counters let tests assert the plan actually fired.
class FaultyFile : public WalFile {
 public:
  FaultyFile(std::unique_ptr<WalFile> inner, const FileFaultPlan& plan);

  bool Append(const void* data, size_t len) override;
  bool Sync() override;
  const std::string& last_error() const override { return error_; }

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t short_writes() const { return short_writes_; }
  uint64_t bit_flips() const { return bit_flips_; }
  uint64_t hard_failures() const { return hard_failures_; }

 private:
  double NextUniform();

  std::unique_ptr<WalFile> inner_;
  FileFaultPlan plan_;
  uint64_t rng_state_;
  std::string error_;
  uint64_t bytes_written_ = 0;
  uint64_t short_writes_ = 0;
  uint64_t bit_flips_ = 0;
  uint64_t hard_failures_ = 0;
};

}  // namespace toprr

#endif  // TOPRR_TESTS_SUPPORT_FAULTY_FILE_H_
