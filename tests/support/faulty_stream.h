// Deterministic fault injection for the serving transport.
//
// FaultyStream decorates any ByteStream with a seeded schedule of the
// failures a real network produces -- short reads, stalls, connection
// resets, silent truncation, and bit corruption -- so framing/protocol
// robustness is testable in-process, byte-for-byte reproducibly, without
// a flaky network underneath. The same seed and call sequence always
// yields the same faults: a failing chaos test is a replayable test.
//
// Two kinds of faults compose:
//  - probabilistic per-call faults (short read, delay, bit flip), drawn
//    from the seeded RNG on every ReadSome/WriteSome, and
//  - hard byte-offset faults (reset after N bytes read/written, clean
//    EOF after N bytes read), which fire exactly once at a scripted
//    point in the stream -- the tool for "kill the connection mid-frame,
//    two bytes into the length prefix".
//
// The process-boundary counterpart is examples/toprr_chaosproxy.cpp,
// which applies the same fault vocabulary between a real client and a
// real server over TCP; the chaos serve-smoke CI phase drives loadgen
// through it. FaultyFile (faulty_file.h) is the write-ahead log's
// counterpart.
#ifndef TOPRR_TESTS_SUPPORT_FAULTY_STREAM_H_
#define TOPRR_TESTS_SUPPORT_FAULTY_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <random>

#include "serve/framing.h"

namespace toprr {
namespace serve {

/// A seeded fault schedule. Default-constructed = no faults at all (the
/// decorator is then a transparent pass-through).
struct FaultPlan {
  uint64_t seed = 1;

  /// Per-call probability of capping a read/write to at most
  /// `short_transfer_max_bytes` bytes. Exercises every short-transfer
  /// resume path in the framing loops.
  double short_transfer_probability = 0.0;
  size_t short_transfer_max_bytes = 3;

  /// Per-call probability of sleeping `delay_ms` before the transfer --
  /// with a long enough delay, this trips armed socket timeouts.
  double delay_probability = 0.0;
  int delay_ms = 0;

  /// Per-call probability of flipping one random bit in the transferred
  /// bytes (after a read, before a write). Corrupts length prefixes and
  /// payloads alike; decoders must reject, never crash or mis-parse.
  double bit_flip_probability = 0.0;

  /// Hard faults at exact byte offsets (0 = disabled, fires once):
  /// after the Nth byte in that direction, the stream fails -1 with
  /// errno=ECONNRESET on every subsequent call...
  uint64_t reset_after_read_bytes = 0;
  uint64_t reset_after_write_bytes = 0;
  /// ...or, for reads, reports a clean end-of-stream instead (the
  /// "peer vanished mid-frame" truncation case).
  uint64_t eof_after_read_bytes = 0;
};

/// ByteStream decorator applying a FaultPlan to an inner stream (not
/// owned). Not thread-safe: one FaultyStream per streaming direction,
/// like the underlying socket use it decorates.
class FaultyStream : public ByteStream {
 public:
  FaultyStream(ByteStream& inner, const FaultPlan& plan);

  ssize_t ReadSome(void* buffer, size_t length) override;
  ssize_t WriteSome(const void* buffer, size_t length) override;

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  /// Faults actually fired so far, by kind (telemetry for tests that
  /// want to assert the schedule was exercised, not vacuous).
  uint64_t short_transfers() const { return short_transfers_; }
  uint64_t delays() const { return delays_; }
  uint64_t bit_flips() const { return bit_flips_; }
  uint64_t resets() const { return resets_; }

 private:
  bool Chance(double probability);

  ByteStream& inner_;
  FaultPlan plan_;
  std::mt19937_64 rng_;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t short_transfers_ = 0;
  uint64_t delays_ = 0;
  uint64_t bit_flips_ = 0;
  uint64_t resets_ = 0;
};

}  // namespace serve
}  // namespace toprr

#endif  // TOPRR_TESTS_SUPPORT_FAULTY_STREAM_H_
