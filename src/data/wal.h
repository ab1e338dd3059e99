// Append-only write-ahead log for the mutable catalog -- the framing,
// checksumming, and fsync-policy half of the durability story (the
// checkpoint/replay half lives in data/recovery.h).
//
// Every record on disk is a little-endian frame
//
//   [u32 payload_len][u32 crc32c(payload)][payload bytes]
//
// written in one Append() so a crash can only tear the tail. Readers
// (ReadWalRecords) validate every frame: a frame that runs past EOF, or
// whose checksum mismatches on the final frame, is a torn tail and is
// truncated away (the prefix before it stays valid); a checksum or
// header failure with MORE valid-looking bytes after it cannot be a
// crash artifact and is reported as corruption -- a typed error, never
// an abort, so adversarial inputs cannot take the process down.
//
// WalWriter owns the append path behind a WalFile byte sink. The
// default sink is a POSIX fd (PosixWalFile); tests wrap it in a
// fault-injecting decorator (tests/support/faulty_file.h) to inject
// short writes, bit flips, and hard failures with seeded randomness.
//
// Fsync policy trades durability for publish latency:
//   kAlways  -- fsync before every Append() returns (acked == durable).
//   kBatched -- group commit: fsync once >= batch_bytes are unsynced.
//   kOff     -- leave flushing to the OS (crash loses the page cache).
#ifndef TOPRR_DATA_WAL_H_
#define TOPRR_DATA_WAL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace toprr {

/// Software CRC32C (Castagnoli, the iSCSI/ext4 polynomial), table-driven.
/// Seedable for incremental use; Crc32c("123456789") == 0xE3069283.
uint32_t Crc32c(const void* bytes, size_t len, uint32_t seed = 0);

enum class FsyncPolicy : int { kOff = 0, kBatched = 1, kAlways = 2 };

/// Parses "off"/"batched"/"always" (case-insensitive).
bool ParseFsyncPolicy(const std::string& text, FsyncPolicy* policy);
const char* FsyncPolicyName(FsyncPolicy policy);

// ---------------------------------------------------------------------------
// Little-endian byte encoding shared by WAL records and checkpoint files.
// (The serve layer has its own wire codec; the data layer must not depend
// on serve, so these few helpers are duplicated deliberately.)

inline void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

inline void PutBytes(std::string* out, const void* data, size_t len) {
  out->append(static_cast<const char*>(data), len);
}

/// Bounds-checked little-endian cursor over one record payload. Every
/// getter returns false once the payload is exhausted or malformed, so
/// decoding hostile bytes degrades to a typed decode failure.
class ByteReader {
 public:
  ByteReader(const void* data, size_t len)
      : p_(static_cast<const unsigned char*>(data)), len_(len) {}

  bool U32(uint32_t* v) {
    if (len_ - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(p_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    if (len_ - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(p_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool Bytes(void* out, size_t len) {
    if (len_ - pos_ < len) return false;
    std::memcpy(out, p_ + pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return len_ - pos_; }
  bool Done() const { return pos_ == len_; }

 private:
  const unsigned char* p_;
  size_t len_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Byte sinks.

/// Minimal appendable-file interface the WAL writes through. Append()
/// must write all of `len` or return false; partial progress after a
/// failure leaves the file with a torn tail, which is exactly what the
/// reader's truncation path recovers from.
class WalFile {
 public:
  virtual ~WalFile() = default;
  virtual bool Append(const void* data, size_t len) = 0;
  virtual bool Sync() = 0;
  virtual const std::string& last_error() const = 0;
};

/// O_APPEND POSIX file. Append loops over short write()s; Sync is fsync.
class PosixWalFile : public WalFile {
 public:
  /// Opens (creating if absent) for append. Null + *error on failure.
  static std::unique_ptr<PosixWalFile> OpenAppend(const std::string& path,
                                                  std::string* error);
  ~PosixWalFile() override;

  bool Append(const void* data, size_t len) override;
  bool Sync() override;
  const std::string& last_error() const override { return error_; }

 private:
  explicit PosixWalFile(int fd) : fd_(fd) {}
  int fd_;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Record framing.

/// Frame header: u32 payload length + u32 CRC32C of the payload.
constexpr size_t kWalHeaderBytes = 8;
/// Upper bound on one payload; larger declared lengths are garbage
/// headers (a hostile-length guard, like serve's frame cap).
constexpr uint32_t kMaxWalRecordBytes = 1u << 30;

/// Appends the framed record for `payload` to `out`.
void FrameWalRecord(const std::string& payload, std::string* out);

/// Append path over a WalFile: frames each record and applies the fsync
/// policy. Not thread-safe; callers serialize (the catalog publish lock).
class WalWriter {
 public:
  WalWriter(std::unique_ptr<WalFile> file, FsyncPolicy policy,
            size_t batch_bytes = size_t{1} << 20);

  /// Frames + appends + (per policy) syncs. False on any failure, after
  /// which the log must be treated as torn at this record.
  bool AppendRecord(const std::string& payload);

  /// Forces an fsync regardless of policy (checkpoint barriers).
  bool Sync();

  uint64_t appends() const { return appends_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t syncs() const { return syncs_; }
  const std::string& last_error() const { return error_; }

 private:
  std::unique_ptr<WalFile> file_;
  FsyncPolicy policy_;
  size_t batch_bytes_;
  size_t unsynced_bytes_ = 0;
  uint64_t appends_ = 0;
  uint64_t bytes_ = 0;
  uint64_t syncs_ = 0;
  std::string error_;
};

/// Outcome of scanning one log file. `records` holds every payload of
/// the longest valid prefix; what follows that prefix decides the rest:
///   * nothing            -- a clean log (ok, no flags),
///   * a torn tail        -- ok, torn_tail = true, the tail is ignored
///                           (valid_bytes says where to truncate),
///   * corruption         -- ok = false (typed rejection): an invalid
///                           frame with further plausible frames behind
///                           it means the file was damaged, not torn,
///                           and silently dropping the suffix could
///                           resurrect deleted data.
struct WalReadResult {
  bool ok = true;
  bool torn_tail = false;
  std::vector<std::string> records;
  uint64_t valid_bytes = 0;  // file offset just past the last valid frame
  std::string detail;        // human-readable reason for torn/corrupt
};

/// Scans the framed records of the file at `path`. A missing file reads
/// as an empty, clean log. Never aborts on any input.
WalReadResult ReadWalRecords(const std::string& path);

}  // namespace toprr

#endif  // TOPRR_DATA_WAL_H_
