#include "data/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>

namespace toprr {

namespace {

// Table-driven CRC32C (reflected Castagnoli polynomial 0x82F63B78).
// Software on purpose: no SSE4.2 dependency, and the log append is
// dominated by the write()/fsync() anyway.
const uint32_t* Crc32cTable() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  return table;
}

}  // namespace

uint32_t Crc32c(const void* bytes, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32cTable();
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

bool ParseFsyncPolicy(const std::string& text, FsyncPolicy* policy) {
  std::string lower(text);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "off" || lower == "none") {
    *policy = FsyncPolicy::kOff;
  } else if (lower == "batched" || lower == "batch") {
    *policy = FsyncPolicy::kBatched;
  } else if (lower == "always" || lower == "sync") {
    *policy = FsyncPolicy::kAlways;
  } else {
    return false;
  }
  return true;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kOff:
      return "off";
    case FsyncPolicy::kBatched:
      return "batched";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// PosixWalFile.

std::unique_ptr<PosixWalFile> PosixWalFile::OpenAppend(
    const std::string& path, std::string* error) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "open " + path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  return std::unique_ptr<PosixWalFile>(new PosixWalFile(fd));
}

PosixWalFile::~PosixWalFile() {
  if (fd_ >= 0) ::close(fd_);
}

bool PosixWalFile::Append(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t left = len;
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, p, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("write: ") + std::strerror(errno);
      return false;
    }
    p += wrote;
    left -= static_cast<size_t>(wrote);
  }
  return true;
}

bool PosixWalFile::Sync() {
  if (::fsync(fd_) != 0) {
    error_ = std::string("fsync: ") + std::strerror(errno);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Framing.

void FrameWalRecord(const std::string& payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32c(payload.data(), payload.size()));
  out->append(payload);
}

WalWriter::WalWriter(std::unique_ptr<WalFile> file, FsyncPolicy policy,
                     size_t batch_bytes)
    : file_(std::move(file)),
      policy_(policy),
      batch_bytes_(batch_bytes > 0 ? batch_bytes : 1) {}

bool WalWriter::AppendRecord(const std::string& payload) {
  if (payload.size() > kMaxWalRecordBytes) {
    error_ = "record too large";
    return false;
  }
  std::string frame;
  frame.reserve(kWalHeaderBytes + payload.size());
  FrameWalRecord(payload, &frame);
  if (!file_->Append(frame.data(), frame.size())) {
    error_ = file_->last_error();
    return false;
  }
  ++appends_;
  bytes_ += frame.size();
  unsynced_bytes_ += frame.size();
  const bool want_sync =
      policy_ == FsyncPolicy::kAlways ||
      (policy_ == FsyncPolicy::kBatched && unsynced_bytes_ >= batch_bytes_);
  if (want_sync && !Sync()) return false;
  return true;
}

bool WalWriter::Sync() {
  if (unsynced_bytes_ == 0) return true;
  if (!file_->Sync()) {
    error_ = file_->last_error();
    return false;
  }
  ++syncs_;
  unsynced_bytes_ = 0;
  return true;
}

WalReadResult ReadWalRecords(const std::string& path) {
  WalReadResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // A missing log is an empty log (first boot, or rotated away).
    return result;
  }
  std::string bytes;
  char buf[64 * 1024];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);

  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < kWalHeaderBytes) {
      result.torn_tail = true;
      result.detail = "torn tail: partial frame header";
      break;
    }
    ByteReader header(bytes.data() + pos, kWalHeaderBytes);
    uint32_t len = 0;
    uint32_t crc = 0;
    header.U32(&len);
    header.U32(&crc);
    if (len > kMaxWalRecordBytes) {
      result.ok = false;
      result.detail = "garbage frame header: implausible length";
      break;
    }
    if (remaining - kWalHeaderBytes < len) {
      result.torn_tail = true;
      result.detail = "torn tail: frame payload runs past EOF";
      break;
    }
    const char* payload = bytes.data() + pos + kWalHeaderBytes;
    if (Crc32c(payload, len) != crc) {
      if (remaining == kWalHeaderBytes + len) {
        // The damaged frame is the very last thing in the file: the
        // shape a crash mid-append leaves. Truncating it loses nothing
        // that was ever durably acknowledged.
        result.torn_tail = true;
        result.detail = "torn tail: checksum mismatch on final frame";
      } else {
        // Damage with more data behind it is corruption, not a crash
        // artifact; silently skipping could serve wrong history.
        result.ok = false;
        result.detail = "checksum mismatch mid-log";
      }
      break;
    }
    result.records.emplace_back(payload, len);
    pos += kWalHeaderBytes + len;
    result.valid_bytes = pos;
  }
  return result;
}

}  // namespace toprr
