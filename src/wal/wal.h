// Write-ahead log: the paper's "write-ahead logs" persistency strategy
// (Table I, "Persistency Strategy: periodically flush or write-ahead logs
// according [to] users' needs").
//
// Format: a stream of records, each in one frame (write_frame below).
// Replay stops cleanly at the first torn/corrupt frame — exactly the state
// a crash mid-append leaves behind.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/codec.h"
#include "common/status.h"
#include "common/types.h"

namespace sedna::wal {

struct WalRecord {
  enum class Type : std::uint8_t {
    kWriteLatest = 1,
    kWriteAll = 2,
    kDelete = 3,
    /// Causal write: `value` holds the encoded CausalRecord (the full
    /// post-merge state, so replay is an idempotent join).
    kWriteCausal = 4,
  };
  friend constexpr Type wire_first(Type) { return Type::kWriteLatest; }
  friend constexpr Type wire_last(Type) { return Type::kWriteCausal; }

  Type type = Type::kWriteLatest;
  std::string key;
  std::string value;
  Timestamp ts = 0;
  std::uint32_t flags = 0;
  /// Source node for kWriteAll records.
  NodeId source = kInvalidNode;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.type, m.key, m.value, m.ts, m.flags, m.source);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  /// Also rejects trailing bytes: a log record is exactly one frame.
  [[nodiscard]] static Result<WalRecord> decode(std::string_view payload);

  friend bool operator==(const WalRecord& a, const WalRecord& b) {
    return a.type == b.type && a.key == b.key && a.value == b.value &&
           a.ts == b.ts && a.flags == b.flags && a.source == b.source;
  }
};

/// Header of the frame the log and snapshots are made of:
///   u32 payload_length | u32 crc32(payload) | payload
struct FrameHeader {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.length, m.crc);
  }
};

/// Appends one frame holding `payload`; returns the bytes written, or 0
/// when the write failed.
std::size_t write_frame(std::FILE* f, std::string_view payload);

/// Reads the next frame's payload. False at end of file and at the first
/// torn or corrupt frame.
bool read_frame(std::FILE* f, std::string& payload);

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::string path) : path_(std::move(path)) {}
  ~WriteAheadLog() { close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if needed) for appending.
  Status open();
  void close();

  Status append(const WalRecord& record);
  /// Flushes buffered appends to the OS.
  Status sync();

  /// Replays all intact records from the start of the file, invoking `fn`
  /// for each. A torn tail is not an error — replay just stops there and
  /// reports how many records were recovered.
  static Result<std::uint64_t> replay(
      const std::string& path,
      const std::function<void(const WalRecord&)>& fn);

  /// Truncates the log (after a snapshot made its prefix redundant).
  Status reset();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_appended() const { return appended_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t appended_ = 0;
};

}  // namespace sedna::wal
