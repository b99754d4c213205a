// Write-ahead log for the durable dictionary pipeline.
//
// An append-only file of CRC-framed records with one writer, the RA store:
// it logs each accepted mutation (issuance/freshness/sync/bootstrap
// message) and each feed-cursor advance; recovery replays the longest valid
// prefix on top of the newest checkpoint (persist/checkpoint.hpp), so a
// process restart costs O(log tail) instead of O(issuance history). The
// log is not thread-safe: its writer serializes every call.
//
// On-disk layout (all integers big-endian, common::io):
//
//   header:  "RITMWAL\0" (8)  u32 version (=1)
//   record:  u32 frame_len  u64 seq  u8 type  payload  u32 crc32
//
// frame_len counts seq + type + payload (so >= 9); the CRC covers exactly
// those frame bytes. A record is valid iff it fits entirely in the file,
// its CRC matches, and its seq is strictly greater than its predecessor's.
// The first violation ends the valid prefix: everything after it is a torn
// final write (or trailing garbage) and is truncated by open() before any
// new append, which is what makes "recovery equals replay of the surviving
// prefix" a byte-precise statement.
//
// Durability: appends go straight to the fd; fsync is batched — every
// `sync_every` records (and on sync()/close()) — trading a bounded tail of
// re-fetchable feed messages for not paying an fsync per mutation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace ritm::persist {

/// The WAL's fixed name inside a persistence directory.
inline constexpr const char* kWalName = "wal.log";

inline std::string wal_path(const std::string& dir) {
  return dir + "/" + kWalName;
}

/// One durably logged record. `seq` is assigned by the log, strictly
/// increasing across the file; `type` tells the replayer how to decode the
/// payload (the types are ra::DictionaryStore's).
struct WalRecord {
  std::uint64_t seq = 0;
  std::uint8_t type = 0;
  Bytes payload;

  bool operator==(const WalRecord&) const = default;
};

/// Result of scanning a log file: the longest valid record prefix plus how
/// many trailing bytes were torn/corrupt (and, for open(), truncated away).
struct WalScan {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;      // offset just past the last valid record
  std::uint64_t truncated_bytes = 0;  // torn tail dropped beyond valid_bytes
};

struct WalOptions {
  /// fsync after every N appended records (1 = every append; 0 = only on
  /// explicit sync()/close()).
  std::size_t sync_every = 32;
};

class WriteAheadLog {
 public:
  static constexpr std::size_t kHeaderSize = 12;
  /// Upper bound on frame_len accepted by the scanner — rejects garbage
  /// length fields before they turn into giant allocations.
  static constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

  WriteAheadLog() = default;
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if absent) the log at `path`. An existing file is
  /// scanned and any torn tail truncated in place, so appends always extend
  /// a valid prefix; the surviving records are returned for replay. Throws
  /// std::runtime_error on I/O failure.
  WalScan open(const std::string& path, WalOptions opts = {});

  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }

  /// Appends one record and returns its sequence number. fsyncs when the
  /// batching threshold is reached.
  std::uint64_t append(std::uint8_t type, ByteSpan payload);

  /// Forces everything appended so far to stable storage.
  void sync();

  /// Truncates the log back to its bare header — called right after a
  /// checkpoint captured every logged record — and continues numbering from
  /// `next_seq` so record seqs stay comparable with checkpoint stamps.
  void reset(std::uint64_t next_seq);

  /// Raises next_seq() to at least `next_seq` (never lowers it). Reopening
  /// a log that a checkpoint emptied restarts numbering at 1, which
  /// would put new records at or below the checkpoint's stamp and make the
  /// next recovery drop them — callers resuming after recovery floor the
  /// counter at mutation_seq + 1 (DictionaryStore does this on every
  /// logged record).
  void fast_forward(std::uint64_t next_seq) noexcept {
    if (next_seq > next_seq_) next_seq_ = next_seq;
  }

  /// Sequence number the next append() will use.
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// Bytes currently occupied by valid records (excluding the header).
  std::uint64_t tail_bytes() const noexcept { return size_ - kHeaderSize; }

  void close();

  /// Read-only scan of a log file (no truncation) — what recover() uses.
  static WalScan scan_file(const std::string& path);

  /// Same scan over an in-memory image of a log file — what the torn-write
  /// property tests run against every byte-offset prefix of a real log.
  static WalScan scan(ByteSpan data);

 private:
  int fd_ = -1;
  std::string path_;
  WalOptions opts_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t size_ = 0;  // current file size (header + valid records)
  std::size_t unsynced_ = 0;
};

}  // namespace ritm::persist
