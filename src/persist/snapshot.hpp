// Atomic container files: the one commit protocol and header layout every
// persisted checkpoint file takes, and SnapshotFile, the seq-stamped
// manifest a checkpoint commits last (shard_checkpoint.hpp).
//
// Every file is a 20-byte stamp zero-padded to 64 bytes, then a
// persist::sections container of 64-byte-aligned, individually CRC'd
// sections —
//   magic (8)  u32 version  u64 stamp  pad to 64  container
// Readers mmap the file and adopt arena sections in place
// (dict::Dictionary::restore_sections); the entry log and digest arena are
// never copied or re-hashed on the restore path.
//
// A snapshot ("RITMSNAP", version 2, snap-<seq>.snap) is stamped with the
// WAL sequence number it covers: every logged record with seq <= that stamp
// is already reflected in it, so recovery loads the newest valid snapshot
// and replays only the WAL records past it.
//
// Commit protocol (crash-safe on POSIX rename semantics):
//   1. write <name>.tmp in full,
//   2. fsync the tmp file,
//   3. rename(2) it to <name>,
//   4. fsync the directory.
// A crash before (3) leaves only a .tmp that loading ignores; a crash after
// leaves a complete, CRC-checked file. A caller committing several files
// skips step 4 per file and fsyncs the directory once (fsync_dir).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "persist/sections.hpp"

namespace ritm::persist {

/// Read-only mmap of one file, shared by every arena adopted out of it; the
/// mapping lives until the last adopter detaches.
class MappedFile {
 public:
  /// Maps `path` read-only (PROT_READ, MAP_PRIVATE). nullptr on failure.
  static std::shared_ptr<const MappedFile> map(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  ByteSpan span() const noexcept {
    return ByteSpan(static_cast<const std::uint8_t*>(base_), len_);
  }

 private:
  MappedFile(void* base, std::size_t len) : base_(base), len_(len) {}

  void* base_ = nullptr;
  std::size_t len_ = 0;
};

/// Size of the stamp in front of every container file (20 bytes used).
constexpr std::size_t kFileHeaderSize = 64;

/// Commits <dir>/<name> by the protocol above: the stamp (`magic`, exactly
/// 8 bytes, then `version` and `stamp` big-endian) and a container of
/// `sections`, streamed straight to the tmp fd (no whole-file staging).
/// `sync_dir` selects step 4. Returns the file's size in bytes. Throws
/// std::runtime_error on I/O failure.
std::uint64_t commit_file(const std::string& dir, const std::string& name,
                          std::string_view magic, std::uint32_t version,
                          std::uint64_t stamp,
                          const std::vector<SectionSpec>& sections,
                          bool sync_dir);

/// fsyncs `dir`, making every rename committed into it durable. Throws
/// std::runtime_error on failure.
void fsync_dir(const std::string& dir);

/// A file image's stamp and validated sections.
struct StampedSections {
  std::uint64_t stamp = 0;
  std::vector<SectionView> sections;
};

/// Validates a file image (`data` aligned as an mmap or heap buffer is):
/// magic, version, and the whole container (parse_container). nullopt on
/// any violation. The sections alias `data`.
std::optional<StampedSections> parse_file(ByteSpan data,
                                          std::string_view magic,
                                          std::uint32_t version);

class SnapshotFile {
 public:
  /// A validated snapshot mapped into memory. `sections` alias the mapping;
  /// hold `file` for as long as any of them is in use (restore_sections
  /// keeps it alive per-arena).
  struct Mapped {
    std::uint64_t seq = 0;
    std::shared_ptr<const MappedFile> file;
    std::vector<SectionView> sections;
  };

  /// Atomically commits `sections` as the snapshot covering WAL records up
  /// to and including `seq`. Creates `dir` if needed. Older snapshots beyond
  /// the most recent two (the newest valid one plus one fallback) are
  /// deleted after the commit. Returns the committed file's size in bytes.
  /// Throws std::runtime_error on I/O failure.
  static std::uint64_t write(const std::string& dir, std::uint64_t seq,
                             const std::vector<SectionSpec>& sections);

  /// Sequence numbers of the snapshot files in `dir`, newest first (.tmp
  /// leftovers and foreign files excluded). Empty when `dir` is missing.
  static std::vector<std::uint64_t> seqs_newest_first(const std::string& dir);

  /// Maps the snapshot stamped `seq` in `dir` and validates it fully (the
  /// stamp must equal `seq`); nullopt when it is missing or fails any
  /// check.
  static std::optional<Mapped> map(const std::string& dir, std::uint64_t seq);
};

}  // namespace ritm::persist
