// Recovery driver: snapshot + WAL tail -> the state to restore (PR 4).
//
// A persistence directory holds one write-ahead log ("wal.log") and a small
// set of snapshot files (snapshot.hpp). Recovery is the read side of the
// contract between them: map the newest valid snapshot, then hand back the
// WAL records with seq greater than the snapshot's stamp — the "tail" the
// caller replays through its normal apply path. Torn final writes are
// detected by the WAL scan and reported (open()ing the log for appending
// afterwards truncates them in place).
//
// The driver itself is state-agnostic: it never decodes payloads. The
// replaying layer (ra::DictionaryStore::recover_from) owns the record types
// and the acceptance rules, so recovery literally *is* replay — the same
// code path that applied a mutation live applies it again on restart, which
// is what pins "recovered state == in-memory replay of the surviving
// prefix" byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "persist/snapshot.hpp"
#include "persist/wal.hpp"

namespace ritm::persist {

/// Zero-copy recovery scan: the snapshot stays mapped instead of being
/// read into a buffer, so the caller can adopt arena sections in place.
struct MappedRecovery {
  std::optional<SnapshotFile::Mapped> snapshot;
  std::vector<WalRecord> tail;    // valid WAL records with seq > snapshot seq
  std::uint64_t wal_truncated_bytes = 0;  // torn/corrupt tail detected
  std::uint64_t snapshots_skipped = 0;    // corrupt snapshot files passed over
};

class Recovery {
 public:
  /// The WAL's fixed name inside a persistence directory.
  static constexpr const char* kWalName = "wal.log";

  static std::string wal_path(const std::string& dir) {
    return dir + "/" + kWalName;
  }

  /// Read-only recovery scan of `dir`: the newest valid snapshot, as a live
  /// mapping (SnapshotFile::map_newest) whose sections the caller adopts
  /// without copying, plus the WAL tail past it. The mapping must be kept
  /// alive for as long as any adopted section is in use. Never modifies the
  /// directory — callers that intend to keep appending open the WAL
  /// afterwards, which truncates any torn tail reported here.
  static MappedRecovery recover_mapped(const std::string& dir);
};

}  // namespace ritm::persist
