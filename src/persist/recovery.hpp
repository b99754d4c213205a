// Recovery driver: checkpoint + WAL tail -> the state to restore (PR 4).
//
// A persistence directory holds one write-ahead log ("wal.log") and the
// checkpoint files (shard_checkpoint.hpp). Recovery is the read side of the
// contract between them: offer the checkpoints newest first to the restoring
// layer until one installs, then hand back the WAL records with seq greater
// than that checkpoint's stamp — the "tail" the caller replays through its
// normal apply path. Torn final writes are detected by the WAL scan and
// reported (open()ing the log for appending afterwards truncates them in
// place).
//
// The driver itself is state-agnostic: it never decodes the owner's meta or
// a WAL payload. The replaying layer (ra::DictionaryStore::recover_from)
// owns the record types and the acceptance rules, so recovery literally *is*
// replay — the same code path that applied a mutation live applies it again
// on restart, which is what pins "recovered state == in-memory replay of
// the surviving prefix" byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "persist/shard_checkpoint.hpp"
#include "persist/wal.hpp"

namespace ritm::persist {

struct RecoveryScan {
  std::optional<std::uint64_t> checkpoint_seq;  // the installed checkpoint
  std::vector<WalRecord> tail;    // valid WAL records with seq > its stamp
  std::uint64_t wal_truncated_bytes = 0;  // torn/corrupt tail detected
  std::uint64_t snapshots_skipped = 0;    // checkpoints passed over
};

class Recovery {
 public:
  /// The WAL's fixed name inside a persistence directory.
  static constexpr const char* kWalName = "wal.log";

  static std::string wal_path(const std::string& dir) {
    return dir + "/" + kWalName;
  }

  /// Offers each checkpoint in `dir`, newest first, to `install`: it returns
  /// true once it has installed that one, or false to pass over it (its
  /// state does not restore). A checkpoint whose manifest or parts fail to
  /// load is passed over without an offer. Returns the installed stamp and
  /// the WAL tail past it. Throws std::runtime_error when checkpoints exist
  /// but none installs; an exception from `install` (a refusal) propagates.
  /// Never modifies the directory — callers that intend to keep appending
  /// open the WAL afterwards, which truncates any torn tail reported here.
  static RecoveryScan recover(
      const std::string& dir,
      const std::function<bool(const Checkpoint&)>& install);
};

}  // namespace ritm::persist
