#include "persist/recovery.hpp"

#include <stdexcept>

namespace ritm::persist {

RecoveryScan Recovery::recover(
    const std::string& dir,
    const std::function<bool(const Checkpoint&)>& install) {
  RecoveryScan result;
  const auto seqs = SnapshotFile::seqs_newest_first(dir);
  for (const std::uint64_t seq : seqs) {
    const auto checkpoint = load_checkpoint(dir, seq);
    if (checkpoint && install(*checkpoint)) {
      result.checkpoint_seq = seq;
      break;
    }
    ++result.snapshots_skipped;
  }
  if (!seqs.empty() && !result.checkpoint_seq) {
    // Starting empty would drop every mutation the WAL reset discarded.
    throw std::runtime_error("Recovery: none of " +
                             std::to_string(seqs.size()) +
                             " checkpoints restores");
  }
  const std::uint64_t checkpoint_seq = result.checkpoint_seq.value_or(0);

  WalScan scan = WriteAheadLog::scan_file(wal_path(dir));
  result.wal_truncated_bytes = scan.truncated_bytes;
  // Records already covered by the checkpoint are dropped; the rest replay
  // on top of it. (A checkpoint stamped past the whole log — e.g. the crash
  // hit between the manifest commit and the WAL reset — yields an empty
  // tail.)
  result.tail.reserve(scan.records.size());
  for (auto& rec : scan.records) {
    if (rec.seq > checkpoint_seq) result.tail.push_back(std::move(rec));
  }
  return result;
}

}  // namespace ritm::persist
