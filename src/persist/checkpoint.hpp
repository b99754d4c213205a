// The RA store's one checkpoint format, its writer and its recovery: a
// manifest plus one part per CA dictionary, written by write_checkpoint()
// and read back, newest manifest first, by recover().
//
// Every file is a 20-byte stamp zero-padded to 64 bytes, then a
// persist::sections container of 64-byte-aligned, individually CRC'd
// sections —
//   magic (8)  u32 version  u64 stamp  pad to 64  container
// Readers mmap the file and adopt arena sections in place
// (dict::Dictionary::restore_sections); the entry log and digest arena are
// never copied or re-hashed on the restore path.
//
//   dict-<root 40 hex>-<n 16 hex>.part
//     "RITMPART", version 1, stamped with n: the meta (tag 1: u64 n, 20B
//     root) and the dictionary's raw arenas (tag 2 entry log, tag 3 sorted
//     index, tag 4 digest arena).
//
//   snap-<seq 16 hex>.snap  (the manifest)
//     "RITMSNAP", version 2, stamped with the WAL seq it covers: every
//     logged record with seq <= the stamp is already reflected in it.
//     tag 1: the owner's meta — the store's per-CA state, opaque here;
//     tag 2: the part list — u32 count, then count x (20B root, u64 n),
//            strictly ascending, which retention reads without knowing
//            the owner's meta.
//
// A part is named by what it holds: (n, root) fixes the entry log, the
// sorted index and every tree node a reader uses, so one name never maps to
// two dictionaries, and a checkpoint writes a part only when no file of that
// name exists yet. A CA whose dictionary did not change since the last
// checkpoint costs only its manifest entry.
//
// Commit protocol (crash-safe on POSIX rename semantics): each file is
// written as <name>.tmp in full, fsynced, and renamed to <name>. The parts
// go first, then one directory fsync, then the manifest and a second
// directory fsync — a crash at any point leaves the previous manifest and
// every part it lists in place, plus at most .tmp leftovers that loading
// ignores. One retention pass then keeps the two newest manifests and every
// part either one lists, and deletes the other manifests and part files.
//
// Trade-off: the two retained manifests share the part of every CA that did
// not change between them. A part corrupted on disk breaks both, and
// recovery refuses instead of falling back. A part only the newest manifest
// lists falls back like any corrupt manifest.
//
// Recovery is the read side of the contract between the checkpoints and
// the write-ahead log (persist/wal.hpp) in the same directory: offer the
// checkpoints newest first to the restoring layer until one installs, then
// hand back the WAL records past its stamp — the tail the caller replays
// through its normal apply path (ra::DictionaryStore::recover_from).
// recover() never decodes the owner's meta or a WAL payload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "dict/dictionary.hpp"
#include "persist/sections.hpp"
#include "persist/wal.hpp"

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

/// Size of the stamp in front of every checkpoint file (20 bytes used).
constexpr std::size_t kFileHeaderSize = 64;

/// A part's name: the size and root of the dictionary it holds.
struct PartKey {
  crypto::Digest20 root{};
  std::uint64_t n = 0;

  auto operator<=>(const PartKey&) const = default;
};

/// "dict-<root 40 hex>-<n 16 hex>.part".
std::string part_name(const PartKey& key);

/// Encodes a part list (manifest tag 2); `keys` may repeat and come in any
/// order.
Bytes encode_part_list(std::vector<PartKey> keys);

/// Decodes a part list. nullopt unless `data` is exactly one canonical
/// encoding — keys strictly ascending, no trailing bytes — so an accepted
/// list re-encodes to `data` byte for byte.
std::optional<std::vector<PartKey>> decode_part_list(ByteSpan data);

/// Decodes a part file image (`data` aligned as an mmap or heap buffer is):
/// stamp, container CRCs, and a meta that agrees with the stamp. The
/// returned arena spans alias `data`. The arenas' contents are checked only
/// by Dictionary::restore_sections. nullopt on any violation.
std::optional<dict::DictSections> decode_part(ByteSpan data);

/// What one checkpoint write put on disk.
struct CheckpointWrite {
  std::uint64_t bytes = 0;         // part files + manifest
  std::size_t parts_written = 0;
  std::size_t parts_reused = 0;    // already on disk under their name
};

/// Commits one checkpoint into `dir` (created if needed): a part for each of
/// `dicts` (Dictionary::snapshot_sections) unless its file exists, one
/// directory fsync, the manifest stamped `seq` carrying `meta` and the part
/// list, then the retention pass. Throws std::runtime_error on I/O failure.
/// Callers run one write per directory at a time: two would race on tmp
/// names.
CheckpointWrite write_checkpoint(const std::string& dir, std::uint64_t seq,
                                 ByteSpan meta,
                                 const std::vector<dict::DictSections>& dicts);

/// Stamps of the manifests in `dir`, newest first (.tmp leftovers and
/// foreign files excluded). Empty when `dir` is missing.
std::vector<std::uint64_t> manifest_seqs(const std::string& dir);

/// One manifest with every part it lists mapped and validated.
struct Checkpoint {
  struct Part {
    dict::DictSections sections;
    std::shared_ptr<const MappedFile> file;  // keeps `sections` mapped
  };
  std::uint64_t seq = 0;
  ByteSpan meta;  // the owner's section
  std::shared_ptr<const MappedFile> manifest;  // keeps `meta` mapped
  std::map<PartKey, Part> parts;
};

/// Maps manifest `seq` in `dir` and every part it lists; nullopt when any
/// of them is missing or fails a check (the manifest's stamp must equal
/// `seq`).
std::optional<Checkpoint> load_checkpoint(const std::string& dir,
                                          std::uint64_t seq);

/// What recover() found: the checkpoint it installed and the WAL tail to
/// replay on top of it.
struct Recovered {
  std::optional<std::uint64_t> checkpoint_seq;  // the installed checkpoint
  std::vector<WalRecord> tail;    // valid WAL records with seq > its stamp
  std::uint64_t wal_truncated_bytes = 0;  // torn/corrupt tail detected
  std::uint64_t snapshots_skipped = 0;    // checkpoints passed over
};

/// Offers each checkpoint in `dir`, newest first, to `install`: it returns
/// true once it has installed that one, or false to pass over it (its state
/// does not restore). A checkpoint whose manifest or parts fail to load is
/// passed over without an offer. Returns the installed stamp and the tail of
/// wal_path(dir) past it. Throws std::runtime_error when checkpoints exist
/// but none installs; an exception from `install` (a refusal) propagates.
/// Never modifies the directory — callers that intend to keep appending
/// open the WAL afterwards, which truncates any torn tail reported here.
Recovered recover(const std::string& dir,
                     const std::function<bool(const Checkpoint&)>& install);

}  // namespace ritm::persist
