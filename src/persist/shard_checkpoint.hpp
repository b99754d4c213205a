// The RA store's one checkpoint format: a manifest plus one part per CA
// dictionary (the store's shards).
//
//   dict-<root 40 hex>-<n 16 hex>.part
//     "RITMPART" (8)  u32 version (=1)  u64 n, zero-padded to 64 bytes,
//     then a persist::sections container: the meta (tag 1: u64 n, 20B
//     root) and the dictionary's raw arenas (tag 2 entry log, tag 3 sorted
//     index, tag 4 digest arena), which Dictionary::restore_sections adopts
//     in place.
//
//   snap-<seq 16 hex>.snap  (the manifest, a persist::SnapshotFile stamped
//     with the WAL seq it covers)
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
// write_checkpoint() commits the parts first (tmp, fsync, rename each), fsyncs
// the directory once, then commits the manifest through SnapshotFile — a
// crash at any point leaves the previous manifest and every part it lists in
// place. Retention keeps the two newest manifests and every part either one
// lists, and deletes the other part files.
//
// Trade-off: the two retained manifests share the part of every CA that did
// not change between them. A part corrupted on disk breaks both, and
// recovery refuses instead of falling back (the old single-file layout kept
// two independent copies). A part only the newest manifest lists falls back
// like any corrupt manifest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dict/dictionary.hpp"
#include "persist/snapshot.hpp"

namespace ritm::persist {

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

/// What one checkpoint cycle wrote.
struct CheckpointWrite {
  std::uint64_t bytes = 0;         // part files + manifest
  std::size_t parts_written = 0;
  std::size_t parts_reused = 0;    // already on disk under their name
};

/// Commits one checkpoint into `dir` (created if needed): a part for each of
/// `dicts` (Dictionary::snapshot_sections) unless its file exists, one
/// directory fsync, the manifest stamped `seq` carrying `meta` and the part
/// list, then retention. Throws std::runtime_error on I/O failure. Callers
/// run one cycle per directory at a time: two would race on tmp names.
CheckpointWrite write_checkpoint(const std::string& dir, std::uint64_t seq,
                                 ByteSpan meta,
                                 const std::vector<dict::DictSections>& dicts);

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
/// of them is missing or fails a check.
std::optional<Checkpoint> load_checkpoint(const std::string& dir,
                                          std::uint64_t seq);

}  // namespace ritm::persist
