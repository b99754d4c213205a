// The authenticated dictionary of paper §III Fig. 2.
//
// One instance per CA. The CA owns the writable copy (insert); every RA
// maintains a replica it updates by replaying the CA's announced serials and
// comparing the recomputed root against the signed root (update). Both sides
// use the same class; `update` implements the RA-side acceptance rule.
//
// Representation: an append-only log in revocation-number order plus a
// sorted-by-serial index. Every insert, one serial or a Heartbleed-sized
// batch, takes the same path: sort the batch, search the index forward for
// serials already present, and splice the new ones into the index with block
// moves (see insert()). The Merkle tree lives in one flat contiguous
// digest arena with per-level offsets (leaf capacity rounded to a power of
// two, so offsets stay stable as the dictionary grows). Every mutation
// returns with the tree built, and insert() rebuilds it *incrementally*:
// only leaves from the batch's first sorted insertion point onward, plus
// their ancestor spine, are rehashed. A Δ-batch of appends past the current
// maximum serial therefore costs O(batch + log n) hashes instead of O(n).
// Proof generation is O(log n).
//
// All three arenas (log, sorted index, digest tree) are copy-on-write
// (dict/arena.hpp): the log is fixed-width 24-byte records, so a snapshot
// can dump the arenas verbatim into 64-byte-aligned file sections
// (snapshot_sections) and a restart can adopt them straight out of an
// mmap-ed snapshot (restore_sections) — zero copy until the first
// mutation. Copying a Dictionary is O(1) and yields a stable frozen view,
// which is what the background checkpointer snapshots while serving
// continues.
//
// Thread contract: const calls only read, so any number of them may run
// concurrently. Mutations (the non-const calls) need exclusive access.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/io.hpp"
#include "dict/arena.hpp"
#include "dict/proof.hpp"

namespace ritm::dict {

/// One entry of the append-only log in its arena form: a fixed-width,
/// mmap-adoptable record. The revocation number is implicit (position + 1).
struct LogRecord {
  std::uint8_t len = 0;
  std::uint8_t bytes[23] = {};

  ByteSpan serial() const noexcept { return ByteSpan(bytes, len); }
};
static_assert(sizeof(LogRecord) == 24, "snapshot sections assume 24B records");
static_assert(cert::kMaxSerialBytes <= sizeof(LogRecord::bytes),
              "serials must fit a LogRecord");

/// The raw arena sections of one dictionary — what a snapshot file persists
/// verbatim and what an mmap restore adopts in place. Spans use the
/// dictionary's in-memory (host-endian) layout; the snapshot container
/// carries an endianness tag so a foreign-endian file is rejected instead
/// of being misread.
struct DictSections {
  std::uint64_t n = 0;
  crypto::Digest20 root{};
  ByteSpan log;     // n * sizeof(LogRecord)
  ByteSpan sorted;  // n * sizeof(uint32_t)
  ByteSpan tree;    // (2 * leaf_cap - 1) * 20, empty when n == 0
};

class Dictionary {
 public:
  Dictionary() = default;

  /// Number of revocations (leaves); the paper's `n`.
  std::uint64_t size() const noexcept { return log_.size(); }

  /// Current Merkle root (empty_root() when size()==0).
  const crypto::Digest20& root() const;

  bool contains(const cert::SerialNumber& serial) const;

  /// Looks up the revocation number of a serial, if revoked.
  std::optional<std::uint64_t> number_of(const cert::SerialNumber& serial) const;

  /// CA-side insert (Fig. 2): appends each new serial with the next
  /// consecutive number, in batch order. Serials already present — in the
  /// dictionary or earlier in the same batch — are skipped (the first
  /// occurrence wins), so numbering is idempotent regardless of batch size.
  /// Returns the entries actually appended, in numbering order. Throws
  /// (before any mutation) if a serial has an invalid length. A batch that
  /// adds nothing mutates nothing: no shared arena detaches.
  ///
  /// One path for every batch size. For k serials into n entries it costs a
  /// batch sort in O(k log k) (on an 8-byte big-endian serial prefix, with
  /// the full bytes as tiebreak), a forward galloping search of the index
  /// in O(k log(n/k)) comparisons, and word moves for the index positions at
  /// or above the first insertion point; it allocates nothing per serial
  /// beyond the returned entries. It returns with the tree rebuilt from the
  /// first insertion point: leaves below it are not rehashed.
  std::vector<Entry> insert(const std::vector<cert::SerialNumber>& serials);

  /// RA-side update (Fig. 2): replays `serials` and accepts iff the rebuilt
  /// root equals `expected_root` and the new size equals `expected_n`.
  /// An insert that added nothing returns the comparison as it stands: no
  /// rollback, no rehash, and no arena a frozen copy shares detaches. A
  /// mismatch after an insert that added entries rolls them back, rebuilds
  /// the tree from scratch and returns false.
  bool update(const std::vector<cert::SerialNumber>& serials,
              const crypto::Digest20& expected_root, std::uint64_t expected_n);

  /// Produces a presence or absence proof for `serial` (Fig. 2 prove).
  Proof prove(const cert::SerialNumber& serial) const;

  /// Entries with numbers in [first_number, n], in numbering order — the
  /// replication stream an RA uses to resynchronize after detecting a gap
  /// (§III "synchronization protocol").
  std::vector<Entry> entries_from(std::uint64_t first_number) const;

  /// Serializes the dictionary (versioned, length-prefixed: the entry
  /// log, the sorted index, and the current root) into `w` — the
  /// CDN cold-start payload (ca::ColdStartObject) and the WAL bootstrap
  /// record. The encoding streams straight out of the flat arenas.
  void snapshot_into(ByteWriter& w) const;

  /// Restores a dictionary serialized by snapshot_into(). No per-entry
  /// re-hash: the log and sorted index load in O(n) (serials are read in
  /// place), the entry count is bounded by the input length before anything
  /// is allocated, the sorted order is validated with byte comparisons, and
  /// the Merkle root is recomputed once and checked against the snapshot's
  /// recorded root. Throws std::runtime_error on malformed input or a root
  /// mismatch, leaving the dictionary untouched.
  void restore_from(ByteReader& r);

  /// The raw arena sections for an mmap-able snapshot. The spans alias this
  /// dictionary's arenas and stay valid until the next mutation (freeze —
  /// copy — first when persisting off-thread).
  DictSections snapshot_sections() const;

  /// Adopts snapshot sections in place: validates record lengths, index
  /// bounds, section sizes, that the sorted index is strictly increasing
  /// (the same check restore_from makes), and that the recorded root equals
  /// the tree arena's top node, then aliases the spans directly (holding
  /// `keepalive` — typically the mapped part file — until the first
  /// mutation detaches). No hashing, no copy: the tree's leaves are not
  /// re-checked against the log — section CRCs guard integrity, and
  /// untrusted wire payloads (cold start) always take restore_from. Throws
  /// std::runtime_error on malformed sections, leaving this dictionary
  /// untouched.
  void restore_sections(const DictSections& s,
                        std::shared_ptr<const void> keepalive);

  /// Bytes needed to persist the raw revocation list (serials + numbers) —
  /// the paper's "storage overhead" (§VII-D).
  std::size_t storage_bytes() const noexcept;

  /// Bytes of in-memory state including the Merkle arena — the paper's
  /// "memory required to build and keep all dictionaries" (§VII-D).
  std::size_t memory_bytes() const noexcept;

  /// SHA-256 invocations performed by the most recent rebuild, and in total
  /// over this dictionary's lifetime (the rehash counts the ablation and the
  /// benches report).
  std::uint64_t last_rebuild_hash_count() const noexcept {
    return last_rebuild_hashes_;
  }
  std::uint64_t total_hash_count() const noexcept { return total_hashes_; }

  /// Rebuilds the tree from scratch in a fresh arena: the O(n) cost model
  /// the incremental path avoids. update()'s rollback and restore_from use
  /// it; tests and benches use it to pin incremental == full.
  void rebuild_all();

 private:
  /// Rehashes leaves [lo, n) and their ancestors. Lays out a fresh arena
  /// first (and rehashes every leaf) when `lo` is 0 or n outgrows the leaf
  /// capacity.
  void rebuild(std::size_t lo);
  /// Derives leaf_cap_ (the next power of two), the per-level offsets (from
  /// the capacity, so they survive growth), and level_count_ for `n` leaves
  /// without touching the tree arena (shared by rebuild and mmap adoption).
  void compute_layout(std::size_t n);
  /// Hashes leaves [lo, n) into level 0 of `arena` via the batch entry point.
  void hash_leaves(crypto::Digest20* arena, std::size_t lo, std::size_t n);
  /// Hashes dirty parents [lo, next_size) at `level + 1` from the `size`
  /// children at `level`, batched in 64-node chunks (multi-lane engine).
  void hash_inner(crypto::Digest20* arena, std::size_t level, std::size_t lo,
                  std::size_t next_size, std::size_t size);

  const crypto::Digest20& node(std::size_t level, std::size_t i) const {
    return tree_.data()[level_off_[level] + i];
  }

  /// Serial bytes of log entry `idx` (the entry's number is idx + 1).
  ByteSpan serial_at(std::size_t idx) const noexcept {
    return log_[idx].serial();
  }
  /// Materializes log entry `idx` as an owning Entry (allocates).
  Entry entry_at(std::size_t idx) const {
    const LogRecord& r = log_[idx];
    return Entry{cert::SerialNumber{Bytes(r.bytes, r.bytes + r.len)}, idx + 1};
  }

  /// Position in sorted_ of the first entry with serial >= `serial`,
  /// binary-searching [lo, hi); the caller knows the answer lies there.
  std::size_t lower_bound(ByteSpan serial, std::size_t lo,
                          std::size_t hi) const;
  /// The same position, galloping forward from `from` (every entry below it
  /// is smaller) with probes `stride`, 2 * `stride`, 4 * `stride`, ...
  /// positions apart, then binary-searching the last gap: about
  /// log2(d / stride) + log2(stride) comparisons for an answer d positions
  /// on.
  std::size_t gallop(ByteSpan serial, std::size_t from,
                     std::size_t stride) const;
  LeafProof make_leaf_proof(std::size_t sorted_pos) const;

  CowArena<LogRecord> log_;            // numbering order, append-only
  CowArena<std::uint32_t> sorted_;     // indices into log_, sorted by serial

  // Flat Merkle arena: level 0 (leaves) first, root level last. Offsets are
  // computed from leaf_cap_ (a power of two), so growing n within capacity
  // never moves existing nodes.
  CowArena<crypto::Digest20> tree_;
  std::vector<std::size_t> level_off_;
  std::vector<std::size_t> level_size_;
  std::size_t level_count_ = 0;
  std::size_t leaf_cap_ = 0;
  std::uint64_t last_rebuild_hashes_ = 0;
  std::uint64_t total_hashes_ = 0;
};

}  // namespace ritm::dict
