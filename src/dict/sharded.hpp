// Sharded dictionaries (§VIII "Ever-growing dictionaries"): instead of one
// append-only dictionary per CA, revocations are split across shards keyed
// by certificate-expiry buckets. Every certificate maps to exactly one
// shard (by its notAfter), so a validity proof only involves that shard —
// and once a bucket's certificates have all expired, RAs delete the whole
// shard, bounding storage despite the append-only discipline. The CA/B
// Forum's 39-month maximum validity bounds the number of live shards.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "dict/dictionary.hpp"

namespace ritm::dict {

class ShardedDictionary {
 public:
  /// `bucket_width` — expiry time covered by one shard (default: quarters).
  explicit ShardedDictionary(UnixSeconds bucket_width = 90 * 86400);

  /// Shard index for a certificate expiring at `not_after`.
  std::uint64_t shard_of(UnixSeconds not_after) const;

  /// Revokes a serial of a certificate expiring at `not_after`. Returns
  /// the entry appended to that shard (numbering is per shard), or nullopt
  /// if already present.
  std::optional<Entry> insert(const cert::SerialNumber& serial,
                              UnixSeconds not_after);

  bool contains(const cert::SerialNumber& serial,
                UnixSeconds not_after) const;

  /// Proof within the certificate's shard. The accompanying signed root in
  /// a full deployment is per shard as well.
  Proof prove(const cert::SerialNumber& serial, UnixSeconds not_after) const;

  /// Root and size of a certificate's shard (for proof verification).
  crypto::Digest20 shard_root(UnixSeconds not_after) const;
  std::uint64_t shard_size(UnixSeconds not_after) const;

  /// Deletes every shard whose entire expiry bucket lies in the past
  /// (plus a one-bucket grace period for clock skew). Returns the bytes
  /// reclaimed — the §VIII storage bound in action.
  std::size_t prune(UnixSeconds now);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::uint64_t total_entries() const;
  std::size_t storage_bytes() const;

  /// SHA-256 invocations across all shard rebuilds (lifetime). Sharding
  /// multiplies the incremental-rebuild win: each insert dirties only one
  /// shard's tree, so the other shards' arenas are never touched — and
  /// rebuild_dirty() fans the dirty shards across cores.
  std::uint64_t total_hash_count() const;

  /// Monotonically increasing version counter spanning all shards: bumped
  /// on every accepted insert and every prune that removes a shard. Two
  /// calls observing the same epoch observe identical shard roots.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Shards whose Merkle tree a mutation has outdated (each insert dirties
  /// exactly one shard).
  std::size_t dirty_shard_count() const;

  /// Rebuilds every dirty shard's tree now instead of lazily at the next
  /// proof. Dirty shards share no state, so with a pool their rebuilds run
  /// in parallel — one task per shard — and the caller's thread joins before
  /// returning. With `pool == nullptr` the rebuilds run serially on the
  /// calling thread; both orders produce byte-identical roots (pinned by
  /// test). Returns the number of shards rebuilt.
  std::size_t rebuild_dirty(ThreadPool* pool = nullptr);

  /// (shard index, root) for every live shard, in index order — the view a
  /// determinism test compares across serial and parallel rebuilds.
  std::vector<std::pair<std::uint64_t, crypto::Digest20>> shard_roots() const;

  /// Live shards keyed by shard index — the read-only view incremental
  /// checkpointing walks (persist::ShardCheckpointer compares each shard
  /// Dictionary's epoch() against what is on disk and rewrites only the
  /// dirty ones).
  const std::map<std::uint64_t, Dictionary>& shards() const noexcept {
    return shards_;
  }
  UnixSeconds bucket_width() const noexcept { return bucket_width_; }

  /// Installs recovered state wholesale (the incremental-checkpoint restore
  /// path): replaces every shard and adopts the given width and epoch. The
  /// caller has already validated each shard (restore_sections checks the
  /// recorded roots). Throws std::invalid_argument on a non-positive width,
  /// leaving this instance untouched.
  void install(UnixSeconds bucket_width, std::uint64_t epoch,
               std::map<std::uint64_t, Dictionary> shards);

 private:
  UnixSeconds bucket_width_;
  std::map<std::uint64_t, Dictionary> shards_;
  std::uint64_t epoch_ = 0;
};

}  // namespace ritm::dict
