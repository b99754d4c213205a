// Sharded dictionaries (§VIII "Ever-growing dictionaries"): instead of one
// append-only dictionary per CA, revocations are split across shards keyed
// by certificate-expiry buckets. Every certificate maps to exactly one
// shard (by its notAfter), so a validity proof only involves that shard —
// and once a bucket's certificates have all expired, RAs delete the whole
// shard, bounding storage despite the append-only discipline. The CA/B
// Forum's 39-month maximum validity bounds the number of live shards.
//
// This is the routing the paper describes; the RA's store keeps one
// dictionary per CA and persists it as one checkpoint part per CA
// (persist/shard_checkpoint.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

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

 private:
  UnixSeconds bucket_width_;
  std::map<std::uint64_t, Dictionary> shards_;
};

}  // namespace ritm::dict
