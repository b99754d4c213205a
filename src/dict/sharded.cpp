#include "dict/sharded.hpp"

#include <stdexcept>

namespace ritm::dict {

ShardedDictionary::ShardedDictionary(UnixSeconds bucket_width)
    : bucket_width_(bucket_width) {
  if (bucket_width_ <= 0) {
    throw std::invalid_argument("ShardedDictionary: bucket width must be > 0");
  }
}

std::uint64_t ShardedDictionary::shard_of(UnixSeconds not_after) const {
  if (not_after < 0) return 0;
  return static_cast<std::uint64_t>(not_after / bucket_width_);
}

std::optional<Entry> ShardedDictionary::insert(
    const cert::SerialNumber& serial, UnixSeconds not_after) {
  auto& shard = shards_[shard_of(not_after)];
  const auto added = shard.insert({serial});
  if (added.empty()) return std::nullopt;
  return added.front();
}

bool ShardedDictionary::contains(const cert::SerialNumber& serial,
                                 UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  return it != shards_.end() && it->second.contains(serial);
}

Proof ShardedDictionary::prove(const cert::SerialNumber& serial,
                               UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  if (it == shards_.end()) {
    // Empty shard: the trivially-valid empty absence proof.
    return Dictionary{}.prove(serial);
  }
  return it->second.prove(serial);
}

crypto::Digest20 ShardedDictionary::shard_root(UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  return it == shards_.end() ? empty_root() : it->second.root();
}

std::uint64_t ShardedDictionary::shard_size(UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  return it == shards_.end() ? 0 : it->second.size();
}

std::size_t ShardedDictionary::prune(UnixSeconds now) {
  // A shard with index k covers certificates expiring before
  // (k+1)*bucket_width; it can be dropped once now exceeds that boundary
  // plus one bucket of grace.
  std::size_t reclaimed = 0;
  for (auto it = shards_.begin(); it != shards_.end();) {
    const UnixSeconds bucket_end =
        static_cast<UnixSeconds>(it->first + 1) * bucket_width_;
    if (now > bucket_end + bucket_width_) {
      reclaimed += it->second.storage_bytes();
      it = shards_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

std::uint64_t ShardedDictionary::total_entries() const {
  std::uint64_t total = 0;
  for (const auto& [k, shard] : shards_) total += shard.size();
  return total;
}

std::size_t ShardedDictionary::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& [k, shard] : shards_) total += shard.storage_bytes();
  return total;
}

}  // namespace ritm::dict
