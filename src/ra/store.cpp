#include "ra/store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ritm::ra {

void DictionaryStore::register_ca(const cert::CaId& ca,
                                  const crypto::PublicKey& key,
                                  UnixSeconds delta) {
  if (delta <= 0) {
    throw std::invalid_argument("DictionaryStore: delta must be > 0");
  }
  auto& state = cas_[ca];
  state.key = key;
  state.delta = delta;
}

bool DictionaryStore::knows(const cert::CaId& ca) const {
  return cas_.count(ca) != 0;
}

std::vector<cert::CaId> DictionaryStore::ca_ids() const {
  std::vector<cert::CaId> ids;
  ids.reserve(cas_.size());
  for (const auto& [id, state] : cas_) ids.push_back(id);
  return ids;
}

DictionaryStore::CaState* DictionaryStore::find(const cert::CaId& ca) {
  auto it = cas_.find(ca);
  return it == cas_.end() ? nullptr : &it->second;
}

const DictionaryStore::CaState* DictionaryStore::find(
    const cert::CaId& ca) const {
  auto it = cas_.find(ca);
  return it == cas_.end() ? nullptr : &it->second;
}

namespace {

/// The period ~now (±1 period of skew, the paper's 2∆ window, §V) at which
/// `statement` extends the chain of a root signed at `root_ts` from `last`,
/// its statement at `last_period` (a root's anchor is its period 0).
/// Walking from `last` keeps verification O(1) amortized per period, and
/// no walk exceeds kMaxFreshnessWalk hashes.
std::optional<std::uint64_t> chain_period(UnixSeconds root_ts,
                                          UnixSeconds delta,
                                          const crypto::Digest20& last,
                                          std::uint64_t last_period,
                                          const crypto::Digest20& statement,
                                          UnixSeconds now) {
  const std::uint64_t expected =
      now <= root_ts ? 0
                     : static_cast<std::uint64_t>((now - root_ts) / delta);
  const std::uint64_t lo = expected == 0 ? 0 : expected - 1;
  for (std::uint64_t p = std::max(lo, last_period);
       p <= expected + 1 &&
       p - last_period <= DictionaryStore::kMaxFreshnessWalk;
       ++p) {
    if (crypto::HashChain::verify(statement, p - last_period, last)) return p;
  }
  return std::nullopt;
}

/// True when `incoming` would roll the replica back from `held`: it commits
/// to fewer entries, or is an earlier signature (a CA re-signs the same
/// dictionary when its hash chain runs out, so equal n orders nothing).
bool older_root(const dict::SignedRoot& incoming,
                const dict::SignedRoot& held) {
  return incoming.n < held.n || incoming.timestamp < held.timestamp;
}

}  // namespace

DictionaryStore::CaWriteLock DictionaryStore::lock_all_shards(
    const CaState& state) {
  CaWriteLock locks;
  for (std::size_t i = 0; i < kCacheShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(state.cache.shards[i].mu);
  }
  return locks;
}

std::size_t DictionaryStore::shard_of(const Bytes& serial) noexcept {
  // Mixes the serial's first and last bytes instead of hashing the whole
  // key (map.find hashes it again anyway): serials are high-entropy by
  // construction, so two bytes spread uniformly, and the warm hit path
  // saves one full string hash.
  return serial.empty() ? 0
                        : (serial.front() * 31u ^ serial.back()) % kCacheShards;
}

void DictionaryStore::drop_cache(CaState& state) {
  for (auto& shard : state.cache.shards) {
    if (shard.map.empty()) continue;
    shard.map.clear();
    shard.ring.clear();
    shard.hand = 0;
    shard.bytes = 0;
    cache_stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
}

void DictionaryStore::log_mutation(std::uint8_t type, UnixSeconds now,
                                   ByteSpan message) {
  persist::WriteAheadLog* wal = wal_;
  if (wal == nullptr || replaying_) return;
  Bytes payload;
  payload.reserve(8 + message.size());
  ByteWriter w(payload);
  w.u64(static_cast<std::uint64_t>(now));
  w.raw(message);
  // A log emptied by a snapshot commit and then reopened restarts its
  // numbering at 1; records at or below the snapshot's stamp would be
  // dropped by the next recovery, so floor the counter first.
  wal->fast_forward(mutation_seq_ + 1);
  mutation_seq_ = wal->append(type, ByteSpan(payload));
}

void DictionaryStore::advance_feed_cursor(std::uint64_t period,
                                          UnixSeconds now) {
  std::lock_guard<std::mutex> writer(write_mu_);
  if (period <= feed_cursor_) return;
  feed_cursor_ = period;
  ByteWriter w;
  w.u64(period);
  log_mutation(kWalFeedCursor, now, ByteSpan(w.bytes()));
}

ApplyResult DictionaryStore::apply_issuance(
    const dict::RevocationIssuance& msg, UnixSeconds now) {
  CaState* state = find(msg.signed_root.ca);
  if (state == nullptr) return ApplyResult::unknown_ca;
  if (!msg.signed_root.verify(state->key)) return ApplyResult::bad_signature;
  std::lock_guard<std::mutex> writer(write_mu_);
  if (state->have_root && older_root(msg.signed_root, state->root)) {
    return ApplyResult::stale_root;
  }
  // Gap check via consecutive numbering: the issuance must extend our
  // replica exactly.
  if (msg.signed_root.n != state->dict.size() + msg.serials.size()) {
    const CaWriteLock lock = lock_all_shards(*state);
    state->desynchronized = true;
    return ApplyResult::gap_detected;
  }
  {
    const CaWriteLock lock = lock_all_shards(*state);
    // A rejected update rolls back to the same entries and root, so the
    // cached statuses stay valid.
    if (!state->dict.update(msg.serials, msg.signed_root.root,
                            msg.signed_root.n)) {
      return ApplyResult::root_mismatch;
    }
    state->root = msg.signed_root;
    state->have_root = true;
    // A fresh signed root doubles as the period-0 freshness statement.
    state->freshness = msg.signed_root.freshness_anchor;
    state->freshness_period = 0;
    state->desynchronized = false;
    drop_cache(*state);
  }
  log_mutation(kWalIssuance, now, ByteSpan(msg.encode()));
  return ApplyResult::ok;
}

ApplyResult DictionaryStore::apply_freshness(
    const dict::FreshnessStatement& msg, UnixSeconds now) {
  CaState* state = find(msg.ca);
  if (state == nullptr) return ApplyResult::unknown_ca;
  std::lock_guard<std::mutex> writer(write_mu_);
  if (!state->have_root) return ApplyResult::bad_freshness;
  const auto period =
      chain_period(state->root.timestamp, state->delta, state->freshness,
                   state->freshness_period, msg.statement, now);
  if (!period) return ApplyResult::bad_freshness;
  {
    const CaWriteLock lock = lock_all_shards(*state);
    if (state->freshness != msg.statement) drop_cache(*state);
    state->freshness = msg.statement;
    state->freshness_period = *period;
  }
  log_mutation(kWalFreshness, now, ByteSpan(msg.encode()));
  return ApplyResult::ok;
}

ApplyResult DictionaryStore::apply_sync(const dict::SyncResponse& msg,
                                        UnixSeconds now) {
  CaState* state = find(msg.ca);
  if (state == nullptr) return ApplyResult::unknown_ca;
  if (!msg.signed_root.verify(state->key)) return ApplyResult::bad_signature;
  std::lock_guard<std::mutex> writer(write_mu_);
  // Sync answers come from untrusted edges: an old root must not replace
  // a newer one, even over the same dictionary.
  if (state->have_root && older_root(msg.signed_root, state->root)) {
    return ApplyResult::stale_root;
  }

  // Entries must continue our numbering exactly.
  std::uint64_t expect = state->dict.size() + 1;
  std::vector<cert::SerialNumber> serials;
  serials.reserve(msg.entries.size());
  for (const auto& e : msg.entries) {
    if (e.number != expect++) return ApplyResult::gap_detected;
    serials.push_back(e.serial);
  }
  if (msg.signed_root.n != state->dict.size() + serials.size()) {
    return ApplyResult::gap_detected;
  }
  // The carried statement is served if it chains into the new root's
  // anchor; a stale one leaves the anchor itself (period 0) as freshness.
  const auto period =
      chain_period(msg.signed_root.timestamp, state->delta,
                   msg.signed_root.freshness_anchor, 0, msg.freshness, now);
  {
    const CaWriteLock lock = lock_all_shards(*state);
    if (!state->dict.update(serials, msg.signed_root.root,
                            msg.signed_root.n)) {
      return ApplyResult::root_mismatch;
    }
    state->root = msg.signed_root;
    state->have_root = true;
    state->desynchronized = false;
    state->freshness = period ? msg.freshness : msg.signed_root.freshness_anchor;
    state->freshness_period = period.value_or(0);
    drop_cache(*state);
  }
  log_mutation(kWalSync, now, ByteSpan(msg.encode()));
  return ApplyResult::ok;
}

ApplyResult DictionaryStore::bootstrap_replica(const cert::CaId& ca,
                                               ByteSpan dict_snapshot,
                                               const dict::SignedRoot& root,
                                               const crypto::Digest20& freshness,
                                               UnixSeconds now) {
  CaState* state = find(ca);
  if (state == nullptr || root.ca != ca) return ApplyResult::unknown_ca;
  if (!root.verify(state->key)) return ApplyResult::bad_signature;
  std::lock_guard<std::mutex> writer(write_mu_);
  if (state->have_root && older_root(root, state->root)) {
    return ApplyResult::stale_root;
  }

  // Stage the dictionary first: restore_from recomputes the root once and
  // checks it against the snapshot's recorded root, and the signed root
  // must commit to exactly that root and size.
  dict::Dictionary staged;
  ByteReader r{dict_snapshot};
  try {
    staged.restore_from(r);
  } catch (const std::exception&) {
    return ApplyResult::root_mismatch;
  }
  if (!r.done() || staged.root() != root.root || staged.size() != root.n) {
    return ApplyResult::root_mismatch;
  }
  // Adopt the carried statement if it chains into the new anchor; on
  // failure the anchor itself (period 0) remains the served statement.
  const auto period = chain_period(root.timestamp, state->delta,
                                   root.freshness_anchor, 0, freshness, now);
  {
    const CaWriteLock lock = lock_all_shards(*state);
    state->dict = std::move(staged);
    state->root = root;
    state->have_root = true;
    state->freshness = period ? freshness : root.freshness_anchor;
    state->freshness_period = period.value_or(0);
    state->desynchronized = false;
    drop_cache(*state);
  }

  if (wal_ != nullptr && !replaying_) {
    ByteWriter w;
    w.var16(ByteSpan(bytes_of(ca)));
    w.var16(ByteSpan(root.encode()));
    w.raw(ByteSpan(freshness));
    w.raw(dict_snapshot);
    log_mutation(kWalBootstrap, now, ByteSpan(w.bytes()));
  }
  return ApplyResult::ok;
}

dict::RevocationStatus DictionaryStore::assemble_status(
    const CaState& state, const cert::SerialNumber& serial) {
  dict::RevocationStatus status;
  status.proof = state.dict.prove(serial);
  status.signed_root = state.root;
  status.freshness = state.freshness;
  return status;
}

std::optional<dict::RevocationStatus> DictionaryStore::status_for(
    const cert::CaId& ca, const cert::SerialNumber& serial) const {
  const CaState* state = find(ca);
  if (state == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(
      state->cache.shards[shard_of(serial.value)].mu);
  if (!state->have_root) return std::nullopt;
  return assemble_status(*state, serial);
}

std::size_t DictionaryStore::shard_budget() const noexcept {
  return std::max(status_cache_budget_.load(std::memory_order_relaxed) /
                      kCacheShards,
                  kCacheShardMinBudget);
}

void DictionaryStore::evict_for(CaState::CacheShard& shard,
                                std::size_t need) const {
  const std::size_t budget = shard_budget();
  auto& ring = shard.ring;
  while (!ring.empty() && shard.bytes + need > budget) {
    if (shard.hand >= ring.size()) shard.hand = 0;
    const std::string* key = ring[shard.hand];
    auto it = shard.map.find(*key);
    if (it->second.ref) {
      // Second chance: referenced since the hand last came by.
      it->second.ref = false;
      ++shard.hand;
      continue;
    }
    const std::size_t freed =
        key->size() + it->second.bytes->size() + kCacheEntryOverhead;
    shard.bytes -= freed;
    cache_stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    cache_stats_.evicted_bytes.fetch_add(freed, std::memory_order_relaxed);
    // Swap-remove the slot; the moved slot takes over the hand position and
    // gets examined next, which preserves the sweep.
    ring[shard.hand] = ring.back();
    ring.pop_back();
    shard.map.erase(it);
  }
}

std::optional<DictionaryStore::CachedStatus> DictionaryStore::status_bytes_for(
    const cert::CaId& ca, const cert::SerialNumber& serial) const {
  const CaState* state = find(ca);
  if (state == nullptr) return std::nullopt;

  const std::string_view key(
      reinterpret_cast<const char*>(serial.value.data()),
      serial.value.size());
  CaState::CacheShard& shard = state->cache.shards[shard_of(serial.value)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!state->have_root) return std::nullopt;

  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    cache_stats_.misses.fetch_add(1, std::memory_order_relaxed);
    const dict::RevocationStatus status = assemble_status(*state, serial);
    auto encoded = std::make_shared<Bytes>();
    encoded->reserve(status.wire_size());
    status.encode_into(*encoded);
    // Make room under the shard's budget slice before admitting the new
    // entry (a single entry larger than the whole slice is still admitted —
    // the shard then holds exactly that entry).
    const std::size_t need =
        key.size() + encoded->size() + kCacheEntryOverhead;
    evict_for(shard, need);
    CaState::CacheEntry entry;
    entry.bytes = std::move(encoded);
    entry.ref = true;
    it = shard.map.emplace(std::string(key), std::move(entry)).first;
    shard.ring.push_back(&it->first);
    shard.bytes += need;
  } else {
    cache_stats_.hits.fetch_add(1, std::memory_order_relaxed);
    // Keep hot serials warm across evictions; test-before-set so steady-
    // state hits never dirty the entry's cache line.
    if (!it->second.ref) it->second.ref = true;
  }
  CachedStatus out;
  out.bytes = it->second.bytes;  // pins the encoding past the shard lock
  out.n = state->root.n;
  out.timestamp = state->root.timestamp;
  return out;
}

DictionaryStore::CacheStats DictionaryStore::cache_stats() const noexcept {
  CacheStats s;
  s.hits = cache_stats_.hits.load(std::memory_order_relaxed);
  s.misses = cache_stats_.misses.load(std::memory_order_relaxed);
  s.invalidations =
      cache_stats_.invalidations.load(std::memory_order_relaxed);
  s.evictions = cache_stats_.evictions.load(std::memory_order_relaxed);
  s.evicted_bytes =
      cache_stats_.evicted_bytes.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t DictionaryStore::have_n(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(reader_mutex(*state));
  return state->dict.size();
}

bool DictionaryStore::needs_sync(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> lock(reader_mutex(*state));
  return state->desynchronized;
}

bool DictionaryStore::has_root(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> lock(reader_mutex(*state));
  return state->have_root;
}

std::optional<MisbehaviourEvidence> DictionaryStore::cross_check(
    const dict::SignedRoot& theirs) const {
  const auto ours = root_of(theirs.ca);
  if (!ours) return std::nullopt;
  if (theirs.n != ours->n) return std::nullopt;         // different versions
  if (theirs.root == ours->root) return std::nullopt;   // consistent
  // A forgery is not a CA signature; the key is setup state.
  if (!theirs.verify(find(theirs.ca)->key)) return std::nullopt;
  return MisbehaviourEvidence{*ours, theirs};
}

std::optional<dict::SignedRoot> DictionaryStore::root_of(
    const cert::CaId& ca) const {
  const CaState* state = find(ca);
  if (state == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(reader_mutex(*state));
  if (!state->have_root) return std::nullopt;
  return state->root;
}

std::size_t DictionaryStore::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, state] : cas_) {
    std::lock_guard<std::mutex> lock(reader_mutex(state));
    total += state.dict.storage_bytes();
  }
  return total;
}

std::size_t DictionaryStore::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, state] : cas_) {
    for (auto& shard : state.cache.shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (&shard.mu == &reader_mutex(state)) {
        total += state.dict.memory_bytes();
      }
      // The warm status cache can dominate a serving RA's footprint; its
      // budgeted accounting already covers keys, encoded statuses, and
      // per-entry bookkeeping.
      total +=
          shard.bytes + shard.ring.capacity() * sizeof(const std::string*);
    }
  }
  return total;
}

// ------------------------------------------------------------- durability

// Checkpoint meta (the manifest's owner section): u8 version, u64
// feed_cursor, u32 ca_count, then per CA (in CaId order): var16 ca, u8
// have_root, u8 desynchronized, [var16 signed root when have_root], 20B
// freshness, u64 freshness_period, u64 dict_n, 20B dict_root. (dict_n,
// dict_root) names the CA's part, which holds the dictionary's bulk data.
// Keys and ∆ are trust configuration (register_ca), not replicated state,
// and are not persisted.
namespace {
constexpr std::uint8_t kStoreMetaVersion = 4;
}  // namespace

DictionaryStore::FrozenStore DictionaryStore::freeze() const {
  std::lock_guard<std::mutex> writer(write_mu_);  // readers only read
  FrozenStore frozen;
  frozen.feed_cursor = feed_cursor_;
  frozen.mutation_seq = mutation_seq_;
  frozen.cas.reserve(cas_.size());
  for (const auto& [ca, state] : cas_) {
    FrozenStore::FrozenCa f;
    f.ca = ca;
    f.have_root = state.have_root;
    f.desynchronized = state.desynchronized;
    f.root = state.root;
    f.freshness = state.freshness;
    f.freshness_period = state.freshness_period;
    f.dict = state.dict;  // O(1): the arenas are shared copy-on-write
    frozen.cas.push_back(std::move(f));
  }
  return frozen;
}

persist::CheckpointWrite DictionaryStore::persist_frozen(
    const FrozenStore& frozen, const std::string& dir) {
  Bytes meta;
  ByteWriter w(meta);
  w.u8(kStoreMetaVersion);
  w.u64(frozen.feed_cursor);
  w.u32(static_cast<std::uint32_t>(frozen.cas.size()));
  // Every mutator leaves its tree built, so snapshot_sections() only
  // points at the frozen arenas.
  std::vector<dict::DictSections> secs(frozen.cas.size());
  for (std::size_t i = 0; i < frozen.cas.size(); ++i) {
    const FrozenStore::FrozenCa& ca = frozen.cas[i];
    secs[i] = ca.dict.snapshot_sections();
    w.var16(ByteSpan(bytes_of(ca.ca)));
    w.u8(ca.have_root ? 1 : 0);
    w.u8(ca.desynchronized ? 1 : 0);
    if (ca.have_root) w.var16(ByteSpan(ca.root.encode()));
    w.raw(ByteSpan(ca.freshness));
    w.u64(ca.freshness_period);
    w.u64(secs[i].n);
    w.raw(ByteSpan(secs[i].root));
  }
  return persist::write_checkpoint(dir, frozen.mutation_seq, ByteSpan(meta),
                                   secs);
}

bool DictionaryStore::reset_wal_if_unchanged(const FrozenStore& frozen) {
  std::lock_guard<std::mutex> writer(write_mu_);
  persist::WriteAheadLog* wal = wal_;
  if (wal == nullptr || mutation_seq_ != frozen.mutation_seq) return false;
  wal->reset(mutation_seq_ + 1);
  return true;
}

persist::CheckpointWrite DictionaryStore::persist_to(const std::string& dir) {
  const FrozenStore frozen = freeze();
  const persist::CheckpointWrite written = persist_frozen(frozen, dir);
  reset_wal_if_unchanged(frozen);
  return written;
}

bool DictionaryStore::restore_checkpoint(
    const persist::Checkpoint& checkpoint) {
  const auto refuse = [](const char* what) -> std::runtime_error {
    return std::runtime_error(std::string("DictionaryStore::recover_from: ") +
                              what);
  };
  ByteReader r{checkpoint.meta};
  if (r.try_u8().value_or(0xFF) != kStoreMetaVersion) return false;
  const auto cursor = r.try_u64();
  const auto count = r.try_u32();
  if (!cursor || !count) return false;

  // Stage into a copy so a failure at any CA (including a part that fails
  // adoption) leaves the store untouched. Staged caches start cold by
  // construction (StatusCache's copy semantics drop the cache): a restore
  // replaces every replica anyway.
  std::map<cert::CaId, CaState> staged = cas_;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto ca_bytes = r.try_var16();
    if (!ca_bytes) return false;
    const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
    auto it = staged.find(ca);
    if (it == staged.end()) throw refuse("checkpoint CA not registered");
    CaState& state = it->second;

    const auto have_root = r.try_u8();
    const auto desync = r.try_u8();
    if (!have_root || *have_root > 1 || !desync || *desync > 1) return false;
    state.have_root = *have_root == 1;
    state.desynchronized = *desync == 1;
    if (state.have_root) {
      const auto root_bytes = r.try_var16();
      auto root = root_bytes ? dict::SignedRoot::decode(ByteSpan(*root_bytes))
                             : std::nullopt;
      if (!root || root->ca != ca) return false;
      // Trust is re-established from the registered key, not the file.
      if (!root->verify(state.key)) {
        throw refuse("signed root fails key check");
      }
      state.root = std::move(*root);
    } else {
      state.root = dict::SignedRoot{};
    }
    const auto freshness = r.try_raw(20);
    const auto period = r.try_u64();
    const auto dict_n = r.try_u64();
    const auto dict_root = r.try_raw(20);
    if (!freshness || !period || !dict_n || !dict_root) return false;
    std::copy(freshness->begin(), freshness->end(), state.freshness.begin());
    state.freshness_period = *period;

    persist::PartKey key;
    key.n = *dict_n;
    std::copy(dict_root->begin(), dict_root->end(), key.root.begin());
    const auto part = checkpoint.parts.find(key);
    if (part == checkpoint.parts.end()) return false;
    try {
      // Adopts the mapped arenas in place; the mapping stays alive through
      // the keepalive for as long as any arena still aliases it.
      state.dict.restore_sections(part->second.sections, part->second.file);
    } catch (const std::runtime_error&) {
      return false;
    }
    if (state.have_root && (state.dict.root() != state.root.root ||
                            state.dict.size() != state.root.n)) {
      throw refuse("dictionary does not match signed root");
    }
  }
  if (!r.done()) return false;
  cas_ = std::move(staged);
  feed_cursor_ = *cursor;
  return true;
}

DictionaryStore::RecoveryReport DictionaryStore::recover_from(
    const std::string& dir) {
  RecoveryReport report;
  persist::RecoveryScan rec;
  try {
    rec = persist::Recovery::recover(
        dir, [this](const persist::Checkpoint& checkpoint) {
          return restore_checkpoint(checkpoint);
        });
  } catch (const std::runtime_error& e) {
    report.error = e.what();
    return report;
  }
  report.truncated_bytes = rec.wal_truncated_bytes;
  report.snapshots_skipped = rec.snapshots_skipped;
  report.have_snapshot = rec.checkpoint_seq.has_value();
  report.snapshot_seq = rec.checkpoint_seq.value_or(0);
  mutation_seq_ = report.snapshot_seq;

  // Replay the tail through the very apply paths that ran live; the WAL
  // only holds accepted mutations, so rejections here mean the log and
  // snapshot disagree (they are still counted, never fatal — the replica
  // simply converges to the longest consistent prefix).
  replaying_ = true;
  for (const persist::WalRecord& record : rec.tail) {
    mutation_seq_ = record.seq;
    ByteReader r{ByteSpan(record.payload)};
    const auto now64 = r.try_u64();
    if (!now64) {
      ++report.rejected;
      continue;
    }
    const UnixSeconds now = static_cast<UnixSeconds>(*now64);
    if (record.type == kWalFeedCursor) {
      const auto period = r.try_u64();
      if (period && r.done()) {
        advance_feed_cursor(*period, now);
      } else {
        ++report.rejected;
      }
      continue;
    }
    ApplyResult result = ApplyResult::root_mismatch;
    bool decoded = false;
    const Bytes body = r.raw(r.remaining());
    switch (record.type) {
      case kWalIssuance:
        if (auto msg = dict::RevocationIssuance::decode(ByteSpan(body))) {
          decoded = true;
          result = apply_issuance(*msg, now);
        }
        break;
      case kWalFreshness:
        if (auto msg = dict::FreshnessStatement::decode(ByteSpan(body))) {
          decoded = true;
          result = apply_freshness(*msg, now);
        }
        break;
      case kWalSync:
        if (auto msg = dict::SyncResponse::decode(ByteSpan(body))) {
          decoded = true;
          result = apply_sync(*msg, now);
        }
        break;
      case kWalBootstrap: {
        ByteReader br{ByteSpan(body)};
        const auto ca_bytes = br.try_var16();
        if (!ca_bytes) break;
        const auto root_bytes = br.try_var16();
        if (!root_bytes) break;
        const auto fresh_bytes = br.try_raw(20);
        if (!fresh_bytes) break;
        if (auto root = dict::SignedRoot::decode(ByteSpan(*root_bytes))) {
          decoded = true;
          crypto::Digest20 freshness{};
          std::copy(fresh_bytes->begin(), fresh_bytes->end(),
                    freshness.begin());
          const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
          const auto snap = ByteSpan(body).subspan(br.position());
          result = bootstrap_replica(ca, snap, *root, freshness, now);
        }
        break;
      }
    }
    if (decoded && result == ApplyResult::ok) {
      ++report.replayed;
    } else {
      ++report.rejected;
    }
  }
  replaying_ = false;
  report.ok = true;
  return report;
}

}  // namespace ritm::ra
