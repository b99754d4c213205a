// The RA's replicated dictionary store: one verified replica per CA, kept
// current by replaying issuance messages (Fig. 2 `update`), freshness
// statements, and sync responses. All acceptance rules of §III live here:
// signature checks, root-replay comparison, hash-chain freshness walks, and
// gap detection via the revocation numbering.
//
// Serving path: handshake throughput is bounded by how fast the RA can
// assemble a RevocationStatus per packet, so each CA carries a status cache
// mapping serial → encoded status bytes. Every mutation that changes what
// a status contains (a new signed root, a new freshness statement) drops
// the CA's cache before readers can see the new replica, so a warm serial
// costs one hash lookup and a memcpy instead of prove + encode, and a
// stale status can never be served across a root change. Between changes
// the cache is bounded by a byte budget with CLOCK second-chance eviction:
// high-cardinality (attacker-controlled) serials evict cold entries one at
// a time while hot serials keep their ref bit and stay warm.
//
// Concurrency: the store enforces its own reader/writer contract, so any
// number of threads may read while mutators run. Each CA's cache is split
// into kCacheShards serial-hash shards, each behind its own mutex, and
// those mutexes are the CA's reader lock: a reader holds one of them while
// it reads the replica (the warm path takes exactly that one lock), and a
// mutator holds all of them, in index order, while it changes the replica
// and clears the cache. Mutators also serialize on a store-wide writer
// mutex, which freeze() takes too; signature checks run before it, and
// validation and staging under it alone, so readers wait only for the
// in-place update. Readers of different CAs never contend. register_ca()
// and recover_from() are setup calls: make them before serving starts.
//
// Durability: the store owns the RA's durable state, the replicas and the
// feed cursor (the first feed period, §VI, they do not yet reflect).
// attach_wal() makes the store log every accepted mutation and cursor
// advance to a persist::WriteAheadLog, of which it is the one writer;
// persist_to()/recover_from() write and reload checkpoints holding both,
// replaying the WAL tail through the same apply_* paths that ran live —
// recovery *is* replay, so the recovered roots and proofs are
// byte-identical to an in-memory replay of the surviving prefix.
//
// Zero-copy persistence: a checkpoint is the persist/shard_checkpoint.hpp
// format — a manifest holding the store meta, plus one part per CA
// dictionary with its entry log, sorted index, and digest arena as raw
// 64-byte-aligned sections. A part is named by its dictionary's (n, root)
// and written only when no file of that name exists, so a checkpoint
// rewrites only the CAs that changed. recover_from() mmaps the parts and
// adopts them in place (copy-on-first-mutation) instead of deserializing
// and re-hashing. freeze()/persist_frozen() split the write into an
// O(#CAs) consistent copy under the writer mutex and an off-lock commit,
// which is what bounds the stall background checkpoints impose.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/hash_chain.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
#include "dict/signed_root.hpp"
#include "persist/recovery.hpp"
#include "svc/envelope.hpp"

namespace ritm::ra {

/// Two conflicting signed roots for the same dictionary size — the
/// cryptographic, non-repudiable evidence of CA misbehaviour (§V).
struct MisbehaviourEvidence {
  dict::SignedRoot ours;
  dict::SignedRoot theirs;

  bool operator==(const MisbehaviourEvidence&) const = default;
};

/// The split-view rule, the one place it is decided: two signed roots of the
/// same CA at the same size n with different root hashes. It checks no
/// signature: every caller verifies the roots it did not already hold under
/// the key it trusts before it believes the evidence.
bool is_split_view(const dict::SignedRoot& a, const dict::SignedRoot& b);

/// The apply/acceptance verdicts are the upper range of the service-wide
/// svc::Status taxonomy (PR 5): unknown_ca / bad_signature / stale_root /
/// root_mismatch / gap_detected / bad_freshness, with svc::Status::ok for
/// acceptance — so a rejection reason travels unchanged from the replica
/// acceptance rule to the wire response to the Totals breakdown.
using ApplyResult = svc::Status;

class DictionaryStore {
 public:
  /// Registers a CA (trust anchor + its ∆). Replicas start empty. A setup
  /// call: register every CA before serving or mutating starts.
  void register_ca(const cert::CaId& ca, const crypto::PublicKey& key,
                   UnixSeconds delta);

  bool knows(const cert::CaId& ca) const;
  std::size_t ca_count() const noexcept { return cas_.size(); }
  /// The registered CAs, in CaId order.
  std::vector<cert::CaId> ca_ids() const;

  /// Applies a revocation issuance (serials + signed root).
  ApplyResult apply_issuance(const dict::RevocationIssuance& msg,
                             UnixSeconds now);

  /// Applies a freshness statement, verifying it with crypto::chain_period
  /// from the replica's last verified statement: the current period ±1,
  /// and a walk of at most HashChain::kMaxFreshnessWalk hashes whatever
  /// `now` reads (a corrupt WAL record's included).
  ApplyResult apply_freshness(const dict::FreshnessStatement& msg,
                              UnixSeconds now);

  /// Applies a sync response (recovery after gap_detected).
  ApplyResult apply_sync(const dict::SyncResponse& msg, UnixSeconds now);

  /// Installs a CDN cold-start replica (§VIII bootstrapping): restores the
  /// CA's dictionary from a Dictionary snapshot payload, checks the signed
  /// root against the registered key, the recomputed dictionary root, and
  /// the recorded size, then adopts the freshness statement. One pull
  /// replaces replaying the CA's entire issuance history.
  ApplyResult bootstrap_replica(const cert::CaId& ca, ByteSpan dict_snapshot,
                                const dict::SignedRoot& root,
                                const crypto::Digest20& freshness,
                                UnixSeconds now);

  /// Builds the revocation status (Eq. (3)) the RA injects for a serial.
  /// Always re-proves and re-assembles — the cold path; the packet pipeline
  /// uses status_bytes_for().
  std::optional<dict::RevocationStatus> status_for(
      const cert::CaId& ca, const cert::SerialNumber& serial) const;

  /// A cached, fully encoded revocation status plus the signed-root fields
  /// the agent needs for the multi-RA freshness comparison without decoding.
  struct CachedStatus {
    /// Wire encoding of the RevocationStatus (what attach_status copies
    /// into the packet). Shared with the cache entry, so it stays
    /// valid after a later eviction or mutation drops that entry.
    std::shared_ptr<const Bytes> bytes;
    std::uint64_t n = 0;          // signed_root.n
    UnixSeconds timestamp = 0;    // signed_root.timestamp
  };

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;          // lookups that had to prove + encode
    std::uint64_t invalidations = 0;   // non-empty shards a mutation dropped
    std::uint64_t evictions = 0;       // single entries evicted by CLOCK
    std::uint64_t evicted_bytes = 0;   // bytes reclaimed by those evictions
  };

  /// Default per-CA status-cache byte budget. Serials are read off observed
  /// certificates, i.e. attacker-controlled, so the cache is bounded — but
  /// eviction is CLOCK second-chance per entry, not wholesale: hot serials
  /// under a flood of one-shot probes keep their ref bit and stay warm.
  static constexpr std::size_t kStatusCacheDefaultBudget = 32u << 20;

  /// Serial-hash shards per CA cache: serving threads racing on one CA
  /// contend only within a shard. A mutator holds all of them.
  static constexpr std::size_t kCacheShards = 8;

  /// Floor on each shard's slice of the budget: tiny budgets still leave
  /// every shard enough slots for CLOCK's second chance to mean something
  /// (a 1–2 entry shard degrades to FIFO and evicts its own hot entries).
  static constexpr std::size_t kCacheShardMinBudget = 4096;

  /// Adjusts the per-CA cache byte budget (shrinking takes effect at each
  /// shard's next miss). The budget is split evenly across kCacheShards,
  /// floored at kCacheShardMinBudget per shard; budgets below one entry
  /// still admit a single entry per shard.
  void set_status_cache_budget(std::size_t bytes) noexcept {
    status_cache_budget_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t status_cache_budget() const noexcept {
    return status_cache_budget_.load(std::memory_order_relaxed);
  }

  /// The warm serving path: returns the cached encoded status for
  /// (ca, serial), proving and encoding only on the first lookup since the
  /// CA's last root or freshness change. That change clears the CA's whole
  /// cache before any reader sees it, so returned bytes always reflect the
  /// verified root of the moment. nullopt when the CA is unknown or has no
  /// root yet.
  std::optional<CachedStatus> status_bytes_for(
      const cert::CaId& ca, const cert::SerialNumber& serial) const;

  /// Snapshot of the cache counters (atomics, coherent per field; one
  /// field can lead another by an in-flight lookup under concurrency).
  CacheStats cache_stats() const noexcept;

  /// Number of consecutive revocations held for `ca` (the sync cursor).
  std::uint64_t have_n(const cert::CaId& ca) const;

  /// True if a gap was detected and a sync is pending for `ca`.
  bool needs_sync(const cert::CaId& ca) const;

  /// True once a verified signed root is held for `ca`. Until then the RA
  /// cannot serve statuses and must bootstrap via the sync protocol.
  bool has_root(const cert::CaId& ca) const;

  /// Consistency checking (§III): compares a signed root obtained from an
  /// edge server / peer RA / piggybacked status against our replica.
  /// Returns evidence if the two roots are a split view (is_split_view)
  /// and `theirs` carries the CA's signature. Updates nothing.
  std::optional<MisbehaviourEvidence> cross_check(
      const dict::SignedRoot& theirs) const;

  /// Latest verified signed root for a CA (for gossip / cross checks), by
  /// value: the replica may move on as soon as this returns.
  std::optional<dict::SignedRoot> root_of(const cert::CaId& ca) const;

  /// Total memory footprint across replicas (§VII-D storage evaluation).
  std::size_t storage_bytes() const;
  std::size_t memory_bytes() const;

  // ------------------------------------------------------------ durability

  /// WAL record types (persist::WalRecord::type): the store writes every
  /// record of the log. Each payload is the u64 wall-clock `now`, then the
  /// message (a cursor advance: the u64 new cursor).
  static constexpr std::uint8_t kWalIssuance = 1;
  static constexpr std::uint8_t kWalFreshness = 2;
  static constexpr std::uint8_t kWalSync = 3;
  static constexpr std::uint8_t kWalBootstrap = 4;
  static constexpr std::uint8_t kWalFeedCursor = 5;

  /// Attaches an open write-ahead log: from now on every *accepted* mutation
  /// (issuance / freshness / sync / bootstrap, with its wall-clock `now`)
  /// and every feed-cursor advance is appended before the call returns.
  /// Detach with nullptr. The log must outlive the store or the next
  /// attach.
  void attach_wal(persist::WriteAheadLog* wal) noexcept { wal_ = wal; }
  persist::WriteAheadLog* wal() const noexcept { return wal_; }

  /// Sequence number of the last logged (or replayed) record — what
  /// persist_to() stamps its checkpoint with.
  std::uint64_t mutation_seq() const noexcept { return mutation_seq_; }

  /// The feed cursor: the first feed period whose messages the replicas do
  /// not yet reflect, i.e. where pulling resumes. 0 for a fresh store.
  std::uint64_t feed_cursor() const noexcept { return feed_cursor_; }

  /// Raises the feed cursor to `period` and logs the advance (as of `now`)
  /// when a WAL is attached. Never lowers it: an older period is a no-op.
  void advance_feed_cursor(std::uint64_t period, UnixSeconds now);

  /// A consistent copy of every replica's durable state, cheap enough to
  /// take under the writer mutex: the Dictionary copies share their arenas
  /// copy-on-write, so freeze() is O(#CAs) regardless of entry counts. The
  /// background checkpointer freezes briefly, then persists the frozen
  /// image while the live store keeps mutating (first mutation per arena
  /// pays one detach-copy).
  struct FrozenStore {
    struct FrozenCa {
      cert::CaId ca;
      bool have_root = false;
      bool desynchronized = false;
      dict::SignedRoot root;
      crypto::Digest20 freshness{};
      std::uint64_t freshness_period = 0;
      dict::Dictionary dict;  // arena-sharing copy
    };
    std::vector<FrozenCa> cas;  // in CaId order
    std::uint64_t feed_cursor = 0;
    std::uint64_t mutation_seq = 0;
  };

  /// Takes the O(#CAs) frozen copy under the writer mutex; persisting the
  /// result can then run concurrently with further mutations.
  FrozenStore freeze() const;

  /// Commits `frozen` as a checkpoint into `dir`, stamped with
  /// frozen.mutation_seq: the one path persist_to() and RaUpdater's cycles
  /// share. Never touches the WAL (reset_wal_if_unchanged() does). Returns
  /// what the cycle wrote. Run one cycle per directory at a time.
  static persist::CheckpointWrite persist_frozen(const FrozenStore& frozen,
                                                 const std::string& dir);

  /// Resets the attached WAL if no record was logged since `frozen` was
  /// taken, so a checkpoint of `frozen` supersedes the whole log. A record
  /// logged in between lies past the checkpoint's stamp: the log stays
  /// intact (recovery drops the records the checkpoint covers) and the next
  /// checkpoint retries. Returns whether the log was reset.
  bool reset_wal_if_unchanged(const FrozenStore& frozen);

  /// Commits the current state as a checkpoint into `dir` (stamped with
  /// mutation_seq()), then reset_wal_if_unchanged().
  persist::CheckpointWrite persist_to(const std::string& dir);

  struct RecoveryReport {
    bool ok = false;
    bool have_snapshot = false;
    std::uint64_t snapshot_seq = 0;
    std::size_t replayed = 0;        // WAL mutations applied cleanly
    /// Replayed records the rules refused, malformed records and records
    /// of unknown type.
    std::size_t rejected = 0;
    std::uint64_t truncated_bytes = 0;   // torn WAL tail detected
    std::uint64_t snapshots_skipped = 0; // checkpoints passed over
    std::string error;               // set when ok == false
  };

  /// Crash recovery: restores the newest checkpoint in `dir` whose parts
  /// all load and restore, with its feed cursor, and replays the WAL tail
  /// past it through the normal apply_* paths (without re-logging); cursor
  /// records raise the cursor (counted neither replayed nor rejected).
  /// Torn final records are detected and skipped; reopening the WAL for
  /// appending afterwards truncates them in place. Refuses (ok == false,
  /// store untouched) when checkpoints exist but none restores, or on a
  /// store-level failure: a CA that is not registered, a signed root that
  /// fails the registered key, or a dictionary that does not match its
  /// signed root. A setup call: register every CA first, and recover before
  /// serving starts.
  RecoveryReport recover_from(const std::string& dir);

 private:
  struct CaState {
    // Set by register_ca; never written while serving.
    crypto::PublicKey key{};
    UnixSeconds delta = 10;
    // The replica: read under one cache-shard mutex, written under all.
    dict::Dictionary dict;
    dict::SignedRoot root;
    bool have_root = false;
    crypto::Digest20 freshness{};     // latest verified statement
    std::uint64_t freshness_period = 0;
    bool desynchronized = false;
    // Serial → encoded RevocationStatus for the current root and freshness,
    // bounded by the byte budget with CLOCK second-chance eviction. Split
    // into serial-hash shards, each self-contained behind its own mutex;
    // the shard mutexes double as the replica's reader lock (see the file
    // comment). Heterogeneous lookup keeps the warm path allocation-free
    // (the serial bytes are viewed, not copied, until an insert). Mutable:
    // serving is logically const.
    struct TransparentHash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
      }
    };
    struct CacheEntry {
      /// shared_ptr-owned so a CachedStatus handed to a serving thread
      /// outlives the entry's eviction or drop.
      std::shared_ptr<const Bytes> bytes;
      bool ref = false;  // CLOCK second-chance bit
    };
    struct CacheShard {
      std::mutex mu;
      std::unordered_map<std::string, CacheEntry, TransparentHash,
                         std::equal_to<>>
          map;
      /// CLOCK ring: one slot per cached serial (pointers into the map's
      /// node-stable keys). The hand sweeps slots, clearing ref bits, and
      /// evicts the first entry found cold.
      std::vector<const std::string*> ring;
      std::size_t hand = 0;
      std::size_t bytes = 0;  // budgeted footprint of this shard
    };
    struct StatusCache {
      std::array<CacheShard, kCacheShards> shards;
      StatusCache() = default;
      // Replica copies (restore staging) never carry the cache: a restore
      // replaces every replica anyway, and shard mutexes are not copyable.
      // Copies start cold and re-fill on lookup.
      StatusCache(const StatusCache&) {}
      StatusCache& operator=(const StatusCache&) { return *this; }
    };
    mutable StatusCache cache;
  };

  /// Budget accounting per cache entry beyond key + encoded bytes: map node
  /// and ring-slot bookkeeping.
  static constexpr std::size_t kCacheEntryOverhead = 64;

  /// A mutator's hold on one CA: every shard mutex, locked in index order
  /// (a reader holds one at a time, so the fixed order cannot deadlock).
  using CaWriteLock = std::array<std::unique_lock<std::mutex>, kCacheShards>;
  static CaWriteLock lock_all_shards(const CaState& state);
  /// The shard mutex a reader of `state` holds when no serial picks one.
  static std::mutex& reader_mutex(const CaState& state) {
    return state.cache.shards[0].mu;
  }
  /// The shard that caches `serial`.
  static std::size_t shard_of(const Bytes& serial) noexcept;

  CaState* find(const cert::CaId& ca);
  const CaState* find(const cert::CaId& ca) const;
  /// The single assembly point for Eq. (3): both the cold status_for path
  /// and the cache's miss path build statuses here so they can never drift.
  static dict::RevocationStatus assemble_status(
      const CaState& state, const cert::SerialNumber& serial);
  /// Empties every shard of `state`'s cache; the caller holds
  /// lock_all_shards(state).
  void drop_cache(CaState& state);
  /// Each shard's slice of the byte budget (floored at
  /// kCacheShardMinBudget so CLOCK keeps enough slots to be meaningful).
  std::size_t shard_budget() const noexcept;
  /// CLOCK second-chance: evicts cold entries from `shard` (whose mutex the
  /// caller holds) until `need` more bytes fit under the shard's budget
  /// slice (or the shard is empty).
  void evict_for(CaState::CacheShard& shard, std::size_t need) const;
  /// Appends a record — `now`, then `message` — to the attached WAL (no-op
  /// while replaying or with no WAL attached), with the sequence counter
  /// floored past mutation_seq(): a reopened post-checkpoint log restarts
  /// at 1, which would place new records below the snapshot's stamp and
  /// lose them at the next recovery. The caller holds the writer mutex.
  void log_mutation(std::uint8_t type, UnixSeconds now, ByteSpan message);
  /// Restores one checkpoint: parses the meta (the feed cursor included),
  /// adopts each CA's part in place (keeping its mapping alive), and checks
  /// every signed root against its registered key and against the adopted
  /// dictionary's root and size. Returns false, leaving the store
  /// untouched, when the checkpoint's own state does not restore (malformed
  /// meta, a part the part list lacks, a part restore_sections rejects).
  /// Throws std::runtime_error, leaving the store untouched, on a
  /// store-level failure (see recover_from).
  bool restore_checkpoint(const persist::Checkpoint& checkpoint);

  /// Relaxed atomics: serving threads bump these concurrently; cache_stats()
  /// snapshots them into the plain CacheStats struct.
  struct AtomicCacheStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> evicted_bytes{0};
  };

  std::map<cert::CaId, CaState> cas_;
  mutable AtomicCacheStats cache_stats_;
  std::atomic<std::size_t> status_cache_budget_{kStatusCacheDefaultBudget};
  /// Serializes mutators against each other and against freeze(); the
  /// fields below change only under it (the atomics are read without it).
  mutable std::mutex write_mu_;
  std::atomic<persist::WriteAheadLog*> wal_{nullptr};
  std::atomic<std::uint64_t> mutation_seq_{0};
  std::atomic<std::uint64_t> feed_cursor_{0};
  bool replaying_ = false;  // recover_from() replay must not re-log
};

}  // namespace ritm::ra
