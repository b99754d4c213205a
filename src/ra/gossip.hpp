// Gossip-based consistency checking (§III "Consistency Checking", §V "More
// powerful adversaries"; modelled after Chuat et al., IEEE CNS 2015):
// participants — RAs or RITM clients — remember the signed roots they
// observe and exchange them opportunistically. Because dictionaries are
// append-only, two verifying roots with the same size and different hashes
// are non-repudiable proof of a split view, no matter which parties the
// misbehaving CA tried to partition.
//
// Set reconciliation: shipping every observation on every contact caps
// anti-entropy at a handful of peers. Instead, each pool summarizes its
// seen-set as a GossipDigest — per CA, runs of contiguous root sizes
// (the idset idiom: one entry per run, not per root), each run carrying a
// hash over the (n, root) pairs it covers — so two peers swap digests,
// diff them, and move only what the other is missing (reconcile_over:
// Method::gossip_digest then Method::gossip_pull). Runs are split at
// kDigestSegment boundaries so two pools whose coverage overlaps compare
// hashes segment-by-segment; a run that the local pool covers completely
// with an equal hash is provably identical and never moves. Conflicts
// surface exactly as in a full exchange of both seen-sets: a covered run
// whose hash differs is transferred in both directions and observe() turns
// the divergent position into MisbehaviourEvidence on both sides.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cert/certificate.hpp"
#include "dict/signed_root.hpp"
#include "ra/store.hpp"
#include "svc/transport.hpp"

namespace ritm::ra {

/// One contiguous run of held root sizes [lo, hi] (inclusive) for a CA,
/// with a hash over the run: SHA-256 of the concatenation of
/// (u64-BE n | 20-byte root) for every held root in the run, in n order,
/// truncated to 20 bytes. Signatures and timestamps are deliberately
/// excluded — observe() treats equal root hashes as consistent, so two
/// pools holding differently-signed copies of the same root are in sync.
struct GossipRun {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  crypto::Digest20 hash{};

  bool operator==(const GossipRun&) const = default;
};

/// Compact seen-set summary of a GossipPool: per CA, the segment-aligned
/// runs of contiguous held root sizes. ~36 bytes per kDigestSegment roots
/// instead of ~123 bytes per root on the wire.
struct GossipDigest {
  std::map<cert::CaId, std::vector<GossipRun>> runs;

  /// Total (CA, n) positions the digest covers.
  std::size_t coverage() const noexcept;

  bool operator==(const GossipDigest&) const = default;
};

/// Ranges of root sizes to request from a peer (per CA, inclusive pairs).
struct GossipWant {
  std::map<cert::CaId, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      ranges;

  bool empty() const noexcept { return ranges.empty(); }
};

/// Reconciliation counters: every reconcile_over call lands here. Byte
/// counts are whole frames as reported by the transport.
struct GossipStats {
  std::uint64_t attempted = 0;         // reconcile_over calls
  std::uint64_t failed = 0;            // returned nullopt
  std::uint64_t digest_exchanges = 0;  // completed via digest + pull
  std::uint64_t roots_pushed = 0;
  std::uint64_t roots_pulled = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class GossipPool {
 public:
  /// Runs never span a multiple of this segment size, so two pools whose
  /// coverage overlaps always produce hash-comparable aligned runs; it also
  /// bounds how many roots a partially-covered frontier segment re-ships.
  static constexpr std::uint64_t kDigestSegment = 64;

  /// `keys` maps CA ids to public keys (used to drop forged roots on
  /// observation). The pointer must outlive the pool.
  explicit GossipPool(const cert::TrustStore* keys);

  /// Records a signed root seen in the wild (piggybacked status, edge
  /// download, peer exchange). Returns evidence if it conflicts with a
  /// previously recorded root of the same CA and size. Forged or
  /// unknown-CA roots are ignored. A byte-identical copy of a held root
  /// returns at once: its signature was verified when it was stored.
  std::optional<MisbehaviourEvidence> observe(const dict::SignedRoot& root);

  /// Set-reconciliation exchange over the envelope API (Method::gossip_digest
  /// + gossip_pull): swaps digests with the peer, pulls only the runs the
  /// diff says are missing or divergent, and pushes the peer's gaps
  /// symmetrically. Converges to the same union and surfaces the same
  /// evidence as a full exchange of both seen-sets (each pool observing
  /// every root the other holds). Returns nullopt, with local observations
  /// unchanged, on any transport or protocol failure — including a peer
  /// that answers unknown_method or version_skew.
  std::optional<std::vector<MisbehaviourEvidence>> reconcile_over(
      svc::Transport& peer);

  // ------------------------------------------------- reconciliation state
  /// The compact seen-set summary of this pool.
  GossipDigest digest() const;

  /// Ranges to pull from a peer advertising `theirs`: every run we do not
  /// fully cover with an equal hash (skipping CAs we have no key for —
  /// observe() would drop their roots anyway).
  GossipWant want_from(const GossipDigest& theirs) const;

  /// Local roots a peer advertising `theirs` is missing (or holds
  /// divergently): roots outside every advertised run, plus the local
  /// overlap of runs failing the full-cover + equal-hash test.
  std::vector<dict::SignedRoot> push_for(const GossipDigest& theirs) const;

  /// Held roots within the requested ranges (the server side of
  /// gossip_pull). Cost is O(held roots in range), never O(range width).
  std::vector<dict::SignedRoot> roots_in(const GossipWant& want) const;

  /// Re-checks peer-supplied evidence pairs against the rule observe()
  /// applies (is_split_view, with both roots signed by the CA's registered
  /// key) and appends the survivors to `out`; fabrications count as
  /// forged, so a hostile peer cannot frame an honest CA.
  void adopt_peer_evidence(const std::vector<MisbehaviourEvidence>& claimed,
                           std::vector<MisbehaviourEvidence>& out);

  /// Every observation currently held (one per (CA, n) pair).
  std::vector<dict::SignedRoot> roots() const;

  /// Observations recorded (one per (CA, n) pair).
  std::size_t size() const noexcept;

  std::uint64_t forged_dropped() const noexcept { return forged_; }

  const GossipStats& stats() const noexcept { return stats_; }

 private:
  using RootsByN = std::map<std::uint64_t, dict::SignedRoot>;

  /// Hash over the held roots of `by_n` in [lo, hi] (callers ensure full
  /// coverage before comparing against a peer's run hash).
  static crypto::Digest20 hash_run(const RootsByN& by_n, std::uint64_t lo,
                                   std::uint64_t hi);
  /// True iff we hold every position of [lo, hi] and our hash over it
  /// equals `hash` — the run is provably identical on both sides.
  static bool run_in_sync(const RootsByN& by_n, const GossipRun& run);

  const cert::TrustStore* keys_;
  std::map<cert::CaId, RootsByN> seen_;
  std::uint64_t forged_ = 0;
  GossipStats stats_;
};

}  // namespace ritm::ra
