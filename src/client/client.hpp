// The RITM-supported TLS client (paper §III steps 5–7).
//
// The client strips revocation-status records off incoming packets, runs
// standard chain validation, then RITM validation: the proof must be a
// valid *absence* proof against the CA's signed root, and the freshness
// statement must be no older than 2∆ (verified by walking the hash chain to
// the committed anchor: a statement for period p'-1, p' or p'+1 is accepted,
// where p' is the client's period since the root was signed). On established
// connections the client expects a fresh status at least every ∆ and
// interrupts the connection otherwise — this closes the mid-connection
// revocation race.
//
// A status is validated where it lies, as the bytes the RA attached or
// served: validate_status_bytes parses it once into a dict::StatusView
// (spans into the received bytes, no allocation) and checks the view. The
// packet path (process_server_flight, process_established) validates the
// records ra::strip_status hands back the same way. An absence proof's two
// neighbours share their path above their lowest common ancestor, and
// dict::verify_proof hashes that part once.
//
// Each status carries the CA's signed root, and the CA re-signs its root only
// when its dictionary changes (freshness comes from the hash chain), so every
// status served under one root carries the same signed-root bytes. The client
// therefore runs the Ed25519 check once per signed root: a flat memo holds,
// per trust-store CA, the wire bytes of the last two signed roots that
// verified under that CA's key, and a status whose signed root equals one of
// them, byte for byte, skips only the signature check. The signed-root
// encoding is canonical, so equal bytes are an equal root. Freshness and the
// proof are checked on every status. A memo hit allocates nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/messages.hpp"
#include "ra/dpi.hpp"
#include "sim/packet.hpp"

namespace ritm::client {

enum class Verdict {
  accepted,
  not_tls,
  bad_chain,         // standard X.509-style validation failed
  missing_status,    // RITM expected but no RA attached a status
  unknown_ca,        // no trust anchor for the issuer
  issuer_mismatch,   // status signed by a different CA than the issuer
  bad_signature,     // signed root does not verify
  bad_proof,         // Merkle proof invalid
  revoked,           // valid *presence* proof: certificate is revoked
  stale_freshness,   // statement older than the 2∆ window
  downgrade,         // RITM support expected but not confirmed (§IV/§V)
};

const char* to_string(Verdict v) noexcept;

class RitmClient {
 public:
  struct Config {
    UnixSeconds delta = 10;
    /// True when the client has authentic knowledge that its connections
    /// are RITM-protected (network announcement or terminator confirmation,
    /// §IV). If set, a handshake without a revocation status is rejected as
    /// a downgrade.
    bool expect_ritm = true;
    /// Require the ServerHello to carry the RITM confirmation extension
    /// (TLS-terminator deployment).
    bool require_server_confirmation = false;
    /// §VIII "Certificate chains": require an accepted revocation status
    /// for every certificate in the chain, not only the leaf.
    bool require_chain_proofs = false;
  };

  struct Stats {
    std::uint64_t handshakes = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t statuses_validated = 0;
    std::uint64_t interrupts = 0;  // established connections torn down
  };

  /// Signature checks behind the verified-root memo: Ed25519 verifications
  /// run, and statuses whose signed root the memo already held.
  struct RootMemoStats {
    std::uint64_t verifications = 0;
    std::uint64_t hits = 0;
  };

  RitmClient(Config config, cert::TrustStore roots);

  /// Validates one encoded revocation status for `leaf` (step 5 checks b
  /// and c) in place, through a dict::StatusView: a status record's payload,
  /// or a status_query / status_batch response payload as served by
  /// ra::RaService. Bytes that do not parse are Verdict::missing_status — a
  /// status that cannot be parsed protects nothing. It may be called
  /// concurrently from any number of threads: it touches only the memo,
  /// which locks itself. The non-const calls below track connections and
  /// stats and must stay on one thread.
  Verdict validate_status_bytes(ByteSpan status_bytes,
                                const cert::Certificate& leaf,
                                UnixSeconds now) const;

  /// Processes the server's first flight: strips statuses, validates chain
  /// and revocation status. On success the connection becomes tracked
  /// (keyed by the flow) for mid-connection revalidation.
  Verdict process_server_flight(sim::Packet& pkt, UnixSeconds now);

  /// Processes a mid-connection packet (step 7): validates any piggybacked
  /// status and refreshes the connection's status clock.
  Verdict process_established(sim::Packet& pkt, UnixSeconds now);

  /// Step 6/7 policy: true if the connection must be interrupted because no
  /// fresh status arrived within 2∆. Removes the connection when tripped.
  bool check_interrupt(const sim::FlowKey& flow, UnixSeconds now);

  /// Tracked (accepted and still live) connections.
  std::size_t connection_count() const noexcept { return connections_.size(); }

  void close_connection(const sim::FlowKey& flow);

  const Stats& stats() const noexcept { return stats_; }
  const cert::TrustStore& roots() const noexcept { return roots_; }
  RootMemoStats root_memo_stats() const noexcept;

 private:
  /// Two roots per CA: while a CA rolls over to a new root, statuses under
  /// the old and the new root interleave for up to one ∆ (the p'-1 case in
  /// validate). A third root replaces the older of the two.
  static constexpr std::size_t kRootsPerCa = 2;

  /// The signed roots of one CA that verified under its trust-store key, as
  /// wire bytes. An empty slot holds no root (no encoding is empty).
  struct VerifiedRoots {
    std::array<Bytes, kRootsPerCa> slots;
    std::size_t older = 0;  // the slot the next root replaces

    bool holds(ByteSpan root) const;
    void add(ByteSpan root);
  };

  /// Step 5 checks b and c on a status in place.
  Verdict validate(const dict::StatusView& status,
                   const cert::Certificate& leaf, UnixSeconds now) const;

  /// True if `root` verifies under `ca_key`, its CA's trust-store key;
  /// `verified` is that CA's memo entry.
  bool root_verifies(const dict::SignedRootView& root,
                     const crypto::PublicKey& ca_key,
                     VerifiedRoots& verified) const;

  struct Connection {
    cert::Certificate leaf;
    UnixSeconds last_status = 0;
  };

  struct FlowLess {
    bool operator()(const sim::FlowKey& a, const sim::FlowKey& b) const {
      return std::tie(a.src_ip, a.dst_ip, a.src_port, a.dst_port) <
             std::tie(b.src_ip, b.dst_ip, b.src_port, b.dst_port);
    }
  };

  Config config_;
  cert::TrustStore roots_;
  Stats stats_;
  std::map<sim::FlowKey, Connection, FlowLess> connections_;

  // The verified-root memo: memo_[i] belongs to roots_.entries()[i]. The
  // trust store is fixed at construction, so the table never grows, a root
  // that verified under its CA's key stays verified, and no entry ever needs
  // invalidating. A slot is filled only after the signature verified: at
  // most kRootsPerCa x roots_.size() roots, whatever a peer sends.
  mutable std::mutex memo_mu_;
  mutable std::vector<VerifiedRoots> memo_;
  mutable std::atomic<std::uint64_t> verifications_{0};
  mutable std::atomic<std::uint64_t> memo_hits_{0};
};

}  // namespace ritm::client
