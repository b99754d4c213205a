// Wire messages of the RITM protocol:
//
//  * RevocationIssuance — CA → CDN → RA: revoked serial(s) + new signed root
//    (paper Tab. I, rows at t0 and t0+3∆).
//  * FreshnessStatement — CA → CDN → RA: the hash-chain preimage H^(m-p)(v)
//    for a period with no new revocations (Tab. I, rows at t0+∆, t0+2∆).
//  * RevocationStatus — RA → client: proof + signed root + freshness
//    statement (paper Eq. (3)), appended to TLS traffic.
//  * SyncRequest/SyncResponse — RA ↔ edge server: resynchronization after a
//    detected gap ("the RA contacts an edge server specifying the number of
//    valid consecutive revocations it has observed").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dict/proof.hpp"
#include "dict/signed_root.hpp"

namespace ritm::dict {

struct RevocationIssuance {
  std::vector<cert::SerialNumber> serials;  // newly revoked, numbering order
  SignedRoot signed_root;

  Bytes encode() const;
  static std::optional<RevocationIssuance> decode(ByteSpan data);

  bool operator==(const RevocationIssuance&) const = default;
};

struct FreshnessStatement {
  cert::CaId ca;
  crypto::Digest20 statement{};  // H^(m-p)(v)

  Bytes encode() const;
  static std::optional<FreshnessStatement> decode(ByteSpan data);

  bool operator==(const FreshnessStatement&) const = default;
};

/// Eq. (3): what an RA delivers to the client, piggybacked on TLS traffic.
struct RevocationStatus {
  Proof proof;
  SignedRoot signed_root;
  crypto::Digest20 freshness{};  // latest freshness statement

  /// Appends the wire encoding to `out` — the RA's per-packet status
  /// assembly path, which must not allocate intermediate buffers.
  void encode_into(Bytes& out) const;
  Bytes encode() const;
  static std::optional<RevocationStatus> decode(ByteSpan data);

  /// The per-connection communication overhead the paper reports as
  /// 500–900 bytes for the largest CRL (§VII-D). Computed, not serialized.
  std::size_t wire_size() const noexcept {
    return 2 + proof.wire_size() + 2 + signed_root.wire_size() + 20;
  }

  bool operator==(const RevocationStatus&) const = default;
};

/// A RevocationStatus in place: the proof's leaves and paths and the signed
/// root as spans into the bytes it was parsed from, which must outlive it.
/// parse() allocates nothing; it is what a client runs on every status it
/// receives, and RevocationStatus::decode is parse() then materialize().
struct StatusView {
  ProofView proof;
  SignedRootView signed_root;
  crypto::Digest20 freshness{};

  static std::optional<StatusView> parse(ByteSpan data);
  RevocationStatus materialize() const;
};

/// RA → edge server: "I hold `have_n` consecutive revocations of `ca`".
struct SyncRequest {
  cert::CaId ca;
  std::uint64_t have_n = 0;

  Bytes encode() const;
  static std::optional<SyncRequest> decode(ByteSpan data);

  bool operator==(const SyncRequest&) const = default;
};

/// Edge server → RA: entries have_n+1..n, the latest signed root, and the
/// latest freshness statement.
struct SyncResponse {
  cert::CaId ca;
  std::vector<Entry> entries;
  SignedRoot signed_root;
  crypto::Digest20 freshness{};

  /// Exact encoded size (what an edge server ships an RA), computed.
  std::size_t wire_size() const noexcept;
  /// Appends the wire encoding to `out`.
  void encode_into(Bytes& out) const;
  Bytes encode() const;
  static std::optional<SyncResponse> decode(ByteSpan data);

  bool operator==(const SyncResponse&) const = default;
};

}  // namespace ritm::dict
