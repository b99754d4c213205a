// Certificate-lite: a compact X.509 stand-in carrying exactly the fields
// RITM consumes — serial number, issuer (CA identifier), subject, validity
// window, subject public key, and the issuer's Ed25519 signature.
//
// The paper's evaluation (§VII-A) found 3-byte serial numbers to be the most
// common size (32% of all revocations observed); serials here are
// variable-width byte strings compared lexicographically, as in the
// dictionary's sorted leaves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/io.hpp"
#include "common/time.hpp"
#include "crypto/ed25519.hpp"

namespace ritm::cert {

/// Identifies a CA (and thereby its revocation dictionary).
using CaId = std::string;

/// A certificate serial number: 1..20 bytes (RFC 5280 caps serials at 20
/// bytes), compared lexicographically.
struct SerialNumber {
  Bytes value;

  auto operator<=>(const SerialNumber&) const = default;

  /// Constructs a fixed-width big-endian serial from an integer.
  static SerialNumber from_uint(std::uint64_t v, std::size_t width = 3);

  std::string to_hex() const;
};

constexpr std::size_t kMaxSerialBytes = 20;

/// Reads one wire serial — a length byte, then 1 to kMaxSerialBytes bytes —
/// as a span into `r`'s input. nullopt when it is truncated, empty or too
/// long. The one serial rule of every decoder that reads serials.
std::optional<ByteSpan> read_serial(ByteReader& r);

struct Certificate {
  SerialNumber serial;
  CaId issuer;
  std::string subject;  // domain name
  UnixSeconds not_before = 0;
  UnixSeconds not_after = 0;
  crypto::PublicKey subject_key{};
  crypto::Signature signature{};  // issuer's signature over tbs()

  /// The to-be-signed encoding (everything except the signature).
  Bytes tbs() const;

  /// Full wire encoding (tbs + signature).
  Bytes encode() const;
  static std::optional<Certificate> decode(ByteSpan data);

  /// Checks the issuer signature with the given CA key.
  bool verify_signature(const crypto::PublicKey& issuer_key) const;

  /// Validity-window check.
  bool valid_at(UnixSeconds now) const noexcept {
    return now >= not_before && now <= not_after;
  }
};

/// Leaf-first certificate chain, as carried in a TLS Certificate message.
using Chain = std::vector<Certificate>;

Bytes encode_chain(const Chain& chain);
std::optional<Chain> decode_chain(ByteSpan data);

/// Result of standard (non-revocation) chain validation.
enum class ChainError {
  ok,
  empty,
  expired,
  bad_signature,
  untrusted_root,
  issuer_mismatch,
};

/// Maps CA identifiers to their public keys — the client/RA trust store.
class TrustStore {
 public:
  void add(const CaId& ca, const crypto::PublicKey& key);
  std::optional<crypto::PublicKey> find(const CaId& ca) const;
  std::size_t size() const noexcept { return keys_.size(); }
  /// Every trusted CA once, with its key, in the order first added.
  const std::vector<std::pair<CaId, crypto::PublicKey>>& entries()
      const noexcept {
    return keys_;
  }

 private:
  std::vector<std::pair<CaId, crypto::PublicKey>> keys_;
};

/// Standard validation: every certificate within validity, each signed by
/// the next one's subject key (or, for the last, by a trust-store CA).
/// For the common leaf-only deployments in this repo, a one-element chain is
/// validated directly against the trust store via its issuer field.
ChainError validate_chain(const Chain& chain, const TrustStore& roots,
                          UnixSeconds now);

}  // namespace ritm::cert
