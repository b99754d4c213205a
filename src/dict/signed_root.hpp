// The CA's signed root (paper Eq. (1)): {root, n, H^m(v), t} signed with the
// CA's Ed25519 key. A signed root uniquely commits to one version of one
// dictionary; two different signed roots with the same n are cryptographic
// proof of CA misbehaviour (§V "Misbehaving CA").
#pragma once

#include <cstdint>
#include <optional>

#include "cert/certificate.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"

namespace ritm::dict {

struct SignedRoot {
  cert::CaId ca;
  crypto::Digest20 root{};
  std::uint64_t n = 0;                  // dictionary size after this update
  crypto::Digest20 freshness_anchor{};  // H^m(v)
  UnixSeconds timestamp = 0;            // t, when the root was signed
  crypto::Signature signature{};

  /// The signed byte string.
  Bytes tbs() const;

  /// Exact encoded size, computed without serializing.
  std::size_t wire_size() const noexcept {
    return 1 + ca.size() + 20 + 8 + 20 + 8 + 64;
  }
  /// Appends the wire encoding to `out`.
  void encode_into(Bytes& out) const;
  Bytes encode() const;
  static std::optional<SignedRoot> decode(ByteSpan data);

  /// Builds and signs a root statement with the CA's key.
  static SignedRoot make(cert::CaId ca, const crypto::Digest20& root,
                         std::uint64_t n, const crypto::Digest20& anchor,
                         UnixSeconds timestamp, const crypto::Seed& ca_key);

  /// Fast path with a cached keypair (saves one scalar multiplication).
  static SignedRoot make(cert::CaId ca, const crypto::Digest20& root,
                         std::uint64_t n, const crypto::Digest20& anchor,
                         UnixSeconds timestamp, const crypto::KeyPair& kp);

  bool verify(const crypto::PublicKey& ca_key) const;

  bool operator==(const SignedRoot&) const = default;
};

/// A SignedRoot in place: its fields parsed out of, and `wire` spanning, the
/// bytes it was parsed from (valid only as long as those are). The encoding
/// is canonical — one byte string per SignedRoot — so two views hold the
/// same root exactly when their `wire` bytes are equal. SignedRoot::decode
/// materializes from parse(), so the format has one parser.
struct SignedRootView {
  ByteSpan wire;
  ByteSpan ca;
  crypto::Digest20 root{};
  std::uint64_t n = 0;
  crypto::Digest20 freshness_anchor{};
  UnixSeconds timestamp = 0;
  ByteSpan signature;  // 64 bytes

  static std::optional<SignedRootView> parse(ByteSpan data);
  SignedRoot materialize() const;
};

}  // namespace ritm::dict
