// Ed25519 signatures (RFC 8032), built from scratch on the field/group/
// scalar modules in this directory. RITM signs dictionary roots with
// Ed25519 because of its 64-byte signatures (paper §VI: "to optimize the
// bandwidth and computational overhead, we used the Ed25519 signature
// scheme").
//
// Verified against the RFC 8032 test vectors in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace ritm::crypto {

using Seed = std::array<std::uint8_t, 32>;        // RFC 8032 private key
using PublicKey = std::array<std::uint8_t, 32>;   // compressed point A
using Signature = std::array<std::uint8_t, 64>;   // R || S

struct KeyPair {
  Seed seed;
  PublicKey public_key;
};

/// Derives the public key for a 32-byte seed.
PublicKey derive_public_key(const Seed& seed) noexcept;

/// Deterministic keypair generation from a seed.
KeyPair keypair_from_seed(const Seed& seed) noexcept;

/// Signs `message` with the given seed (pure Ed25519: deterministic nonce).
Signature sign(ByteSpan message, const Seed& seed) noexcept;

/// Signing fast path for long-lived identities: the caller supplies the
/// already-derived public key, saving one base-point scalar multiplication
/// per signature. `public_key` must equal derive_public_key(seed).
Signature sign(ByteSpan message, const Seed& seed,
               const PublicKey& public_key) noexcept;

/// Verifies with RFC 8032's cofactorless equation: true iff S < L, the key
/// is the canonical encoding of a curve point A, and s*B - k*A encodes to
/// exactly the signature's R bytes (k = SHA-512(R || A || M) mod L).
/// Variable time; it only handles public data. Never throws.
bool verify(ByteSpan message, const Signature& sig,
            const PublicKey& public_key) noexcept;

}  // namespace ritm::crypto
