// Scalar arithmetic modulo the edwards25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
//
// Scalars are 32 little-endian bytes. Every reduction goes through one
// word-level Barrett reduction of a 512-bit value (HAC Algorithm 14.42 with
// base 2^64 and k = 4): the quotient is estimated from the top words times
// mu = floor(2^512 / L), which is computed at compile time, and a final
// conditional subtraction of L finishes the job (HAC allows two; for this L
// the estimate is never more than one short, as frac(2^512 / L) ~ 0.22).
// Its steps do not depend on the value except for that last comparison and
// subtraction. It runs on public values (verification) and on the signer's
// nonce and key (signing), which, like the rest of signing, runs in
// variable time (see ed25519_ge.hpp).
#pragma once

#include <array>
#include <cstdint>

namespace ritm::crypto::detail {

using Scalar = std::array<std::uint8_t, 32>;

/// Reduces a 64-byte little-endian value mod L (RFC 8032's SC reduction of
/// SHA-512 outputs).
Scalar sc_reduce64(const std::array<std::uint8_t, 64>& in) noexcept;

/// (a * b + c) mod L.
Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) noexcept;

/// True iff the 32-byte value is canonical, i.e. < L (required when
/// verifying the S half of a signature to prevent malleability).
bool sc_is_canonical(const Scalar& s) noexcept;

}  // namespace ritm::crypto::detail
