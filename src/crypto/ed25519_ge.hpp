// Group arithmetic on edwards25519, -x^2 + y^2 = 1 + d x^2 y^2, in the
// point representations of ref10 (Bernstein et al., "High-speed
// high-security signatures", JCEN 2012; Hisil-Wong-Carter-Dawson 2008):
//
//   Ge           extended (X : Y : Z : T), x = X/Z, y = Y/Z, x*y = T/Z.
//                The representation callers hold.
//   GeProjective (X : Y : Z), T dropped: the input of a doubling.
//   GeCompleted  ((X : Z), (Y : T)), x = X/Z, y = Y/T: what every formula
//                returns. ge_to_extended costs 4 multiplications,
//                ge_to_projective 3, so a doubling that is not followed by an
//                addition skips T.
//   GeCached     (Y+X, Y-X, Z, 2dT): an addend prepared once and added many
//                times (the per-call table of odd multiples of a point).
//   GeAffine     (y+x, y-x, 2dxy), Z = 1: a normalised addend, one
//                multiplication cheaper to add (the base-point table).
//
// Formulas: doubling is "dbl-2008-hwcd" (4 squarings); addition and
// subtraction are the a = -1 "add-2008-hwcd-3" law (8 multiplications with
// a cached addend, 7 with an affine one, counting the conversion back to
// extended). The addition law is complete (a = -1 is a square and d is not,
// mod p), so it is right for every pair of curve points, the identity,
// doubling and small-order points included; the field bounds the formulas
// rely on are in ed25519_fe.hpp.
//
// Scalar multiplication has one path: a Straus (interleaved) double-and-add
// over signed sliding-window digits (wNAF) of each scalar. Odd multiples of
// the variable point, width 5 (P, 3P, ..., 15P), are built per call in cached
// form; odd multiples of the base point B, width 8 (B, 3B, ..., 127B), sit in
// an affine table computed once at first use (a function-local static, so
// its construction is thread-safe) and shared by verification and signing.
//
// Variable time: which additions run, and which table entry each reads,
// follow the scalar's digits, and the loop starts at the highest nonzero
// digit. Verification touches only public data (the key, the signature, the
// message), so this leaks nothing. Signing feeds secret scalars (the clamped
// key and the nonce) through the same path and therefore also runs in
// variable time, as it always has in this repository: RITM's CA keys here
// are simulation identities, not long-term secrets on shared hardware.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/ed25519_fe.hpp"
#include "crypto/ed25519_sc.hpp"

namespace ritm::crypto::detail {

struct Ge {
  Fe x, y, z, t;
};

struct GeProjective {
  Fe x, y, z;
};

struct GeCompleted {
  Fe x, y, z, t;
};

struct GeCached {
  Fe y_plus_x, y_minus_x, z, t2d;
};

struct GeAffine {
  Fe y_plus_x, y_minus_x, xy2d;
};

/// Identity element (0, 1).
Ge ge_identity() noexcept;

/// Base point B (y = 4/5, x positive), decompressed from its canonical
/// encoding once.
const Ge& ge_base() noexcept;

Ge ge_neg(const Ge& p) noexcept;

Ge ge_to_extended(const GeCompleted& p) noexcept;
GeProjective ge_to_projective(const GeCompleted& p) noexcept;
GeProjective ge_to_projective(const Ge& p) noexcept;
GeCached ge_to_cached(const Ge& p) noexcept;

/// 2p.
GeCompleted ge_dbl(const GeProjective& p) noexcept;
/// p + q and p - q for a cached addend.
GeCompleted ge_add(const Ge& p, const GeCached& q) noexcept;
GeCompleted ge_sub(const Ge& p, const GeCached& q) noexcept;
/// p + q and p - q for an affine addend.
GeCompleted ge_madd(const Ge& p, const GeAffine& q) noexcept;
GeCompleted ge_msub(const Ge& p, const GeAffine& q) noexcept;

/// s*B, variable time. s < 2^255 (every reduced or clamped scalar is).
Ge ge_scalarmult_base(const Scalar& s) noexcept;

/// k*P + s*B in one Straus pass, variable time. k, s < 2^255.
Ge ge_double_scalarmult_vartime(const Scalar& k, const Ge& p,
                                const Scalar& s) noexcept;

/// Compressed 32-byte encoding: canonical y with the sign of x in the top
/// bit.
std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept;

/// Decompression per RFC 8032 §5.1.3: rejects y >= p, encodings with no
/// point on the curve, and x = 0 with the sign bit set.
std::optional<Ge> ge_from_bytes(const std::array<std::uint8_t, 32>& s) noexcept;

}  // namespace ritm::crypto::detail
