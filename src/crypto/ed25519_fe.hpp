// Arithmetic in GF(p), p = 2^255 - 19, the base field of edwards25519.
//
// Representation: five 51-bit limbs in 64-bit words (radix 2^51), the
// "donna-64" layout; products accumulate in unsigned __int128. Limbs may
// exceed 51 bits between operations; what each operation accepts and
// returns is stated as a bound on every limb:
//
//   tight  < 2^51 + 2^13 : what fe_mul, fe_sq, fe_sub, fe_neg and
//                          fe_from_bytes return (a carry chain ends each).
//   loose  < 2^54        : fe_add is carry-free, so the sum of two tight
//                          elements is < 2^53, and a tight element plus
//                          such a sum stays < 2^54.
//
// fe_mul and fe_sq accept loose inputs: each 128-bit column stays below
// 2^115 and every carry fits a word. fe_sub adds 4p before subtracting, so
// its subtrahend may be a sum of two tight elements; it carries, so its
// result is tight again. The point formulas in ed25519_ge.cpp keep to these
// bounds: a carry-free sum only ever feeds a multiplication, a squaring, or
// the subtrahend of one fe_sub. fe_to_bytes() performs the full reduction
// to the canonical encoding.
//
// Inversion and the square-root exponent use the fixed addition chains of
// ref10 (254 squarings and 11 multiplications each). Every operation here
// runs in time independent of the values, except the comparisons
// (fe_is_zero, fe_is_negative, fe_equal), whose callers only compare public
// data; the variable-time parts of Ed25519 live in the group and scalar
// layers (see ed25519_ge.hpp).
#pragma once

#include <cstdint>

namespace ritm::crypto::detail {

__extension__ using u128 = unsigned __int128;  // NOLINT: GCC/Clang extension, required width

struct Fe {
  std::uint64_t v[5];
};

inline constexpr std::uint64_t kFeMask51 = (std::uint64_t(1) << 51) - 1;

constexpr Fe fe_zero() noexcept { return Fe{{0, 0, 0, 0, 0}}; }
constexpr Fe fe_one() noexcept { return Fe{{1, 0, 0, 0, 0}}; }

/// Little-endian 32 bytes -> tight field element. The high bit of byte 31
/// is ignored and the 255-bit value is not reduced, so y and y + p decode
/// alike; callers that need canonical input check it (ge_from_bytes does).
Fe fe_from_bytes(const std::uint8_t* in) noexcept;

/// Canonical little-endian encoding (fully reduced mod p).
void fe_to_bytes(std::uint8_t* out, const Fe& a) noexcept;

/// Carry-free sum; inputs < 2^53 per limb, result < 2^54 (see above).
inline Fe fe_add(const Fe& a, const Fe& b) noexcept {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

/// a - b + 4p, carried to a tight result. b must be < 4p per limb, i.e.
/// at most a carry-free sum of two tight elements.
inline Fe fe_sub(const Fe& a, const Fe& b) noexcept {
  constexpr std::uint64_t kFourP0 = 0x1FFFFFFFFFFFB4;  // 4 * (2^51 - 19)
  constexpr std::uint64_t kFourPi = 0x1FFFFFFFFFFFFC;  // 4 * (2^51 - 1)
  std::uint64_t t0 = a.v[0] + kFourP0 - b.v[0];
  std::uint64_t t1 = a.v[1] + kFourPi - b.v[1];
  std::uint64_t t2 = a.v[2] + kFourPi - b.v[2];
  std::uint64_t t3 = a.v[3] + kFourPi - b.v[3];
  std::uint64_t t4 = a.v[4] + kFourPi - b.v[4];
  t1 += t0 >> 51; t0 &= kFeMask51;
  t2 += t1 >> 51; t1 &= kFeMask51;
  t3 += t2 >> 51; t2 &= kFeMask51;
  t4 += t3 >> 51; t3 &= kFeMask51;
  t0 += 19 * (t4 >> 51); t4 &= kFeMask51;
  return Fe{{t0, t1, t2, t3, t4}};
}

inline Fe fe_neg(const Fe& a) noexcept { return fe_sub(fe_zero(), a); }

namespace fe_impl {
// Folds the five 128-bit column sums of a product into a tight element.
inline Fe carry_columns(u128 r0, u128 r1, u128 r2, u128 r3,
                        u128 r4) noexcept {
  r1 += static_cast<std::uint64_t>(r0 >> 51);
  r2 += static_cast<std::uint64_t>(r1 >> 51);
  r3 += static_cast<std::uint64_t>(r2 >> 51);
  r4 += static_cast<std::uint64_t>(r3 >> 51);
  std::uint64_t t0 = (static_cast<std::uint64_t>(r0) & kFeMask51) +
                     19 * static_cast<std::uint64_t>(r4 >> 51);
  std::uint64_t t1 = static_cast<std::uint64_t>(r1) & kFeMask51;
  t1 += t0 >> 51;
  t0 &= kFeMask51;
  return Fe{{t0, t1, static_cast<std::uint64_t>(r2) & kFeMask51,
             static_cast<std::uint64_t>(r3) & kFeMask51,
             static_cast<std::uint64_t>(r4) & kFeMask51}};
}
}  // namespace fe_impl

inline Fe fe_mul(const Fe& a, const Fe& b) noexcept {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                      b4_19 = 19 * b4;
  const u128 r0 = u128(a0) * b0 + u128(a1) * b4_19 + u128(a2) * b3_19 +
                  u128(a3) * b2_19 + u128(a4) * b1_19;
  const u128 r1 = u128(a0) * b1 + u128(a1) * b0 + u128(a2) * b4_19 +
                  u128(a3) * b3_19 + u128(a4) * b2_19;
  const u128 r2 = u128(a0) * b2 + u128(a1) * b1 + u128(a2) * b0 +
                  u128(a3) * b4_19 + u128(a4) * b3_19;
  const u128 r3 = u128(a0) * b3 + u128(a1) * b2 + u128(a2) * b1 +
                  u128(a3) * b0 + u128(a4) * b4_19;
  const u128 r4 = u128(a0) * b4 + u128(a1) * b3 + u128(a2) * b2 +
                  u128(a3) * b1 + u128(a4) * b0;
  return fe_impl::carry_columns(r0, r1, r2, r3, r4);
}

/// a^2 with the symmetric cross terms doubled once: 15 word products
/// instead of fe_mul's 25.
inline Fe fe_sq(const Fe& a) noexcept {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2;
  const std::uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  const u128 r0 = u128(a0) * a0 + u128(d1) * a4_19 + u128(d2) * a3_19;
  const u128 r1 = u128(d0) * a1 + u128(d2) * a4_19 + u128(a3) * a3_19;
  const u128 r2 = u128(d0) * a2 + u128(a1) * a1 + u128(2 * a3) * a4_19;
  const u128 r3 = u128(d0) * a3 + u128(d1) * a2 + u128(a4) * a4_19;
  const u128 r4 = u128(d0) * a4 + u128(d1) * a3 + u128(a2) * a2;
  return fe_impl::carry_columns(r0, r1, r2, r3, r4);
}

/// a^(p-2) = a^-1 (0 for a = 0), by addition chain.
Fe fe_invert(const Fe& a) noexcept;

/// a^((p-5)/8) = a^(2^252-3), the exponent of the RFC 8032 square root.
Fe fe_pow22523(const Fe& a) noexcept;

bool fe_is_zero(const Fe& a) noexcept;
/// Least significant bit of the canonical encoding ("sign" of x).
bool fe_is_negative(const Fe& a) noexcept;
bool fe_equal(const Fe& a, const Fe& b) noexcept;

/// sqrt(-1) = 2^((p-1)/4), computed once.
const Fe& fe_sqrtm1() noexcept;
/// Edwards curve constant d = -121665/121666, computed once.
const Fe& fe_d() noexcept;
/// 2*d, computed once.
const Fe& fe_2d() noexcept;

}  // namespace ritm::crypto::detail
