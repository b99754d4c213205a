// Reference Ed25519 verification for the differential tests in
// crypto_test.cpp and the fuzz_ed25519 target. It is the equation check the
// library ran before verify() became one double-scalar multiplication, kept
// as an oracle: canonical S, the canonical-decoding rule for both A and R
// (y < p, a point on the curve, no negative zero), two independent 4-bit
// fixed-window scalar multiplications, and the projective comparison
// s*B == R + k*A. Reductions mod L use bit-serial long division and the
// square roots a generic square-and-multiply ladder. Only the library's
// fe_add/fe_sub/fe_mul/fe_to_bytes are shared (squarings here are plain
// multiplications); they carry tests of their own. Slow on purpose.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_fe.hpp"
#include "crypto/sha512.hpp"

namespace ritm::crypto::oracle {

using detail::Fe;
using detail::u128;
using Bytes32 = std::array<std::uint8_t, 32>;

inline Fe sq(const Fe& a) { return detail::fe_mul(a, a); }

/// base^exp, MSB-first square-and-multiply; exp is 32 little-endian bytes.
inline Fe fe_pow(const Fe& base, const Bytes32& exp) {
  Fe r = detail::fe_one();
  for (int bit = 255; bit >= 0; --bit) {
    r = sq(r);
    if ((exp[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1) {
      r = detail::fe_mul(r, base);
    }
  }
  return r;
}

/// Little-endian bytes of 2^255 - 19 - c, for small c.
inline Bytes32 p_minus(std::uint8_t c) {
  Bytes32 e;
  e.fill(0xFF);
  e[0] = static_cast<std::uint8_t>(0xED - c);
  e[31] = 0x7F;
  return e;
}

/// (p - 1) / 4 = 2^253 - 5 and (p - 5) / 8 = 2^252 - 3.
inline Bytes32 exp_p14() {
  Bytes32 e;
  e.fill(0xFF);
  e[0] = 0xFB;
  e[31] = 0x1F;
  return e;
}
inline Bytes32 exp_p58() {
  Bytes32 e;
  e.fill(0xFF);
  e[0] = 0xFD;
  e[31] = 0x0F;
  return e;
}

inline Fe from_u64(std::uint64_t x) { return Fe{{x, 0, 0, 0, 0}}; }
inline Fe invert(const Fe& a) { return fe_pow(a, p_minus(2)); }
inline bool equal(const Fe& a, const Fe& b) {
  std::uint8_t ba[32], bb[32];
  detail::fe_to_bytes(ba, a);
  detail::fe_to_bytes(bb, b);
  return std::memcmp(ba, bb, 32) == 0;
}
inline bool is_zero(const Fe& a) { return equal(a, detail::fe_zero()); }
inline bool is_negative(const Fe& a) {
  std::uint8_t b[32];
  detail::fe_to_bytes(b, a);
  return (b[0] & 1) != 0;
}

inline const Fe& curve_d() {
  static const Fe d = detail::fe_mul(detail::fe_neg(from_u64(121665)),
                                     invert(from_u64(121666)));
  return d;
}

// ------------------------------------------------------------ scalars

struct U512 {
  std::uint64_t w[8] = {};
};

inline U512 u512_from_bytes(const std::uint8_t* in, std::size_t n) {
  U512 x;
  for (std::size_t i = 0; i < n; ++i) {
    x.w[i / 8] |= std::uint64_t(in[i]) << (8 * (i % 8));
  }
  return x;
}

inline const Bytes32& group_order() {
  static const Bytes32 l = [] {
    const Bytes b = from_hex(
        "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
    Bytes32 out;
    std::memcpy(out.data(), b.data(), 32);
    return out;
  }();
  return l;
}

/// x mod L by binary long division: the remainder is built MSB-first and
/// L subtracted whenever it is reached.
inline Bytes32 mod_l(const U512& x) {
  const U512 l = u512_from_bytes(group_order().data(), 32);
  U512 r;
  for (int i = 511; i >= 0; --i) {
    std::uint64_t carry = (x.w[i / 64] >> (i % 64)) & 1;
    for (auto& w : r.w) {
      const std::uint64_t next = w >> 63;
      w = (w << 1) | carry;
      carry = next;
    }
    bool ge = true;  // r >= L
    for (int j = 7; j >= 0; --j) {
      if (r.w[j] != l.w[j]) {
        ge = r.w[j] > l.w[j];
        break;
      }
    }
    if (ge) {
      u128 borrow = 0;
      for (int j = 0; j < 8; ++j) {
        const u128 d = u128(r.w[j]) - l.w[j] - borrow;
        r.w[j] = static_cast<std::uint64_t>(d);
        borrow = (d >> 64) & 1;
      }
    }
  }
  Bytes32 out;
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(r.w[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

inline Bytes32 reduce64(const std::array<std::uint8_t, 64>& in) {
  return mod_l(u512_from_bytes(in.data(), 64));
}

/// (a * b + c) mod L by schoolbook multiplication and long division.
inline Bytes32 muladd(const Bytes32& a, const Bytes32& b, const Bytes32& c) {
  const U512 aw = u512_from_bytes(a.data(), 32);
  const U512 bw = u512_from_bytes(b.data(), 32);
  U512 x = u512_from_bytes(c.data(), 32);
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = u128(aw.w[i]) * bw.w[j] + x.w[i + j] + carry;
      x.w[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    for (int k = i + 4; k < 8; ++k) {
      const u128 cur = u128(x.w[k]) + carry;
      x.w[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  return mod_l(x);
}

inline bool is_canonical_scalar(const Bytes32& s) {
  return mod_l(u512_from_bytes(s.data(), 32)) == s;
}

// -------------------------------------------------------------- points

/// Extended coordinates (X : Y : Z : T).
struct Point {
  Fe x, y, z, t;
};

inline Point identity() {
  return Point{detail::fe_zero(), detail::fe_one(), detail::fe_one(),
               detail::fe_zero()};
}

/// add-2008-hwcd-3.
inline Point add(const Point& p, const Point& q) {
  using detail::fe_add;
  using detail::fe_mul;
  using detail::fe_sub;
  const Fe two_d = fe_add(curve_d(), curve_d());
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, two_d), q.t);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// dbl-2008-hwcd.
inline Point dbl(const Point& p) {
  using detail::fe_add;
  using detail::fe_mul;
  using detail::fe_sub;
  const Fe a = sq(p.x);
  const Fe b = sq(p.y);
  const Fe zz = sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe h = fe_add(a, b);
  const Fe e = fe_sub(h, sq(fe_add(p.x, p.y)));
  const Fe g = fe_sub(a, b);
  const Fe f = fe_add(c, g);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// k*p with a 4-bit fixed window: 256 doublings, up to 64 additions.
inline Point scalarmult(const Point& p, const Bytes32& k) {
  Point table[16];
  table[0] = identity();
  for (int i = 1; i < 16; ++i) table[i] = add(table[i - 1], p);
  Point r = identity();
  for (int nibble = 63; nibble >= 0; --nibble) {
    r = dbl(dbl(dbl(dbl(r))));
    const std::uint8_t byte = k[static_cast<std::size_t>(nibble / 2)];
    const int v = (nibble & 1) ? (byte >> 4) : (byte & 0x0F);
    if (v != 0) r = add(r, table[v]);
  }
  return r;
}

/// Same affine point: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
inline bool equal(const Point& p, const Point& q) {
  using detail::fe_mul;
  return equal(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
         equal(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

inline Bytes32 encode(const Point& p) {
  const Fe zinv = invert(p.z);
  Bytes32 out;
  detail::fe_to_bytes(out.data(), detail::fe_mul(p.y, zinv));
  if (is_negative(detail::fe_mul(p.x, zinv))) out[31] |= 0x80;
  return out;
}

/// RFC 8032 §5.1.3 decoding.
inline std::optional<Point> decode(const Bytes32& s) {
  using detail::fe_add;
  using detail::fe_mul;
  using detail::fe_sub;
  // y >= p iff the low 255 bits lie in [2^255 - 19, 2^255 - 1].
  bool y_ge_p = s[0] >= 0xED && (s[31] & 0x7F) == 0x7F;
  for (int i = 1; i < 31 && y_ge_p; ++i) {
    y_ge_p = s[static_cast<std::size_t>(i)] == 0xFF;
  }
  if (y_ge_p) return std::nullopt;

  const bool sign = (s[31] & 0x80) != 0;
  const Fe y = detail::fe_from_bytes(s.data());
  const Fe y2 = sq(y);
  const Fe u = fe_sub(y2, detail::fe_one());
  const Fe v = fe_add(fe_mul(curve_d(), y2), detail::fe_one());
  const Fe v3 = fe_mul(sq(v), v);
  const Fe v7 = fe_mul(sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow(fe_mul(u, v7), exp_p58()));
  const Fe vx2 = fe_mul(v, sq(x));
  if (!equal(vx2, u)) {
    if (!equal(vx2, detail::fe_neg(u))) return std::nullopt;
    x = fe_mul(x, fe_pow(from_u64(2), exp_p14()));
  }
  if (is_zero(x) && sign) return std::nullopt;
  if (is_negative(x) != sign) x = detail::fe_neg(x);
  return Point{x, y, detail::fe_one(), fe_mul(x, y)};
}

inline const Point& base() {
  static const Point b = [] {
    Bytes32 enc;
    enc.fill(0x66);
    enc[0] = 0x58;
    return *decode(enc);
  }();
  return b;
}

inline bool verify(ByteSpan message, const Signature& sig,
                   const PublicKey& public_key) {
  Bytes32 r_enc, s;
  std::memcpy(r_enc.data(), sig.data(), 32);
  std::memcpy(s.data(), sig.data() + 32, 32);
  if (!is_canonical_scalar(s)) return false;
  const auto a = decode(public_key);
  if (!a) return false;
  const auto r = decode(r_enc);
  if (!r) return false;
  Sha512 h;
  h.update(ByteSpan(r_enc.data(), r_enc.size()));
  h.update(ByteSpan(public_key.data(), public_key.size()));
  h.update(message);
  const Bytes32 k = reduce64(h.finish());
  return equal(scalarmult(base(), s), add(*r, scalarmult(*a, k)));
}

}  // namespace ritm::crypto::oracle
