#include "crypto/ed25519_sc.hpp"

namespace ritm::crypto::detail {

namespace {
using u64 = std::uint64_t;
__extension__ using u128 = unsigned __int128;  // NOLINT: GCC/Clang extension, required width

// L as four 64-bit little-endian words.
constexpr u64 kL[4] = {0x5812631A5CF5D3EDULL, 0x14DEF9DEA2F79CD6ULL,
                       0x0000000000000000ULL, 0x1000000000000000ULL};

// True iff the five-word value r is >= L.
constexpr bool ge_l(const u64 r[5]) noexcept {
  if (r[4] != 0) return true;
  for (int i = 3; i >= 0; --i) {
    if (r[i] != kL[i]) return r[i] > kL[i];
  }
  return true;  // equal
}

// r -= L on five words (r >= L).
constexpr void sub_l(u64 r[5]) noexcept {
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u64 li = i < 4 ? kL[i] : 0;
    const u128 d = u128(r[i]) - li - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}

// mu = floor(2^512 / L) < 2^261, by binary long division.
struct Mu {
  u64 w[5];
};

constexpr Mu barrett_mu() noexcept {
  Mu q{};
  // The remainder starts as the dividend's only set bit, 2^512 >> 512, and
  // stays below 2L; bits 511..0 of the dividend are zero.
  u64 r[5] = {1, 0, 0, 0, 0};
  for (int i = 511; i >= 0; --i) {
    for (int j = 4; j > 0; --j) r[j] = (r[j] << 1) | (r[j - 1] >> 63);
    r[0] <<= 1;
    if (ge_l(r)) {
      sub_l(r);
      if (i < 320) q.w[i / 64] |= u64(1) << (i % 64);  // true: mu < 2^261
    }
  }
  return q;
}

constexpr Mu kMu = barrett_mu();

u64 load64(const std::uint8_t* in) noexcept {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | in[i];
  return v;
}

Scalar store(const u64 r[4]) noexcept {
  Scalar out;
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

// x mod L for a 512-bit x (eight little-endian words).
Scalar barrett_reduce(const u64 x[8]) noexcept {
  // q3 = floor(floor(x / 2^192) * mu / 2^320): the quotient estimate, at
  // most 2 below floor(x / L).
  u64 q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 t = u128(x[3 + i]) * kMu.w[j] + q2[i + j] + carry;
      q2[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    q2[i + 5] = carry;
  }
  const u64* q3 = q2 + 5;

  // r = (x - q3 * L) mod 2^320, computed from the low five words only; the
  // true difference is in [0, 3L), so the wrap-around is exact.
  u64 ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4 && i + j < 5; ++j) {
      const u128 t = u128(q3[i]) * kL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    if (i == 0) ql[4] = carry;
  }
  u64 r[5] = {};
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = u128(x[i]) - ql[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  while (ge_l(r)) sub_l(r);
  return store(r);
}
}  // namespace

Scalar sc_reduce64(const std::array<std::uint8_t, 64>& in) noexcept {
  u64 x[8] = {};
  for (int i = 0; i < 8; ++i) x[i] = load64(in.data() + 8 * i);
  return barrett_reduce(x);
}

Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) noexcept {
  u64 aw[4] = {}, bw[4] = {};
  for (int i = 0; i < 4; ++i) {
    aw[i] = load64(a.data() + 8 * i);
    bw[i] = load64(b.data() + 8 * i);
  }
  // a*b + c < 2^512 for any 256-bit a, b, c.
  u64 x[8] = {};
  for (int i = 0; i < 4; ++i) x[i] = load64(c.data() + 8 * i);
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = u128(aw[i]) * bw[j] + x[i + j] + carry;
      x[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    for (int k = i + 4; carry != 0 && k < 8; ++k) {
      const u128 t = u128(x[k]) + carry;
      x[k] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
  }
  return barrett_reduce(x);
}

bool sc_is_canonical(const Scalar& s) noexcept {
  u64 r[5] = {};
  for (int i = 0; i < 4; ++i) r[i] = load64(s.data() + 8 * i);
  return !ge_l(r);
}

}  // namespace ritm::crypto::detail
