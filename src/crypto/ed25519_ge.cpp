#include "crypto/ed25519_ge.hpp"

namespace ritm::crypto::detail {

namespace {
using Digits = std::array<int, 256>;

constexpr int kPointWindow = 5;  // P, 3P, ..., 15P: 8 cached entries
constexpr int kBaseWindow = 8;   // B, 3B, ..., 127B: 64 affine entries
constexpr std::size_t kPointTableSize = std::size_t(1) << (kPointWindow - 2);
constexpr std::size_t kBaseTableSize = std::size_t(1) << (kBaseWindow - 2);

// Width-w signed sliding-window digits (wNAF) of s < 2^255: s = sum of
// d[i] * 2^i, every nonzero d[i] odd with |d[i]| < 2^(w-1), and any w
// consecutive positions holding at most one nonzero digit.
Digits wnaf(const Scalar& s, int w) noexcept {
  std::uint64_t words[5] = {};
  for (int i = 0; i < 32; ++i) {
    words[i / 8] |= std::uint64_t(s[static_cast<std::size_t>(i)])
                    << (8 * (i % 8));
  }
  const std::uint64_t width = std::uint64_t(1) << w;
  Digits d{};
  std::uint64_t carry = 0;
  for (int pos = 0; pos < 256;) {
    const int word = pos / 64, bit = pos % 64;
    std::uint64_t bits = words[word] >> bit;
    if (bit + w > 64) bits |= words[word + 1] << (64 - bit);
    const std::uint64_t window = carry + (bits & (width - 1));
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    carry = window < width / 2 ? 0 : 1;
    d[static_cast<std::size_t>(pos)] =
        static_cast<int>(window) - static_cast<int>(carry * width);
    pos += w;
  }
  return d;
}

// Odd multiples p, 3p, 5p, ... filling `out`, in cached form.
template <std::size_t N>
void odd_multiples(const Ge& p, std::array<GeCached, N>& out) noexcept {
  const GeCached two_p =
      ge_to_cached(ge_to_extended(ge_dbl(ge_to_projective(p))));
  Ge acc = p;
  out[0] = ge_to_cached(acc);
  for (std::size_t i = 1; i < N; ++i) {
    acc = ge_to_extended(ge_add(acc, two_p));
    out[i] = ge_to_cached(acc);
  }
}

const std::array<GeAffine, kBaseTableSize>& base_table() noexcept {
  static const std::array<GeAffine, kBaseTableSize> table = [] {
    std::array<GeCached, kBaseTableSize> cached{};
    odd_multiples(ge_base(), cached);
    std::array<GeAffine, kBaseTableSize> affine{};
    for (std::size_t i = 0; i < kBaseTableSize; ++i) {
      // Back from (Y+X, Y-X, Z, 2dT) to affine: one inversion per entry,
      // paid once per process.
      const GeCached& c = cached[i];
      const Fe zinv = fe_invert(c.z);
      affine[i] = GeAffine{fe_mul(c.y_plus_x, zinv), fe_mul(c.y_minus_x, zinv),
                           fe_mul(c.t2d, zinv)};
    }
    return affine;
  }();
  return table;
}

// The Straus loop shared by both scalar multiplications: sum of
// point_digits[i] * 2^i * P (when point_table is set) plus
// base_digits[i] * 2^i * B.
Ge straus(const Digits* point_digits, const GeCached* point_table,
          const Digits& base_digits) noexcept {
  const auto& base = base_table();
  int i = 255;
  while (i >= 0 && base_digits[static_cast<std::size_t>(i)] == 0 &&
         (point_digits == nullptr ||
          (*point_digits)[static_cast<std::size_t>(i)] == 0)) {
    --i;
  }
  if (i < 0) return ge_identity();

  GeProjective r = ge_to_projective(ge_identity());
  GeCompleted t{};
  for (; i >= 0; --i) {
    const auto at = static_cast<std::size_t>(i);
    t = ge_dbl(r);
    if (point_digits != nullptr && (*point_digits)[at] != 0) {
      const int d = (*point_digits)[at];
      const Ge u = ge_to_extended(t);
      t = d > 0 ? ge_add(u, point_table[d / 2])
                : ge_sub(u, point_table[-d / 2]);
    }
    if (const int d = base_digits[at]; d != 0) {
      const Ge u = ge_to_extended(t);
      t = d > 0 ? ge_madd(u, base[static_cast<std::size_t>(d / 2)])
                : ge_msub(u, base[static_cast<std::size_t>(-d / 2)]);
    }
    if (i > 0) r = ge_to_projective(t);
  }
  return ge_to_extended(t);
}
}  // namespace

Ge ge_identity() noexcept {
  return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()};
}

Ge ge_neg(const Ge& p) noexcept {
  return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

Ge ge_to_extended(const GeCompleted& p) noexcept {
  return Ge{fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t),
            fe_mul(p.x, p.y)};
}

GeProjective ge_to_projective(const GeCompleted& p) noexcept {
  return GeProjective{fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t)};
}

GeProjective ge_to_projective(const Ge& p) noexcept {
  return GeProjective{p.x, p.y, p.z};
}

GeCached ge_to_cached(const Ge& p) noexcept {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                  fe_mul(p.t, fe_2d())};
}

GeCompleted ge_dbl(const GeProjective& p) noexcept {
  // A = X^2, B = Y^2, C = 2Z^2, E = (X+Y)^2 - A - B, G = B - A, F = C - G,
  // H = A + B: the result ((E : G), (-H : -F)) is dbl-2008-hwcd's
  // ((E : G), (H : F)) with both y coordinates negated, i.e. the same point.
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe xy2 = fe_sq(fe_add(p.x, p.y));
  const Fe b_plus_a = fe_add(b, a);   // -H
  const Fe b_minus_a = fe_sub(b, a);  // G
  return GeCompleted{fe_sub(xy2, b_plus_a), b_plus_a, b_minus_a,
                     fe_sub(c, b_minus_a)};
}

GeCompleted ge_add(const Ge& p, const GeCached& q) noexcept {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  return GeCompleted{fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

GeCompleted ge_sub(const Ge& p, const GeCached& q) noexcept {
  // -q swaps Y+X with Y-X and negates 2dT.
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_plus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_minus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  return GeCompleted{fe_sub(b, a), fe_add(b, a), fe_sub(d, c), fe_add(d, c)};
}

GeCompleted ge_madd(const Ge& p, const GeAffine& q) noexcept {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  return GeCompleted{fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

GeCompleted ge_msub(const Ge& p, const GeAffine& q) noexcept {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_plus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_minus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  return GeCompleted{fe_sub(b, a), fe_add(b, a), fe_sub(d, c), fe_add(d, c)};
}

Ge ge_scalarmult_base(const Scalar& s) noexcept {
  return straus(nullptr, nullptr, wnaf(s, kBaseWindow));
}

Ge ge_double_scalarmult_vartime(const Scalar& k, const Ge& p,
                                const Scalar& s) noexcept {
  std::array<GeCached, kPointTableSize> table{};
  odd_multiples(p, table);
  const Digits k_digits = wnaf(k, kPointWindow);
  return straus(&k_digits, table.data(), wnaf(s, kBaseWindow));
}

std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  std::array<std::uint8_t, 32> out;
  fe_to_bytes(out.data(), y);
  if (fe_is_negative(x)) out[31] |= 0x80;
  return out;
}

std::optional<Ge> ge_from_bytes(
    const std::array<std::uint8_t, 32>& s) noexcept {
  const bool sign = (s[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(s.data());

  // y < p iff its canonical encoding gives back the input's low 255 bits.
  std::array<std::uint8_t, 32> canonical;
  fe_to_bytes(canonical.data(), y);
  canonical[31] |= s[31] & 0x80;
  if (canonical != s) return std::nullopt;

  // Recover x from x^2 = (y^2 - 1) / (d*y^2 + 1).
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(fe_d(), y2), fe_one());

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, fe_sqrtm1());
    } else {
      return std::nullopt;  // not a point on the curve
    }
  }
  if (fe_is_zero(x) && sign) {
    return std::nullopt;  // -0 is not a valid encoding
  }
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  return Ge{x, y, fe_one(), fe_mul(x, y)};
}

const Ge& ge_base() noexcept {
  static const Ge b = [] {
    std::array<std::uint8_t, 32> enc{};
    enc[0] = 0x58;
    for (int i = 1; i < 32; ++i) enc[static_cast<std::size_t>(i)] = 0x66;
    return *ge_from_bytes(enc);  // the canonical base point always decodes
  }();
  return b;
}

}  // namespace ritm::crypto::detail
