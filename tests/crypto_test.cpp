// Crypto substrate tests: FIPS 180-4 vectors for SHA-256/512, RFC 8032
// vectors for Ed25519, the field/group/scalar layers against the reference
// implementation in ed25519_oracle.hpp (generic exponentiation ladder,
// fixed-window scalar multiplication, long division mod L), a differential
// test of verify() against the oracle's equation check, structural
// properties of hash chains, and randomized robustness checks (bit-flip
// rejection).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_fe.hpp"
#include "crypto/ed25519_ge.hpp"
#include "crypto/ed25519_sc.hpp"
#include "crypto/cpu_features.hpp"
#include "crypto/hash_chain.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_engine.hpp"
#include "crypto/sha512.hpp"
#include "ed25519_oracle.hpp"

namespace ritm::crypto {
namespace {

using ritm::Bytes;
using ritm::ByteSpan;
using ritm::from_hex;
using ritm::to_hex;

ByteSpan span_of(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

template <std::size_t N>
std::string hex_of(const std::array<std::uint8_t, N>& a) {
  return to_hex(ByteSpan(a.data(), a.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const Bytes msg = ritm::bytes_of("abc");
  EXPECT_EQ(hex_of(Sha256::hash(span_of(msg))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const Bytes msg =
      ritm::bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_of(Sha256::hash(span_of(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes msg = rng.bytes(rng.uniform(500));
    Sha256 inc;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.uniform(97), msg.size() - off);
      inc.update(ByteSpan(msg.data() + off, take));
      off += take;
    }
    EXPECT_EQ(inc.finish(), Sha256::hash(span_of(msg)));
  }
}

TEST(Sha256, EmptyUpdateWithPartialBlockIsNoOp) {
  // A default ByteSpan carries a null pointer; with bytes already buffered,
  // update() must not hand it to memcpy (undefined even for zero bytes).
  const Bytes msg = Rng(8).bytes(20);
  Sha256 streamed;
  streamed.update(ByteSpan(msg.data(), 10));
  streamed.update(ByteSpan{});
  streamed.update(ByteSpan(msg.data() + 10, 10));
  Sha256 whole;
  whole.update(span_of(msg));
  EXPECT_EQ(streamed.finish(), whole.finish());
}

TEST(Sha256, Hash20IsTruncation) {
  const Bytes msg = ritm::bytes_of("ritm");
  const auto full = Sha256::hash(span_of(msg));
  const auto trunc = hash20(span_of(msg));
  EXPECT_TRUE(std::equal(trunc.begin(), trunc.end(), full.begin()));
}

TEST(Sha256, ShortFastPathMatchesIncrementalEveryLength) {
  // The one-shot single/double-block path must agree with the streaming
  // implementation at every length it claims, both sides of every padding
  // boundary (55/56, 64, 119), and just past its limit.
  Rng rng(42);
  for (std::size_t len = 0; len <= kSha256ShortMax + 16; ++len) {
    const Bytes msg = rng.bytes(len);
    Sha256 streaming;
    // Feed in uneven chunks so the buffer machinery is exercised.
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = std::min<std::size_t>(1 + off % 7, len - off);
      streaming.update(ByteSpan(msg.data() + off, take));
      off += take;
    }
    const auto reference = streaming.finish();
    EXPECT_EQ(hex_of(Sha256::hash(span_of(msg))), hex_of(reference))
        << "length " << len;
    if (len <= kSha256ShortMax) {
      EXPECT_EQ(hex_of(sha256_short(span_of(msg))), hex_of(reference))
          << "length " << len;
    }
  }
}

TEST(Sha256, Rehash20IsOneChainLink) {
  Digest20 d{};
  d.fill(0x5A);
  EXPECT_EQ(rehash20(d), hash20(ByteSpan(d.data(), d.size())));
}

TEST(Sha256, BatchMatchesScalar) {
  Rng rng(7);
  std::vector<Bytes> msgs;
  std::vector<ByteSpan> spans;
  for (std::size_t i = 0; i < 67; ++i) {
    msgs.push_back(rng.bytes(i % 40));
    spans.push_back(span_of(msgs.back()));
  }
  std::vector<Digest20> out(spans.size());
  hash20_batch(std::span<const ByteSpan>(spans.data(), spans.size()),
               out.data());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(out[i], hash20(spans[i])) << "lane " << i;
  }
}

// ------------------------------------------------- SHA-256 engine dispatch

/// Restores auto-detection when a test that forces backends exits (even via
/// an assertion failure), so later tests never run under a leaked selection.
struct BackendGuard {
  ~BackendGuard() { sha256_reset_backend(); }
};

TEST(Sha256Engine, ScalarIsAlwaysAvailableAndListedFirst) {
  const auto backends = sha256_available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), Sha256Backend::scalar);
  // The active engine must be one of the available ones.
  const auto active = sha256_engine().kind;
  EXPECT_TRUE(std::find(backends.begin(), backends.end(), active) !=
              backends.end());
}

TEST(Sha256Engine, AvailabilityMatchesCpuFeatures) {
  const auto backends = sha256_available_backends();
  const auto listed = [&](Sha256Backend b) {
    return std::find(backends.begin(), backends.end(), b) != backends.end();
  };
#if RITM_SHA256_X86_SIMD
  EXPECT_EQ(listed(Sha256Backend::avx2),
            cpu_features().avx2 && cpu_features().ssse3);
  EXPECT_EQ(listed(Sha256Backend::shani),
            cpu_features().sha_ni && cpu_features().sse41);
#else
  // RITM_FORCE_SCALAR (or a non-x86 host): the portable path must be the
  // whole menu, and selecting a SIMD backend must fail without side effects.
  EXPECT_EQ(backends.size(), 1u);
  EXPECT_FALSE(listed(Sha256Backend::avx2));
  EXPECT_FALSE(listed(Sha256Backend::shani));
  const auto before = sha256_engine().kind;
  EXPECT_FALSE(sha256_select_backend(Sha256Backend::avx2));
  EXPECT_FALSE(sha256_select_backend(Sha256Backend::shani));
  EXPECT_EQ(sha256_engine().kind, before);
#endif
}

TEST(Sha256Engine, SelectActivatesEachAvailableBackend) {
  BackendGuard guard;
  for (const auto b : sha256_available_backends()) {
    ASSERT_TRUE(sha256_select_backend(b)) << sha256_backend_name(b);
    EXPECT_EQ(sha256_engine().kind, b);
    EXPECT_STREQ(sha256_engine().name, sha256_backend_name(b));
  }
}

TEST(Sha256Engine, FipsVectorsHoldUnderEveryBackend) {
  // The one-shot fast paths route through the selected engine's compression
  // function (scalar rounds or sha256rnds2), so the NIST vectors must hold
  // under each backend, not just the default.
  BackendGuard guard;
  const Bytes abc = ritm::bytes_of("abc");
  const Bytes two_block =
      ritm::bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  for (const auto b : sha256_available_backends()) {
    ASSERT_TRUE(sha256_select_backend(b));
    EXPECT_EQ(hex_of(Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << sha256_backend_name(b);
    EXPECT_EQ(hex_of(Sha256::hash(span_of(abc))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << sha256_backend_name(b);
    EXPECT_EQ(hex_of(Sha256::hash(span_of(two_block))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << sha256_backend_name(b);
  }
}

TEST(Sha256Engine, CrossBackendRandomizedBatches) {
  // The dispatch-layer contract: every backend hashes every batch to the
  // exact bytes the scalar path produces. Batch sizes sweep 0-200 (the empty
  // and single-input edge cases explicitly) and lengths straddle each
  // grouping boundary the SIMD backends bucket by: 0, <=55 (one padded
  // block), 56..119 (two blocks), and >119 (streaming fallback).
  BackendGuard guard;
  Rng rng(20260727);
  std::vector<std::size_t> batch_sizes = {0, 1, 2, 7, 8, 9, 64, 200};
  for (int i = 0; i < 6; ++i) batch_sizes.push_back(rng.uniform(201));

  for (const std::size_t n : batch_sizes) {
    std::vector<Bytes> msgs;
    std::vector<ByteSpan> spans;
    msgs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Cycle the boundary lengths through the batch, with random filler.
      static constexpr std::size_t kEdges[] = {0,  1,  20, 41, 55,
                                               56, 64, 119, 120, 300};
      const std::size_t len = (i % 3 == 0)
                                  ? kEdges[i / 3 % std::size(kEdges)]
                                  : rng.uniform(160);
      msgs.push_back(rng.bytes(len));
    }
    for (const auto& m : msgs) spans.push_back(span_of(m));
    const auto batch = std::span<const ByteSpan>(spans.data(), spans.size());

    ASSERT_TRUE(sha256_select_backend(Sha256Backend::scalar));
    std::vector<Digest20> expect(n);
    hash20_batch(batch, expect.data());

    for (const auto b : sha256_available_backends()) {
      if (b == Sha256Backend::scalar) continue;
      ASSERT_TRUE(sha256_select_backend(b));
      std::vector<Digest20> got(n);
      hash20_batch(batch, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_of(got[i]), hex_of(expect[i]))
            << sha256_backend_name(b) << " lane " << i << " of " << n
            << " (len " << msgs[i].size() << ")";
      }
    }
  }
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex_of(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  const Bytes msg = ritm::bytes_of("abc");
  EXPECT_EQ(hex_of(Sha512::hash(span_of(msg))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  const Bytes msg = ritm::bytes_of(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  EXPECT_EQ(hex_of(Sha512::hash(span_of(msg))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionAs) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// ------------------------------------------------------------ field/group

namespace oracle = ritm::crypto::oracle;
using oracle::non_canonical_encodings;
using oracle::small_order_encodings;
using detail::Fe;
using detail::Ge;
using Bytes32 = std::array<std::uint8_t, 32>;

Bytes32 bytes32(const Bytes& b) {
  Bytes32 out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

Fe random_fe(Rng& rng) {
  Bytes raw = rng.bytes(32);
  raw[31] &= 0x7F;
  return detail::fe_from_bytes(raw.data());
}

// The same value with every limb carried below 2^51 + 2^13.
Fe tight(const Fe& a) { return detail::fe_sub(a, detail::fe_zero()); }

TEST(Fe25519, RoundTripBytes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    Bytes raw = rng.bytes(32);
    raw[31] &= 0x7F;  // stay below 2^255
    Fe fe = detail::fe_from_bytes(raw.data());
    std::uint8_t out[32];
    detail::fe_to_bytes(out, fe);
    // Round-trips exactly unless the value was >= p (probability ~2^-250).
    EXPECT_EQ(to_hex(ByteSpan(out, 32)), to_hex(span_of(raw)));
  }
}

TEST(Fe25519, MulCommutesAndDistributes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_TRUE(detail::fe_equal(detail::fe_mul(a, b), detail::fe_mul(b, a)));
    EXPECT_TRUE(detail::fe_equal(
        detail::fe_mul(a, detail::fe_add(b, c)),
        detail::fe_add(detail::fe_mul(a, b), detail::fe_mul(a, c))));
  }
}

TEST(Fe25519, SquareMatchesMul) {
  Rng rng(14);
  for (int i = 0; i < 200; ++i) {
    const Fe a = random_fe(rng);
    EXPECT_TRUE(detail::fe_equal(detail::fe_sq(a), detail::fe_mul(a, a)));
  }
}

TEST(Fe25519, LooseLimbsMultiplyLikeTheirCarriedValue) {
  // fe_mul and fe_sq accept limbs up to 2^54 (two carry-free sums deep);
  // they must give the product of the value, not of a wrapped one.
  Rng rng(15);
  const std::uint64_t top = (std::uint64_t(1) << 54) - 1;
  std::vector<Fe> loose = {Fe{{top, top, top, top, top}}};
  for (int i = 0; i < 100; ++i) {
    const Fe s1 = detail::fe_add(random_fe(rng), random_fe(rng));
    const Fe s2 = detail::fe_add(random_fe(rng), random_fe(rng));
    loose.push_back(detail::fe_add(s1, s2));
  }
  for (std::size_t i = 0; i < loose.size(); ++i) {
    const Fe& a = loose[i];
    const Fe& b = loose[(i + 1) % loose.size()];
    EXPECT_TRUE(detail::fe_equal(detail::fe_mul(a, b),
                                 detail::fe_mul(tight(a), tight(b))));
    EXPECT_TRUE(detail::fe_equal(detail::fe_sq(a), detail::fe_sq(tight(a))));
  }
}

TEST(Fe25519, SubAcceptsASumAsSubtrahend) {
  // fe_sub(a, b) adds 4p, so b may be the carry-free sum of two tight
  // elements; (a - b) + b must give a back.
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = detail::fe_add(detail::fe_mul(random_fe(rng), random_fe(rng)),
                                detail::fe_mul(random_fe(rng), random_fe(rng)));
    EXPECT_TRUE(
        detail::fe_equal(detail::fe_add(detail::fe_sub(a, b), tight(b)), a));
  }
}

TEST(Fe25519, InvertIsInverse) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const Fe a = random_fe(rng);
    if (detail::fe_is_zero(a)) continue;
    const auto inv = detail::fe_invert(a);
    EXPECT_TRUE(detail::fe_equal(detail::fe_mul(a, inv), detail::fe_one()));
  }
}

TEST(Fe25519, AdditionChainsMatchGenericLadder) {
  // fe_invert (p - 2) and fe_pow22523 ((p - 5) / 8) against plain
  // square-and-multiply on the same exponents.
  Rng rng(18);
  std::vector<Fe> inputs = {detail::fe_zero(), detail::fe_one(),
                            detail::fe_neg(detail::fe_one())};
  for (int i = 0; i < 30; ++i) inputs.push_back(random_fe(rng));
  for (const Fe& a : inputs) {
    EXPECT_TRUE(detail::fe_equal(detail::fe_invert(a),
                                 oracle::fe_pow(a, oracle::p_minus(2))));
    EXPECT_TRUE(detail::fe_equal(detail::fe_pow22523(a),
                                 oracle::fe_pow(a, oracle::exp_p58())));
  }
}

TEST(Fe25519, CurveConstantsMatchTheirDefinitions) {
  const auto& i = detail::fe_sqrtm1();
  EXPECT_TRUE(
      detail::fe_equal(detail::fe_sq(i), detail::fe_neg(detail::fe_one())));
  EXPECT_TRUE(detail::fe_equal(
      i, oracle::fe_pow(oracle::from_u64(2), oracle::exp_p14())));
  EXPECT_TRUE(detail::fe_equal(detail::fe_d(), oracle::curve_d()));
  EXPECT_TRUE(detail::fe_equal(
      detail::fe_2d(), detail::fe_add(oracle::curve_d(), oracle::curve_d())));
}

// The group law through the formulas the scalar multiplication uses.
Ge add(const Ge& p, const Ge& q) {
  return detail::ge_to_extended(detail::ge_add(p, detail::ge_to_cached(q)));
}
Ge sub(const Ge& p, const Ge& q) {
  return detail::ge_to_extended(detail::ge_sub(p, detail::ge_to_cached(q)));
}
Ge dbl(const Ge& p) {
  return detail::ge_to_extended(detail::ge_dbl(detail::ge_to_projective(p)));
}
detail::GeAffine to_affine(const Ge& p) {
  const Fe zinv = detail::fe_invert(p.z);
  const Fe x = detail::fe_mul(p.x, zinv), y = detail::fe_mul(p.y, zinv);
  const Fe xy2d = detail::fe_mul(detail::fe_mul(x, y), detail::fe_2d());
  return detail::GeAffine{detail::fe_add(y, x), detail::fe_sub(y, x), xy2d};
}
bool same(const Ge& p, const Ge& q) {
  return detail::ge_to_bytes(p) == detail::ge_to_bytes(q);
}
Bytes32 scalar_of(std::uint64_t n) {
  Bytes32 s{};
  for (std::size_t i = 0; i < 8; ++i) s[i] = std::uint8_t(n >> (8 * i));
  return s;
}
Bytes32 random_scalar(Rng& rng) {
  Bytes32 s = bytes32(rng.bytes(32));
  s[31] &= 0x7F;  // the scalar multiplications take s < 2^255
  return s;
}
Ge random_point(Rng& rng) {
  return detail::ge_scalarmult_base(random_scalar(rng));
}

TEST(Ge25519, BasePointOnCurve) {
  // -x^2 + y^2 = 1 + d x^2 y^2 for the affine base point.
  const auto& b = detail::ge_base();
  const auto zinv = detail::fe_invert(b.z);
  const auto x = detail::fe_mul(b.x, zinv);
  const auto y = detail::fe_mul(b.y, zinv);
  const auto x2 = detail::fe_sq(x), y2 = detail::fe_sq(y);
  const auto lhs = detail::fe_sub(y2, x2);
  const auto rhs = detail::fe_add(
      detail::fe_one(), detail::fe_mul(detail::fe_d(), detail::fe_mul(x2, y2)));
  EXPECT_TRUE(detail::fe_equal(lhs, rhs));
}

TEST(Ge25519, AddMatchesDouble) {
  Rng rng(19);
  std::vector<Ge> points = {detail::ge_base(), detail::ge_identity()};
  for (int i = 0; i < 10; ++i) points.push_back(random_point(rng));
  for (const Ge& p : points) EXPECT_TRUE(same(add(p, p), dbl(p)));
}

TEST(Ge25519, IdentityIsNeutral) {
  Rng rng(20);
  const Ge id = detail::ge_identity();
  for (const Ge& p : {detail::ge_base(), random_point(rng)}) {
    EXPECT_TRUE(same(add(p, id), p));
    EXPECT_TRUE(same(add(id, p), p));
    EXPECT_TRUE(same(sub(p, id), p));
  }
  EXPECT_TRUE(same(dbl(id), id));
}

TEST(Ge25519, NegCancels) {
  Rng rng(21);
  for (const Ge& p : {detail::ge_base(), random_point(rng)}) {
    EXPECT_TRUE(same(add(p, detail::ge_neg(p)), detail::ge_identity()));
    EXPECT_TRUE(same(sub(p, p), detail::ge_identity()));
    EXPECT_TRUE(same(sub(detail::ge_identity(), p), detail::ge_neg(p)));
  }
}

TEST(Ge25519, AffineAddendMatchesCached) {
  Rng rng(22);
  for (int i = 0; i < 10; ++i) {
    const Ge p = random_point(rng), q = random_point(rng);
    EXPECT_TRUE(same(detail::ge_to_extended(detail::ge_madd(p, to_affine(q))),
                     add(p, q)));
    EXPECT_TRUE(same(detail::ge_to_extended(detail::ge_msub(p, to_affine(q))),
                     sub(p, q)));
  }
}

TEST(Ge25519, ScalarMultMatchesRepeatedAdds) {
  Rng rng(23);
  const Ge& b = detail::ge_base();
  const Ge p = random_point(rng);
  Ge nb = detail::ge_identity(), np = detail::ge_identity();
  for (std::uint64_t n = 0; n <= 300; ++n) {
    // n*B through the base table, n*P through the per-call table, and the
    // interleaved n*P + n*B.
    EXPECT_TRUE(same(detail::ge_scalarmult_base(scalar_of(n)), nb)) << n;
    EXPECT_TRUE(same(detail::ge_double_scalarmult_vartime(scalar_of(n), p,
                                                          scalar_of(0)),
                     np))
        << n;
    EXPECT_TRUE(same(detail::ge_double_scalarmult_vartime(scalar_of(n), p,
                                                          scalar_of(n)),
                     add(np, nb)))
        << n;
    nb = add(nb, b);
    np = add(np, p);
  }
}

TEST(Ge25519, ScalarMultMatchesFixedWindowOracle) {
  Rng rng(24);
  std::vector<Bytes32> scalars = {scalar_of(0), scalar_of(1),
                                  oracle::group_order()};
  scalars.back()[0] -= 1;  // L - 1
  Bytes32 max{};
  max.fill(0xFF);
  max[31] = 0x7F;  // 2^255 - 1, the largest input the wNAF recoding takes
  scalars.push_back(max);
  for (int i = 0; i < 40; ++i) scalars.push_back(random_scalar(rng));
  for (const auto& s : scalars) {
    const auto expect = oracle::encode(oracle::scalarmult(oracle::base(), s));
    EXPECT_EQ(detail::ge_to_bytes(detail::ge_scalarmult_base(s)), expect);
    const Bytes32 k = random_scalar(rng);
    const Ge p = random_point(rng);
    const auto op = *oracle::decode(detail::ge_to_bytes(p));
    const Ge got = detail::ge_double_scalarmult_vartime(k, p, s);
    const auto want = oracle::add(oracle::scalarmult(op, k),
                                  oracle::scalarmult(oracle::base(), s));
    EXPECT_EQ(detail::ge_to_bytes(got), oracle::encode(want));
  }
}

TEST(Ge25519, CompressDecompressRoundTrip) {
  Rng rng(25);
  std::vector<Ge> points = {detail::ge_identity()};
  Ge p = detail::ge_base();
  for (int i = 0; i < 20; ++i) {
    p = dbl(p);
    points.push_back(p);
    points.push_back(random_point(rng));
  }
  for (const Ge& q : points) {
    const auto enc = detail::ge_to_bytes(q);
    const auto back = detail::ge_from_bytes(enc);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(detail::ge_to_bytes(*back), enc);
    // Same affine point, checked projectively.
    EXPECT_TRUE(oracle::equal(oracle::Point{back->x, back->y, back->z, back->t},
                              oracle::Point{q.x, q.y, q.z, q.t}));
  }
}

TEST(Ge25519, SmallOrderPointsDecodeAndVanishTimesEight) {
  for (const auto& enc : small_order_encodings()) {
    const auto p = detail::ge_from_bytes(enc);
    ASSERT_TRUE(p.has_value()) << hex_of(enc);
    EXPECT_EQ(detail::ge_to_bytes(*p), enc);
    EXPECT_TRUE(same(dbl(dbl(dbl(*p))), detail::ge_identity())) << hex_of(enc);
  }
}

TEST(Ge25519, NonCanonicalYIsRejected) {
  // RFC 8032 §5.1.3 step 1: decoding fails if y >= p. 23 of the 38 would
  // otherwise alias a valid point (their reduced value y - p decodes).
  int aliases = 0;
  for (const auto& enc : non_canonical_encodings()) {
    EXPECT_FALSE(detail::ge_from_bytes(enc).has_value()) << hex_of(enc);
    EXPECT_FALSE(oracle::decode(enc).has_value()) << hex_of(enc);
    Bytes32 reduced{};
    reduced[0] = static_cast<std::uint8_t>(enc[0] - 0xED);
    reduced[31] = enc[31] & 0x80;
    if (detail::ge_from_bytes(reduced).has_value()) ++aliases;
  }
  EXPECT_EQ(aliases, 23);
}

// ------------------------------------------------------------- scalars

Bytes32 low32(const std::array<std::uint8_t, 64>& x) {
  Bytes32 out;
  std::copy(x.begin(), x.begin() + 32, out.begin());
  return out;
}

std::array<std::uint8_t, 64> wide(const Bytes32& x) {
  std::array<std::uint8_t, 64> out{};
  std::copy(x.begin(), x.end(), out.begin());
  return out;
}

TEST(Sc25519, ReduceSmallIdentity) {
  std::array<std::uint8_t, 64> s{};
  s[0] = 42;
  EXPECT_EQ(detail::sc_reduce64(s), low32(s));
}

TEST(Sc25519, LReducesToZero) {
  const auto r = detail::sc_reduce64(wide(oracle::group_order()));
  for (auto b : r) EXPECT_EQ(b, 0);
}

TEST(Sc25519, BarrettMatchesLongDivision) {
  // Edge cases: 0, L - 1, L, 2L, 2^512 - 1, and values just around
  // multiples of L and powers of two.
  const Bytes32& l = oracle::group_order();
  std::vector<std::array<std::uint8_t, 64>> inputs;
  inputs.push_back({});                      // 0
  inputs.push_back(wide(l));                 // L
  inputs.back()[0] -= 1;                     // L - 1
  inputs.push_back(wide(l));                 // L
  {
    std::array<std::uint8_t, 64> two_l{};  // 2L = L << 1
    unsigned carry = 0;
    for (std::size_t i = 0; i < 32; ++i) {
      const unsigned v = unsigned(l[i]) * 2 + carry;
      two_l[i] = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    two_l[32] = static_cast<std::uint8_t>(carry);
    inputs.push_back(two_l);
  }
  std::array<std::uint8_t, 64> all_ones;
  all_ones.fill(0xFF);
  inputs.push_back(all_ones);  // 2^512 - 1
  for (int bit = 0; bit < 512; bit += 13) {
    std::array<std::uint8_t, 64> pow2{};
    pow2[static_cast<std::size_t>(bit / 8)] = std::uint8_t(1u << (bit % 8));
    inputs.push_back(pow2);
  }
  Rng rng(27);
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint8_t, 64> x;
    const Bytes r = rng.bytes(64);
    std::copy(r.begin(), r.end(), x.begin());
    // Vary the magnitude so short inputs (and their top words) are covered.
    const std::size_t len = 1 + rng.uniform(64);
    std::fill(x.begin() + static_cast<std::ptrdiff_t>(len), x.end(), 0);
    inputs.push_back(x);
  }
  for (const auto& x : inputs) {
    EXPECT_EQ(hex_of(detail::sc_reduce64(x)), hex_of(oracle::reduce64(x)))
        << hex_of(x);
  }
}

TEST(Sc25519, MulAddMatchesManualSmall) {
  const auto r = detail::sc_muladd(scalar_of(7), scalar_of(9), scalar_of(5));
  EXPECT_EQ(r, scalar_of(68));
}

TEST(Sc25519, MulAddMatchesLongDivision) {
  Rng rng(29);
  Bytes32 ones;
  ones.fill(0xFF);
  std::vector<Bytes32> values = {scalar_of(0), scalar_of(1), ones,
                                 oracle::group_order()};
  for (int i = 0; i < 200; ++i) values.push_back(bytes32(rng.bytes(32)));
  for (std::size_t i = 0; i + 2 < values.size(); ++i) {
    const Bytes32 &a = values[i], &b = values[i + 1], &c = values[i + 2];
    EXPECT_EQ(detail::sc_muladd(a, b, c), oracle::muladd(a, b, c));
  }
  EXPECT_EQ(detail::sc_muladd(ones, ones, ones),
            oracle::muladd(ones, ones, ones));
}

TEST(Sc25519, CanonicalBoundary) {
  const Bytes32& l = oracle::group_order();
  EXPECT_FALSE(detail::sc_is_canonical(l));
  Bytes32 l_minus_1 = l;
  l_minus_1[0] -= 1;
  EXPECT_TRUE(detail::sc_is_canonical(l_minus_1));
  EXPECT_TRUE(detail::sc_is_canonical(scalar_of(0)));
}

// ------------------------------------------------------------- Ed25519

struct Rfc8032Vector {
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

// Test vectors from RFC 8032 §7.1 (TEST 1, TEST 2, TEST 3).
const Rfc8032Vector kVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Rfc8032Test : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Rfc8032Test, PublicKeyDerivation) {
  const auto& v = GetParam();
  Seed seed{};
  const Bytes sb = from_hex(v.seed);
  std::copy(sb.begin(), sb.end(), seed.begin());
  EXPECT_EQ(hex_of(derive_public_key(seed)), v.public_key);
}

TEST_P(Rfc8032Test, Sign) {
  const auto& v = GetParam();
  Seed seed{};
  const Bytes sb = from_hex(v.seed);
  std::copy(sb.begin(), sb.end(), seed.begin());
  const Bytes msg = from_hex(v.message);
  EXPECT_EQ(hex_of(sign(span_of(msg), seed)), v.signature);
}

TEST_P(Rfc8032Test, Verify) {
  const auto& v = GetParam();
  PublicKey pub{};
  const Bytes pb = from_hex(v.public_key);
  std::copy(pb.begin(), pb.end(), pub.begin());
  Signature sig{};
  const Bytes gb = from_hex(v.signature);
  std::copy(gb.begin(), gb.end(), sig.begin());
  const Bytes msg = from_hex(v.message);
  EXPECT_TRUE(verify(span_of(msg), sig, pub));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Rfc8032Test, ::testing::ValuesIn(kVectors));

TEST(Ed25519, SignVerifyRoundTrip) {
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    Seed seed{};
    const Bytes sb = rng.bytes(32);
    std::copy(sb.begin(), sb.end(), seed.begin());
    const auto kp = keypair_from_seed(seed);
    const Bytes msg = rng.bytes(1 + rng.uniform(200));
    const auto sig = sign(span_of(msg), kp.seed);
    EXPECT_TRUE(verify(span_of(msg), sig, kp.public_key));
  }
}

TEST(Ed25519, BitFlipsAreRejected) {
  Rng rng(37);
  Seed seed{};
  const Bytes sb = rng.bytes(32);
  std::copy(sb.begin(), sb.end(), seed.begin());
  const auto kp = keypair_from_seed(seed);
  const Bytes msg = rng.bytes(64);
  const auto sig = sign(span_of(msg), kp.seed);

  for (int trial = 0; trial < 40; ++trial) {
    // Flip one random bit in the signature.
    Signature bad = sig;
    const std::size_t bit = rng.uniform(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(verify(span_of(msg), bad, kp.public_key));
  }
  for (int trial = 0; trial < 20; ++trial) {
    // Flip one random bit in the message.
    Bytes bad = msg;
    const std::size_t bit = rng.uniform(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(verify(span_of(bad), sig, kp.public_key));
  }
}

TEST(Ed25519, WrongKeyRejected) {
  Rng rng(41);
  Seed s1{}, s2{};
  auto b1 = rng.bytes(32), b2 = rng.bytes(32);
  std::copy(b1.begin(), b1.end(), s1.begin());
  std::copy(b2.begin(), b2.end(), s2.begin());
  const auto kp1 = keypair_from_seed(s1);
  const auto kp2 = keypair_from_seed(s2);
  const Bytes msg = ritm::bytes_of("signed root");
  const auto sig = sign(span_of(msg), kp1.seed);
  EXPECT_TRUE(verify(span_of(msg), sig, kp1.public_key));
  EXPECT_FALSE(verify(span_of(msg), sig, kp2.public_key));
}

TEST(Ed25519, NonCanonicalSRejected) {
  // Construct a signature whose S >= L; verify must fail before any group op.
  Signature sig{};
  sig.fill(0xFF);
  PublicKey pub{};
  pub.fill(0);
  pub[0] = 1;
  const Bytes msg = ritm::bytes_of("x");
  EXPECT_FALSE(verify(span_of(msg), sig, pub));
}

Bytes32 random_reduced_scalar(Rng& rng) {
  std::array<std::uint8_t, 64> x;
  const Bytes r = rng.bytes(64);
  std::copy(r.begin(), r.end(), x.begin());
  return detail::sc_reduce64(x);
}

Signature make_sig(const Bytes32& r, const Bytes32& s) {
  Signature sig;
  std::copy(r.begin(), r.end(), sig.begin());
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

Bytes32 s_half(const Signature& sig) {
  Bytes32 s;
  std::copy(sig.begin() + 32, sig.end(), s.begin());
  return s;
}

KeyPair random_keypair(Rng& rng) {
  return keypair_from_seed(bytes32(rng.bytes(32)));
}

TEST(Ed25519, NonCanonicalKeyAndRRejected) {
  // With A the identity, s*B == R + k*A holds for R = r*B, S = r on every
  // message. The canonical identity key 0100..00 is a (weak) valid RFC 8032
  // key, so both implementations accept it; its alias eeff..ff7f
  // (y = p + 1) and the other 37 encodings with y >= p must not decode,
  // whether they arrive as the key or as R.
  Rng rng(43);
  const Bytes msg = ritm::bytes_of("any message at all");
  const Bytes32 r = random_reduced_scalar(rng);
  const Signature forged =
      make_sig(detail::ge_to_bytes(detail::ge_scalarmult_base(r)), r);
  const PublicKey identity = small_order_encodings()[0];
  EXPECT_TRUE(verify(span_of(msg), forged, identity));
  EXPECT_TRUE(oracle::verify(span_of(msg), forged, identity));

  const auto kp = random_keypair(rng);
  const Signature valid = sign(span_of(msg), kp.seed, kp.public_key);
  for (const auto& enc : non_canonical_encodings()) {
    for (const Signature& sig : {forged, valid}) {
      EXPECT_FALSE(verify(span_of(msg), sig, enc)) << hex_of(enc);
      EXPECT_FALSE(oracle::verify(span_of(msg), sig, enc)) << hex_of(enc);
    }
    for (const auto& [sig, key] :
         {std::pair{make_sig(enc, s_half(valid)), kp.public_key},
          std::pair{make_sig(enc, r), identity},
          std::pair{make_sig(enc, scalar_of(0)), identity}}) {
      EXPECT_FALSE(verify(span_of(msg), sig, key)) << hex_of(enc);
      EXPECT_FALSE(oracle::verify(span_of(msg), sig, key)) << hex_of(enc);
    }
  }
}

// verify() against the oracle, case by case.
struct Differential {
  int cases = 0;
  int accepted = 0;

  void check(const Bytes& msg, const Signature& sig, const PublicKey& key) {
    const bool want = oracle::verify(span_of(msg), sig, key);
    EXPECT_EQ(verify(span_of(msg), sig, key), want)
        << "key " << hex_of(key) << " sig " << hex_of(sig) << " msg "
        << to_hex(span_of(msg));
    ++cases;
    accepted += want ? 1 : 0;
  }
};

template <typename Buf>
Buf flip_bit(Buf b, Rng& rng) {
  const std::size_t bit = rng.uniform(b.size() * 8);
  b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return b;
}

TEST(Ed25519Differential, MatchesOracleOnSeededCases) {
  Rng rng(20261017);
  Differential diff;
  std::vector<KeyPair> keys;
  for (int i = 0; i < 8; ++i) keys.push_back(random_keypair(rng));
  const auto random_msg = [&] { return rng.bytes(rng.uniform(160)); };

  // Valid signatures, and single bit flips in message, signature and key.
  for (int i = 0; i < 120; ++i) {
    const auto& kp = keys[static_cast<std::size_t>(i) % keys.size()];
    const Bytes msg = random_msg();
    const Signature sig = sign(span_of(msg), kp.seed, kp.public_key);
    diff.check(msg, sig, kp.public_key);
    if (!msg.empty()) diff.check(flip_bit(msg, rng), sig, kp.public_key);
    diff.check(msg, flip_bit(sig, rng), kp.public_key);
    diff.check(msg, flip_bit(sig, rng), kp.public_key);
    diff.check(msg, sig, flip_bit(kp.public_key, rng));
  }

  // Random 64-byte signatures: raw (S is mostly >= L), and with S below
  // 2^252 so the whole equation runs.
  for (int i = 0; i < 100; ++i) {
    const auto& kp = keys[static_cast<std::size_t>(i) % keys.size()];
    Signature sig;
    const Bytes raw = rng.bytes(64);
    std::copy(raw.begin(), raw.end(), sig.begin());
    diff.check(random_msg(), sig, kp.public_key);
    sig[63] &= 0x0F;
    diff.check(random_msg(), sig, kp.public_key);
  }

  // S in {0, L - 1, L, 2^256 - 1} behind a valid R, and the malleated
  // S + L of a valid signature (same point, non-canonical scalar).
  Bytes32 l_minus_1 = oracle::group_order(), ones;
  l_minus_1[0] -= 1;
  ones.fill(0xFF);
  for (int i = 0; i < 10; ++i) {
    const auto& kp = keys[static_cast<std::size_t>(i) % keys.size()];
    const Bytes msg = random_msg();
    const Signature sig = sign(span_of(msg), kp.seed, kp.public_key);
    Bytes32 r;
    std::copy(sig.begin(), sig.begin() + 32, r.begin());
    Bytes32 s_plus_l = s_half(sig);
    unsigned carry = 0;
    for (std::size_t j = 0; j < 32; ++j) {
      const unsigned v = s_plus_l[j] + oracle::group_order()[j] + carry;
      s_plus_l[j] = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    for (const Bytes32& s :
         {scalar_of(0), l_minus_1, oracle::group_order(), ones, s_plus_l}) {
      diff.check(msg, make_sig(r, s), kp.public_key);
    }
  }

  // R = identity, under ordinary and small-order keys.
  const auto small = small_order_encodings();
  for (int i = 0; i < 24; ++i) {
    const PublicKey key = i % 2 == 0
                              ? keys[static_cast<std::size_t>(i) % keys.size()]
                                    .public_key
                              : small[static_cast<std::size_t>(i / 2) % 8];
    const Bytes32 s = i % 3 == 0 ? scalar_of(0) : random_reduced_scalar(rng);
    diff.check(random_msg(), make_sig(small[0], s), key);
  }

  // The eight small-order keys: R = r*B and S = r verify exactly when
  // k*A vanishes, which depends on k mod the key's order.
  for (const auto& key : small) {
    for (int j = 0; j < 16; ++j) {
      const Bytes32 r = random_reduced_scalar(rng);
      const auto r_enc = detail::ge_to_bytes(detail::ge_scalarmult_base(r));
      diff.check(random_msg(), make_sig(r_enc, r), key);
    }
  }

  // Random 32-byte keys: about half are not curve points.
  for (int i = 0; i < 50; ++i) {
    const auto& kp = keys[static_cast<std::size_t>(i) % keys.size()];
    const Bytes msg = random_msg();
    diff.check(msg, sign(span_of(msg), kp.seed, kp.public_key),
               bytes32(rng.bytes(32)));
  }

  // The encodings with y >= p, as the key and as R.
  for (const auto& enc : non_canonical_encodings()) {
    const auto& kp = keys[0];
    const Bytes msg = random_msg();
    const Signature sig = sign(span_of(msg), kp.seed, kp.public_key);
    diff.check(msg, sig, enc);
    diff.check(msg, make_sig(enc, s_half(sig)), kp.public_key);
  }

  EXPECT_GE(diff.cases, 1000);
  EXPECT_GE(diff.accepted, 150);  // both verdicts well represented
  EXPECT_LE(diff.accepted, diff.cases - 500);
}

// ------------------------------------------------------------ hash chain

TEST(HashChain, StatementVerifies) {
  Digest20 v{};
  v.fill(0xAB);
  HashChain chain(v, 100);
  for (std::size_t p = 0; p <= 100; ++p) {
    EXPECT_TRUE(HashChain::verify(chain.statement(p), p, chain.anchor()));
  }
}

TEST(HashChain, WrongStepCountFails) {
  Digest20 v{};
  v.fill(0xCD);
  HashChain chain(v, 50);
  EXPECT_FALSE(HashChain::verify(chain.statement(10), 9, chain.anchor()));
  EXPECT_FALSE(HashChain::verify(chain.statement(10), 11, chain.anchor()));
}

TEST(HashChain, ForgedStatementFails) {
  Digest20 v{};
  v.fill(0xEF);
  HashChain chain(v, 50);
  Digest20 forged = chain.statement(10);
  forged[0] ^= 1;
  EXPECT_FALSE(HashChain::verify(forged, 10, chain.anchor()));
}

TEST(HashChain, LengthIsBoundedByTheLongestFreshnessWalk) {
  // A verifier walks at most kMaxFreshnessWalk hashes, so a longer chain
  // would sign statements nobody accepts.
  Digest20 v{};
  EXPECT_THROW(HashChain(v, 0), std::invalid_argument);
  EXPECT_THROW(HashChain(v, HashChain::kMaxFreshnessWalk + 1),
               std::invalid_argument);
  const HashChain longest(v, HashChain::kMaxFreshnessWalk);
  EXPECT_EQ(longest.length(), HashChain::kMaxFreshnessWalk);
}

TEST(HashChain, ChainPeriodWindowAndWalkCap) {
  Digest20 v{};
  v.fill(0x5A);
  const HashChain chain(v, 100);
  const UnixSeconds t = 1000;
  const UnixSeconds delta = 10;
  const Digest20& anchor = chain.anchor();
  // The period-5 statement is fresh while p' = floor((now - t) / ∆) is
  // 4, 5 or 6.
  for (const UnixSeconds now : {t + 40, t + 50, t + 69}) {
    EXPECT_EQ(chain_period(t, delta, anchor, 0, chain.statement(5), now),
              std::optional<std::uint64_t>{5})
        << now;
  }
  EXPECT_FALSE(chain_period(t, delta, anchor, 0, chain.statement(5), t + 39));
  EXPECT_FALSE(chain_period(t, delta, anchor, 0, chain.statement(5), t + 70));
  // Walking from a later verified statement gives the same period.
  EXPECT_EQ(chain_period(t, delta, chain.statement(3), 3, chain.statement(5),
                         t + 50),
            std::optional<std::uint64_t>{5});
  // A clock 2^40 periods on asks for a walk past the cap: refused unwalked.
  EXPECT_FALSE(chain_period(t, delta, anchor, 0, chain.statement(5),
                            t + (UnixSeconds{1} << 40) * delta));
}

TEST(HashChain, StatementBeyondLengthThrows) {
  Digest20 v{};
  HashChain chain(v, 5);
  EXPECT_THROW(chain.statement(6), std::out_of_range);
}

TEST(HashChain, AnchorIsStatementZero) {
  Digest20 v{};
  v.fill(0x33);
  HashChain chain(v, 7);
  EXPECT_EQ(chain.statement(0), chain.anchor());
}

TEST(HashChain, CannotWalkBackward) {
  // Knowing H^(m-p) gives you H^(m-p+1).. for free but the test asserts the
  // forward relation: advancing a later statement yields an earlier one.
  Digest20 v{};
  v.fill(0x44);
  HashChain chain(v, 20);
  EXPECT_EQ(HashChain::advance(chain.statement(10), 3), chain.statement(7));
}

}  // namespace
}  // namespace ritm::crypto
