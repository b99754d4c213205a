// RITM client tests: the step-5 validation policy (chain, absence proof,
// freshness window), revoked-certificate rejection, downgrade detection,
// the 2∆ interrupt rule for established connections, and the verified-root
// memo (one signature check per signed root, and never a different verdict),
// and the in-place path: validate_status_bytes allocates nothing on a memo
// hit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "ed25519_oracle.hpp"
#include "ra/agent.hpp"
#include "tls/session.hpp"

// Every global operator new in this binary is counted, so a test can pin
// that a stretch of code allocates nothing. (new[] and delete[] forward to
// these.) The deletes stay out of line so that, inlined into a caller, their
// free() is not read as freeing memory from operator new.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ritm::client {
namespace {

using cert::SerialNumber;

/// Validates `status` as a client receives it: encoded.
Verdict validate(const RitmClient& client, const dict::RevocationStatus& status,
                 const cert::Certificate& leaf, UnixSeconds now) {
  return client.validate_status_bytes(ByteSpan(status.encode()), leaf, now);
}

class ClientTest : public ::testing::Test {
 protected:
  static constexpr UnixSeconds kDelta = 10;

  ClientTest()
      : ca_(make_ca()),
        agent_({}, &store_) {
    store_.register_ca(ca_.id(), ca_.public_key(), kDelta);
    roots_.add(ca_.id(), ca_.public_key());

    crypto::Seed server_seed{};
    server_seed.fill(9);
    server_key_ = crypto::keypair_from_seed(server_seed);
    leaf_ = ca_.issue("example.com", server_key_.public_key, 0, 1'000'000);

    // Non-empty dictionary.
    store_.apply_issuance(ca_.revoke({SerialNumber::from_uint(999999, 3)},
                                     1000),
                          1000);
  }

  static ca::CertificationAuthority make_ca() {
    Rng rng(55);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-1";
    cfg.delta = kDelta;
    cfg.chain_length = 128;
    return ca::CertificationAuthority(cfg, rng, 1000);
  }

  RitmClient make_client(RitmClient::Config cfg = {}) {
    cfg.delta = kDelta;
    return RitmClient(cfg, roots_);
  }

  /// Models the RA's periodic pull: delivers the CA's current freshness
  /// statement to the store (the updater does this every ∆ in deployment).
  void refresh_store(UnixSeconds now) {
    store_.apply_freshness({ca_.id(), ca_.freshness_at(now)}, now);
  }

  /// Runs a full handshake through the RA, returning the flight packet the
  /// client receives.
  sim::Packet handshake_flight(UnixSeconds now) {
    refresh_store(now);
    auto ch = tls::make_client_hello(client_ep_, server_ep_, rng_, true);
    agent_.process(ch, now);
    auto flight =
        tls::make_server_flight(client_ep_, server_ep_, rng_, {leaf_}, false);
    agent_.process(flight, now);
    return flight;
  }

  /// A certificate whose serial (124) shares the gap with probe serial 123.
  cert::Certificate leaf_within_gap() {
    auto c = leaf_;
    c.serial = SerialNumber::from_uint(124, 3);
    const Bytes tbs = c.tbs();
    // Not CA-signed here; validate_status_bytes does not re-check the chain.
    return c;
  }

  Rng rng_{66};
  ca::CertificationAuthority ca_;
  ra::DictionaryStore store_;
  ra::RevocationAgent agent_;
  cert::TrustStore roots_;
  crypto::KeyPair server_key_;
  cert::Certificate leaf_;
  sim::Endpoint client_ep_{sim::Endpoint::parse_ip("12.34.56.78"), 9012};
  sim::Endpoint server_ep_{sim::Endpoint::parse_ip("98.76.54.32"), 443};
};

TEST_F(ClientTest, AcceptsValidHandshake) {
  auto client = make_client();
  auto flight = handshake_flight(2000);
  EXPECT_EQ(client.process_server_flight(flight, 2000), Verdict::accepted);
  EXPECT_EQ(client.connection_count(), 1u);
  EXPECT_EQ(client.stats().accepted, 1u);
}

TEST_F(ClientTest, RejectsMissingStatusWhenRitmExpected) {
  auto client = make_client();
  // No RA on path: flight arrives without status.
  auto flight =
      tls::make_server_flight(client_ep_, server_ep_, rng_, {leaf_}, false);
  EXPECT_EQ(client.process_server_flight(flight, 2000),
            Verdict::missing_status);
}

TEST_F(ClientTest, AcceptsPlainTlsWhenRitmNotExpected) {
  RitmClient::Config cfg;
  cfg.expect_ritm = false;
  auto client = make_client(cfg);
  auto flight =
      tls::make_server_flight(client_ep_, server_ep_, rng_, {leaf_}, false);
  EXPECT_EQ(client.process_server_flight(flight, 2000), Verdict::accepted);
}

TEST_F(ClientTest, RejectsRevokedCertificate) {
  // Revoke the leaf, update the RA, then handshake.
  store_.apply_issuance(ca_.revoke({leaf_.serial}, 2000), 2000);
  auto client = make_client();
  auto flight = handshake_flight(2010);
  EXPECT_EQ(client.process_server_flight(flight, 2010), Verdict::revoked);
  EXPECT_EQ(client.connection_count(), 0u);
}

TEST_F(ClientTest, StatusRecordThatDoesNotParseIsNoStatus) {
  // A ritm_status record counts as a status exactly when dict::StatusView
  // parses it. A flight whose only status record is a genuine status cut
  // one byte short carries no status: the client falls back to plain TLS
  // when it does not expect RITM and reports the status missing when it
  // does. Either way the record is stripped before the TLS stack sees it.
  Bytes cut = store_.status_for("CA-1", leaf_.serial)->encode();
  cut.pop_back();
  ASSERT_FALSE(dict::StatusView::parse(ByteSpan(cut)).has_value());
  auto flight =
      tls::make_server_flight(client_ep_, server_ep_, rng_, {leaf_}, false);
  ra::attach_status(flight, ByteSpan(cut));

  for (const bool expect_ritm : {false, true}) {
    RitmClient::Config cfg;
    cfg.expect_ritm = expect_ritm;
    auto client = make_client(cfg);
    auto received = flight;
    EXPECT_EQ(client.process_server_flight(received, 2000),
              expect_ritm ? Verdict::missing_status : Verdict::accepted);
    const auto records = tls::decode_records(ByteSpan(received.payload));
    ASSERT_TRUE(records.has_value());
    for (const auto& record : *records) {
      EXPECT_NE(record.type, tls::ContentType::ritm_status);
    }
  }
}

TEST_F(ClientTest, RejectsExpiredCertificate) {
  auto client = make_client();
  leaf_ = ca_.issue("expired.example", server_key_.public_key, 0, 1500);
  auto flight = handshake_flight(2000);  // now > not_after
  EXPECT_EQ(client.process_server_flight(flight, 2000), Verdict::bad_chain);
}

TEST_F(ClientTest, RejectsUntrustedIssuer) {
  cert::TrustStore empty;
  RitmClient client({.delta = kDelta, .expect_ritm = true,
                     .require_server_confirmation = false},
                    empty);
  auto flight = handshake_flight(2000);
  EXPECT_NE(client.process_server_flight(flight, 2000), Verdict::accepted);
}

TEST_F(ClientTest, RejectsStaleFreshness) {
  auto client = make_client();
  // Build a status manually with an old statement (period 0), but validate
  // far in the future: p' large -> statement stale.
  auto status = *store_.status_for("CA-1", leaf_.serial);
  const UnixSeconds far = status.signed_root.timestamp + 50 * kDelta;
  EXPECT_EQ(validate(client, status, leaf_, far),
            Verdict::stale_freshness);
  // A genuine root 2^40 periods old: the walk is capped at the longest
  // chain a CA may sign, so the verdict costs a bounded number of hashes
  // instead of about 3 * 2^40.
  const UnixSeconds ancient =
      status.signed_root.timestamp + (UnixSeconds{1} << 40) * kDelta;
  EXPECT_EQ(validate(client, status, leaf_, ancient),
            Verdict::stale_freshness);
}

TEST_F(ClientTest, FreshnessAcceptanceWindow) {
  // Paper step 5c: a statement for period p is accepted while the client's
  // p' = floor((now-t)/∆) is within one period of p — so a statement is
  // never older than 2∆ when accepted.
  auto client = make_client();
  auto status = *store_.status_for("CA-1", leaf_.serial);
  const UnixSeconds t = status.signed_root.timestamp;

  // Anchor (period-0 statement): accepted while p' <= 1, i.e. for 2∆.
  EXPECT_EQ(validate(client, status, leaf_, t), Verdict::accepted);
  EXPECT_EQ(validate(client, status, leaf_, t + kDelta - 1),
            Verdict::accepted);
  EXPECT_EQ(validate(client, status, leaf_, t + 2 * kDelta - 1),
            Verdict::accepted);
  EXPECT_EQ(validate(client, status, leaf_, t + 2 * kDelta),
            Verdict::stale_freshness);

  // Period-5 statement (issued at t+5∆): accepted for p' in {4,5,6} —
  // clock skew ahead, current, and the pull-race tolerance — i.e. until
  // t + 7∆, which is exactly 2∆ after issuance.
  status.freshness = ca_.freshness_at(t + 5 * kDelta);
  EXPECT_EQ(validate(client, status, leaf_, t + 4 * kDelta),
            Verdict::accepted);
  EXPECT_EQ(validate(client, status, leaf_, t + 5 * kDelta),
            Verdict::accepted);
  EXPECT_EQ(validate(client, status, leaf_, t + 7 * kDelta - 1),
            Verdict::accepted);
  EXPECT_EQ(validate(client, status, leaf_, t + 7 * kDelta),
            Verdict::stale_freshness);
  EXPECT_EQ(validate(client, status, leaf_, t + 9 * kDelta),
            Verdict::stale_freshness);
}

TEST_F(ClientTest, RejectsWrongCaStatus) {
  auto client = make_client();
  auto status = *store_.status_for("CA-1", leaf_.serial);
  status.signed_root.ca = "CA-2";
  EXPECT_EQ(validate(client, status, leaf_, 2000),
            Verdict::issuer_mismatch);
}

TEST_F(ClientTest, RejectsTamperedRoot) {
  auto client = make_client();
  auto status = *store_.status_for("CA-1", leaf_.serial);
  status.signed_root.root[0] ^= 1;
  EXPECT_EQ(validate(client, status, leaf_, 2000),
            Verdict::bad_signature);
}

TEST_F(ClientTest, RejectsProofFromDifferentGap) {
  // An absence proof covers the whole gap between two adjacent leaves, so a
  // proof for another serial in the SAME gap legitimately validates — but a
  // proof from a different gap must be rejected. Split the gaps by revoking
  // a serial between leaf_.serial (1) and the probe serial (123).
  store_.apply_issuance(ca_.revoke({SerialNumber::from_uint(50, 3)}, 2000),
                        2000);
  auto client = make_client();
  auto status = *store_.status_for("CA-1", SerialNumber::from_uint(123, 3));
  const UnixSeconds t = status.signed_root.timestamp;
  // Same gap: accepted (sound — the proof genuinely covers it).
  EXPECT_EQ(validate(client, status, leaf_within_gap(), t),
            Verdict::accepted);
  // Different gap: rejected.
  EXPECT_EQ(validate(client, status, leaf_, t), Verdict::bad_proof);
}

TEST_F(ClientTest, DowngradeDetectionWithTerminator) {
  RitmClient::Config cfg;
  cfg.require_server_confirmation = true;
  auto client = make_client(cfg);

  // Flight through a plain RA (no terminator confirmation).
  auto flight = handshake_flight(2000);
  EXPECT_EQ(client.process_server_flight(flight, 2000), Verdict::downgrade);

  // Flight through a terminator-mode RA.
  ra::RevocationAgent::Config term_cfg;
  term_cfg.terminator_mode = true;
  ra::RevocationAgent term(term_cfg, &store_);
  auto ch = tls::make_client_hello(client_ep_, server_ep_, rng_, true);
  term.process(ch, 2000);
  auto flight2 =
      tls::make_server_flight(client_ep_, server_ep_, rng_, {leaf_}, false);
  term.process(flight2, 2000);
  EXPECT_EQ(client.process_server_flight(flight2, 2000), Verdict::accepted);
}

TEST_F(ClientTest, MidConnectionStatusRefreshes) {
  auto client = make_client();
  auto flight = handshake_flight(2000);
  ASSERT_EQ(client.process_server_flight(flight, 2000), Verdict::accepted);
  auto fin = tls::make_server_finished(client_ep_, server_ep_);
  agent_.process(fin, 2000);

  // ∆ later the RA refreshes; the client revalidates and extends.
  refresh_store(2010);
  auto data = tls::make_app_data(server_ep_, client_ep_, {1});
  agent_.process(data, 2010);
  EXPECT_EQ(client.process_established(data, 2010), Verdict::accepted);

  const sim::FlowKey flow = sim::FlowKey::of(data).reversed();
  EXPECT_FALSE(client.check_interrupt(flow, 2015));
}

TEST_F(ClientTest, InterruptAfterTwoDeltaSilence) {
  auto client = make_client();
  auto flight = handshake_flight(2000);
  ASSERT_EQ(client.process_server_flight(flight, 2000), Verdict::accepted);
  const sim::FlowKey flow = sim::FlowKey::of(flight).reversed();

  EXPECT_FALSE(client.check_interrupt(flow, 2000 + 2 * kDelta));
  EXPECT_TRUE(client.check_interrupt(flow, 2000 + 2 * kDelta + 1));
  EXPECT_EQ(client.connection_count(), 0u);
  EXPECT_EQ(client.stats().interrupts, 1u);
}

TEST_F(ClientTest, MidConnectionRevocationTearsDown) {
  // The race-condition protection: connection up, then cert revoked.
  auto client = make_client();
  auto flight = handshake_flight(2000);
  ASSERT_EQ(client.process_server_flight(flight, 2000), Verdict::accepted);
  auto fin = tls::make_server_finished(client_ep_, server_ep_);
  agent_.process(fin, 2000);

  store_.apply_issuance(ca_.revoke({leaf_.serial}, 2005), 2005);

  refresh_store(2012);
  auto data = tls::make_app_data(server_ep_, client_ep_, {1});
  agent_.process(data, 2012);  // RA attaches presence proof
  EXPECT_EQ(client.process_established(data, 2012), Verdict::revoked);
  EXPECT_EQ(client.connection_count(), 0u);
  EXPECT_EQ(client.stats().interrupts, 1u);
}

// ------------------------------------------------ the verified-root memo

/// `status` with `oracle::group_order()` added to its signature's S: the
/// same equation with a non-canonical scalar.
dict::RevocationStatus malleate(dict::RevocationStatus status) {
  auto& sig = status.signed_root.signature;
  unsigned carry = 0;
  for (std::size_t j = 0; j < 32; ++j) {
    const unsigned v = sig[32 + j] + crypto::oracle::group_order()[j] + carry;
    sig[32 + j] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  return status;
}

TEST_F(ClientTest, RootMemoVerifiesEachSignedRootOnce) {
  // Statuses for other serials and later freshness periods under one
  // signed root carry the same signed-root bytes: one Ed25519 verification
  // covers all of them.
  auto client = make_client();
  const auto first = *store_.status_for("CA-1", leaf_.serial);
  const UnixSeconds t = first.signed_root.timestamp;
  constexpr std::uint64_t kStatuses = 40;
  for (std::uint64_t i = 0; i < kStatuses; ++i) {
    const UnixSeconds now = t + static_cast<UnixSeconds>(i / 5) * kDelta;
    refresh_store(now);
    cert::Certificate leaf = leaf_;
    leaf.serial = SerialNumber::from_uint(1000 + i, 3);
    const auto status = *store_.status_for("CA-1", leaf.serial);
    ASSERT_EQ(status.signed_root, first.signed_root);
    EXPECT_EQ(validate(client, status, leaf, now), Verdict::accepted);
  }
  EXPECT_EQ(client.root_memo_stats().verifications, 1u);
  EXPECT_EQ(client.root_memo_stats().hits, kStatuses - 1);
}

TEST_F(ClientTest, RootMemoMissesAnotherSignatureOverTheSameRoot) {
  auto client = make_client();
  const auto genuine = *store_.status_for("CA-1", leaf_.serial);
  const UnixSeconds t = genuine.signed_root.timestamp;
  ASSERT_EQ(validate(client, genuine, leaf_, t), Verdict::accepted);

  // The memoized root's fields under another signature: a bit flip, and
  // the malleated S + L. Each is a miss, verified and rejected, and a
  // rejected root is never stored, so a repeat is verified again.
  auto flipped = genuine;
  flipped.signed_root.signature[17] ^= 0x04;
  const auto malleated = malleate(genuine);
  for (const auto& status : {flipped, malleated, flipped}) {
    EXPECT_EQ(validate(client, status, leaf_, t),
              Verdict::bad_signature);
  }
  EXPECT_EQ(client.root_memo_stats().verifications, 4u);
  EXPECT_EQ(client.root_memo_stats().hits, 0u);
  EXPECT_EQ(validate(client, genuine, leaf_, t), Verdict::accepted);
  EXPECT_EQ(client.root_memo_stats().hits, 1u);
}

TEST_F(ClientTest, RootMemoIsPerCa) {
  Rng rng(77);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-2";
  cfg.delta = kDelta;
  ca::CertificationAuthority ca2(cfg, rng, 1000);
  ca2.revoke({SerialNumber::from_uint(999999, 3)}, 1000);
  roots_.add(ca2.id(), ca2.public_key());
  auto client = make_client();
  cert::Certificate leaf2 = leaf_;
  leaf2.issuer = ca2.id();

  const auto x = *store_.status_for("CA-1", leaf_.serial);
  const UnixSeconds t = x.signed_root.timestamp;
  const auto y = ca2.status_for(leaf2.serial, t);
  ASSERT_EQ(validate(client, x, leaf_, t), Verdict::accepted);
  ASSERT_EQ(validate(client, y, leaf2, t), Verdict::accepted);

  // CA-1's memoized root, in a status for a certificate CA-2 issued...
  EXPECT_EQ(validate(client, x, leaf2, t), Verdict::issuer_mismatch);
  // ...and with its `ca` rewritten to CA-2, whose key it does not verify
  // under, though both CAs' memos are warm.
  auto rewritten = x;
  rewritten.signed_root.ca = ca2.id();
  EXPECT_EQ(validate(client, rewritten, leaf2, t),
            Verdict::bad_signature);
  EXPECT_EQ(client.root_memo_stats().verifications, 3u);
  EXPECT_EQ(client.root_memo_stats().hits, 0u);
}

TEST_F(ClientTest, RootMemoKeepsTheTwoNewestRootsPerCa) {
  auto client = make_client();
  std::vector<dict::RevocationStatus> statuses;
  for (UnixSeconds r = 0; r < 3; ++r) {
    if (r > 0) {
      const UnixSeconds when = 1000 + r * kDelta;
      const auto serial =
          SerialNumber::from_uint(500 + static_cast<std::uint64_t>(r), 3);
      store_.apply_issuance(ca_.revoke({serial}, when), when);
    }
    statuses.push_back(*store_.status_for("CA-1", leaf_.serial));
  }
  ASSERT_NE(statuses[0].signed_root, statuses[1].signed_root);
  ASSERT_NE(statuses[1].signed_root, statuses[2].signed_root);
  const auto validate_root = [&](std::size_t r) {
    return validate(client, statuses[r], leaf_,
                    statuses[r].signed_root.timestamp);
  };
  const auto verifications = [&] {
    return client.root_memo_stats().verifications;
  };

  for (const std::size_t r : {0, 1, 0, 1}) {
    EXPECT_EQ(validate_root(r), Verdict::accepted);
  }
  EXPECT_EQ(verifications(), 2u);
  // A third root replaces the older of the two...
  EXPECT_EQ(validate_root(2), Verdict::accepted);
  EXPECT_EQ(verifications(), 3u);
  EXPECT_EQ(validate_root(1), Verdict::accepted);
  EXPECT_EQ(validate_root(2), Verdict::accepted);
  EXPECT_EQ(verifications(), 3u);
  // ...which is verified again when it comes back.
  EXPECT_EQ(validate_root(0), Verdict::accepted);
  EXPECT_EQ(verifications(), 4u);
}

TEST_F(ClientTest, RootMemoAgreesWithTheOracleOnSignatureShapes) {
  // Ed25519Differential's shapes (crypto_test) on a genuine signed root:
  // its signature, its signed fields and the trust key mutated. Under each
  // trust key one client stays warm across every shape, and it must agree
  // with a fresh client; the verdict is bad_signature exactly when the
  // reference verifier rejects the root's tbs().
  namespace oracle = crypto::oracle;
  using oracle::Bytes32;
  Rng rng(20261019);
  const auto genuine = *store_.status_for("CA-1", leaf_.serial);
  const UnixSeconds t = genuine.signed_root.timestamp;
  const crypto::PublicKey ca_key = ca_.public_key();
  Bytes32 r_half, s_half;
  std::copy_n(genuine.signed_root.signature.begin(), 32, r_half.begin());
  std::copy_n(genuine.signed_root.signature.begin() + 32, 32, s_half.begin());

  std::map<crypto::PublicKey, std::unique_ptr<RitmClient>> warm;
  int cases = 0;
  int verified = 0;
  const auto check = [&](const dict::SignedRoot& root,
                         const crypto::PublicKey& key) {
    cert::TrustStore roots;
    roots.add(root.ca, key);
    const RitmClient::Config cfg{.delta = kDelta};
    auto& client = warm[key];
    if (!client) client = std::make_unique<RitmClient>(cfg, roots);
    const RitmClient fresh(cfg, roots);
    auto status = genuine;
    status.signed_root = root;
    const Verdict v = validate(*client, status, leaf_, t);
    EXPECT_EQ(v, validate(fresh, status, leaf_, t)) << to_string(v);
    const Bytes tbs = root.tbs();
    const bool ok = oracle::verify(ByteSpan(tbs), root.signature, key);
    EXPECT_EQ(v == Verdict::bad_signature, !ok) << to_string(v);
    ++cases;
    verified += ok ? 1 : 0;
  };
  const auto signed_with = [&](const Bytes32& r, const Bytes32& s) {
    dict::SignedRoot root = genuine.signed_root;
    std::copy(r.begin(), r.end(), root.signature.begin());
    std::copy(s.begin(), s.end(), root.signature.begin() + 32);
    return root;
  };
  const auto random_reduced_scalar = [&] {
    std::array<std::uint8_t, 64> x;
    const Bytes b = rng.bytes(64);
    std::copy(b.begin(), b.end(), x.begin());
    return oracle::reduce64(x);
  };
  const auto flip = [&](auto buf) {
    const std::size_t bit = rng.uniform(buf.size() * 8);
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return buf;
  };

  check(genuine.signed_root, ca_key);  // warms the CA key's memo

  // Single bit flips in the signature, in a signed field and in the key.
  for (int i = 0; i < 40; ++i) {
    dict::SignedRoot root = genuine.signed_root;
    root.signature = flip(root.signature);
    check(root, ca_key);
    root = genuine.signed_root;
    if (i % 2 == 0) {
      root.root = flip(root.root);
    } else {
      root.freshness_anchor = flip(root.freshness_anchor);
    }
    check(root, ca_key);
    check(genuine.signed_root, flip(ca_key));
  }

  // Random 64-byte signatures: raw (S is mostly >= L), and with S below
  // 2^252 so the whole equation runs.
  for (int i = 0; i < 20; ++i) {
    const Bytes raw = rng.bytes(64);
    dict::SignedRoot root = genuine.signed_root;
    std::copy(raw.begin(), raw.end(), root.signature.begin());
    check(root, ca_key);
    root.signature[63] &= 0x0F;
    check(root, ca_key);
  }

  // S in {0, L - 1, L, 2^256 - 1} behind the genuine R, and the malleated
  // S + L.
  Bytes32 zero{}, l_minus_1 = oracle::group_order(), ones;
  l_minus_1[0] -= 1;
  ones.fill(0xFF);
  for (const Bytes32& s : {zero, l_minus_1, oracle::group_order(), ones}) {
    check(signed_with(r_half, s), ca_key);
  }
  check(malleate(genuine).signed_root, ca_key);

  // R = identity, under the CA's key and small-order keys.
  const auto small = oracle::small_order_encodings();
  for (std::size_t i = 0; i < 16; ++i) {
    const crypto::PublicKey key = i % 2 == 0 ? ca_key : small[(i / 2) % 8];
    const Bytes32 s = i % 3 == 0 ? zero : random_reduced_scalar();
    check(signed_with(small[0], s), key);
  }

  // The eight small-order keys: R = r*B and S = r verify exactly when k*A
  // vanishes, which depends on k mod the key's order.
  for (const auto& key : small) {
    for (int j = 0; j < 4; ++j) {
      const Bytes32 r = random_reduced_scalar();
      check(signed_with(oracle::encode(oracle::scalarmult(oracle::base(), r)),
                        r),
            key);
    }
  }

  // Random 32-byte keys: about half are not curve points.
  for (int i = 0; i < 10; ++i) {
    crypto::PublicKey key;
    const Bytes b = rng.bytes(32);
    std::copy(b.begin(), b.end(), key.begin());
    check(genuine.signed_root, key);
  }

  // The encodings with y >= p, as the key and as R.
  for (const auto& enc : oracle::non_canonical_encodings()) {
    check(genuine.signed_root, enc);
    check(signed_with(enc, s_half), ca_key);
  }

  // The CA key's memo still holds the genuine root after every rejection.
  check(genuine.signed_root, ca_key);
  EXPECT_EQ(warm.at(ca_key)->root_memo_stats().hits, 1u);
  EXPECT_GE(cases, 250);
  EXPECT_GE(verified, 5);  // both verdicts represented
  EXPECT_GE(cases - verified, 200);
}

TEST_F(ClientTest, ValidateStatusBytesAllocatesNothingOnAMemoHit) {
  // A presence and an absence status (both neighbours) under one signed
  // root, validated as the bytes a client receives. Once the memo holds the
  // root, parsing, the memo lookup, the freshness walk and the proof check
  // make no heap allocation. The first, cold validation does (it verifies
  // the signature and stores the root), which shows the counter counts.
  Rng rng(91);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-ALLOC";
  cfg.delta = kDelta;
  ca::CertificationAuthority ca(cfg, rng, 1000);
  std::vector<SerialNumber> revoked;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    revoked.push_back(SerialNumber::from_uint(10 * i, 3));
  }
  ca.revoke(revoked, 1000);
  cert::TrustStore roots;
  roots.add(ca.id(), ca.public_key());
  const RitmClient client({.delta = kDelta}, roots);
  const UnixSeconds t = 1000 + 3 * kDelta;
  cert::Certificate present = leaf_;
  present.issuer = ca.id();
  present.serial = SerialNumber::from_uint(1230, 3);
  cert::Certificate absent = present;
  absent.serial = SerialNumber::from_uint(1235, 3);
  const auto absence_status = ca.status_for(absent.serial, t);
  ASSERT_TRUE(absence_status.proof.left && absence_status.proof.right);
  const Bytes presence = ca.status_for(present.serial, t).encode();
  const Bytes absence = absence_status.encode();

  std::size_t before = g_allocations.load();
  const Verdict cold = client.validate_status_bytes(ByteSpan(presence),
                                                    present, t);
  const std::size_t cold_allocations = g_allocations.load() - before;
  EXPECT_EQ(cold, Verdict::revoked);
  EXPECT_GT(cold_allocations, 0u);

  constexpr int kRounds = 50;
  int revoked_verdicts = 0, accepted_verdicts = 0;
  before = g_allocations.load();
  for (int i = 0; i < kRounds; ++i) {
    revoked_verdicts += client.validate_status_bytes(ByteSpan(presence),
                                                     present, t) ==
                        Verdict::revoked;
    accepted_verdicts += client.validate_status_bytes(ByteSpan(absence),
                                                      absent, t) ==
                         Verdict::accepted;
  }
  const std::size_t warm_allocations = g_allocations.load() - before;
  EXPECT_EQ(warm_allocations, 0u);
  EXPECT_EQ(revoked_verdicts, kRounds);
  EXPECT_EQ(accepted_verdicts, kRounds);
  EXPECT_EQ(client.root_memo_stats().verifications, 1u);
  EXPECT_EQ(client.root_memo_stats().hits, 2u * kRounds);
}

}  // namespace
}  // namespace ritm::client
