// RITM client tests: the step-5 validation policy (chain, absence proof,
// freshness window), revoked-certificate rejection, downgrade detection,
// and the 2∆ interrupt rule for established connections.
#include <gtest/gtest.h>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "ra/agent.hpp"
#include "tls/session.hpp"

namespace ritm::client {
namespace {

using cert::SerialNumber;

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
    // Not CA-signed here; validate_status does not re-check the chain.
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
  EXPECT_EQ(client.validate_status(status, leaf_, far),
            Verdict::stale_freshness);
  // A genuine root 2^40 periods old: the walk is capped at the longest
  // chain a CA may sign, so the verdict costs a bounded number of hashes
  // instead of about 3 * 2^40.
  const UnixSeconds ancient =
      status.signed_root.timestamp + (UnixSeconds{1} << 40) * kDelta;
  EXPECT_EQ(client.validate_status(status, leaf_, ancient),
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
  EXPECT_EQ(client.validate_status(status, leaf_, t), Verdict::accepted);
  EXPECT_EQ(client.validate_status(status, leaf_, t + kDelta - 1),
            Verdict::accepted);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 2 * kDelta - 1),
            Verdict::accepted);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 2 * kDelta),
            Verdict::stale_freshness);

  // Period-5 statement (issued at t+5∆): accepted for p' in {4,5,6} —
  // clock skew ahead, current, and the pull-race tolerance — i.e. until
  // t + 7∆, which is exactly 2∆ after issuance.
  status.freshness = ca_.freshness_at(t + 5 * kDelta);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 4 * kDelta),
            Verdict::accepted);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 5 * kDelta),
            Verdict::accepted);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 7 * kDelta - 1),
            Verdict::accepted);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 7 * kDelta),
            Verdict::stale_freshness);
  EXPECT_EQ(client.validate_status(status, leaf_, t + 9 * kDelta),
            Verdict::stale_freshness);
}

TEST_F(ClientTest, RejectsWrongCaStatus) {
  auto client = make_client();
  auto status = *store_.status_for("CA-1", leaf_.serial);
  status.signed_root.ca = "CA-2";
  EXPECT_EQ(client.validate_status(status, leaf_, 2000),
            Verdict::issuer_mismatch);
}

TEST_F(ClientTest, RejectsTamperedRoot) {
  auto client = make_client();
  auto status = *store_.status_for("CA-1", leaf_.serial);
  status.signed_root.root[0] ^= 1;
  EXPECT_EQ(client.validate_status(status, leaf_, 2000),
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
  EXPECT_EQ(client.validate_status(status, leaf_within_gap(), t),
            Verdict::accepted);
  // Different gap: rejected.
  EXPECT_EQ(client.validate_status(status, leaf_, t), Verdict::bad_proof);
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

}  // namespace
}  // namespace ritm::client
