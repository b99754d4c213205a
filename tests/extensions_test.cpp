// Tests for the §VIII extension features: certificate-chain proofs and
// gossip-based consistency checking.
#include <gtest/gtest.h>

#include <map>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "ra/agent.hpp"
#include "ra/gossip.hpp"
#include "tls/session.hpp"
#include "gossip_oracle.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

constexpr UnixSeconds kDelta = 10;

ca::CertificationAuthority make_ca(const cert::CaId& id, std::uint64_t seed,
                                   UnixSeconds now = 1000) {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = id;
  cfg.delta = kDelta;
  cfg.chain_length = 128;
  return ca::CertificationAuthority(cfg, rng, now);
}

// ----------------------------------------------------------- chain proofs

class ChainProofTest : public ::testing::Test {
 protected:
  ChainProofTest()
      : root_ca_(make_ca("ROOT-CA", 1)),
        int_ca_(make_ca("INT-CA", 2)) {
    roots_.add(root_ca_.id(), root_ca_.public_key());
    roots_.add(int_ca_.id(), int_ca_.public_key());

    // Non-empty dictionaries + current freshness, in both stores.
    const auto root_issuance =
        root_ca_.revoke({SerialNumber::from_uint(900001, 3)}, 1000);
    const auto int_issuance =
        int_ca_.revoke({SerialNumber::from_uint(900002, 3)}, 1000);
    for (ra::DictionaryStore* store : {&store_, &behind_}) {
      store->register_ca(root_ca_.id(), root_ca_.public_key(), kDelta);
      store->register_ca(int_ca_.id(), int_ca_.public_key(), kDelta);
      store->apply_issuance(root_issuance, 1000);
      store->apply_issuance(int_issuance, 1000);
    }

    crypto::Seed s{};
    s.fill(0x77);
    const auto kp = crypto::keypair_from_seed(s);
    // Chain: leaf (issued by INT-CA), intermediate (issued by ROOT-CA).
    intermediate_ = root_ca_.issue("INT-CA", int_ca_.public_key(), 0,
                                   10'000'000);
    leaf_ = int_ca_.issue("www.example.com", kp.public_key, 0, 10'000'000);
  }

  /// A handshake whose server flight crosses the agents of `path` in
  /// order: path[0] sits nearest the server, so the statuses it attaches
  /// are upstream of the next agent's. store_ gets the current freshness.
  sim::Packet run_handshake(const std::vector<ra::RevocationAgent*>& path,
                            UnixSeconds now) {
    store_.apply_freshness({root_ca_.id(), root_ca_.freshness_at(now)}, now);
    store_.apply_freshness({int_ca_.id(), int_ca_.freshness_at(now)}, now);
    auto ch = tls::make_client_hello(ce_, se_, rng_, true);
    for (ra::RevocationAgent* agent : path) agent->process(ch, now);
    auto flight = tls::make_server_flight(ce_, se_, rng_,
                                          {leaf_, intermediate_}, false);
    for (ra::RevocationAgent* agent : path) agent->process(flight, now);
    return flight;
  }

  /// Two RAs one INT-CA issuance apart on the path, at `now`: behind_ holds
  /// both CAs' freshness statements for `now`, then INT-CA revokes once
  /// more and only store_ applies it. Both stores serve valid statuses;
  /// store_'s INT-CA status is the fresher (n = 2 against 1), and their
  /// ROOT-CA statuses are equal.
  void split_stores(UnixSeconds now) {
    behind_.apply_freshness({root_ca_.id(), root_ca_.freshness_at(now)},
                            now);
    behind_.apply_freshness({int_ca_.id(), int_ca_.freshness_at(now)}, now);
    ASSERT_EQ(store_.apply_issuance(
                  int_ca_.revoke({SerialNumber::from_uint(900003, 3)}, now),
                  now),
              ra::ApplyResult::ok);
  }

  /// What a two-RA path must deliver in chain-proof mode: exactly one
  /// status per chain CA, INT-CA's the fresher one, and a flight that a
  /// client demanding chain proofs accepts.
  void expect_one_fresh_status_per_ca(const sim::Packet& flight,
                                      UnixSeconds now) {
    auto stripped = flight;
    std::map<cert::CaId, std::uint64_t> n_of;
    const auto statuses = ra::strip_status(stripped);
    for (const Bytes& bytes : statuses) {
      const auto status = dict::RevocationStatus::decode(ByteSpan(bytes));
      ASSERT_TRUE(status.has_value());
      n_of[status->signed_root.ca] = status->signed_root.n;
    }
    EXPECT_EQ(statuses.size(), 2u);
    EXPECT_EQ(n_of, (std::map<cert::CaId, std::uint64_t>{{"INT-CA", 2},
                                                          {"ROOT-CA", 1}}));
    client::RitmClient client({.delta = kDelta,
                               .expect_ritm = true,
                               .require_server_confirmation = false,
                               .require_chain_proofs = true},
                              roots_);
    auto received = flight;
    EXPECT_EQ(client.process_server_flight(received, now),
              client::Verdict::accepted);
  }

  Rng rng_{3};
  ca::CertificationAuthority root_ca_, int_ca_;
  ra::DictionaryStore store_;
  ra::DictionaryStore behind_;  // a second RA's replica (split_stores)
  cert::TrustStore roots_;
  cert::Certificate intermediate_, leaf_;
  sim::Endpoint ce_{sim::Endpoint::parse_ip("10.0.0.1"), 1234};
  sim::Endpoint se_{sim::Endpoint::parse_ip("10.0.0.2"), 443};
};

TEST_F(ChainProofTest, AgentAttachesOneStatusPerChainCert) {
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  auto flight = run_handshake({&agent}, 2000);
  auto statuses = ra::strip_status(flight);
  ASSERT_EQ(statuses.size(), 2u);
  const auto ca_of = [](const Bytes& status) {
    return dict::RevocationStatus::decode(ByteSpan(status))->signed_root.ca;
  };
  EXPECT_EQ(ca_of(statuses[0]), "INT-CA");   // leaf issuer first
  EXPECT_EQ(ca_of(statuses[1]), "ROOT-CA");  // intermediate issuer
}

TEST_F(ChainProofTest, LeafOnlyModeAttachesOne) {
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = false}, &store_);
  auto flight = run_handshake({&agent}, 2000);
  EXPECT_EQ(ra::strip_status(flight).size(), 1u);
}

TEST_F(ChainProofTest, ClientAcceptsFullChainProofs) {
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  client::RitmClient client({.delta = kDelta,
                             .expect_ritm = true,
                             .require_server_confirmation = false,
                             .require_chain_proofs = true},
                            roots_);
  auto flight = run_handshake({&agent}, 2000);
  EXPECT_EQ(client.process_server_flight(flight, 2000),
            client::Verdict::accepted);
}

TEST_F(ChainProofTest, ClientRejectsMissingIntermediateProof) {
  // RA in leaf-only mode, client demanding chain proofs: reject.
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = false}, &store_);
  client::RitmClient client({.delta = kDelta,
                             .expect_ritm = true,
                             .require_server_confirmation = false,
                             .require_chain_proofs = true},
                            roots_);
  auto flight = run_handshake({&agent}, 2000);
  EXPECT_EQ(client.process_server_flight(flight, 2000),
            client::Verdict::missing_status);
}

TEST_F(ChainProofTest, RevokedIntermediateRejected) {
  // Revoking the intermediate CA certificate kills the whole chain.
  store_.apply_issuance(root_ca_.revoke({intermediate_.serial}, 2000), 2000);
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  client::RitmClient client({.delta = kDelta,
                             .expect_ritm = true,
                             .require_server_confirmation = false,
                             .require_chain_proofs = true},
                            roots_);
  auto flight = run_handshake({&agent}, 2010);
  EXPECT_EQ(client.process_server_flight(flight, 2010),
            client::Verdict::revoked);
}

// Behind another RA (§VIII "Multiple RAs"), a chain-proof RA applies the
// multi-RA rule to each status it would attach, matched by CA against every
// upstream status: add if missing, replace only if its view is fresher.

TEST_F(ChainProofTest, StaleLeafOnlyUpstreamThenFresherChainProofRa) {
  split_stores(2000);
  ra::RevocationAgent upstream({.delta = kDelta, .chain_proofs = false},
                               &behind_);
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  const auto flight = run_handshake({&upstream, &agent}, 2000);
  EXPECT_EQ(agent.stats().statuses_replaced, 1u);
  expect_one_fresh_status_per_ca(flight, 2000);
}

TEST_F(ChainProofTest, FresherLeafOnlyUpstreamThenStalerChainProofRa) {
  split_stores(2000);
  ra::RevocationAgent upstream({.delta = kDelta, .chain_proofs = false},
                               &store_);
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true},
                            &behind_);
  const auto flight = run_handshake({&upstream, &agent}, 2000);
  EXPECT_EQ(agent.stats().statuses_deferred, 1u);
  expect_one_fresh_status_per_ca(flight, 2000);
}

TEST_F(ChainProofTest, StaleChainProofUpstreamThenFresherChainProofRa) {
  split_stores(2000);
  ra::RevocationAgent upstream({.delta = kDelta, .chain_proofs = true},
                               &behind_);
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  const auto flight = run_handshake({&upstream, &agent}, 2000);
  EXPECT_EQ(agent.stats().statuses_replaced, 1u);
  expect_one_fresh_status_per_ca(flight, 2000);
}

// ----------------------------------------------------------- gossip

class GossipTest : public ::testing::Test {
 protected:
  GossipTest() : ca_(make_ca("CA-G", 20)) {
    keys_.add(ca_.id(), ca_.public_key());
  }
  ca::CertificationAuthority ca_;
  cert::TrustStore keys_;
};

TEST_F(GossipTest, ConsistentRootsProduceNoEvidence) {
  ra::GossipPool a(&keys_), b(&keys_);
  const auto msg = ca_.revoke({SerialNumber::from_uint(1)}, 1000);
  EXPECT_FALSE(a.observe(msg.signed_root).has_value());
  EXPECT_FALSE(b.observe(msg.signed_root).has_value());
  EXPECT_TRUE(ra::oracle::exchange(a, b).empty());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST_F(GossipTest, SplitViewSurfacesOnExchange) {
  ra::GossipPool alice(&keys_), bob(&keys_);
  const auto hide = SerialNumber::from_uint(13);
  const auto honest = ca_.revoke({SerialNumber::from_uint(12), hide}, 1000);
  alice.observe(honest.signed_root);

  ca::MisbehavingCa evil(ca_);
  const auto fake = evil.view_without(hide, 1000);
  bob.observe(fake.signed_root);

  const auto evidence = ra::oracle::exchange(alice, bob);
  ASSERT_FALSE(evidence.empty());
  EXPECT_TRUE(evidence[0].ours.verify(ca_.public_key()));
  EXPECT_TRUE(evidence[0].theirs.verify(ca_.public_key()));
  EXPECT_EQ(evidence[0].ours.n, evidence[0].theirs.n);
  EXPECT_NE(evidence[0].ours.root, evidence[0].theirs.root);
}

TEST_F(GossipTest, ForgedRootsIgnored) {
  ra::GossipPool pool(&keys_);
  auto msg = ca_.revoke({SerialNumber::from_uint(1)}, 1000);
  msg.signed_root.signature[0] ^= 1;
  EXPECT_FALSE(pool.observe(msg.signed_root).has_value());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.forged_dropped(), 1u);
}

TEST_F(GossipTest, UnknownCaIgnored) {
  ra::GossipPool pool(&keys_);
  auto other = make_ca("CA-OTHER", 21);
  const auto msg = other.revoke({SerialNumber::from_uint(1)}, 1000);
  EXPECT_FALSE(pool.observe(msg.signed_root).has_value());
  EXPECT_EQ(pool.size(), 0u);
}

TEST_F(GossipTest, TransitiveDetectionThroughMiddleman) {
  // Victim only ever talks to a relay; the honest root still reaches it.
  ra::GossipPool honest(&keys_), relay(&keys_), victim(&keys_);
  const auto hide = SerialNumber::from_uint(99);
  const auto truth = ca_.revoke({SerialNumber::from_uint(98), hide}, 1000);
  honest.observe(truth.signed_root);

  ca::MisbehavingCa evil(ca_);
  victim.observe(evil.view_without(hide, 1000).signed_root);

  // The relay learns the truth, then the conflict surfaces at the victim.
  EXPECT_TRUE(ra::oracle::exchange(honest, relay).empty());
  const auto evidence = ra::oracle::exchange(relay, victim);
  EXPECT_FALSE(evidence.empty());
}

}  // namespace
}  // namespace ritm
