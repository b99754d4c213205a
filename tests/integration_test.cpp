// End-to-end integration tests: CA → distribution point → CDN → RA updater
// → DPI/agent → client, driven by the discrete-event simulator. The key
// property under test is the paper's §V bound: a revocation issued at time
// T is rejected by every RITM client no later than T + 2∆, including on
// connections established before the revocation.
#include <gtest/gtest.h>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "client/client.hpp"
#include "ra/agent.hpp"
#include "ra/updater.hpp"
#include "sim/event_loop.hpp"
#include "tls/session.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

constexpr UnixSeconds kDelta = 10;

/// A full RITM deployment in one fixture.
class Deployment {
 public:
  explicit Deployment(std::uint64_t seed)
      : rng_(seed),
        cdn_(cdn::make_global_cdn(/*ttl=*/0)),
        cdn_rpc_(&cdn_, seed),
        dp_(&cdn_, kDelta),
        ca_(make_ca(rng_)),
        sync_rpc_(&sync_service_),
        store_(),
        agent_({.delta = kDelta}, &store_),
        updater_({sim::GeoPoint{47.4, 8.5}}, &store_, &cdn_rpc_.rpc,
                 &sync_rpc_) {
    sync_service_.add(&ca_);
    dp_.register_ca(ca_.id(), ca_.public_key());
    store_.register_ca(ca_.id(), ca_.public_key(), kDelta);
    roots_.add(ca_.id(), ca_.public_key());

    crypto::Seed server_seed{};
    server_seed.fill(0x5E);
    server_kp_ = crypto::keypair_from_seed(server_seed);
    leaf_ = ca_.issue("example.com", server_kp_.public_key, 0, 10'000'000);

    // CA refresh + publish every ∆; RA pulls every ∆ (offset by one
    // second, as in a real deployment where parties are unsynchronized).
    loop_.schedule_every(0, from_seconds(kDelta), [this](TimeMs at) {
      const UnixSeconds now = to_seconds(at);
      if (!pending_revocations_.empty()) {
        dp_.submit(ca::FeedMessage::of(ca_.revoke(pending_revocations_, now)));
        pending_revocations_.clear();
      } else {
        dp_.submit(ca_.refresh(now));
      }
      dp_.publish(at);
    });
    loop_.schedule_every(from_seconds(1), from_seconds(kDelta),
                         [this](TimeMs at) {
                           if (dp_.next_period() == 0) return;
                           updater_.pull_up_to(dp_.next_period() - 1, at);
                         });
  }

  static ca::CertificationAuthority make_ca(Rng& rng) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-1";
    cfg.delta = kDelta;
    cfg.chain_length = 512;
    return ca::CertificationAuthority(cfg, rng, 0);
  }

  /// Queues a revocation; the CA signs and disseminates it at its next ∆
  /// boundary.
  void revoke_at_next_period(const SerialNumber& serial) {
    pending_revocations_.push_back(serial);
  }

  Rng rng_;
  sim::EventLoop loop_;
  cdn::Cdn cdn_;
  cdn::LocalCdn cdn_rpc_;
  ca::DistributionPoint dp_;
  ca::CertificationAuthority ca_;
  ca::SyncService sync_service_;
  svc::InProcessTransport sync_rpc_;
  ra::DictionaryStore store_;
  ra::RevocationAgent agent_;
  ra::RaUpdater updater_;
  cert::TrustStore roots_;
  crypto::KeyPair server_kp_;
  cert::Certificate leaf_;
  std::vector<SerialNumber> pending_revocations_;
};

TEST(Integration, HandshakeThroughFullPipeline) {
  Deployment d(1);
  d.loop_.run_until(from_seconds(25));  // a few periods of feed traffic

  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            d.roots_);
  const sim::Endpoint ce{sim::Endpoint::parse_ip("10.0.0.1"), 5555};
  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};

  const UnixSeconds now = to_seconds(d.loop_.now());
  auto ch = tls::make_client_hello(ce, se, d.rng_, true);
  d.agent_.process(ch, now);
  auto flight = tls::make_server_flight(ce, se, d.rng_, {d.leaf_}, false);
  d.agent_.process(flight, now);
  EXPECT_EQ(client.process_server_flight(flight, now),
            client::Verdict::accepted);
}

TEST(Integration, RevocationRejectedWithinTwoDelta) {
  Deployment d(2);
  d.loop_.run_until(from_seconds(25));

  // Revoke the server's certificate; the CA disseminates at t=30, the RA
  // pulls at t=31.
  d.revoke_at_next_period(d.leaf_.serial);
  d.loop_.run_until(from_seconds(32));

  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            d.roots_);
  const sim::Endpoint ce{sim::Endpoint::parse_ip("10.0.0.1"), 6666};
  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};
  const UnixSeconds now = to_seconds(d.loop_.now());

  auto ch = tls::make_client_hello(ce, se, d.rng_, true);
  d.agent_.process(ch, now);
  auto flight = tls::make_server_flight(ce, se, d.rng_, {d.leaf_}, false);
  d.agent_.process(flight, now);
  EXPECT_EQ(client.process_server_flight(flight, now),
            client::Verdict::revoked);
}

TEST(Integration, MidConnectionRevocationWithinTwoDelta) {
  // The race-condition scenario: connect first, revoke after, and verify
  // the established connection dies within 2∆ of dissemination.
  Deployment d(3);
  d.loop_.run_until(from_seconds(25));

  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            d.roots_);
  const sim::Endpoint ce{sim::Endpoint::parse_ip("10.0.0.1"), 7777};
  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};

  UnixSeconds now = to_seconds(d.loop_.now());
  auto ch = tls::make_client_hello(ce, se, d.rng_, true);
  d.agent_.process(ch, now);
  auto flight = tls::make_server_flight(ce, se, d.rng_, {d.leaf_}, false);
  d.agent_.process(flight, now);
  ASSERT_EQ(client.process_server_flight(flight, now),
            client::Verdict::accepted);
  auto fin = tls::make_server_finished(ce, se);
  d.agent_.process(fin, now);

  // Revocation disseminated at t=30.
  d.revoke_at_next_period(d.leaf_.serial);
  const UnixSeconds dissemination_time = 30;

  // Application traffic flows every second; the client validates each
  // packet and applies the 2∆ interrupt rule.
  bool torn_down = false;
  UnixSeconds teardown_time = 0;
  for (UnixSeconds t = now + 1; t <= dissemination_time + 2 * kDelta + 1;
       ++t) {
    d.loop_.run_until(from_seconds(t));
    auto data = tls::make_app_data(se, ce, {0xDA});
    d.agent_.process(data, t);
    const auto verdict = client.process_established(data, t);
    const sim::FlowKey flow = sim::FlowKey::of(data).reversed();
    if (verdict == client::Verdict::revoked ||
        client.check_interrupt(flow, t)) {
      torn_down = true;
      teardown_time = t;
      break;
    }
  }
  ASSERT_TRUE(torn_down);
  EXPECT_LE(teardown_time, dissemination_time + 2 * kDelta);
}

TEST(Integration, ConnectionSurvivesWithPeriodicRefresh) {
  // Without any revocation, a long-lived connection keeps receiving fresh
  // statuses and is never interrupted.
  Deployment d(4);
  d.loop_.run_until(from_seconds(25));

  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            d.roots_);
  const sim::Endpoint ce{sim::Endpoint::parse_ip("10.0.0.1"), 8888};
  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};

  UnixSeconds now = to_seconds(d.loop_.now());
  auto ch = tls::make_client_hello(ce, se, d.rng_, true);
  d.agent_.process(ch, now);
  auto flight = tls::make_server_flight(ce, se, d.rng_, {d.leaf_}, false);
  d.agent_.process(flight, now);
  ASSERT_EQ(client.process_server_flight(flight, now),
            client::Verdict::accepted);
  auto fin = tls::make_server_finished(ce, se);
  d.agent_.process(fin, now);

  const sim::FlowKey flow = sim::FlowKey::of(flight).reversed();
  for (UnixSeconds t = now + 1; t <= now + 120; ++t) {
    d.loop_.run_until(from_seconds(t));
    auto data = tls::make_app_data(se, ce, {0x01});
    d.agent_.process(data, t);
    const auto verdict = client.process_established(data, t);
    EXPECT_NE(verdict, client::Verdict::revoked);
    EXPECT_FALSE(client.check_interrupt(flow, t)) << "at t=" << t;
  }
  EXPECT_EQ(client.connection_count(), 1u);
  EXPECT_GT(d.agent_.stats().statuses_refreshed, 8u);
}

TEST(Integration, BlockedStatusesTripInterrupt) {
  // MITM that drops status messages (§V "MITM and Blocking Attack"): the
  // client stops seeing fresh statuses and interrupts within 2∆.
  Deployment d(5);
  d.loop_.run_until(from_seconds(25));

  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            d.roots_);
  const sim::Endpoint ce{sim::Endpoint::parse_ip("10.0.0.1"), 9999};
  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};

  UnixSeconds now = to_seconds(d.loop_.now());
  auto ch = tls::make_client_hello(ce, se, d.rng_, true);
  d.agent_.process(ch, now);
  auto flight = tls::make_server_flight(ce, se, d.rng_, {d.leaf_}, false);
  d.agent_.process(flight, now);
  ASSERT_EQ(client.process_server_flight(flight, now),
            client::Verdict::accepted);
  auto fin = tls::make_server_finished(ce, se);
  d.agent_.process(fin, now);

  // The adversary forwards traffic but strips every RITM status record.
  const sim::FlowKey flow = sim::FlowKey::of(flight).reversed();
  bool interrupted = false;
  UnixSeconds when = 0;
  for (UnixSeconds t = now + 1; t <= now + 3 * kDelta; ++t) {
    auto data = tls::make_app_data(se, ce, {0x02});
    d.agent_.process(data, t);
    ra::strip_status(data);  // MITM drops the status
    client.process_established(data, t);
    if (client.check_interrupt(flow, t)) {
      interrupted = true;
      when = t;
      break;
    }
  }
  ASSERT_TRUE(interrupted);
  EXPECT_LE(when, now + 2 * kDelta + 1);
}

TEST(Integration, RaBootstrapsViaSyncAfterDowntime) {
  // An RA that comes online late recovers the full dictionary via the sync
  // protocol and then serves correct proofs.
  Deployment d(6);
  // Revocations happen before the RA's first pull.
  d.revoke_at_next_period(SerialNumber::from_uint(0xAAAA, 3));
  d.loop_.run_until(from_seconds(12));
  d.revoke_at_next_period(SerialNumber::from_uint(0xBBBB, 3));
  d.loop_.run_until(from_seconds(65));

  EXPECT_EQ(d.store_.have_n("CA-1"), 2u);
  EXPECT_FALSE(d.store_.needs_sync("CA-1"));
  const auto status =
      d.store_.status_for("CA-1", SerialNumber::from_uint(0xAAAA, 3));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->proof.type, dict::Proof::Type::presence);
}

TEST(Integration, FeedBytesAreMeteredPerPull) {
  Deployment d(7);
  d.loop_.run_until(from_seconds(100));
  const auto& totals = d.updater_.totals();
  EXPECT_GE(totals.pulls, 9u);
  EXPECT_GT(totals.bytes, 0u);
  // Quiet periods: each pull is a small freshness-dominated object.
  EXPECT_LT(double(totals.bytes) / double(totals.pulls), 512.0);
}

}  // namespace
}  // namespace ritm
