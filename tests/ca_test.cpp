// CA tests: issuance, revocation (Fig. 2 insert + Eq. (1) roots), refresh
// (Eq. (2) freshness / chain rollover), the feed codec, the distribution
// point's verification, and misbehaving-CA fault injection.
#include <gtest/gtest.h>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ra/store.hpp"

namespace ritm::ca {
namespace {

CertificationAuthority make_ca(std::uint64_t seed, UnixSeconds now = 1000,
                               UnixSeconds delta = 10,
                               std::size_t chain_len = 16) {
  Rng rng(seed);
  CertificationAuthority::Config cfg;
  cfg.id = "CA-1";
  cfg.delta = delta;
  cfg.chain_length = chain_len;
  return CertificationAuthority(cfg, rng, now);
}

TEST(Authority, IssuesSequentialSerials) {
  auto ca = make_ca(1);
  crypto::PublicKey subject{};
  const auto c1 = ca.issue("a.example", subject, 0, 10'000);
  const auto c2 = ca.issue("b.example", subject, 0, 10'000);
  EXPECT_EQ(c1.serial, cert::SerialNumber::from_uint(1));
  EXPECT_EQ(c2.serial, cert::SerialNumber::from_uint(2));
  EXPECT_EQ(c1.serial.value.size(), 3u);  // paper's modal serial width
  EXPECT_TRUE(c1.verify_signature(ca.public_key()));
}

TEST(Authority, InitialRootIsEmptyDict) {
  auto ca = make_ca(2);
  EXPECT_EQ(ca.signed_root().n, 0u);
  EXPECT_EQ(ca.signed_root().root, dict::empty_root());
  EXPECT_TRUE(ca.signed_root().verify(ca.public_key()));
}

TEST(Authority, RevokeProducesVerifiableIssuance) {
  auto ca = make_ca(3);
  const auto msg = ca.revoke({cert::SerialNumber::from_uint(7)}, 1000);
  ASSERT_EQ(msg.serials.size(), 1u);
  EXPECT_EQ(msg.signed_root.n, 1u);
  EXPECT_TRUE(msg.signed_root.verify(ca.public_key()));
  EXPECT_TRUE(ca.dictionary().contains(cert::SerialNumber::from_uint(7)));
}

TEST(Authority, RevokeRollsFreshChain) {
  auto ca = make_ca(4);
  const auto anchor1 = ca.signed_root().freshness_anchor;
  ca.revoke({cert::SerialNumber::from_uint(1)}, 1000);
  const auto anchor2 = ca.signed_root().freshness_anchor;
  EXPECT_NE(anchor1, anchor2);
}

TEST(Authority, RefreshEmitsVerifiableFreshness) {
  auto ca = make_ca(5, /*now=*/1000, /*delta=*/10);
  // Period 3 after the root timestamp.
  const auto msg = ca.refresh(1030);
  ASSERT_EQ(msg.type, FeedMessage::Type::freshness);
  EXPECT_TRUE(crypto::HashChain::verify(msg.freshness->statement, 3,
                                        ca.signed_root().freshness_anchor));
}

TEST(Authority, RefreshResignsWhenChainExhausted) {
  auto ca = make_ca(6, /*now=*/1000, /*delta=*/10, /*chain=*/4);
  const auto old_root = ca.signed_root();
  // p = 5 >= m = 4: must re-sign.
  const auto msg = ca.refresh(1050);
  ASSERT_EQ(msg.type, FeedMessage::Type::issuance);
  EXPECT_TRUE(msg.issuance->serials.empty());
  EXPECT_NE(msg.issuance->signed_root.freshness_anchor,
            old_root.freshness_anchor);
  EXPECT_EQ(msg.issuance->signed_root.n, old_root.n);
  EXPECT_GT(msg.issuance->signed_root.timestamp, old_root.timestamp);
}

TEST(Authority, PeriodAt) {
  auto ca = make_ca(7, /*now=*/1000, /*delta=*/10);
  EXPECT_EQ(ca.period_at(1000), 0u);
  EXPECT_EQ(ca.period_at(1009), 0u);
  EXPECT_EQ(ca.period_at(1010), 1u);
  EXPECT_EQ(ca.period_at(995), 0u);  // clock skew clamps to 0
}

TEST(Authority, StatusForAbsentAndRevoked) {
  auto ca = make_ca(8);
  const auto good = cert::SerialNumber::from_uint(5);
  const auto bad = cert::SerialNumber::from_uint(6);
  ca.revoke({bad}, 1000);
  EXPECT_EQ(ca.status_for(good, 1005).proof.type, dict::Proof::Type::absence);
  EXPECT_EQ(ca.status_for(bad, 1005).proof.type, dict::Proof::Type::presence);
}

TEST(Feed, MessageRoundTrip) {
  auto ca = make_ca(10);
  const auto issuance = ca.revoke({cert::SerialNumber::from_uint(1)}, 1000);
  const auto m1 = FeedMessage::of(issuance);
  const auto dec1 = FeedMessage::decode(ByteSpan(m1.encode()));
  ASSERT_TRUE(dec1.has_value());
  EXPECT_EQ(*dec1, m1);
  EXPECT_EQ(dec1->ca(), "CA-1");

  const auto m2 = FeedMessage::of(
      dict::FreshnessStatement{"CA-1", ca.freshness_at(1010)});
  const auto dec2 = FeedMessage::decode(ByteSpan(m2.encode()));
  ASSERT_TRUE(dec2.has_value());
  EXPECT_EQ(*dec2, m2);
}

TEST(Feed, FeedRoundTrip) {
  auto ca = make_ca(11);
  Feed feed;
  feed.push_back(FeedMessage::of(ca.revoke({cert::SerialNumber::from_uint(1)},
                                           1000)));
  feed.push_back(FeedMessage::of(
      dict::FreshnessStatement{"CA-1", ca.freshness_at(1010)}));
  const auto dec = decode_feed(ByteSpan(encode_feed(feed)));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, feed);
}

TEST(Feed, PathFormatting) {
  EXPECT_EQ(feed_path(0), "feed/000000");
  EXPECT_EQ(feed_path(42), "feed/000042");
}

TEST(DistributionPoint, VerifiesSubmissions) {
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(12);
  dp.register_ca(ca.id(), ca.public_key());

  auto good = FeedMessage::of(ca.revoke({cert::SerialNumber::from_uint(1)},
                                        1000));
  EXPECT_EQ(dp.submit(good), svc::Status::ok);

  // Tampered issuance: rejected.
  auto bad = good;
  bad.issuance->signed_root.n += 1;
  EXPECT_EQ(dp.submit(bad), svc::Status::bad_signature);

  // Unknown CA: rejected.
  auto other = make_ca(13);
  // (other has the same id "CA-1" but a different key; re-id it)
  auto stranger = FeedMessage::of(
      dict::FreshnessStatement{"CA-UNKNOWN", crypto::Digest20{}});
  EXPECT_EQ(dp.submit(stranger), svc::Status::unknown_ca);
  EXPECT_EQ(dp.rejected_submissions(), 2u);
}

TEST(DistributionPoint, PublishesFeedAndRoots) {
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(14);
  dp.register_ca(ca.id(), ca.public_key());
  dp.submit(FeedMessage::of(ca.revoke({cert::SerialNumber::from_uint(1)},
                                      1000)));
  dp.publish(0);
  EXPECT_EQ(dp.next_period(), 1u);

  const auto* feed_obj = cdn.origin().get(feed_path(0));
  ASSERT_NE(feed_obj, nullptr);
  const auto feed = decode_feed(ByteSpan(feed_obj->data));
  ASSERT_TRUE(feed.has_value());
  EXPECT_EQ(feed->size(), 1u);

  const auto* root_obj =
      cdn.origin().get(DistributionPoint::root_path("CA-1"));
  ASSERT_NE(root_obj, nullptr);
  const auto root = dict::SignedRoot::decode(ByteSpan(root_obj->data));
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->verify(ca.public_key()));

  // Next period publishes an empty feed.
  dp.publish(10'000);
  const auto* feed1 = cdn.origin().get(feed_path(1));
  ASSERT_NE(feed1, nullptr);
  EXPECT_TRUE(decode_feed(ByteSpan(feed1->data))->empty());
}

TEST(Misbehaving, SplitViewDetectedByCrossCheck) {
  auto ca = make_ca(15);
  const auto hide = cert::SerialNumber::from_uint(13);
  // Honest history applied to an RA replica.
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto honest =
      ca.revoke({cert::SerialNumber::from_uint(12), hide}, 1000);
  ASSERT_EQ(store.apply_issuance(honest, 1000), ra::ApplyResult::ok);

  // The CA fabricates a view without `hide` for some victim.
  MisbehavingCa evil(ca);
  const auto fake = evil.view_without(hide, 1000);
  EXPECT_TRUE(fake.signed_root.verify(ca.public_key()));
  EXPECT_EQ(fake.signed_root.n, honest.signed_root.n);
  EXPECT_NE(fake.signed_root.root, honest.signed_root.root);

  // Cross-checking the fake root against the honest replica yields
  // non-repudiable evidence.
  const auto evidence = store.cross_check(fake.signed_root);
  ASSERT_TRUE(evidence.has_value());
  EXPECT_TRUE(evidence->ours.verify(ca.public_key()));
  EXPECT_TRUE(evidence->theirs.verify(ca.public_key()));
}

TEST(Misbehaving, ReorderedViewDiffersFromHonest) {
  auto ca = make_ca(16);
  ca.revoke({cert::SerialNumber::from_uint(1),
             cert::SerialNumber::from_uint(2)},
            1000);
  MisbehavingCa evil(ca);
  const auto reordered = evil.reordered_view(1000);
  EXPECT_TRUE(reordered.signed_root.verify(ca.public_key()));
  EXPECT_EQ(reordered.signed_root.n, ca.signed_root().n);
  EXPECT_NE(reordered.signed_root.root, ca.signed_root().root);
}

}  // namespace
}  // namespace ritm::ca
