// RA tests: dictionary store acceptance rules, DPI classification, the
// Fig. 3 flow state machine, periodic status refresh, multi-RA handling,
// session resumption, and the CDN updater with gap recovery.
#include <gtest/gtest.h>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/service.hpp"
#include "ra/agent.hpp"
#include "ra/dpi.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "tls/session.hpp"

namespace ritm::ra {
namespace {

using cert::SerialNumber;

ca::CertificationAuthority make_ca(std::uint64_t seed,
                                   UnixSeconds delta = 10) {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-1";
  cfg.delta = delta;
  cfg.chain_length = 64;
  return ca::CertificationAuthority(cfg, rng, 1000);
}

/// An encoded status (what the DPI attaches and strips), decoded to read
/// its fields.
dict::RevocationStatus decoded(const Bytes& status) {
  return dict::RevocationStatus::decode(ByteSpan(status)).value();
}

// ------------------------------------------------------------- store

TEST(Store, AppliesHonestIssuance) {
  auto ca = make_ca(1);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto msg = ca.revoke({SerialNumber::from_uint(1)}, 1000);
  EXPECT_EQ(store.apply_issuance(msg, 1000), ApplyResult::ok);
  EXPECT_EQ(store.have_n("CA-1"), 1u);
}

TEST(Store, RejectsUnknownCa) {
  auto ca = make_ca(2);
  DictionaryStore store;  // CA never registered
  const auto msg = ca.revoke({SerialNumber::from_uint(1)}, 1000);
  EXPECT_EQ(store.apply_issuance(msg, 1000), ApplyResult::unknown_ca);
}

TEST(Store, RejectsForgedSignature) {
  auto ca = make_ca(3);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  auto msg = ca.revoke({SerialNumber::from_uint(1)}, 1000);
  msg.signed_root.signature[0] ^= 1;
  EXPECT_EQ(store.apply_issuance(msg, 1000), ApplyResult::bad_signature);
}

TEST(Store, DetectsGapAndFlagsSync) {
  auto ca = make_ca(4);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ca.revoke({SerialNumber::from_uint(1)}, 1000);  // missed by this RA
  const auto second = ca.revoke({SerialNumber::from_uint(2)}, 1010);
  EXPECT_EQ(store.apply_issuance(second, 1010), ApplyResult::gap_detected);
  EXPECT_TRUE(store.needs_sync("CA-1"));
  EXPECT_EQ(store.have_n("CA-1"), 0u);
}

TEST(Store, SyncRecoversFromGap) {
  auto ca = make_ca(5);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ca.revoke({SerialNumber::from_uint(1)}, 1000);
  ca.revoke({SerialNumber::from_uint(2)}, 1010);

  dict::SyncResponse resp;
  resp.ca = ca.id();
  resp.entries = ca.dictionary().entries_from(store.have_n("CA-1") + 1);
  resp.signed_root = ca.signed_root();
  resp.freshness = ca.freshness_at(1010);
  EXPECT_EQ(store.apply_sync(resp, 1010), ApplyResult::ok);
  EXPECT_EQ(store.have_n("CA-1"), 2u);
  EXPECT_FALSE(store.needs_sync("CA-1"));
}

// A CA re-signs the same dictionary when its hash chain runs out, so two
// signed roots can share n and root and differ only in timestamp. A sync
// answer (edge servers are untrusted) carrying the older one must not roll
// the replica back to a root whose chain has already expired.
TEST(Store, SyncRejectsAnOlderSignatureOfTheSameDictionary) {
  Rng rng(11);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-1";
  cfg.delta = 10;
  cfg.chain_length = 4;  // exhausted 40 s after each signature
  ca::CertificationAuthority ca(cfg, rng, 1000);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto r1 = ca.revoke({SerialNumber::from_uint(1)}, 1000);
  ASSERT_EQ(store.apply_issuance(r1, 1000), ApplyResult::ok);
  const auto refresh = ca.refresh(1050);
  ASSERT_EQ(refresh.type, ca::FeedMessage::Type::issuance);
  const dict::SignedRoot& r2 = refresh.issuance->signed_root;
  ASSERT_EQ(r2.n, r1.signed_root.n);
  ASSERT_EQ(r2.root, r1.signed_root.root);
  ASSERT_GT(r2.timestamp, r1.signed_root.timestamp);
  ASSERT_EQ(store.apply_issuance(*refresh.issuance, 1050), ApplyResult::ok);

  dict::SyncResponse old;
  old.ca = ca.id();
  old.signed_root = r1.signed_root;
  old.freshness = r1.signed_root.freshness_anchor;
  EXPECT_EQ(store.apply_sync(old, 1050), ApplyResult::stale_root);
  EXPECT_EQ(store.apply_issuance(r1, 1050), ApplyResult::stale_root);
  EXPECT_EQ(store.root_of(ca.id())->encode(), r2.encode());
}

TEST(Store, FreshnessAcceptedWithinTolerance) {
  auto ca = make_ca(6, /*delta=*/10);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);

  // Statement for period 2, RA clock at period 2 -> accepted.
  const dict::FreshnessStatement msg{ca.id(), ca.freshness_at(1025)};
  EXPECT_EQ(store.apply_freshness(msg, 1025), ApplyResult::ok);
  // Statement for period 2, RA clock at period 3 -> still within tolerance.
  EXPECT_EQ(store.apply_freshness(msg, 1035), ApplyResult::ok);
  // Statement for period 2, RA clock at period 9 -> stale.
  EXPECT_EQ(store.apply_freshness(msg, 1095), ApplyResult::bad_freshness);
}

// The walk from the last verified statement is capped, so a clock (or a
// corrupt WAL record's `now`) far past the root costs no more than
// HashChain::kMaxFreshnessWalk hashes instead of (now - t) / ∆.
TEST(Store, FreshnessWalkIsBounded) {
  auto ca = make_ca(12, /*delta=*/10);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);
  const dict::FreshnessStatement msg{ca.id(), ca.freshness_at(1010)};
  const UnixSeconds far = UnixSeconds{1} << 62;
  EXPECT_EQ(store.apply_freshness(msg, far), ApplyResult::bad_freshness);
  EXPECT_EQ(store.apply_freshness(msg, 1010), ApplyResult::ok);
}

TEST(Store, FreshnessForgedRejected) {
  auto ca = make_ca(7);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);
  crypto::Digest20 forged{};
  forged.fill(0x66);
  EXPECT_EQ(store.apply_freshness({ca.id(), forged}, 1010),
            ApplyResult::bad_freshness);
}

TEST(Store, StatusForServesProofs) {
  auto ca = make_ca(8);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(5)}, 1000), 1000);

  const auto revoked = store.status_for("CA-1", SerialNumber::from_uint(5));
  ASSERT_TRUE(revoked.has_value());
  EXPECT_EQ(revoked->proof.type, dict::Proof::Type::presence);

  const auto valid = store.status_for("CA-1", SerialNumber::from_uint(6));
  ASSERT_TRUE(valid.has_value());
  EXPECT_EQ(valid->proof.type, dict::Proof::Type::absence);
  EXPECT_TRUE(dict::verify_proof(valid->proof, SerialNumber::from_uint(6),
                                 valid->signed_root.root,
                                 valid->signed_root.n));

  EXPECT_FALSE(store.status_for("CA-??", SerialNumber::from_uint(5)));
}

// ------------------------------------------------------------- status cache

TEST(StatusCache, WarmLookupServesIdenticalBytes) {
  auto ca = make_ca(40);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(5)}, 1000), 1000);

  const auto serial = SerialNumber::from_uint(5);
  const auto cold = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(store.cache_stats().misses, 1u);
  EXPECT_EQ(store.cache_stats().hits, 0u);

  const auto warm = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(store.cache_stats().hits, 1u);
  EXPECT_EQ(warm->bytes, cold->bytes);  // same cached entry, no re-encode

  // The cached bytes are exactly what the cold path assembles.
  const auto reference = store.status_for("CA-1", serial);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(*warm->bytes, reference->encode());
  EXPECT_EQ(warm->n, reference->signed_root.n);
  EXPECT_EQ(warm->timestamp, reference->signed_root.timestamp);

  EXPECT_FALSE(store.status_bytes_for("CA-??", serial).has_value());
}

TEST(StatusCache, RootChangeInvalidatesAndServesNewRoot) {
  auto ca = make_ca(41);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);

  const auto serial = SerialNumber::from_uint(33);
  const auto before = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(before.has_value());
  auto old_status = dict::RevocationStatus::decode(ByteSpan(*before->bytes));
  ASSERT_TRUE(old_status.has_value());
  EXPECT_EQ(old_status->proof.type, dict::Proof::Type::absence);

  // Root change: the probed serial itself gets revoked. The apply drops
  // the one shard the lookup filled.
  const auto invalidations = store.cache_stats().invalidations;
  store.apply_issuance(ca.revoke({serial}, 1010), 1010);
  EXPECT_EQ(store.cache_stats().invalidations, invalidations + 1);

  const auto after = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(before->n, 1u);
  EXPECT_EQ(after->n, 2u);
  auto fresh = dict::RevocationStatus::decode(ByteSpan(*after->bytes));
  ASSERT_TRUE(fresh.has_value());
  // No stale bytes: the served status reflects the new root and proves the
  // revocation that just happened.
  EXPECT_EQ(fresh->proof.type, dict::Proof::Type::presence);
  EXPECT_EQ(fresh->signed_root.n, 2u);
  EXPECT_EQ(fresh->signed_root.root, ca.signed_root().root);
  EXPECT_TRUE(dict::verify_proof(fresh->proof, serial,
                                 fresh->signed_root.root, 2));
}

TEST(StatusCache, FreshnessStatementInvalidates) {
  auto ca = make_ca(42, /*delta=*/10);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);

  const auto serial = SerialNumber::from_uint(2);
  const auto before = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(before.has_value());

  // A newer freshness statement changes the served status without touching
  // the dictionary — the cache must not keep handing out the old proof of
  // freshness.
  ASSERT_EQ(store.apply_freshness({ca.id(), ca.freshness_at(1025)}, 1025),
            ApplyResult::ok);
  const auto after = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(after.has_value());
  auto decoded = dict::RevocationStatus::decode(ByteSpan(*after->bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->freshness, ca.freshness_at(1025));
}

TEST(StatusCache, ClockEvictionBoundedByByteBudget) {
  // Serials come off observed certificates (attacker-controlled), so the
  // cache must not grow without bound on high-cardinality traffic.
  auto ca = make_ca(44);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);
  store.set_status_cache_budget(16 * 1024);  // a few dozen entries

  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(
        store.status_bytes_for("CA-1", SerialNumber::from_uint(10 + i, 4)));
  }
  // Entries are evicted one at a time under the byte budget, never
  // wholesale: far more evictions than invalidations, footprint bounded.
  EXPECT_GT(store.cache_stats().evictions, 3000u);
  EXPECT_EQ(store.cache_stats().invalidations, 0u);
  EXPECT_LE(store.memory_bytes(),
            store.storage_bytes() + 64 * 1024);  // bounded, not monotone

  // Post-eviction lookups still serve correct statuses.
  const auto s = store.status_bytes_for("CA-1", SerialNumber::from_uint(1));
  ASSERT_TRUE(s.has_value());
  auto decoded = dict::RevocationStatus::decode(ByteSpan(*s->bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->proof.type, dict::Proof::Type::presence);
}

TEST(StatusCache, ClockKeepsHotSerialsWarmAcrossEvictions) {
  // The CLOCK second-chance bit: a serial touched every round survives a
  // streaming flood of one-shot serials that would have wiped a wholesale-
  // eviction cache.
  auto ca = make_ca(45);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.apply_issuance(ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000);
  store.set_status_cache_budget(16 * 1024);

  const auto hot = SerialNumber::from_uint(1);
  ASSERT_TRUE(store.status_bytes_for("CA-1", hot));  // admit the hot serial
  std::uint64_t hot_hits = 0;
  for (std::size_t i = 0; i < 2048; ++i) {
    // One cold probe per round, then the hot serial again.
    ASSERT_TRUE(
        store.status_bytes_for("CA-1", SerialNumber::from_uint(100 + i, 4)));
    const auto before = store.cache_stats().hits;
    ASSERT_TRUE(store.status_bytes_for("CA-1", hot));
    hot_hits += store.cache_stats().hits - before;
  }
  // The hot serial was re-proven at most a handful of times (only when the
  // hand happened to land on it with the bit already spent).
  EXPECT_GT(hot_hits, 2000u);
  EXPECT_GT(store.cache_stats().evictions, 1500u);
}

TEST(StatusCache, CrossCaIsolation) {
  Rng rng(43);
  ca::CertificationAuthority::Config cfg1, cfg2;
  cfg1.id = "CA-1";
  cfg2.id = "CA-2";
  ca::CertificationAuthority ca1(cfg1, rng, 1000), ca2(cfg2, rng, 1000);

  DictionaryStore store;
  store.register_ca(ca1.id(), ca1.public_key(), 10);
  store.register_ca(ca2.id(), ca2.public_key(), 10);
  const auto serial = SerialNumber::from_uint(7);
  store.apply_issuance(ca1.revoke({serial}, 1000), 1000);  // revoked by CA-1
  store.apply_issuance(ca2.revoke({SerialNumber::from_uint(8)}, 1000), 1000);

  // The same serial must resolve per CA: present under CA-1, absent under
  // CA-2 — the caches cannot bleed into each other.
  const auto s1 = store.status_bytes_for("CA-1", serial);
  const auto s2 = store.status_bytes_for("CA-2", serial);
  ASSERT_TRUE(s1 && s2);
  auto d1 = dict::RevocationStatus::decode(ByteSpan(*s1->bytes));
  auto d2 = dict::RevocationStatus::decode(ByteSpan(*s2->bytes));
  ASSERT_TRUE(d1 && d2);
  EXPECT_EQ(d1->proof.type, dict::Proof::Type::presence);
  EXPECT_EQ(d2->proof.type, dict::Proof::Type::absence);
  EXPECT_EQ(d1->signed_root.ca, "CA-1");
  EXPECT_EQ(d2->signed_root.ca, "CA-2");

  // Mutating CA-2 must not invalidate CA-1's cache: the next CA-1 lookup is
  // still a hit.
  store.apply_issuance(ca2.revoke({SerialNumber::from_uint(9)}, 1010), 1010);
  const auto hits = store.cache_stats().hits;
  const auto again = store.status_bytes_for("CA-1", serial);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(store.cache_stats().hits, hits + 1);
  EXPECT_EQ(*again->bytes, *s1->bytes);
}

TEST(Store, CrossCheckConsistentRootIsSilent) {
  auto ca = make_ca(9);
  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto msg = ca.revoke({SerialNumber::from_uint(1)}, 1000);
  store.apply_issuance(msg, 1000);
  EXPECT_FALSE(store.cross_check(msg.signed_root).has_value());
}

// ------------------------------------------------------------- DPI

class DpiTest : public ::testing::Test {
 protected:
  Rng rng_{77};
  sim::Endpoint client_{sim::Endpoint::parse_ip("12.34.56.78"), 9012};
  sim::Endpoint server_{sim::Endpoint::parse_ip("98.76.54.32"), 443};
};

TEST_F(DpiTest, ClassifiesNonTls) {
  EXPECT_FALSE(is_tls(ByteSpan(Bytes{'G', 'E', 'T', ' ', '/'})));
  const auto in = inspect(ByteSpan(Bytes{0x00, 0x01, 0x02}));
  EXPECT_EQ(in.kind, Inspection::Kind::not_tls);
}

TEST_F(DpiTest, ClassifiesClientHello) {
  const auto pkt = tls::make_client_hello(client_, server_, rng_, true);
  const auto in = inspect(ByteSpan(pkt.payload));
  EXPECT_EQ(in.kind, Inspection::Kind::client_hello);
  EXPECT_TRUE(in.ritm_offered);
}

TEST_F(DpiTest, ClassifiesServerFlightWithChain) {
  cert::Certificate leaf;
  leaf.serial = SerialNumber::from_uint(0x73E10A5, 4);
  leaf.issuer = "CA-1";
  leaf.subject = "example.com";
  const auto pkt =
      tls::make_server_flight(client_, server_, rng_, {leaf}, false);
  const auto in = inspect(ByteSpan(pkt.payload));
  EXPECT_EQ(in.kind, Inspection::Kind::server_flight);
  ASSERT_TRUE(in.chain.has_value());
  EXPECT_EQ(in.chain->front().issuer, "CA-1");
}

TEST_F(DpiTest, AttachAndStripStatus) {
  auto pkt = tls::make_app_data(server_, client_, {9, 9});
  dict::RevocationStatus status;
  status.signed_root.ca = "CA-1";
  attach_status(pkt, ByteSpan(status.encode()));

  const auto in = inspect(ByteSpan(pkt.payload));
  ASSERT_EQ(in.statuses.size(), 1u);
  EXPECT_EQ(decoded(in.statuses[0]).signed_root.ca, "CA-1");

  const auto stripped = strip_status(pkt);
  ASSERT_EQ(stripped.size(), 1u);
  EXPECT_EQ(decoded(stripped[0]).signed_root.ca, "CA-1");
  // Stripped payload is the original app-data record.
  const auto in2 = inspect(ByteSpan(pkt.payload));
  EXPECT_TRUE(in2.statuses.empty());
  EXPECT_EQ(in2.kind, Inspection::Kind::app_data);
}

TEST_F(DpiTest, ReplaceStatusKeepsOneCopy) {
  auto pkt = tls::make_app_data(server_, client_, {1});
  dict::RevocationStatus old_status, new_status;
  old_status.signed_root.ca = "CA-1";
  old_status.signed_root.n = 1;
  new_status.signed_root.ca = "CA-1";
  new_status.signed_root.n = 2;
  attach_status(pkt, ByteSpan(old_status.encode()));
  replace_status(pkt, ByteSpan(new_status.encode()));
  auto stripped = strip_status(pkt);
  ASSERT_EQ(stripped.size(), 1u);
  EXPECT_EQ(decoded(stripped[0]).signed_root.n, 2u);
}

TEST_F(DpiTest, ReplaceStatusLeavesOtherCasStatuses) {
  // Chain proofs put statuses of several CAs on one packet: replacing one
  // CA's status keeps every other CA's, and keeps the records that are no
  // status at all (the client strips those).
  auto pkt = tls::make_app_data(server_, client_, {1});
  dict::RevocationStatus int_old, root, int_new;
  int_old.signed_root.ca = "INT-CA";
  int_old.signed_root.n = 1;
  root.signed_root.ca = "ROOT-CA";
  int_new.signed_root.ca = "INT-CA";
  int_new.signed_root.n = 2;
  const Bytes garbage{0xde, 0xad};
  attach_status(pkt, ByteSpan(int_old.encode()));
  attach_status(pkt, ByteSpan(garbage));
  attach_status(pkt, ByteSpan(root.encode()));
  attach_status(pkt, ByteSpan(int_old.encode()));
  replace_status(pkt, ByteSpan(int_new.encode()));

  const auto records = tls::decode_records(ByteSpan(pkt.payload));
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 4u);  // app data, garbage, ROOT-CA, INT-CA
  EXPECT_EQ((*records)[1].payload, garbage);
  const auto stripped = strip_status(pkt);
  ASSERT_EQ(stripped.size(), 2u);
  EXPECT_EQ(stripped[0], root.encode());
  EXPECT_EQ(stripped[1], int_new.encode());
}

TEST_F(DpiTest, ConfirmRitmSetsExtension) {
  cert::Certificate leaf;
  leaf.serial = SerialNumber::from_uint(1);
  leaf.issuer = "CA-1";
  auto pkt = tls::make_server_flight(client_, server_, rng_, {leaf}, false);
  EXPECT_TRUE(confirm_ritm(pkt));
  const auto in = inspect(ByteSpan(pkt.payload));
  ASSERT_TRUE(in.server_hello.has_value());
  EXPECT_TRUE(in.server_hello->confirms_ritm());
  // Chain must survive the rewrite.
  ASSERT_TRUE(in.chain.has_value());
  EXPECT_EQ(in.chain->front().issuer, "CA-1");
}

// ------------------------------------------------------------- agent

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : ca_(make_ca(20)), agent_({}, &store_) {
    store_.register_ca(ca_.id(), ca_.public_key(), ca_.delta());
    // Baseline: one revocation so the dictionary is non-empty.
    store_.apply_issuance(ca_.revoke({SerialNumber::from_uint(999)}, 1000),
                          1000);
    leaf_.serial = SerialNumber::from_uint(0x1234, 3);
    leaf_.issuer = "CA-1";
    leaf_.subject = "example.com";
  }

  sim::Packet client_hello(bool ritm = true) {
    return tls::make_client_hello(client_, server_, rng_, ritm);
  }
  sim::Packet server_flight(Bytes session = {}) {
    return tls::make_server_flight(client_, server_, rng_, {leaf_}, false,
                                   std::move(session));
  }

  Rng rng_{88};
  ca::CertificationAuthority ca_;
  DictionaryStore store_;
  RevocationAgent agent_;
  sim::Endpoint client_{sim::Endpoint::parse_ip("12.34.56.78"), 9012};
  sim::Endpoint server_{sim::Endpoint::parse_ip("98.76.54.32"), 443};
  cert::Certificate leaf_;
};

TEST_F(AgentTest, FullHandshakeAttachesStatus) {
  auto ch = client_hello();
  EXPECT_EQ(agent_.process(ch, 2000), RevocationAgent::Action::state_created);
  EXPECT_EQ(agent_.flow_count(), 1u);

  auto flight = server_flight();
  EXPECT_EQ(agent_.process(flight, 2000),
            RevocationAgent::Action::status_attached);
  const auto stripped = strip_status(flight);
  ASSERT_EQ(stripped.size(), 1u);
  EXPECT_EQ(decoded(stripped[0]).proof.type, dict::Proof::Type::absence);

  auto fin = tls::make_server_finished(client_, server_);
  EXPECT_EQ(agent_.process(fin, 2000), RevocationAgent::Action::established);
}

TEST_F(AgentTest, RepeatedHandshakesServeFromStatusCache) {
  // Same certificate across connections: the first handshake proves and
  // encodes, every later one memcpys the cached bytes — and those bytes
  // must still decode into a verifying status.
  for (int i = 0; i < 3; ++i) {
    const sim::Endpoint c{client_.ip, std::uint16_t(9100 + i)};
    auto ch = tls::make_client_hello(c, server_, rng_, true);
    agent_.process(ch, 2000);
    auto flight = tls::make_server_flight(c, server_, rng_, {leaf_}, false);
    EXPECT_EQ(agent_.process(flight, 2000),
              RevocationAgent::Action::status_attached);
    auto stripped = strip_status(flight);
    ASSERT_EQ(stripped.size(), 1u);
    const auto status = decoded(stripped[0]);
    EXPECT_TRUE(dict::verify_proof(status.proof, leaf_.serial,
                                   status.signed_root.root,
                                   status.signed_root.n));
  }
  EXPECT_EQ(store_.cache_stats().misses, 1u);
  EXPECT_EQ(store_.cache_stats().hits, 2u);

  // A root change mid-stream invalidates: the next handshake re-proves
  // against the new root.
  store_.apply_issuance(ca_.revoke({SerialNumber::from_uint(555)}, 2100),
                        2100);
  const sim::Endpoint c{client_.ip, std::uint16_t(9200)};
  auto ch = tls::make_client_hello(c, server_, rng_, true);
  agent_.process(ch, 2100);
  auto flight = tls::make_server_flight(c, server_, rng_, {leaf_}, false);
  agent_.process(flight, 2100);
  auto stripped = strip_status(flight);
  ASSERT_EQ(stripped.size(), 1u);
  EXPECT_EQ(decoded(stripped[0]).signed_root.n, 2u);  // the post-change root
  EXPECT_EQ(store_.cache_stats().misses, 2u);
  EXPECT_EQ(store_.cache_stats().invalidations, 1u);
}

TEST_F(AgentTest, NonRitmClientPassesThrough) {
  auto ch = client_hello(/*ritm=*/false);
  EXPECT_EQ(agent_.process(ch, 2000), RevocationAgent::Action::passed);
  EXPECT_EQ(agent_.flow_count(), 0u);
  auto flight = server_flight();
  EXPECT_EQ(agent_.process(flight, 2000), RevocationAgent::Action::passed);
  auto copy = flight;
  EXPECT_TRUE(strip_status(copy).empty());
}

TEST_F(AgentTest, NonTlsPassesUntouched) {
  auto pkt = tls::make_plain_packet(client_, server_, {1, 2, 3});
  const Bytes before = pkt.payload;
  EXPECT_EQ(agent_.process(pkt, 2000), RevocationAgent::Action::passed);
  EXPECT_EQ(pkt.payload, before);
  EXPECT_EQ(agent_.stats().non_tls, 1u);
}

TEST_F(AgentTest, PeriodicRefreshAfterDelta) {
  auto ch = client_hello();
  agent_.process(ch, 2000);
  auto flight = server_flight();
  agent_.process(flight, 2000);
  auto fin = tls::make_server_finished(client_, server_);
  agent_.process(fin, 2000);

  // Before ∆ elapses: no refresh.
  auto data1 = tls::make_app_data(server_, client_, {1});
  EXPECT_EQ(agent_.process(data1, 2005), RevocationAgent::Action::passed);
  EXPECT_TRUE(strip_status(data1).empty());

  // After ∆: refresh rides the first server->client packet.
  auto data2 = tls::make_app_data(server_, client_, {2});
  EXPECT_EQ(agent_.process(data2, 2010),
            RevocationAgent::Action::status_refreshed);
  EXPECT_EQ(strip_status(data2).size(), 1u);
  EXPECT_EQ(agent_.stats().statuses_refreshed, 1u);
}

TEST_F(AgentTest, ClientToServerDataDoesNotCarryStatus) {
  auto ch = client_hello();
  agent_.process(ch, 2000);
  auto flight = server_flight();
  agent_.process(flight, 2000);
  auto fin = tls::make_server_finished(client_, server_);
  agent_.process(fin, 2000);
  auto upload = tls::make_app_data(client_, server_, {7});
  EXPECT_EQ(agent_.process(upload, 2050), RevocationAgent::Action::passed);
  EXPECT_TRUE(strip_status(upload).empty());
}

TEST_F(AgentTest, MultiRaDefersToFresherStatus) {
  auto ch = client_hello();
  agent_.process(ch, 2000);

  // Upstream RA already attached a status with a larger n.
  auto flight = server_flight();
  auto fresher = *store_.status_for("CA-1", leaf_.serial);
  fresher.signed_root.n = 100;  // pretend: newer view
  attach_status(flight, ByteSpan(fresher.encode()));
  EXPECT_EQ(agent_.process(flight, 2000), RevocationAgent::Action::passed);
  EXPECT_EQ(agent_.stats().statuses_deferred, 1u);
  auto copy = flight;
  EXPECT_EQ(strip_status(copy).size(), 1u);  // upstream status kept
}

TEST_F(AgentTest, MultiRaReplacesStalerStatus) {
  // Advance our store so ours is fresher than the attached one.
  store_.apply_issuance(ca_.revoke({SerialNumber::from_uint(777)}, 2100),
                        2100);
  auto ch = client_hello();
  agent_.process(ch, 2100);

  auto flight = server_flight();
  dict::RevocationStatus stale;
  stale.signed_root.ca = "CA-1";
  stale.signed_root.n = 1;  // older view
  attach_status(flight, ByteSpan(stale.encode()));
  EXPECT_EQ(agent_.process(flight, 2100),
            RevocationAgent::Action::status_replaced);
  auto stripped = strip_status(flight);
  ASSERT_EQ(stripped.size(), 1u);
  EXPECT_EQ(decoded(stripped[0]).signed_root.n, 2u);
}

TEST_F(AgentTest, SessionResumptionUsesCache) {
  // Full handshake with a session id populates the cache.
  Rng rng(99);
  const Bytes session = rng.bytes(32);
  auto ch = client_hello();
  agent_.process(ch, 2000);
  auto flight = server_flight(session);
  agent_.process(flight, 2000);

  // New connection from another client port, abbreviated handshake.
  const sim::Endpoint client2{client_.ip, 9999};
  auto ch2 = tls::make_client_hello(client2, server_, rng_, true, session);
  agent_.process(ch2, 2050);
  auto abbreviated = tls::make_server_flight(client2, server_, rng_, {},
                                             false, session,
                                             /*abbreviated=*/true);
  EXPECT_EQ(agent_.process(abbreviated, 2050),
            RevocationAgent::Action::status_attached);
  EXPECT_EQ(agent_.stats().resumptions_served, 1u);
  auto stripped = strip_status(abbreviated);
  ASSERT_EQ(stripped.size(), 1u);
}

TEST_F(AgentTest, UnknownCaCounted) {
  leaf_.issuer = "CA-UNREGISTERED";
  auto ch = client_hello();
  agent_.process(ch, 2000);
  auto flight = server_flight();
  EXPECT_EQ(agent_.process(flight, 2000), RevocationAgent::Action::passed);
  EXPECT_EQ(agent_.stats().unknown_ca, 1u);
}

TEST_F(AgentTest, FlowExpiry) {
  auto ch = client_hello();
  agent_.process(ch, 2000);
  EXPECT_EQ(agent_.flow_count(), 1u);
  EXPECT_EQ(agent_.expire_flows(2100), 0u);  // within timeout (300 s)
  EXPECT_EQ(agent_.expire_flows(2500), 1u);
  EXPECT_EQ(agent_.flow_count(), 0u);
}

TEST_F(AgentTest, TerminatorModeConfirmsRitm) {
  RevocationAgent::Config cfg;
  cfg.terminator_mode = true;
  RevocationAgent term(cfg, &store_);
  auto ch = client_hello();
  term.process(ch, 2000);
  auto flight = server_flight();
  term.process(flight, 2000);
  strip_status(flight);
  const auto in = inspect(ByteSpan(flight.payload));
  ASSERT_TRUE(in.server_hello.has_value());
  EXPECT_TRUE(in.server_hello->confirms_ritm());
}

// ------------------------------------------------------------- updater

TEST(Updater, PullsAndAppliesFeed) {
  auto ca = make_ca(30);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca.id(), ca.public_key());

  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  cdn::LocalCdn cdn_rpc(&cdn);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_rpc.rpc);

  dp.submit(ca::FeedMessage::of(ca.revoke({SerialNumber::from_uint(1)},
                                          1000)));
  dp.publish(0);
  dp.submit(ca::FeedMessage::of(
      dict::FreshnessStatement{ca.id(), ca.freshness_at(1010)}));
  dp.publish(10'000);

  const auto result = updater.pull_up_to(1, from_seconds(1010));
  EXPECT_EQ(result.messages, 2u);
  EXPECT_GT(result.bytes, 0u);
  EXPECT_EQ(store.have_n("CA-1"), 1u);
  EXPECT_EQ(updater.totals().applied_ok, 2u);
  EXPECT_EQ(updater.next_period(), 2u);
}

TEST(Updater, GapTriggersSync) {
  auto ca = make_ca(31);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca.id(), ca.public_key());

  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::SyncService sync_service;
  sync_service.add(&ca);
  svc::InProcessTransport sync_rpc(&sync_service);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_rpc.rpc,
                    &sync_rpc);

  // Period 0 published while this RA was offline (never uploaded).
  ca.revoke({SerialNumber::from_uint(1)}, 1000);
  // Period 1: the RA sees only the second issuance -> gap -> sync.
  dp.submit(ca::FeedMessage::of(ca.revoke({SerialNumber::from_uint(2)},
                                          1010)));
  dp.publish(10'000);
  updater.pull_up_to(0, from_seconds(1020));

  EXPECT_EQ(updater.totals().syncs, 1u);
  EXPECT_EQ(store.have_n("CA-1"), 2u);
  EXPECT_FALSE(store.needs_sync("CA-1"));
}

/// Everything an RA needs to pull a feed and heal gaps, wired the way
/// ritm_serve wires it: the sync endpoint knows the feed's period source.
struct FeedRig {
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp{&cdn, 10};
  cdn::LocalCdn cdn_rpc{&cdn};
  ca::SyncService sync_service;
  DictionaryStore store;

  FeedRig() { sync_service.set_period_source(&dp); }

  void add(const ca::CertificationAuthority& ca) {
    dp.register_ca(ca.id(), ca.public_key());
    sync_service.add(&ca);
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
  }
};

bool served_revoked(const DictionaryStore& store, const cert::CaId& ca,
                    std::uint64_t serial) {
  const auto status = store.status_for(ca, SerialNumber::from_uint(serial));
  return status && status->proof.type == dict::Proof::Type::presence;
}

TEST(Updater, GapSyncKeepsPullingTheNextPeriod) {
  // The RA heals a gap in period 0 before period 1 exists. Period 1 then
  // revokes serial 3 and period 2 carries only freshness: the cursor must
  // fetch both, whatever resume_period the sync answered with.
  auto ca = make_ca(33);
  FeedRig rig;
  rig.add(ca);
  svc::InProcessTransport sync_rpc(&rig.sync_service);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &rig.store, &rig.cdn_rpc.rpc,
                    &sync_rpc);

  ca.revoke({SerialNumber::from_uint(1)}, 1000);  // never published
  rig.dp.submit(ca::FeedMessage::of(
      ca.revoke({SerialNumber::from_uint(2)}, 1010)));
  rig.dp.publish(from_seconds(1010));
  updater.pull_up_to(0, from_seconds(1020));
  ASSERT_EQ(updater.totals().syncs, 1u);
  ASSERT_EQ(rig.store.have_n(ca.id()), 2u);
  EXPECT_EQ(updater.next_period(), 1u);

  rig.dp.submit(ca::FeedMessage::of(
      ca.revoke({SerialNumber::from_uint(3)}, 1020)));
  rig.dp.publish(from_seconds(1020));
  rig.dp.submit(ca::FeedMessage::of(
      dict::FreshnessStatement{ca.id(), ca.freshness_at(1030)}));
  rig.dp.publish(from_seconds(1030));
  updater.pull_up_to(2, from_seconds(1030));

  EXPECT_EQ(updater.next_period(), 3u);
  EXPECT_EQ(rig.store.have_n(ca.id()), 3u);
  EXPECT_TRUE(served_revoked(rig.store, ca.id(), 3));
  EXPECT_EQ(updater.totals().rejected, 0u);
  EXPECT_EQ(updater.totals().syncs, 1u);
}

TEST(Updater, GapSyncOfOneCaKeepsOtherCasPeriods) {
  // Four periods are out; the RA is three behind. CA-A's gap sync in
  // period 0 covers CA-A's state, but CA-B revokes serial 9 in period 1,
  // so the cursor must still walk periods 1..3.
  auto ca_a = make_ca(34);
  Rng rng(35);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-2";
  cfg.delta = 10;
  cfg.chain_length = 64;
  ca::CertificationAuthority ca_b(cfg, rng, 1000);
  FeedRig rig;
  rig.add(ca_a);
  rig.add(ca_b);
  svc::InProcessTransport sync_rpc(&rig.sync_service);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &rig.store, &rig.cdn_rpc.rpc,
                    &sync_rpc);

  ca_a.revoke({SerialNumber::from_uint(1)}, 1000);  // never published
  rig.dp.submit(ca::FeedMessage::of(
      ca_a.revoke({SerialNumber::from_uint(2)}, 1010)));
  rig.dp.submit(ca::FeedMessage::of(
      ca_b.revoke({SerialNumber::from_uint(8)}, 1010)));
  rig.dp.publish(from_seconds(1010));
  rig.dp.submit(ca::FeedMessage::of(
      ca_b.revoke({SerialNumber::from_uint(9)}, 1020)));
  rig.dp.publish(from_seconds(1020));
  rig.dp.publish(from_seconds(1030));
  rig.dp.publish(from_seconds(1040));
  ASSERT_EQ(rig.dp.next_period(), 4u);

  updater.pull_up_to(3, from_seconds(1040));

  EXPECT_EQ(updater.next_period(), 4u);
  EXPECT_EQ(updater.totals().syncs, 1u);
  EXPECT_EQ(rig.store.have_n(ca_a.id()), 2u);
  EXPECT_EQ(rig.store.have_n(ca_b.id()), 2u);
  EXPECT_TRUE(served_revoked(rig.store, ca_b.id(), 9));
  EXPECT_EQ(updater.totals().rejected, 0u);
}

TEST(Updater, LateBootstrapOfOneCaKeepsOtherCasPeriods) {
  // CA-A is pulled through period 0, then revokes serials 2 and 3 in
  // periods 1 and 2. A late bootstrap of CA-B from an object covering
  // periods 0..2 must not move the shared cursor past CA-A's periods, and
  // the pulls that follow skip CA-B's messages its snapshot already holds.
  auto ca_a = make_ca(37);
  Rng rng(38);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-2";
  cfg.delta = 10;
  cfg.chain_length = 64;
  ca::CertificationAuthority ca_b(cfg, rng, 1000);
  FeedRig rig;
  rig.add(ca_a);
  rig.add(ca_b);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &rig.store, &rig.cdn_rpc.rpc);

  rig.dp.submit(ca::FeedMessage::of(
      ca_a.revoke({SerialNumber::from_uint(1)}, 1000)));
  rig.dp.publish(from_seconds(1000));
  updater.pull_up_to(0, from_seconds(1000));
  ASSERT_EQ(updater.next_period(), 1u);

  for (std::uint64_t period = 1; period <= 2; ++period) {
    const UnixSeconds t = 1000 + 10 * UnixSeconds(period);
    rig.dp.submit(ca::FeedMessage::of(
        ca_a.revoke({SerialNumber::from_uint(1 + period)}, t)));
    rig.dp.submit(ca::FeedMessage::of(
        ca_b.revoke({SerialNumber::from_uint(10 + period)}, t)));
    rig.dp.publish(from_seconds(t));
  }
  ASSERT_EQ(rig.dp.publish_cold_start(ca_b.cold_start_object(2, 1020),
                                      from_seconds(1020)),
            svc::Status::ok);
  ASSERT_EQ(updater.bootstrap(ca_b.id(), from_seconds(1020)),
            svc::Status::ok);
  EXPECT_EQ(updater.next_period(), 1u);  // CA-A covers only period 0

  rig.dp.submit(ca::FeedMessage::of(
      dict::FreshnessStatement{ca_a.id(), ca_a.freshness_at(1030)}));
  rig.dp.submit(ca::FeedMessage::of(
      dict::FreshnessStatement{ca_b.id(), ca_b.freshness_at(1030)}));
  rig.dp.publish(from_seconds(1030));
  updater.pull_up_to(3, from_seconds(1030));

  EXPECT_EQ(updater.next_period(), 4u);
  EXPECT_EQ(rig.store.have_n(ca_a.id()), 3u);
  EXPECT_TRUE(served_revoked(rig.store, ca_a.id(), 2));
  EXPECT_TRUE(served_revoked(rig.store, ca_a.id(), 3));
  EXPECT_EQ(rig.store.have_n(ca_b.id()), 2u);
  EXPECT_EQ(updater.totals().rejected, 0u);
  EXPECT_EQ(updater.totals().applied_ok, 1u + 2u + 1u + 2u);
}

TEST(Updater, FailedGapSyncIsRetriedAtTheNextFreshnessStatement) {
  // The sync endpoint is down for the period that exposes a gap, then up
  // for three freshness-only periods. The first statement retries the
  // sync; all three are accepted on the healed replica.
  class SwitchableTransport final : public svc::Transport {
   public:
    explicit SwitchableTransport(svc::Transport* inner) : inner_(inner) {}
    svc::CallResult call(const svc::Request& req) override {
      if (!up) {
        svc::CallResult r;
        r.status = svc::Status::transport_error;
        return r;
      }
      return inner_->call(req);
    }
    bool up = true;
   private:
    svc::Transport* inner_;
  };

  auto ca = make_ca(36);
  FeedRig rig;
  rig.add(ca);
  svc::InProcessTransport sync_in(&rig.sync_service);
  SwitchableTransport sync_rpc(&sync_in);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &rig.store, &rig.cdn_rpc.rpc,
                    &sync_rpc);

  rig.dp.submit(ca::FeedMessage::of(
      ca.revoke({SerialNumber::from_uint(1)}, 1000)));
  rig.dp.publish(from_seconds(1000));
  updater.pull_up_to(0, from_seconds(1000));
  ASSERT_EQ(rig.store.have_n(ca.id()), 1u);

  ca.revoke({SerialNumber::from_uint(2)}, 1010);  // never published
  rig.dp.submit(ca::FeedMessage::of(
      ca.revoke({SerialNumber::from_uint(3)}, 1010)));
  rig.dp.publish(from_seconds(1010));
  sync_rpc.up = false;
  updater.pull_up_to(1, from_seconds(1010));
  ASSERT_EQ(rig.store.have_n(ca.id()), 1u);
  ASSERT_TRUE(rig.store.needs_sync(ca.id()));
  EXPECT_EQ(updater.totals().rejected_by.at(svc::Status::transport_error), 1u);

  sync_rpc.up = true;
  for (std::uint64_t period = 2; period <= 4; ++period) {
    const UnixSeconds t = 1000 + 10 * UnixSeconds(period);
    rig.dp.submit(ca::FeedMessage::of(
        dict::FreshnessStatement{ca.id(), ca.freshness_at(t)}));
    rig.dp.publish(from_seconds(t));
    updater.pull_up_to(period, from_seconds(t));
  }

  EXPECT_EQ(rig.store.have_n(ca.id()), 3u);
  EXPECT_FALSE(rig.store.needs_sync(ca.id()));
  EXPECT_TRUE(served_revoked(rig.store, ca.id(), 3));
  EXPECT_EQ(updater.totals().syncs, 2u);
  EXPECT_FALSE(
      updater.totals().rejected_by.contains(svc::Status::bad_freshness));
  EXPECT_EQ(updater.totals().rejected, 1u);
}

TEST(Updater, ConsistencyCheckFindsSplitView) {
  auto ca = make_ca(32);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca.id(), ca.public_key());

  DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());

  const auto hide = SerialNumber::from_uint(13);
  const auto honest = ca.revoke({SerialNumber::from_uint(12), hide}, 1000);
  store.apply_issuance(honest, 1000);

  // The CDN serves a fabricated root (compromised CA + edge).
  ca::MisbehavingCa evil(ca);
  const auto fake = evil.view_without(hide, 1000);
  cdn.origin().put(ca::DistributionPoint::root_path("CA-1"),
                   fake.signed_root.encode(), 0);

  cdn::LocalCdn cdn_rpc(&cdn);
  RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_rpc.rpc);
  const auto evidence = updater.consistency_check("CA-1", 1000);
  ASSERT_TRUE(evidence.has_value());
  EXPECT_EQ(updater.totals().misbehaviour_detected, 1u);
}

}  // namespace
}  // namespace ritm::ra
