// Service-envelope tests (PR 5): byte-precise framing robustness in the
// style of tests/persist_test.cpp — truncation at every framing byte, a
// corruption sweep over every byte of a frame, version skew, oversized
// frames — plus the transport equivalence pin (in-process and TCP answer
// the same request stream with identical responses), the re-plumbed
// CDN/sync/status/gossip endpoints, and the TCP server's connection-limit
// and fatal-framing behavior.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/service.hpp"
#include "client/client.hpp"
#include "common/crc32.hpp"
#include "common/io.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "svc/fault.hpp"
#include "svc/mux.hpp"
#include "svc/resilient.hpp"
#include "svc/tcp.hpp"
#include "gossip_oracle.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

ca::CertificationAuthority make_ca(std::uint64_t seed,
                                   const std::string& id = "CA-1") {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = id;
  cfg.delta = 10;
  cfg.chain_length = 64;
  return ca::CertificationAuthority(cfg, rng, 1000);
}

/// Echoes the request body back, uppercasing the method into the first
/// byte — enough structure to notice any corruption.
class EchoService final : public svc::Service {
 public:
  svc::Response handle(const svc::Request& req) override {
    svc::Response out;
    out.request_id = req.request_id;
    out.body.push_back(static_cast<std::uint8_t>(req.method));
    append(out.body, ByteSpan(req.body));
    return out;
  }
};

svc::Request make_request(svc::Method method, Bytes body,
                          std::uint64_t id = 7) {
  svc::Request req;
  req.method = method;
  req.request_id = id;
  req.body = std::move(body);
  return req;
}

// ------------------------------------------------------------- envelope

TEST(Envelope, RequestRoundTrip) {
  const auto req = make_request(svc::Method::status_batch, {1, 2, 3, 4}, 42);
  const Bytes frame = svc::encode_frame(req);
  EXPECT_EQ(frame.size(), svc::kFrameOverheadBytes + req.body.size());

  const auto d = svc::decode_frame(ByteSpan(frame));
  ASSERT_EQ(d.status, svc::Status::ok);
  ASSERT_TRUE(d.is_request);
  EXPECT_EQ(d.request, req);
  EXPECT_EQ(d.consumed, frame.size());
}

TEST(Envelope, ResponseRoundTrip) {
  svc::Response resp;
  resp.status = svc::Status::unknown_ca;
  resp.request_id = 99;
  resp.body = {0xAA, 0xBB};
  const Bytes frame = svc::encode_frame(resp);

  const auto d = svc::decode_frame(ByteSpan(frame));
  ASSERT_EQ(d.status, svc::Status::ok);
  ASSERT_FALSE(d.is_request);
  EXPECT_EQ(d.response, resp);
}

TEST(Envelope, EmptyBodyRoundTrip) {
  const auto req = make_request(svc::Method::cdn_get, {});
  const auto d = svc::decode_frame(ByteSpan(svc::encode_frame(req)));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.request, req);
}

TEST(Envelope, TruncationAtEveryFramingByte) {
  // Every strict prefix of a valid frame must come back `truncated` with
  // nothing consumed — the "wait for more bytes" signal, never an error,
  // never a partial decode.
  const auto req = make_request(svc::Method::feed_delta, {9, 8, 7, 6, 5});
  const Bytes frame = svc::encode_frame(req);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const auto d = svc::decode_frame(ByteSpan(frame.data(), cut));
    EXPECT_EQ(d.status, svc::Status::truncated) << "cut " << cut;
    EXPECT_EQ(d.consumed, 0u) << "cut " << cut;
  }
  // Trailing extra bytes are left for the next frame.
  Bytes two = frame;
  append(two, ByteSpan(frame));
  const auto d = svc::decode_frame(ByteSpan(two));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.consumed, frame.size());
}

TEST(Envelope, CorruptionSweepNeverDecodesWrongContent) {
  // Flip every byte of the frame (all 8 bits each): the decoder must never
  // return ok with content that differs from what was sent. Flips inside
  // the CRC-covered region or the CRC itself are detected outright; flips
  // in the length field misalign the CRC check or leave the frame
  // truncated/oversized.
  const auto req = make_request(svc::Method::status_query, {1, 2, 3});
  const Bytes frame = svc::encode_frame(req);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = frame;
      bad[i] ^= std::uint8_t(1u << bit);
      const auto d = svc::decode_frame(ByteSpan(bad));
      if (d.status == svc::Status::ok) {
        EXPECT_TRUE(d.is_request) << "byte " << i << " bit " << bit;
        EXPECT_NE(d.request, req) << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(Envelope, BadCrcIsFatal) {
  const auto req = make_request(svc::Method::status_query, {1, 2, 3});
  Bytes frame = svc::encode_frame(req);
  frame.back() ^= 0x01;  // the CRC's low byte
  const auto d = svc::decode_frame(ByteSpan(frame));
  EXPECT_EQ(d.status, svc::Status::bad_crc);
  EXPECT_EQ(d.consumed, 0u);
}

TEST(Envelope, UndersizedLengthIsBadFrame) {
  Bytes frame;
  ByteWriter w(frame);
  w.u32(std::uint32_t(svc::kEnvelopeHeaderBytes - 1));
  w.raw(Bytes(64, 0));
  EXPECT_EQ(svc::decode_frame(ByteSpan(frame)).status,
            svc::Status::bad_frame);
}

TEST(Envelope, UnknownKindIsBadFrame) {
  const auto req = make_request(svc::Method::status_query, {});
  Bytes frame = svc::encode_frame(req);
  frame[4] = 2;  // kind byte: neither request nor response
  // Re-CRC so only the kind is wrong.
  const std::uint32_t crc = crc32(
      ByteSpan(frame.data() + 4, frame.size() - 8));
  frame[frame.size() - 4] = std::uint8_t(crc >> 24);
  frame[frame.size() - 3] = std::uint8_t(crc >> 16);
  frame[frame.size() - 2] = std::uint8_t(crc >> 8);
  frame[frame.size() - 1] = std::uint8_t(crc);
  EXPECT_EQ(svc::decode_frame(ByteSpan(frame)).status,
            svc::Status::bad_frame);
}

TEST(Envelope, OversizedFrameRejectedBeforeBuffering) {
  // A hostile length field is refused as soon as the 4 length bytes are
  // in — the decoder must not wait for (or allocate) the declared body.
  Bytes frame;
  ByteWriter w(frame);
  w.u32(1024 + 1);
  const auto d = svc::decode_frame(ByteSpan(frame), /*max_frame=*/1024);
  EXPECT_EQ(d.status, svc::Status::frame_too_large);
  EXPECT_EQ(d.consumed, 0u);
}

// ------------------------------------------------------------- dispatch

TEST(Dispatch, UnknownMethodEchoesRequestId) {
  // The CDN service implements exactly one method; anything else must be
  // answered unknown_method with the request id echoed.
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  cdn::CdnService service(&cdn);
  const auto req = make_request(svc::Method::status_query, {}, 1234);
  const auto reply = svc::serve_bytes(service, ByteSpan(svc::encode_frame(req)));
  ASSERT_FALSE(reply.need_more);
  ASSERT_FALSE(reply.fatal);
  const auto d = svc::decode_frame(ByteSpan(reply.frame));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.response.status, svc::Status::unknown_method);
  EXPECT_EQ(d.response.request_id, 1234u);
}

TEST(Dispatch, RetiredMethodIdsAnswerUnknownMethod) {
  // Ids 2 (feed_sync) and 3 (gossip_roots) are retired. A mux shaped like
  // ritm_serve's — RA endpoint as default, the CDN, and the feed sync
  // endpoint — answers both with unknown_method and echoes the request id.
  auto ca = make_ca(40);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca.id(), ca.public_key());
  cdn::LocalCdn local_cdn(&cdn);
  ca::SyncService sync;
  sync.add(&ca);
  sync.set_period_source(&dp);
  cert::TrustStore keys;
  keys.add(ca.id(), ca.public_key());
  ra::GossipPool gossip(&keys);
  ra::DictionaryStore store;
  ra::RaService ra_service(&store, &gossip);
  svc::MuxService mux;
  mux.set_default(&ra_service);
  mux.route(svc::Method::cdn_get, &local_cdn.service);
  mux.route(svc::Method::feed_delta, &sync);

  for (const std::uint16_t id : {2, 3}) {
    const auto req =
        make_request(static_cast<svc::Method>(id), {1, 2}, 900 + id);
    const auto reply = svc::serve_bytes(mux, ByteSpan(svc::encode_frame(req)));
    ASSERT_FALSE(reply.fatal) << "id " << id;
    const auto d = svc::decode_frame(ByteSpan(reply.frame));
    ASSERT_EQ(d.status, svc::Status::ok) << "id " << id;
    EXPECT_EQ(d.response.status, svc::Status::unknown_method) << "id " << id;
    EXPECT_EQ(d.response.request_id, 900u + id) << "id " << id;
  }
  // The live neighbours still reach their backends (and reject the bogus
  // body on its merits, not as an unknown method).
  for (const auto method : {svc::Method::status_query, svc::Method::feed_delta,
                            svc::Method::gossip_digest}) {
    const auto req = make_request(method, {1, 2}, 5);
    const auto reply = svc::serve_bytes(mux, ByteSpan(svc::encode_frame(req)));
    const auto d = svc::decode_frame(ByteSpan(reply.frame));
    ASSERT_EQ(d.status, svc::Status::ok);
    EXPECT_EQ(d.response.status, svc::Status::malformed)
        << static_cast<int>(method);
  }
}

TEST(FeedDelta, FreshnessNeverPassesTheLastPublish) {
  // feed_delta answers on a public port, so the requester's clock is
  // untrusted. Were it believed, a far-future clock would unlock the chain
  // seed, and a pre-revocation root would then stay fresh for the chain's
  // m periods instead of 2∆.
  auto ca = make_ca(41);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, ca.delta());
  dp.register_ca(ca.id(), ca.public_key());
  ca::SyncService sync;
  sync.add(&ca);
  const auto freshness_for = [&](UnixSeconds now) {
    const auto res = sync.handle(make_request(
        svc::Method::feed_delta,
        ca::encode_delta_request(dict::SyncRequest{ca.id(), 0}, now, 0)));
    EXPECT_EQ(res.status, svc::Status::ok);
    // Skip the leading resume_period.
    const auto resp =
        dict::SyncResponse::decode(ByteSpan(res.body).subspan(8));
    EXPECT_TRUE(resp.has_value());
    return resp ? resp->freshness : crypto::Digest20{};
  };
  const UnixSeconds t0 = ca.signed_root().timestamp;
  const UnixSeconds far = t0 + 1'000'000;
  const crypto::Digest20 anchor = ca.signed_root().freshness_anchor;

  // Nothing past the anchor is published without a period source, or
  // before its first publish.
  EXPECT_EQ(freshness_for(far), anchor);
  sync.set_period_source(&dp);
  EXPECT_EQ(freshness_for(far), anchor);

  dp.submit(ca::FeedMessage::of(
      dict::FreshnessStatement{ca.id(), ca.freshness_at(t0 + 30)}));
  dp.publish(from_seconds(t0 + 30));
  const crypto::Digest20 got = freshness_for(far);
  EXPECT_EQ(got, ca.freshness_at(t0 + 30));
  EXPECT_FALSE(crypto::HashChain::verify(got, 64, anchor));  // not the seed
  // A requester behind the feed still gets the statement for its clock.
  EXPECT_EQ(freshness_for(t0 + 10), ca.freshness_at(t0 + 10));
}

TEST(Dispatch, VersionSkewV2ClientV1Server) {
  EchoService v1;
  auto req = make_request(svc::Method::status_query, {}, 6);
  req.version = 2;
  const auto reply = svc::serve_bytes(v1, ByteSpan(svc::encode_frame(req)));
  ASSERT_FALSE(reply.fatal);
  const auto d = svc::decode_frame(ByteSpan(reply.frame));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.response.status, svc::Status::version_skew);
  EXPECT_EQ(d.response.request_id, 6u);
  // The response advertises the server's version so the client can log
  // what it speaks.
  EXPECT_EQ(d.response.version, svc::kProtocolVersion);
}

TEST(Dispatch, InProcessLatencyIsTheMeasuredRoundTrip) {
  // A service that takes 5 ms: the in-process transport reports at least
  // that, as TcpClient would — no service supplies its own latency.
  class SlowService final : public svc::Service {
   public:
    svc::Response handle(const svc::Request& req) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return svc::reject(req, svc::Status::not_found);
    }
  } slow;
  svc::InProcessTransport rpc(&slow);
  const auto r = rpc.call(make_request(svc::Method::cdn_get, {}, 0));
  ASSERT_EQ(r.status, svc::Status::ok);
  EXPECT_EQ(r.response.status, svc::Status::not_found);
  EXPECT_GE(r.latency_ms, 5.0);
}

TEST(Dispatch, FatalFramingAnswersThenCloses) {
  EchoService echo;
  Bytes garbage;
  ByteWriter w(garbage);
  w.u32(svc::kMaxFrameBytes + 1);
  const auto reply = svc::serve_bytes(echo, ByteSpan(garbage));
  ASSERT_TRUE(reply.fatal);
  const auto d = svc::decode_frame(ByteSpan(reply.frame));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.response.status, svc::Status::frame_too_large);
}

// ------------------------------------------------------------- endpoints

TEST(CdnEndpoint, GetServesOwnedBytesAcrossRepublish) {
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  cdn.origin().put("obj", Bytes(32, 0xC1), 0);
  cdn::LocalCdn rpc(&cdn);

  svc::Request req;
  req.method = svc::Method::cdn_get;
  req.body = cdn::encode_get_request("obj", 10, {47.4, 8.5});
  const auto r1 = rpc.rpc.call(req);
  ASSERT_TRUE(r1.ok());
  const auto payload1 = cdn::decode_get_response(ByteSpan(r1.response.body));
  ASSERT_TRUE(payload1.has_value());
  EXPECT_EQ(payload1->data, Bytes(32, 0xC1));
  EXPECT_EQ(payload1->version, 1u);

  // Republish: the first response's bytes are owned, not views.
  cdn.origin().put("obj", Bytes(48, 0xD2), 20);
  req.request_id = 0;
  const auto r2 = rpc.rpc.call(req);
  const auto payload2 = cdn::decode_get_response(ByteSpan(r2.response.body));
  ASSERT_TRUE(payload2.has_value());
  EXPECT_EQ(payload2->data, Bytes(48, 0xD2));
  EXPECT_EQ(payload1->data, Bytes(32, 0xC1));  // untouched

  svc::Request missing;
  missing.method = svc::Method::cdn_get;
  missing.body = cdn::encode_get_request("nope", 10, {47.4, 8.5});
  const auto r3 = rpc.rpc.call(missing);
  EXPECT_EQ(r3.status, svc::Status::ok);
  EXPECT_EQ(r3.response.status, svc::Status::not_found);
}

TEST(StatusEndpoint, SingleAndBatchAgreeAndValidate) {
  auto ca = make_ca(40);
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  std::vector<SerialNumber> revoked;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    revoked.push_back(SerialNumber::from_uint(i * 3, 4));
  }
  ASSERT_EQ(store.apply_issuance(ca.revoke(revoked, 1000), 1000),
            ra::ApplyResult::ok);

  ra::RaService service(&store);
  svc::InProcessTransport rpc(&service);

  std::vector<SerialNumber> probes;
  for (std::uint64_t i = 0; i < 32; ++i) {
    probes.push_back(SerialNumber::from_uint(i * 5 + 1, 4));
  }

  // Batch response == concatenation of single responses, byte for byte.
  std::vector<Bytes> singles;
  for (const auto& serial : probes) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(ca.id(), serial);
    const auto r = rpc.call(req);
    ASSERT_TRUE(r.ok());
    singles.push_back(r.response.body);
  }
  svc::Request batch_req;
  batch_req.method = svc::Method::status_batch;
  batch_req.body = ra::encode_status_batch(ca.id(), probes);
  const auto batch = rpc.call(batch_req);
  ASSERT_TRUE(batch.ok());
  const auto statuses =
      ra::decode_status_batch_reply(ByteSpan(batch.response.body));
  ASSERT_TRUE(statuses.has_value());
  ASSERT_EQ(statuses->size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ((*statuses)[i], singles[i]) << "serial " << i;
  }

  // Served statuses validate end to end through the client.
  cert::TrustStore roots;
  roots.add(ca.id(), ca.public_key());
  client::RitmClient client({.delta = 10, .expect_ritm = true,
                             .require_server_confirmation = false},
                            roots);
  cert::Certificate leaf;
  leaf.issuer = ca.id();
  leaf.not_after = 10'000'000;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    leaf.serial = probes[i];
    const std::uint64_t v = i * 5 + 1;  // probes[i]'s integer value
    const bool is_revoked = v % 3 == 0 && v / 3 >= 1 && v / 3 <= 100;
    const auto verdict =
        client.validate_status_bytes(ByteSpan((*statuses)[i]), leaf, 1000);
    if (is_revoked) {
      EXPECT_EQ(verdict, client::Verdict::revoked) << i;
    } else {
      EXPECT_EQ(verdict, client::Verdict::accepted) << i;
    }
  }

  // A batch whose response would blow the frame limit fails up front.
  svc::Request huge;
  huge.method = svc::Method::status_batch;
  {
    Bytes body;
    ByteWriter w(body);
    w.var8(ByteSpan(reinterpret_cast<const std::uint8_t*>(ca.id().data()),
                    ca.id().size()));
    w.u32(ra::kMaxBatchSerials + 1);
    huge.body = std::move(body);
  }
  EXPECT_EQ(rpc.call(huge).response.status, svc::Status::frame_too_large);

  // Taxonomy: unknown CA and not-yet-served CA are distinct codes.
  svc::Request unknown;
  unknown.method = svc::Method::status_query;
  unknown.body = ra::encode_status_query("CA-NOPE", probes[0]);
  EXPECT_EQ(rpc.call(unknown).response.status, svc::Status::unknown_ca);

  store.register_ca("CA-EMPTY", ca.public_key(), 10);
  svc::Request rootless;
  rootless.method = svc::Method::status_query;
  rootless.body = ra::encode_status_query("CA-EMPTY", probes[0]);
  EXPECT_EQ(rpc.call(rootless).response.status, svc::Status::unavailable);
}

TEST(StatusEndpoint, SerialLengthIsBoundedAtTheWire) {
  // Every serial decoder caps a serial at cert::kMaxSerialBytes; the status
  // methods must too, before the store proves, encodes and caches anything.
  auto ca = make_ca(42);
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ASSERT_EQ(store.apply_issuance(
                ca.revoke({SerialNumber::from_uint(3, 4)}, 1000), 1000),
            ra::ApplyResult::ok);
  ra::RaService service(&store);
  svc::InProcessTransport rpc(&service);
  const auto query = [&](std::size_t length) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(
        ca.id(), SerialNumber{Bytes(length, 0x5A)});
    return rpc.call(req).response.status;
  };

  EXPECT_EQ(query(cert::kMaxSerialBytes), svc::Status::ok);
  const auto misses = store.cache_stats().misses;
  for (const std::size_t length : {std::size_t{21}, std::size_t{255}}) {
    EXPECT_EQ(query(length), svc::Status::malformed) << length;
  }
  EXPECT_EQ(store.cache_stats().misses, misses);

  // A batch is read whole before any of it is served: the valid, uncached
  // serials ahead of a bad one or of trailing bytes are never proved.
  svc::Request batch;
  batch.method = svc::Method::status_batch;
  batch.body = ra::encode_status_batch(
      ca.id(), {SerialNumber::from_uint(4, 4), SerialNumber::from_uint(5, 4),
                SerialNumber{Bytes(cert::kMaxSerialBytes + 1, 0x5A)}});
  EXPECT_EQ(rpc.call(batch).response.status, svc::Status::malformed);
  EXPECT_EQ(store.cache_stats().misses, misses);
  batch.body = ra::encode_status_batch(
      ca.id(), {SerialNumber::from_uint(6, 4), SerialNumber::from_uint(7, 4)});
  batch.body.push_back(0x00);
  EXPECT_EQ(rpc.call(batch).response.status, svc::Status::malformed);
  EXPECT_EQ(store.cache_stats().misses, misses);

  batch.body = ra::encode_status_batch(
      ca.id(), {SerialNumber::from_uint(1, 4),
                SerialNumber{Bytes(cert::kMaxSerialBytes + 1, 0x5A)},
                SerialNumber::from_uint(2, 4)});
  EXPECT_EQ(rpc.call(batch).response.status, svc::Status::malformed);
  batch.body = ra::encode_status_batch(
      ca.id(), {SerialNumber::from_uint(1, 4),
                SerialNumber{Bytes(cert::kMaxSerialBytes, 0x5A)}});
  EXPECT_EQ(rpc.call(batch).response.status, svc::Status::ok);
}

TEST(SyncEndpoint, GapRecoveryOverTransport) {
  auto ca = make_ca(41);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca.id(), ca.public_key());
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::SyncService sync_service;
  sync_service.add(&ca);
  svc::InProcessTransport sync_rpc(&sync_service);

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_rpc.rpc,
                        &sync_rpc);

  // Period 0 missed entirely; period 1's issuance exposes the gap.
  ca.revoke({SerialNumber::from_uint(1)}, 1000);
  dp.submit(ca::FeedMessage::of(ca.revoke({SerialNumber::from_uint(2)},
                                          1010)));
  dp.publish(10'000);
  updater.pull_up_to(0, from_seconds(1020));

  EXPECT_EQ(updater.totals().syncs, 1u);
  EXPECT_EQ(store.have_n(ca.id()), 2u);
  EXPECT_FALSE(store.needs_sync(ca.id()));
  EXPECT_EQ(updater.totals().rejected, 0u);
}

TEST(GossipEndpoint, ReconcileOverTransportMatchesDirectExchange) {
  auto ca = make_ca(42);
  ca::MisbehavingCa evil(ca);
  const auto hide = SerialNumber::from_uint(13);
  const auto honest = ca.revoke({SerialNumber::from_uint(12), hide}, 1000);
  const auto fake = evil.view_without(hide, 1000);

  cert::TrustStore keys;
  keys.add(ca.id(), ca.public_key());

  // Direct in-memory exchange as the oracle.
  ra::GossipPool alice_direct(&keys), bob_direct(&keys);
  alice_direct.observe(honest.signed_root);
  bob_direct.observe(fake.signed_root);
  // The conflict is discovered once per side (alice observing bob's root,
  // bob observing alice's).
  const auto direct = ra::oracle::exchange(alice_direct, bob_direct);
  ASSERT_EQ(direct.size(), 2u);

  // The same exchange with Bob behind a transport.
  ra::DictionaryStore bob_store;
  ra::GossipPool alice(&keys), bob(&keys);
  alice.observe(honest.signed_root);
  bob.observe(fake.signed_root);
  ra::RaService bob_service(&bob_store, &bob);
  svc::InProcessTransport bob_rpc(&bob_service);

  const auto wired = alice.reconcile_over(bob_rpc);
  ASSERT_TRUE(wired.has_value());
  ASSERT_EQ(wired->size(), direct.size());
  // Same evidence set, independent of which side reported first.
  const auto key = [](const ra::MisbehaviourEvidence& e) {
    return to_hex(ByteSpan(e.ours.encode())) +
           to_hex(ByteSpan(e.theirs.encode()));
  };
  std::vector<std::string> direct_keys, wired_keys;
  for (const auto& e : direct) direct_keys.push_back(key(e));
  for (const auto& e : *wired) wired_keys.push_back(key(e));
  std::sort(direct_keys.begin(), direct_keys.end());
  std::sort(wired_keys.begin(), wired_keys.end());
  EXPECT_EQ(direct_keys, wired_keys);
  // Both sides hold the union afterwards, like the direct exchange.
  EXPECT_EQ(alice.size(), alice_direct.size());
  EXPECT_EQ(bob.size(), bob_direct.size());

  // A pool-less RA answers gossip with `unavailable`.
  ra::RaService no_gossip(&bob_store);
  svc::InProcessTransport no_gossip_rpc(&no_gossip);
  EXPECT_FALSE(alice.reconcile_over(no_gossip_rpc).has_value());
}

TEST(GossipEndpoint, FabricatedPeerEvidenceIsDropped) {
  // A lying peer RA returns "evidence" it invented. reconcile_over must
  // re-check every pair against the observe() rule (both roots signed by
  // the CA's key, same n, different root) instead of believing the peer.
  auto ca = make_ca(46);
  const auto honest = ca.revoke({SerialNumber::from_uint(5)}, 1000);

  class LyingPeer final : public svc::Service {
   public:
    explicit LyingPeer(std::vector<ra::MisbehaviourEvidence> fabricated)
        : fabricated_(std::move(fabricated)) {}
    svc::Response handle(const svc::Request& req) override {
      svc::Response out;
      out.request_id = req.request_id;
      // An empty digest, then a pull reply with no roots of its own.
      out.body = req.method == svc::Method::gossip_digest
                     ? ra::encode_gossip_digest({})
                     : ra::encode_gossip_reply({{}, fabricated_});
      return out;
    }
   private:
    std::vector<ra::MisbehaviourEvidence> fabricated_;
  };

  cert::TrustStore keys;
  keys.add(ca.id(), ca.public_key());

  // Fabrication 1: the same root twice (no conflict). Fabrication 2: a
  // "conflicting" root whose signature is not the CA's.
  dict::SignedRoot forged = honest.signed_root;
  forged.root[0] ^= 0x01;  // different hash, signature now invalid
  LyingPeer liar({{honest.signed_root, honest.signed_root},
                  {honest.signed_root, forged}});
  svc::InProcessTransport liar_rpc(&liar);

  ra::GossipPool pool(&keys);
  pool.observe(honest.signed_root);
  const auto evidence = pool.reconcile_over(liar_rpc);
  ASSERT_TRUE(evidence.has_value());
  EXPECT_TRUE(evidence->empty());       // nothing believed
  EXPECT_EQ(pool.forged_dropped(), 2u); // both fabrications counted
}

TEST(Updater, RejectionBreakdownByStatusCode) {
  // Two CAs publish through the distribution point; the RA only trusts
  // CA-1, so CA-2's messages land in the unknown_ca bucket of the
  // Totals::rejected breakdown.
  auto ca1 = make_ca(43, "CA-1");
  auto ca2 = make_ca(44, "CA-2");
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca1.id(), ca1.public_key());
  dp.register_ca(ca2.id(), ca2.public_key());
  cdn::LocalCdn cdn_rpc(&cdn);

  ra::DictionaryStore store;
  store.register_ca(ca1.id(), ca1.public_key(), ca1.delta());
  ra::RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_rpc.rpc);

  dp.submit(ca::FeedMessage::of(ca1.revoke({SerialNumber::from_uint(1)},
                                           1000)));
  dp.submit(ca::FeedMessage::of(ca2.revoke({SerialNumber::from_uint(2)},
                                           1000)));
  dp.publish(0);
  updater.pull_up_to(0, from_seconds(1010));

  EXPECT_EQ(updater.totals().applied_ok, 1u);
  EXPECT_EQ(updater.totals().rejected, 1u);
  ASSERT_TRUE(updater.totals().rejected_by.contains(svc::Status::unknown_ca));
  EXPECT_EQ(updater.totals().rejected_by.at(svc::Status::unknown_ca), 1u);
}

TEST(Updater, TransportFailureDoesNotAdvanceFeedCursor) {
  // A transient transport failure must leave the cursor in place so the
  // period is refetched on the next pull — advancing would WAL-mark the
  // period as covered and skip its feed forever.
  class FlakyTransport final : public svc::Transport {
   public:
    explicit FlakyTransport(svc::Transport* inner) : inner_(inner) {}
    svc::CallResult call(const svc::Request& req) override {
      if (fail_next) {
        fail_next = false;
        svc::CallResult r;
        r.status = svc::Status::transport_error;
        return r;
      }
      return inner_->call(req);
    }
    bool fail_next = false;
   private:
    svc::Transport* inner_;
  };

  auto ca = make_ca(45);
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  dp.register_ca(ca.id(), ca.public_key());
  cdn::LocalCdn cdn_rpc(&cdn);
  FlakyTransport flaky(&cdn_rpc.rpc);

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &flaky);

  dp.submit(ca::FeedMessage::of(ca.revoke({SerialNumber::from_uint(1)},
                                          1000)));
  dp.publish(0);

  flaky.fail_next = true;
  updater.pull_up_to(0, from_seconds(1010));
  EXPECT_EQ(updater.next_period(), 0u);  // cursor held for retry
  EXPECT_EQ(store.have_n(ca.id()), 0u);
  EXPECT_EQ(updater.totals().rejected_by.at(svc::Status::transport_error),
            1u);

  // The retry succeeds and applies the period normally.
  updater.pull_up_to(0, from_seconds(1010));
  EXPECT_EQ(updater.next_period(), 1u);
  EXPECT_EQ(store.have_n(ca.id()), 1u);
}

// ------------------------------------------------------------- TCP

struct RaFixture {
  RaFixture() : ca(make_ca(50)) {
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    std::vector<SerialNumber> revoked;
    for (std::uint64_t i = 1; i <= 500; ++i) {
      revoked.push_back(SerialNumber::from_uint(i * 7, 4));
    }
    apply_ok = store.apply_issuance(ca.revoke(revoked, 1000), 1000) ==
               ra::ApplyResult::ok;
  }
  ca::CertificationAuthority ca;
  ra::DictionaryStore store;
  bool apply_ok = false;
};

/// Raw loopback connect; returns the fd (>=0) or -1.
int raw_connect(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

Bytes read_to_eof(int fd) {
  Bytes got;
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  return got;
}

TEST(Tcp, StatusQueriesOverLoopback) {
  RaFixture f;
  ASSERT_TRUE(f.apply_ok);
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0});
  ASSERT_GT(server.port(), 0);
  svc::TcpClient client("127.0.0.1", server.port());

  for (std::uint64_t i = 0; i < 50; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i + 1, 4));
    const auto r = client.call(req);
    ASSERT_EQ(r.status, svc::Status::ok) << i;
    ASSERT_EQ(r.response.status, svc::Status::ok) << i;
    const auto status =
        dict::RevocationStatus::decode(ByteSpan(r.response.body));
    ASSERT_TRUE(status.has_value()) << i;
    EXPECT_GT(r.latency_ms, 0.0);
  }
  EXPECT_EQ(server.stats().requests, 50u);
  EXPECT_EQ(service.stats().single_queries, 50u);
}

TEST(Tcp, InProcessAndTcpAnswerIdenticalResponses) {
  // The transport-equivalence pin of the PR 5 acceptance criteria: one
  // request stream (status singles + batch + errors + a version skew),
  // played through both transports against identical state, must produce
  // identical Response envelopes — same status, same request id, same
  // payload bytes.
  RaFixture f;
  ASSERT_TRUE(f.apply_ok);
  ra::RaService service(&f.store);

  std::vector<svc::Request> stream;
  for (std::uint64_t i = 0; i < 20; ++i) {
    stream.push_back(make_request(
        svc::Method::status_query,
        ra::encode_status_query(f.ca.id(), SerialNumber::from_uint(i * 9, 4)),
        0));
  }
  std::vector<SerialNumber> batch;
  for (std::uint64_t i = 0; i < 64; ++i) {
    batch.push_back(SerialNumber::from_uint(i * 11 + 1, 4));
  }
  stream.push_back(make_request(svc::Method::status_batch,
                                ra::encode_status_batch(f.ca.id(), batch), 0));
  stream.push_back(make_request(
      svc::Method::status_query,
      ra::encode_status_query("CA-UNKNOWN", SerialNumber::from_uint(1, 4)),
      0));
  stream.push_back(make_request(svc::Method::cdn_get, {1, 2, 3}, 0));
  {
    auto skewed = make_request(svc::Method::status_query, {}, 0);
    skewed.version = 9;
    stream.push_back(skewed);
  }

  svc::InProcessTransport inproc(&service);
  std::vector<svc::Response> in_process;
  for (const auto& req : stream) in_process.push_back(inproc.call(req).response);

  svc::TcpServer server(&service, {.port = 0});
  svc::TcpClient tcp("127.0.0.1", server.port());
  std::vector<svc::Response> over_tcp;
  for (const auto& req : stream) {
    const auto r = tcp.call(req);
    ASSERT_EQ(r.status, svc::Status::ok);
    over_tcp.push_back(r.response);
  }

  ASSERT_EQ(in_process.size(), over_tcp.size());
  for (std::size_t i = 0; i < in_process.size(); ++i) {
    EXPECT_EQ(in_process[i], over_tcp[i]) << "request " << i;
  }
}

TEST(Tcp, ConnectionLimitShedsWithOverloadedEnvelope) {
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0, .max_connections = 1});

  svc::TcpClient first("127.0.0.1", server.port());
  svc::Request req;
  req.method = svc::Method::status_query;
  req.body = ra::encode_status_query(f.ca.id(),
                                     SerialNumber::from_uint(7, 4));
  ASSERT_TRUE(first.call(req).ok());

  // A second connection is shed at accept time: the server writes one
  // `overloaded` envelope and closes. Observed with a raw socket that
  // sends nothing, so the envelope cannot be raced by a reset.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  Bytes got;
  std::uint8_t buf[1024];
  while (true) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  close(fd);
  const auto d = svc::decode_frame(ByteSpan(got));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.response.status, svc::Status::overloaded);
  EXPECT_EQ(server.stats().shed_over_limit, 1u);

  // The admitted connection keeps working.
  req.request_id = 0;
  EXPECT_TRUE(first.call(req).ok());
}

TEST(Tcp, OversizedFrameAnsweredAndConnectionClosed) {
  // A length field past kMaxFrameBytes is refused before any body byte
  // arrives: one frame_too_large envelope, then EOF.
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0});
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  Bytes header;
  ByteWriter w(header);
  w.u32(svc::kMaxFrameBytes + 1);
  ASSERT_EQ(write(fd, header.data(), header.size()), ssize_t(header.size()));
  const Bytes got = read_to_eof(fd);
  close(fd);
  const auto d = svc::decode_frame(ByteSpan(got));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.response.status, svc::Status::frame_too_large);
  EXPECT_EQ(d.consumed, got.size());  // nothing after the error envelope
  EXPECT_GE(server.stats().fatal_frames, 1u);
}

TEST(Tcp, GarbageBytesGetFatalEnvelopeThenEof) {
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0});
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);

  // A frame whose CRC cannot match.
  const auto req = make_request(svc::Method::status_query, {1, 2, 3}, 3);
  Bytes frame = svc::encode_frame(req);
  frame.back() ^= 0xFF;
  ASSERT_EQ(write(fd, frame.data(), frame.size()), ssize_t(frame.size()));

  // Read everything until EOF: exactly one fatal error envelope.
  const Bytes got = read_to_eof(fd);
  close(fd);
  const auto d = svc::decode_frame(ByteSpan(got));
  ASSERT_EQ(d.status, svc::Status::ok);
  EXPECT_EQ(d.response.status, svc::Status::bad_crc);
  EXPECT_EQ(d.consumed, got.size());  // nothing after the error envelope
}

TEST(Tcp, PipelinedFramesAllAnswered) {
  // Several frames written in one burst must all be dispatched (the server
  // drains complete frames from the buffer, not one per wakeup).
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0});

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  constexpr std::size_t kFrames = 32;
  Bytes burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.request_id = i + 1;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i + 1, 4));
    svc::encode_frame(req, burst);
  }
  ASSERT_EQ(write(fd, burst.data(), burst.size()), ssize_t(burst.size()));

  Bytes got;
  std::uint8_t buf[16 * 1024];
  std::size_t decoded = 0;
  while (decoded < kFrames) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
    while (true) {
      const auto d = svc::decode_frame(ByteSpan(got));
      if (d.status != svc::Status::ok) break;
      EXPECT_EQ(d.response.request_id, decoded + 1);
      EXPECT_EQ(d.response.status, svc::Status::ok);
      got.erase(got.begin(), got.begin() + d.consumed);
      ++decoded;
    }
  }
  close(fd);
  EXPECT_EQ(decoded, kFrames);
}

// --------------------------------------------------- resilience (PR 6)

TEST(Tcp, ConcurrentShedsAllGetWellFormedOverloadedEnvelopes) {
  // Many clients racing past the connection limit at once: every shed
  // connection must receive one complete, well-formed `overloaded`
  // envelope carrying the retry_after hint — never a naked reset, never a
  // torn frame.
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0, .max_connections = 1});

  // Occupy the single slot.
  svc::TcpClient holder("127.0.0.1", server.port());
  svc::Request req;
  req.method = svc::Method::status_query;
  req.body = ra::encode_status_query(f.ca.id(), SerialNumber::from_uint(7, 4));
  ASSERT_TRUE(holder.call(req).ok());

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<Bytes> got(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const int fd = raw_connect(server.port());
      if (fd < 0) return;
      got[i] = read_to_eof(fd);
      close(fd);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    const auto d = svc::decode_frame(ByteSpan(got[i]));
    ASSERT_EQ(d.status, svc::Status::ok) << "client " << i;
    ASSERT_FALSE(d.is_request) << "client " << i;
    EXPECT_EQ(d.response.status, svc::Status::overloaded) << "client " << i;
    EXPECT_EQ(d.consumed, got[i].size()) << "client " << i;
    const auto hint = svc::decode_retry_after(ByteSpan(d.response.body));
    ASSERT_TRUE(hint.has_value()) << "client " << i;
    EXPECT_EQ(*hint, 100u) << "client " << i;  // TcpServerOptions default
  }
  EXPECT_EQ(server.stats().shed_over_limit, std::uint64_t(kClients));

  // The admitted connection kept its slot through the storm.
  req.request_id = 0;
  EXPECT_TRUE(holder.call(req).ok());
}

TEST(Tcp, PerClientQuotaThrottlesFloodNotCompliantClients) {
  // A flooding connection blows its request-rate bucket: the excess frames
  // are answered `overloaded` with a computed retry_after hint and the
  // connection stops being read; a compliant connection on the same server
  // is untouched (buckets are per client).
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0,
                                   .requests_per_sec = 20.0,
                                   .burst_requests = 4});

  // Flood: one burst of 20 pipelined queries on a raw socket.
  const int flood_fd = raw_connect(server.port());
  ASSERT_GE(flood_fd, 0);
  constexpr std::size_t kFlood = 20;
  Bytes burst;
  for (std::size_t i = 0; i < kFlood; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.request_id = i + 1;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i + 1, 4));
    svc::encode_frame(req, burst);
  }
  ASSERT_EQ(write(flood_fd, burst.data(), burst.size()),
            ssize_t(burst.size()));

  // Every frame gets a response — served or refused, never dropped.
  Bytes got;
  std::size_t served = 0, refused = 0;
  std::uint8_t buf[16 * 1024];
  while (served + refused < kFlood) {
    const ssize_t n = read(flood_fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
    while (true) {
      const auto d = svc::decode_frame(ByteSpan(got));
      if (d.status != svc::Status::ok) break;
      if (d.response.status == svc::Status::ok) {
        ++served;
      } else {
        ASSERT_EQ(d.response.status, svc::Status::overloaded);
        const auto hint = svc::decode_retry_after(ByteSpan(d.response.body));
        ASSERT_TRUE(hint.has_value());
        EXPECT_GT(*hint, 0u);
      }
      if (d.response.status != svc::Status::ok) ++refused;
      got.erase(got.begin(), got.begin() + d.consumed);
    }
  }
  close(flood_fd);
  EXPECT_GE(served, 4u);   // the burst allowance
  EXPECT_GE(refused, 1u);  // and the flood was actually refused
  EXPECT_EQ(server.stats().throttled, std::uint64_t(refused));

  // The compliant client sees normal service throughout.
  svc::TcpClient compliant("127.0.0.1", server.port());
  for (std::uint64_t i = 0; i < 4; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i + 1, 4));
    const auto r = compliant.call(req);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.response.status, svc::Status::ok) << i;
  }
}

TEST(Tcp, ClientDeadlineCoversSilentServer) {
  // A server that accepts but never answers: the call must return
  // deadline_exceeded within the budget instead of blocking forever (the
  // pre-PR6 client hung in a bare read()).
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  ASSERT_EQ(listen(listener, 8), 0);

  svc::TcpClient client("127.0.0.1", ntohs(addr.sin_port),
                        {.timeout_ms = 200});
  svc::Request req;
  req.method = svc::Method::status_query;
  const auto start = std::chrono::steady_clock::now();
  const auto r = client.call(req);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(r.status, svc::Status::deadline_exceeded);
  EXPECT_LT(elapsed, 2000);
  EXPECT_FALSE(client.connected());  // the dead connection was torn down
  close(listener);
}

TEST(Tcp, SlowLorisConnectionsAreClosed) {
  // A connection dribbling bytes without ever completing a frame is closed
  // once idle_timeout_ms passes — it cannot hold a slot forever.
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0, .idle_timeout_ms = 100});

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  const std::uint8_t teaser[2] = {0x00, 0x00};  // a frame's first bytes
  ASSERT_EQ(write(fd, teaser, sizeof(teaser)), 2);

  // The sweep runs on the epoll cadence; allow generous slack.
  Bytes got;
  std::uint8_t buf[256];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ssize_t n = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    n = read(fd, buf, sizeof(buf));  // blocks until the server closes
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  EXPECT_EQ(n, 0);  // EOF: the server closed us, no response envelope
  EXPECT_TRUE(got.empty());
  close(fd);
  EXPECT_GE(server.stats().idle_closed, 1u);
  EXPECT_EQ(server.connection_count(), 0u);
}

// --------------------------------------------------- multi-reactor plane

TEST(Tcp, BatchedStatusBytesIdenticalAcrossReactorCounts) {
  // The reactor count is a pure throughput knob: the same request stream
  // (singles, a batch, errors) played through in-process dispatch, a
  // 1-reactor server, and a 4-reactor server — spread over four
  // connections so multiple reactors actually serve — must produce
  // byte-identical Response envelopes.
  RaFixture f;
  ASSERT_TRUE(f.apply_ok);
  ra::RaService service(&f.store);

  std::vector<svc::Request> stream;
  for (std::uint64_t i = 0; i < 24; ++i) {
    stream.push_back(make_request(
        svc::Method::status_query,
        ra::encode_status_query(f.ca.id(), SerialNumber::from_uint(i * 9, 4)),
        0));
  }
  std::vector<SerialNumber> batch;
  for (std::uint64_t i = 0; i < 48; ++i) {
    batch.push_back(SerialNumber::from_uint(i * 11 + 1, 4));
  }
  stream.push_back(make_request(svc::Method::status_batch,
                                ra::encode_status_batch(f.ca.id(), batch), 0));
  stream.push_back(make_request(
      svc::Method::status_query,
      ra::encode_status_query("CA-UNKNOWN", SerialNumber::from_uint(1, 4)),
      0));
  // Explicit ids: transports stamp id-0 requests from their own counters,
  // which would perturb the request_id field of otherwise identical frames.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].request_id = i + 1;
  }

  svc::InProcessTransport inproc(&service);
  std::vector<svc::Response> oracle;
  for (const auto& req : stream) oracle.push_back(inproc.call(req).response);

  for (const unsigned reactors : {1u, 4u}) {
    svc::TcpServer server(&service, {.port = 0, .reactors = reactors});
    ASSERT_EQ(server.reactor_count(), reactors);
    std::vector<std::unique_ptr<svc::TcpClient>> clients;
    for (int i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<svc::TcpClient>("127.0.0.1",
                                                         server.port()));
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto r = clients[i % clients.size()]->call(stream[i]);
      ASSERT_EQ(r.status, svc::Status::ok)
          << "reactors=" << reactors << " request " << i;
      // Byte-level identity: encode both envelopes and compare frames.
      EXPECT_EQ(svc::encode_frame(r.response), svc::encode_frame(oracle[i]))
          << "reactors=" << reactors << " request " << i;
    }
  }
}

TEST(Tcp, PipelinedClientHandlesOutOfOrderCompletion) {
  // A scripted raw-socket server reads all N request frames, then answers
  // them in *reverse* order. The pipelined client must route each response
  // to the submit that owns its request_id, not to whoever collects first.
  constexpr std::size_t kCalls = 8;
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  ASSERT_EQ(listen(listener, 1), 0);

  std::thread scripted([&] {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    Bytes rx;
    std::vector<svc::Request> requests;
    std::uint8_t buf[4096];
    while (requests.size() < kCalls) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      rx.insert(rx.end(), buf, buf + n);
      while (true) {
        const auto d = svc::decode_frame(ByteSpan(rx));
        if (d.status != svc::Status::ok || !d.is_request) break;
        requests.push_back(d.request);
        rx.erase(rx.begin(), rx.begin() + d.consumed);
      }
    }
    Bytes out;
    for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
      svc::Response resp;
      resp.request_id = it->request_id;
      resp.body = it->body;  // echo: ties the payload to its request
      svc::encode_frame(resp, out);
    }
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = write(fd, out.data() + sent, out.size() - sent);
      if (n <= 0) break;
      sent += std::size_t(n);
    }
    close(fd);
  });

  svc::TcpClient client("127.0.0.1", ntohs(addr.sin_port));
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kCalls; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = {std::uint8_t(i), std::uint8_t(i * 3 + 1)};
    std::uint64_t id = 0;
    ASSERT_EQ(client.submit(req, &id), svc::Status::ok) << i;
    ids.push_back(id);
  }
  EXPECT_EQ(client.inflight(), kCalls);

  // Collect in submit order — the wire delivers in reverse order, so the
  // first collect parks the other seven in the ready set.
  for (std::size_t i = 0; i < kCalls; ++i) {
    const auto r = client.collect(ids[i]);
    ASSERT_EQ(r.status, svc::Status::ok) << i;
    EXPECT_EQ(r.response.request_id, ids[i]) << i;
    const Bytes expect{std::uint8_t(i), std::uint8_t(i * 3 + 1)};
    EXPECT_EQ(r.response.body, expect) << i;
  }
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(client.ready(), 0u);
  EXPECT_EQ(client.stale_dropped(), 0u);
  scripted.join();
  close(listener);
}

TEST(Tcp, QuotaEnforcedWithReactorLocalBuckets) {
  // Same quota contract as the single-loop test, but on a 4-reactor
  // server: buckets live with the connection's owning reactor, stats are
  // summed across reactors, and a compliant client on a (likely)
  // different reactor is untouched by the flood.
  RaFixture f;
  ra::RaService service(&f.store);
  svc::TcpServer server(&service, {.port = 0,
                                   .requests_per_sec = 20.0,
                                   .burst_requests = 4,
                                   .reactors = 4});
  ASSERT_EQ(server.reactor_count(), 4u);

  const int flood_fd = raw_connect(server.port());
  ASSERT_GE(flood_fd, 0);
  constexpr std::size_t kFlood = 20;
  Bytes burst;
  for (std::size_t i = 0; i < kFlood; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.request_id = i + 1;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i + 1, 4));
    svc::encode_frame(req, burst);
  }
  ASSERT_EQ(write(flood_fd, burst.data(), burst.size()),
            ssize_t(burst.size()));

  Bytes got;
  std::size_t served = 0, refused = 0;
  std::uint8_t buf[16 * 1024];
  while (served + refused < kFlood) {
    const ssize_t n = read(flood_fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
    while (true) {
      const auto d = svc::decode_frame(ByteSpan(got));
      if (d.status != svc::Status::ok) break;
      if (d.response.status == svc::Status::ok) {
        ++served;
      } else {
        ASSERT_EQ(d.response.status, svc::Status::overloaded);
        ++refused;
      }
      got.erase(got.begin(), got.begin() + d.consumed);
    }
  }
  close(flood_fd);
  EXPECT_GE(served, 4u);
  EXPECT_GE(refused, 1u);
  EXPECT_EQ(server.stats().throttled, std::uint64_t(refused));

  svc::TcpClient compliant("127.0.0.1", server.port());
  for (std::uint64_t i = 0; i < 4; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i + 1, 4));
    const auto r = compliant.call(req);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.response.status, svc::Status::ok) << i;
  }
}

TEST(Tcp, AcceptorSpreadsConnectionsAcrossReactors) {
  // The acceptor hands consecutive connections to consecutive reactors.
  // The first connection's request parks its reactor until the second
  // connection's request has been served, which only another reactor can
  // do (a hash over the 4-tuple put both on one reactor half the time).
  class Rendezvous final : public svc::Service {
   public:
    svc::Response handle(const svc::Request& req) override {
      std::unique_lock<std::mutex> lock(mu_);
      if (req.request_id == 2) {
        second_served_ = true;
        cv_.notify_all();
        return svc::reject(req, svc::Status::not_found);
      }
      const bool met = cv_.wait_for(lock, std::chrono::seconds(5),
                                    [&] { return second_served_; });
      return svc::reject(req, met ? svc::Status::not_found
                                  : svc::Status::unavailable);
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool second_served_ = false;
  } service;
  svc::TcpServer server(&service, {.port = 0, .reactors = 2});
  ASSERT_EQ(server.reactor_count(), 2u);

  svc::TcpClient first("127.0.0.1", server.port());
  svc::TcpClient second("127.0.0.1", server.port());
  std::uint64_t id = 0;
  ASSERT_EQ(first.submit(make_request(svc::Method::status_query, {}, 1), &id),
            svc::Status::ok);
  const auto r2 = second.call(make_request(svc::Method::status_query, {}, 2));
  ASSERT_EQ(r2.status, svc::Status::ok);
  const auto r1 = first.collect(id);
  ASSERT_EQ(r1.status, svc::Status::ok);
  EXPECT_EQ(r1.response.status, svc::Status::not_found);  // not timed out
  EXPECT_EQ(server.stats().accepted, 2u);
}

TEST(Tcp, ResilienceStackComposesOverPipelinedClientAndReactors) {
  // The full adversarial stack — ResilientTransport over FaultTransport
  // over the pipelined TcpClient — against a 4-reactor server: every
  // logical call converges to the fault-free oracle's bytes. Faults here
  // include duplicates, whose stale frames must be rejected by request_id
  // (never delivered to the wrong caller).
  RaFixture f;
  ASSERT_TRUE(f.apply_ok);
  ra::RaService service(&f.store);
  svc::InProcessTransport oracle(&service);

  svc::TcpServer server(&service, {.port = 0, .reactors = 4});
  svc::TcpClient tcp("127.0.0.1", server.port(), {.timeout_ms = 2000});
  svc::FaultTransport faulty(&tcp, /*seed=*/0xF00D);
  svc::ResilientTransport resilient(
      &faulty, {.base_backoff_ms = 1, .max_backoff_ms = 5},
      {.failure_threshold = 0},  // breaker off: pure retry semantics
      /*jitter_seed=*/1);

  for (std::uint64_t i = 0; i < 60; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(f.ca.id(),
                                       SerialNumber::from_uint(i * 7, 4));
    const auto want = oracle.call(req).response;
    const auto r = resilient.call(req);
    ASSERT_EQ(r.status, svc::Status::ok) << i;
    EXPECT_EQ(r.response.status, want.status) << i;
    EXPECT_EQ(r.response.body, want.body) << i;
  }
  // The schedule actually exercised the adversarial path.
  EXPECT_GT(faulty.stats().calls, 60u);
  EXPECT_GT(resilient.stats().retries, 0u);
}

TEST(Fault, PipelinedSubmitCollectRejectsStaleByRequestId) {
  // FaultTransport's pipelined face: with several submits outstanding, a
  // stashed duplicate surfaces on whichever collect comes next — carrying
  // an *earlier* request_id, which is exactly what the caller's wrong-id
  // check must catch. A profile of only duplicates makes the schedule
  // deterministic enough to pin.
  RaFixture f;
  ra::RaService service(&f.store);
  svc::InProcessTransport inner(&service);
  svc::FaultProfile profile;
  profile.drop_request = 0;
  profile.drop_response = 0;
  profile.delay = 0;
  profile.corrupt = 0;
  profile.truncate = 0;
  profile.partial_write = 0;
  profile.duplicate = 0.9;
  profile.reset = 0;
  profile.max_consecutive = 2;
  svc::FaultTransport faulty(&inner, /*seed=*/42, profile);

  std::size_t stale_seen = 0, correct = 0;
  for (int round = 0; round < 16; ++round) {
    std::vector<std::uint64_t> ids;
    std::vector<Bytes> bodies;
    for (std::uint64_t i = 0; i < 4; ++i) {
      svc::Request req;
      req.method = svc::Method::status_query;
      req.body = ra::encode_status_query(
          f.ca.id(), SerialNumber::from_uint(round * 4 + i + 1, 4));
      bodies.push_back(req.body);
      std::uint64_t id = 0;
      ASSERT_EQ(faulty.submit(req, &id), svc::Status::ok);
      ids.push_back(id);
    }
    EXPECT_EQ(faulty.inflight(), 4u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto r = faulty.collect(ids[i]);
      if (r.status != svc::Status::ok) continue;  // injected failure
      if (r.response.request_id != ids[i]) {
        ++stale_seen;  // a duplicate of an earlier call: must be rejected
        continue;
      }
      ++correct;
    }
    EXPECT_EQ(faulty.inflight(), 0u);
  }
  EXPECT_GT(stale_seen, 0u);  // duplicates actually crossed calls
  EXPECT_GT(correct, 0u);
  EXPECT_EQ(faulty.stats().stale_delivered, std::uint64_t(stale_seen));
  // Collecting an id twice (or one never submitted) is refused.
  const auto twice = faulty.collect(12345);
  EXPECT_EQ(twice.status, svc::Status::transport_error);
}

}  // namespace
}  // namespace ritm
