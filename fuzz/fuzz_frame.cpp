// Fuzz harness for the serving plane's parsing surface: the frame decoder
// (svc::decode_frame) at several frame-size ceilings, the full server
// dispatch (svc::serve_bytes) fed arbitrary connection byte streams, the
// per-method body decoders behind a validly-framed request (status, gossip
// and feed sync, muxed the way ritm_serve muxes them), the client-side
// decoders of sync and gossip responses, and the retry_after body codec.
// Properties checked beyond "no crash":
//   * a frame that decodes ok must re-encode and re-decode to the same
//     kind (round-trip stability)
//   * a sync or gossip response that decodes must re-encode and decode to
//     an equal value
//   * serve_bytes must always make progress (consume bytes, ask for more,
//     or go fatal) — no infinite loop on any stream
//
// Built two ways (CMake): with -DRITM_BUILD_FUZZERS=ON (clang) this is a
// libFuzzer target; otherwise it compiles as a self-driving smoke binary
// that replays a deterministic pseudo-random corpus, registered as a
// ctest (label `fault`) so the harness keeps working on gcc-only setups.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "common/rng.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "svc/envelope.hpp"
#include "svc/mux.hpp"
#include "svc/transport.hpp"

namespace {

using namespace ritm;

class EchoService final : public svc::Service {
 public:
  svc::ServeResult handle(const svc::Request& req) override {
    svc::ServeResult out;
    out.response.request_id = req.request_id;
    out.response.body = req.body;
    return out;
  }
};

/// A small but real RA target: registered CA, a few hundred revocations, a
/// gossip pool, and the feed sync endpoint with a period source, muxed as
/// in ritm_serve — so validly-framed fuzz requests reach every per-method
/// body decoder and the dictionary lookup path, not just the envelope
/// layer.
struct RaTarget {
  ca::CertificationAuthority ca;
  ra::DictionaryStore store;
  cert::TrustStore keys;
  ra::GossipPool gossip{&keys};
  ra::RaService ra_service{&store, &gossip};
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp{&cdn, 10};
  ca::SyncService sync;
  svc::MuxService service;

  static ca::CertificationAuthority build_ca() {
    Rng rng(4242);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-FUZZ";
    cfg.delta = 10;
    cfg.chain_length = 64;
    return ca::CertificationAuthority(cfg, rng, 1000);
  }

  RaTarget() : ca(build_ca()) {
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    std::vector<cert::SerialNumber> revoked;
    for (std::uint64_t i = 1; i <= 256; ++i) {
      revoked.push_back(cert::SerialNumber::from_uint(i * 3, 4));
    }
    const auto issuance = ca.revoke(revoked, 1000);
    if (store.apply_issuance(issuance, 1000) != ra::ApplyResult::ok) {
      std::abort();
    }
    keys.add(ca.id(), ca.public_key());
    gossip.observe(issuance.signed_root);
    dp.register_ca(ca.id(), ca.public_key());
    dp.publish(0);
    sync.add(&ca);
    sync.set_period_source(&dp);
    service.set_default(&ra_service);
    service.route(svc::Method::feed_delta, &sync);
  }
};

RaTarget& ra_target() {
  static RaTarget t;
  return t;
}

/// The response bodies a fuzz input may be: one valid sync response and one
/// valid gossip reply from the target (the smoke corpus mutates them).
Bytes sync_response_body() {
  auto& t = ra_target();
  svc::Request req;
  req.method = svc::Method::feed_delta;
  req.body = ca::encode_delta_request({t.ca.id(), 250}, 1000, 0);
  const auto r = t.service.handle(req).response;
  if (r.status != svc::Status::ok) std::abort();
  return Bytes(r.body.begin() + 8, r.body.end());  // past resume_period
}

Bytes gossip_reply_body() {
  auto& t = ra_target();
  const auto root = *t.store.root_of(t.ca.id());
  return ra::encode_gossip_reply({{root}, {{root, root}}});
}

/// Drives `stream` through serve_bytes until it is drained, waiting for
/// more bytes, or fatal — trapping if the dispatch ever stops making
/// progress (the would-be infinite loop on a real connection).
void serve_stream(svc::Service& service, const std::uint8_t* data,
                  std::size_t size, std::uint32_t max_frame) {
  std::size_t offset = 0;
  while (offset < size) {
    const auto reply = svc::serve_bytes(
        service, ByteSpan(data + offset, size - offset), max_frame);
    if (reply.need_more) break;
    if (reply.fatal) break;
    if (reply.consumed == 0) __builtin_trap();  // no progress, not fatal
    offset += reply.consumed;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteSpan input(data, size);

  // The raw decoder at several ceilings, with round-trip stability.
  for (const std::uint32_t max_frame :
       {std::uint32_t(64), std::uint32_t(4096), svc::kMaxFrameBytes}) {
    const auto d = svc::decode_frame(input, max_frame);
    if (d.status == svc::Status::ok) {
      const Bytes re = d.is_request ? svc::encode_frame(d.request)
                                    : svc::encode_frame(d.response);
      const auto d2 = svc::decode_frame(ByteSpan(re));
      if (d2.status != svc::Status::ok || d2.is_request != d.is_request) {
        __builtin_trap();
      }
    }
  }

  // The full dispatch on the raw stream (echo and RA targets).
  EchoService echo;
  serve_stream(echo, data, size, 4096);
  serve_stream(ra_target().service, data, size, svc::kMaxFrameBytes);

  // A validly-framed request whose method/version/body come from the fuzz
  // input: reaches the per-method body decoders past the CRC gate.
  if (size >= 1) {
    svc::Request req;
    req.method = static_cast<svc::Method>(data[0] & 0x0F);
    req.version = (data[0] & 0x80) ? 2 : 1;
    req.request_id = 77;
    req.body.assign(data + 1, data + size);
    const Bytes frame = svc::encode_frame(req);
    serve_stream(ra_target().service, frame.data(), frame.size(),
                 svc::kMaxFrameBytes);
  }

  // Client-side decoders of the sync and gossip responses: whatever
  // decodes must survive a re-encode round trip unchanged.
  if (const auto resp = dict::SyncResponse::decode(input)) {
    const auto again = dict::SyncResponse::decode(ByteSpan(resp->encode()));
    if (!again || !(*again == *resp)) __builtin_trap();
  }
  if (const auto reply = ra::decode_gossip_reply(input)) {
    const auto again =
        ra::decode_gossip_reply(ByteSpan(ra::encode_gossip_reply(*reply)));
    if (!again || !(*again == *reply)) __builtin_trap();
  }

  svc::decode_retry_after(input);
  return 0;
}

#ifndef RITM_LIBFUZZER
// Self-driving smoke mode: a deterministic pseudo-random corpus — raw
// noise, valid frames, bit-flipped valid frames, and valid or bit-flipped
// sync/gossip response bodies — through the same entry point libFuzzer
// drives.
int main() {
  Rng rng(0xF0221);
  const Bytes responses[] = {sync_response_body(), gossip_reply_body()};
  Bytes buf;
  for (int iter = 0; iter < 20'000; ++iter) {
    buf.clear();
    const std::uint32_t shape = rng.uniform(4);
    if (shape == 3) {  // a response body, possibly bit-flipped
      buf = responses[rng.uniform(2)];
      const std::uint32_t flips = rng.uniform(3);
      for (std::uint32_t f = 0; f < flips; ++f) {
        buf[rng.uniform(buf.size())] ^= std::uint8_t(1u << rng.uniform(8));
      }
    } else if (shape == 0) {  // raw noise
      const std::size_t n = rng.uniform(512);
      for (std::size_t i = 0; i < n; ++i) {
        buf.push_back(std::uint8_t(rng.uniform(256)));
      }
    } else {  // a valid frame, possibly bit-flipped
      svc::Request req;
      req.method = static_cast<svc::Method>(rng.uniform(16));
      req.version = std::uint16_t(1 + rng.uniform(3));
      req.request_id = rng.uniform(1000);
      const std::size_t n = rng.uniform(256);
      for (std::size_t i = 0; i < n; ++i) {
        req.body.push_back(std::uint8_t(rng.uniform(256)));
      }
      buf = svc::encode_frame(req);
      if (shape == 2) {
        const std::uint32_t flips = 1 + rng.uniform(4);
        for (std::uint32_t f = 0; f < flips; ++f) {
          buf[rng.uniform(buf.size())] ^=
              std::uint8_t(1u << rng.uniform(8));
        }
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
