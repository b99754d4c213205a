// The CDN's envelope endpoint: Method::cdn_get served off a cdn::Cdn
// (nearest-edge routing, TTL caching, byte metering) under the versioned
// wire surface. The geo model's latency sample stays inside cdn::Cdn: a
// call's latency is what its transport measures. Response
// payloads are owned bytes copied out of the edge under the envelope — a
// republish during a pull can never reach a caller's buffer.
#pragma once

#include <cstdint>
#include <string>

#include "cdn/cdn.hpp"
#include "common/rng.hpp"
#include "svc/transport.hpp"

namespace ritm::cdn {

/// Body layout helpers for Method::cdn_get (shared by service, updater,
/// and tools so the encoding cannot drift).
///
/// Request body:  var16 path | u64 now_ms | u64 lat_bits | u64 lon_bits
/// Response body: u64 version | u64 published_at_ms | u32 len | bytes
Bytes encode_get_request(const std::string& path, TimeMs now,
                         const sim::GeoPoint& client_loc);

struct GetResponse {
  std::uint64_t version = 0;
  TimeMs published_at = 0;
  Bytes data;
};
std::optional<GetResponse> decode_get_response(ByteSpan body);

class CdnService final : public svc::Service {
 public:
  /// `rng_seed` seeds the Rng that cdn::Cdn::get samples with — requests
  /// carry no randomness, so the service owns the stream (deterministic per
  /// seed, as everywhere in the simulator).
  explicit CdnService(Cdn* cdn, std::uint64_t rng_seed = 0x5eed);

  svc::Response handle(const svc::Request& req) override;

 private:
  Cdn* cdn_;
  Rng rng_;
};

/// The one-liner in-process CDN endpoint most deployments (tests, benches,
/// examples) want: a CdnService behind an InProcessTransport.
struct LocalCdn {
  explicit LocalCdn(Cdn* cdn, std::uint64_t rng_seed = 0x5eed)
      : service(cdn, rng_seed), rpc(&service) {}

  CdnService service;
  svc::InProcessTransport rpc;
};

}  // namespace ritm::cdn
