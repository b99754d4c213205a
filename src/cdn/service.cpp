#include "cdn/service.hpp"

#include <bit>
#include <stdexcept>

#include "common/io.hpp"

namespace ritm::cdn {

Bytes encode_get_request(const std::string& path, TimeMs now,
                         const sim::GeoPoint& client_loc) {
  Bytes body;
  ByteWriter w(body);
  w.var16(ByteSpan(reinterpret_cast<const std::uint8_t*>(path.data()),
                   path.size()));
  w.u64(static_cast<std::uint64_t>(now));
  w.u64(std::bit_cast<std::uint64_t>(client_loc.lat_deg));
  w.u64(std::bit_cast<std::uint64_t>(client_loc.lon_deg));
  return body;
}

std::optional<GetResponse> decode_get_response(ByteSpan body) {
  ByteReader r(body);
  GetResponse resp;
  const auto version = r.try_u64();
  const auto published = r.try_u64();
  const auto len = r.try_u32();
  if (!version || !published || !len) return std::nullopt;
  auto data = r.try_raw(*len);
  if (!data || !r.done()) return std::nullopt;
  resp.version = *version;
  resp.published_at = static_cast<TimeMs>(*published);
  resp.data = std::move(*data);
  return resp;
}

CdnService::CdnService(Cdn* cdn, std::uint64_t rng_seed)
    : cdn_(cdn), rng_(rng_seed) {
  if (cdn_ == nullptr) {
    throw std::invalid_argument("CdnService: null cdn");
  }
}

svc::Response CdnService::handle(const svc::Request& req) {
  if (req.method != svc::Method::cdn_get) {
    return svc::reject(req, svc::Status::unknown_method);
  }
  ByteReader r(ByteSpan(req.body));
  const auto path_bytes = r.try_var16();
  const auto now_bits = r.try_u64();
  const auto lat_bits = r.try_u64();
  const auto lon_bits = r.try_u64();
  if (!path_bytes || !now_bits || !lat_bits || !lon_bits || !r.done()) {
    return svc::reject(req, svc::Status::malformed);
  }
  const std::string path(path_bytes->begin(), path_bytes->end());
  const sim::GeoPoint client_loc{std::bit_cast<double>(*lat_bits),
                                 std::bit_cast<double>(*lon_bits)};

  FetchResult fetch =
      cdn_->get(path, static_cast<TimeMs>(*now_bits), client_loc, rng_);
  svc::Response out;
  out.request_id = req.request_id;
  if (!fetch.found) {
    out.status = svc::Status::not_found;
    return out;
  }
  ByteWriter w(out.body);
  w.u64(fetch.version);
  w.u64(static_cast<std::uint64_t>(fetch.published_at));
  w.u32(static_cast<std::uint32_t>(fetch.data.size()));
  w.raw(ByteSpan(fetch.data));
  return out;
}

}  // namespace ritm::cdn
