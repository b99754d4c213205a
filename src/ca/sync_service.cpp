#include "ca/sync_service.hpp"

#include <stdexcept>

#include "ca/distribution.hpp"
#include "common/io.hpp"

namespace ritm::ca {

Bytes encode_delta_request(const dict::SyncRequest& req, UnixSeconds now,
                           std::uint64_t cursor_period) {
  Bytes body;
  ByteWriter w(body);
  w.u64(static_cast<std::uint64_t>(now));
  w.u64(cursor_period);
  append(body, ByteSpan(req.encode()));
  return body;
}

std::optional<DecodedDeltaRequest> decode_delta_request(ByteSpan body) {
  ByteReader r(body);
  const auto now_bits = r.try_u64();
  const auto cursor = r.try_u64();
  if (!now_bits || !cursor) return std::nullopt;
  auto req = dict::SyncRequest::decode(body.subspan(16));
  if (!req) return std::nullopt;
  return DecodedDeltaRequest{static_cast<UnixSeconds>(*now_bits), *cursor,
                             std::move(*req)};
}

void SyncService::add(const CertificationAuthority* ca) {
  if (ca == nullptr) throw std::invalid_argument("SyncService: null ca");
  cas_[ca->id()] = ca;
}

svc::ServeResult SyncService::handle(const svc::Request& req) {
  svc::ServeResult out;
  if (req.method != svc::Method::feed_delta) {
    out.response = svc::reject(req, svc::Status::unknown_method);
    return out;
  }
  const auto decoded = decode_delta_request(ByteSpan(req.body));
  if (!decoded) {
    out.response = svc::reject(req, svc::Status::malformed);
    return out;
  }
  const auto it = cas_.find(decoded->request.ca);
  if (it == cas_.end()) {
    out.response = svc::reject(req, svc::Status::unknown_ca);
    return out;
  }
  const CertificationAuthority& ca = *it->second;
  dict::SyncResponse resp;
  resp.ca = decoded->request.ca;
  resp.entries = ca.dictionary().entries_from(decoded->request.have_n + 1);
  resp.signed_root = ca.signed_root();
  resp.freshness = ca.freshness_at(decoded->now);
  out.response.request_id = req.request_id;
  ByteWriter w(out.response.body);
  w.u64(periods_ != nullptr ? periods_->next_period() : 0);
  resp.encode_into(out.response.body);
  return out;
}

}  // namespace ritm::ca
