#include "ca/sync_service.hpp"

#include <algorithm>
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

svc::Response SyncService::handle(const svc::Request& req) {
  if (req.method != svc::Method::feed_delta) {
    return svc::reject(req, svc::Status::unknown_method);
  }
  const auto decoded = decode_delta_request(ByteSpan(req.body));
  if (!decoded) return svc::reject(req, svc::Status::malformed);
  const auto it = cas_.find(decoded->request.ca);
  if (it == cas_.end()) return svc::reject(req, svc::Status::unknown_ca);
  const CertificationAuthority& ca = *it->second;
  dict::SyncResponse resp;
  resp.ca = decoded->request.ca;
  resp.entries = ca.dictionary().entries_from(decoded->request.have_n + 1);
  resp.signed_root = ca.signed_root();
  // The requester's clock is untrusted: a far-future one would otherwise
  // unlock statements down to the chain seed.
  const auto published =
      periods_ != nullptr ? periods_->last_publish() : std::nullopt;
  resp.freshness =
      published
          ? ca.freshness_at(std::min(decoded->now, to_seconds(*published)))
          : ca.signed_root().freshness_anchor;
  svc::Response out;
  out.request_id = req.request_id;
  ByteWriter w(out.body);
  w.u64(periods_ != nullptr ? periods_->next_period() : 0);
  resp.encode_into(out.body);
  return out;
}

}  // namespace ritm::ca
