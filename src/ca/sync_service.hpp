// The feed sync endpoint (paper §III: "the RA contacts an edge server
// specifying the number of valid consecutive revocations it has observed")
// as an envelope service answering Method::feed_delta. The server side is
// backed by the CAs' live dictionaries; the RA reaches it through any
// svc::Transport.
#pragma once

#include <map>

#include "ca/authority.hpp"
#include "svc/service.hpp"

namespace ritm::ca {

/// Body layouts for Method::feed_delta, the one sync exchange: the classic
/// SyncRequest plus the RA's feed cursor; the response carries the server's
/// next feed period. Fixed-width fields ride *before* the embedded
/// encodings because SyncRequest/SyncResponse decoders consume their whole
/// span.
///
/// Request body:  u64 now_s | u64 cursor_period | dict::SyncRequest
/// Response body: u64 resume_period | dict::SyncResponse
///
/// ra::RaUpdater ignores both cursor fields: it keeps pulling every feed
/// period after a sync, because a skipped period can carry another CA's
/// issuance. They stay on the wire, unused, until the next protocol
/// version bump drops them.
Bytes encode_delta_request(const dict::SyncRequest& req, UnixSeconds now,
                           std::uint64_t cursor_period);
struct DecodedDeltaRequest {
  UnixSeconds now = 0;
  std::uint64_t cursor_period = 0;
  dict::SyncRequest request;
};
std::optional<DecodedDeltaRequest> decode_delta_request(ByteSpan body);

class DistributionPoint;

class SyncService final : public svc::Service {
 public:
  SyncService() = default;

  /// Registers a CA whose dictionary answers sync requests. The authority
  /// must outlive the service.
  void add(const CertificationAuthority* ca);

  /// Sets the response's resume_period source: `dp` (which must outlive the
  /// service) says which feed period the next publish() writes. Without a
  /// period source resume_period is 0.
  void set_period_source(const DistributionPoint* dp) noexcept {
    periods_ = dp;
  }

  svc::ServeResult handle(const svc::Request& req) override;

 private:
  std::map<cert::CaId, const CertificationAuthority*> cas_;
  const DistributionPoint* periods_ = nullptr;
};

}  // namespace ritm::ca
