// The distribution point: the CDN origin's gatekeeper. CAs submit issuance
// and freshness messages here; the distribution point verifies them (§III:
// "The distribution point verifies this message and initiates the
// dissemination process") and publishes one aggregated feed object per
// period ∆, plus a per-CA latest-signed-root object used by RAs for
// consistency checking.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "ca/feed.hpp"
#include "cdn/cdn.hpp"
#include "common/time.hpp"
#include "svc/envelope.hpp"

namespace ritm::ca {

class DistributionPoint {
 public:
  DistributionPoint(cdn::Cdn* cdn, UnixSeconds delta);

  void register_ca(const cert::CaId& ca, const crypto::PublicKey& key);

  /// Accepts a message into the pending feed. Issuances are rejected unless
  /// their signed root verifies against the registered CA key. The returned
  /// code says why (unknown_ca / bad_signature / malformed) — the same
  /// taxonomy every wire response uses.
  svc::Status submit(FeedMessage msg);

  /// Publishes the pending feed as the object for the next period and
  /// updates the per-CA root objects. Call once per ∆.
  void publish(TimeMs now);

  /// Period index that the next publish() will write.
  std::uint64_t next_period() const noexcept { return next_period_; }

  /// Time of the latest publish(), nullopt before the first: the newest
  /// freshness statement the feed has disclosed is the one for this time.
  std::optional<TimeMs> last_publish() const noexcept { return last_publish_; }

  /// CDN path of the latest signed root of `ca` ("roots/<ca>").
  static std::string root_path(const cert::CaId& ca);

  /// Verifies and publishes a CA's cold-start object (snapshot + signed
  /// root + freshness) at cold_start_path(ca) — the one-GET bootstrap for a
  /// fresh RA (§VIII, PR 4). Rejected (and counted) unless the CA is
  /// registered and the embedded signed root verifies against its key.
  svc::Status publish_cold_start(const ColdStartObject& obj, TimeMs now);

  std::uint64_t rejected_submissions() const noexcept { return rejected_; }

 private:
  cdn::Cdn* cdn_;
  UnixSeconds delta_;
  Feed pending_;
  std::map<cert::CaId, crypto::PublicKey> keys_;
  std::map<cert::CaId, dict::SignedRoot> latest_roots_;
  std::uint64_t next_period_ = 0;
  std::optional<TimeMs> last_publish_;
  std::uint64_t rejected_ = 0;
};

}  // namespace ritm::ca
