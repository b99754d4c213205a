#include "ca/distribution.hpp"

#include <stdexcept>

namespace ritm::ca {

DistributionPoint::DistributionPoint(cdn::Cdn* cdn, UnixSeconds delta)
    : cdn_(cdn), delta_(delta) {
  if (cdn_ == nullptr) {
    throw std::invalid_argument("DistributionPoint: null CDN");
  }
  if (delta_ <= 0) {
    throw std::invalid_argument("DistributionPoint: delta must be > 0");
  }
}

void DistributionPoint::register_ca(const cert::CaId& ca,
                                    const crypto::PublicKey& key) {
  keys_[ca] = key;
}

svc::Status DistributionPoint::submit(FeedMessage msg) {
  const auto key_it = keys_.find(msg.ca());
  if (key_it == keys_.end()) {
    ++rejected_;
    return svc::Status::unknown_ca;
  }
  if (msg.type == FeedMessage::Type::issuance) {
    if (!msg.issuance) {
      ++rejected_;
      return svc::Status::malformed;
    }
    if (!msg.issuance->signed_root.verify(key_it->second)) {
      ++rejected_;
      return svc::Status::bad_signature;
    }
    latest_roots_[msg.ca()] = msg.issuance->signed_root;
  }
  pending_.push_back(std::move(msg));
  return svc::Status::ok;
}

void DistributionPoint::publish(TimeMs now) {
  cdn_->origin().put(feed_path(next_period_), encode_feed(pending_), now);
  for (const auto& [ca, root] : latest_roots_) {
    cdn_->origin().put(root_path(ca), root.encode(), now);
  }
  pending_.clear();
  ++next_period_;
  last_publish_ = now;
}

svc::Status DistributionPoint::publish_cold_start(const ColdStartObject& obj,
                                                  TimeMs now) {
  const auto key_it = keys_.find(obj.ca);
  if (key_it == keys_.end()) {
    ++rejected_;
    return svc::Status::unknown_ca;
  }
  if (obj.signed_root.ca != obj.ca ||
      !obj.signed_root.verify(key_it->second)) {
    ++rejected_;
    return svc::Status::bad_signature;
  }
  // The snapshot itself is not replayed here — the RA checks its recomputed
  // root against the signed root on restore, so a tampered snapshot can
  // only fail the bootstrap, never install state.
  cdn_->origin().put(cold_start_path(obj.ca), obj.encode(), now);
  return svc::Status::ok;
}

std::string DistributionPoint::root_path(const cert::CaId& ca) {
  return "roots/" + ca;
}

}  // namespace ritm::ca
