#include "ra/agent.hpp"

#include <stdexcept>

namespace ritm::ra {

namespace {
std::string session_key(const Bytes& id) {
  return std::string(id.begin(), id.end());
}
}  // namespace

RevocationAgent::RevocationAgent(Config config, DictionaryStore* store)
    : config_(config), store_(store) {
  if (store_ == nullptr) {
    throw std::invalid_argument("RevocationAgent: null store");
  }
  if (config_.delta <= 0) {
    throw std::invalid_argument("RevocationAgent: delta must be > 0");
  }
}

const FlowState* RevocationAgent::flow(const sim::FlowKey& key) const {
  auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second.state;
}

RevocationAgent::Action RevocationAgent::process(sim::Packet& pkt,
                                                 UnixSeconds now) {
  ++stats_.packets;
  const Inspection in = inspect(ByteSpan(pkt.payload));
  if (in.kind == Inspection::Kind::not_tls) {
    ++stats_.non_tls;
    return Action::passed;
  }
  ++stats_.tls_packets;

  switch (in.kind) {
    case Inspection::Kind::client_hello: {
      if (!in.ritm_offered) return Action::passed;  // non-supporting client
      const sim::FlowKey key = sim::FlowKey::of(pkt);
      auto& flow = flows_[key];  // Eq. (4) state
      flow.state = FlowState{};
      flow.state.stage = Stage::client_hello;
      flow.state.session_id = in.client_session_id;
      flow.last_seen = now;
      ++stats_.flows_created;
      return Action::state_created;
    }

    case Inspection::Kind::server_flight: {
      // Server -> client: match against the reversed client-side key.
      const sim::FlowKey key = sim::FlowKey::of(pkt).reversed();
      auto it = flows_.find(key);
      if (it == flows_.end()) return Action::passed;  // unsupported flow
      it->second.last_seen = now;
      return handle_server_flight(pkt, it->second, in, now);
    }

    case Inspection::Kind::finished: {
      const sim::FlowKey key = sim::FlowKey::of(pkt).reversed();
      auto it = flows_.find(key);
      if (it == flows_.end()) return Action::passed;
      it->second.last_seen = now;
      if (it->second.state.stage == Stage::server_hello) {
        it->second.state.stage = Stage::established;
        ++stats_.flows_established;
        return Action::established;
      }
      return Action::passed;
    }

    case Inspection::Kind::app_data: {
      // Periodic refresh rides the first server->client packet after ∆.
      const sim::FlowKey key = sim::FlowKey::of(pkt).reversed();
      auto it = flows_.find(key);
      if (it == flows_.end()) return Action::passed;
      it->second.last_seen = now;
      FlowState& fs = it->second.state;
      if (fs.stage != Stage::established || fs.ca.empty()) {
        return Action::passed;
      }
      if (now - fs.last_status < config_.delta) return Action::passed;
      return deliver_status(pkt, it->second, in, now);
    }

    case Inspection::Kind::tls_other:
    case Inspection::Kind::not_tls:
      return Action::passed;
  }
  return Action::passed;
}

RevocationAgent::Action RevocationAgent::handle_server_flight(
    sim::Packet& pkt, TimedFlow& flow, const Inspection& in, UnixSeconds now) {
  FlowState& fs = flow.state;

  if (in.chain && !in.chain->empty()) {
    // Full handshake: read issuer + serial off the leaf certificate.
    fs.ca = in.chain->front().issuer;
    fs.serial = in.chain->front().serial;
    if (config_.chain_proofs) {
      fs.intermediates.clear();
      for (std::size_t i = 1; i < in.chain->size(); ++i) {
        fs.intermediates.emplace_back((*in.chain)[i].issuer,
                                      (*in.chain)[i].serial);
      }
    }
    // Cache for session resumption.
    if (in.server_hello && !in.server_hello->session_id.empty()) {
      if (session_cache_.size() >= config_.session_cache_capacity) {
        session_cache_.clear();  // simple wholesale eviction
      }
      session_cache_[session_key(in.server_hello->session_id)] =
          CachedSession{fs.ca, fs.serial};
    }
  } else if (in.server_hello && !in.server_hello->session_id.empty()) {
    // Abbreviated handshake: recover certificate identity from the cache.
    auto it = session_cache_.find(session_key(in.server_hello->session_id));
    if (it != session_cache_.end()) {
      fs.ca = it->second.ca;
      fs.serial = it->second.serial;
      ++stats_.resumptions_served;
    }
  }

  fs.stage = Stage::server_hello;
  if (config_.terminator_mode) confirm_ritm(pkt);
  if (fs.ca.empty()) return Action::passed;  // nothing to prove against
  return deliver_status(pkt, flow, in, now);
}

RevocationAgent::Action RevocationAgent::deliver_status(sim::Packet& pkt,
                                                        TimedFlow& flow,
                                                        const Inspection& in,
                                                        UnixSeconds now) {
  FlowState& fs = flow.state;
  // Warm path: the store's status cache hands back the encoded status
  // bytes; attaching is a header write plus memcpy. The proof is assembled
  // at most once per serial between root or freshness changes.
  auto status = store_->status_bytes_for(fs.ca, fs.serial);
  if (!status) {
    ++stats_.unknown_ca;
    return Action::passed;
  }

  const bool refreshing = fs.stage == Stage::established;

  if (in.existing_status && in.existing_status->signed_root.ca == fs.ca) {
    // Multiple-RA rule (§VIII): add only if missing; replace only if our
    // dictionary view is more recent. The cached entry carries (n, t) so
    // this comparison needs no decode.
    const auto& theirs = in.existing_status->signed_root;
    const bool ours_fresher =
        status->n > theirs.n ||
        (status->n == theirs.n && status->timestamp > theirs.timestamp);
    if (!ours_fresher) {
      ++stats_.statuses_deferred;
      // Opportunity for consistency checking: compare the upstream RA's
      // signed root against ours (§VIII "Multiple RAs").
      return Action::passed;
    }
    replace_status_bytes(pkt, ByteSpan(*status->bytes));
    fs.last_status = now;
    ++stats_.statuses_replaced;
    return Action::status_replaced;
  }

  attach_status_bytes(pkt, ByteSpan(*status->bytes));
  // Chain-proof mode (§VIII): one status per remaining chain certificate
  // whose issuer we replicate. The overhead stays small because proofs are
  // logarithmic and chains are short.
  if (config_.chain_proofs) {
    for (const auto& [ca, serial] : fs.intermediates) {
      if (auto extra = store_->status_bytes_for(ca, serial)) {
        attach_status_bytes(pkt, ByteSpan(*extra->bytes));
      }
    }
  }
  fs.last_status = now;
  if (refreshing) {
    ++stats_.statuses_refreshed;
    return Action::status_refreshed;
  }
  ++stats_.statuses_attached;
  return Action::status_attached;
}

std::size_t RevocationAgent::expire_flows(UnixSeconds now) {
  std::size_t removed = 0;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_seen > config_.flow_timeout) {
      it = flows_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  stats_.flows_expired += removed;
  return removed;
}

void RevocationAgent::close_flow(const sim::FlowKey& key) {
  flows_.erase(key);
}

}  // namespace ritm::ra
