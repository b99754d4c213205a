#include "client/client.hpp"

#include <algorithm>
#include <string_view>

namespace ritm::client {

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::accepted: return "accepted";
    case Verdict::not_tls: return "not_tls";
    case Verdict::bad_chain: return "bad_chain";
    case Verdict::missing_status: return "missing_status";
    case Verdict::unknown_ca: return "unknown_ca";
    case Verdict::issuer_mismatch: return "issuer_mismatch";
    case Verdict::bad_signature: return "bad_signature";
    case Verdict::bad_proof: return "bad_proof";
    case Verdict::revoked: return "revoked";
    case Verdict::stale_freshness: return "stale_freshness";
    case Verdict::downgrade: return "downgrade";
  }
  return "?";
}

RitmClient::RitmClient(Config config, cert::TrustStore roots)
    : config_(config), roots_(std::move(roots)), memo_(roots_.size()) {}

bool RitmClient::VerifiedRoots::holds(ByteSpan root) const {
  return std::any_of(slots.begin(), slots.end(), [&](const Bytes& slot) {
    return std::ranges::equal(slot, root);
  });
}

void RitmClient::VerifiedRoots::add(ByteSpan root) {
  slots[older].assign(root.begin(), root.end());
  older = (older + 1) % kRootsPerCa;
}

RitmClient::RootMemoStats RitmClient::root_memo_stats() const noexcept {
  return {verifications_.load(), memo_hits_.load()};
}

bool RitmClient::root_verifies(const dict::SignedRootView& root,
                               const crypto::PublicKey& ca_key,
                               VerifiedRoots& verified) const {
  {
    const std::lock_guard lock(memo_mu_);
    if (verified.holds(root.wire)) {
      ++memo_hits_;
      return true;
    }
  }
  // Verify outside the lock; two threads that miss on the same root may both
  // verify it, and the second one finds it stored.
  ++verifications_;
  if (!root.materialize().verify(ca_key)) return false;
  const std::lock_guard lock(memo_mu_);
  if (!verified.holds(root.wire)) verified.add(root.wire);
  return true;
}

Verdict RitmClient::validate_status_bytes(ByteSpan status_bytes,
                                          const cert::Certificate& leaf,
                                          UnixSeconds now) const {
  const auto status = dict::StatusView::parse(status_bytes);
  if (!status) return Verdict::missing_status;
  return validate(*status, leaf, now);
}

Verdict RitmClient::validate(const dict::StatusView& status,
                             const cert::Certificate& leaf,
                             UnixSeconds now) const {
  const dict::SignedRootView& root = status.signed_root;
  // The status must come from the CA that issued the certificate.
  const std::string_view ca(reinterpret_cast<const char*>(root.ca.data()),
                            root.ca.size());
  if (ca != leaf.issuer) return Verdict::issuer_mismatch;
  const auto& trusted = roots_.entries();
  const auto it = std::find_if(trusted.begin(), trusted.end(),
                               [&](const auto& e) { return e.first == ca; });
  if (it == trusted.end()) return Verdict::unknown_ca;
  if (!root_verifies(root, it->second, memo_[it - trusted.begin()])) {
    return Verdict::bad_signature;
  }

  // Step 5c: freshness no older than 2∆. The statement for period p walks
  // to the committed anchor in exactly p hash steps; with
  // p' = floor((time() - t) / ∆) we accept p in {p'-1, p', p'+1}:
  //  * p'   — the current period,
  //  * p'+1 — CA clock ahead of ours by up to ∆ (the paper's H^{p'+1} case),
  //  * p'-1 — the pull-based dissemination race §V motivates ∆ as a
  //           tolerance for (an RA may deliver a statement fetched just
  //           before the CA published the next one).
  // A statement for period p is thus accepted until t + (p+2)∆ — it is
  // never older than 2∆. The walk is capped at the longest chain a CA may
  // sign, so an old root costs a bounded number of hashes.
  if (!crypto::chain_period(root.timestamp, config_.delta,
                            root.freshness_anchor, 0, status.freshness,
                            now)) {
    return Verdict::stale_freshness;
  }

  // Step 5b: the proof must verify against the signed root...
  if (!dict::verify_proof(status.proof, ByteSpan(leaf.serial.value),
                          root.root, root.n)) {
    return Verdict::bad_proof;
  }
  // ...and must be an *absence* proof: a valid presence proof means the
  // certificate is revoked.
  if (status.proof.type == dict::Proof::Type::presence) {
    return Verdict::revoked;
  }
  return Verdict::accepted;
}

Verdict RitmClient::process_server_flight(sim::Packet& pkt, UnixSeconds now) {
  ++stats_.handshakes;
  const auto statuses = ra::strip_status(pkt);
  const auto in = ra::inspect(ByteSpan(pkt.payload));
  if (in.kind == ra::Inspection::Kind::not_tls) {
    ++stats_.rejected;
    return Verdict::not_tls;
  }

  auto reject = [&](Verdict v) {
    ++stats_.rejected;
    return v;
  };

  if (!in.chain || in.chain->empty()) return reject(Verdict::bad_chain);
  if (config_.require_server_confirmation &&
      (!in.server_hello || !in.server_hello->confirms_ritm())) {
    return reject(Verdict::downgrade);
  }

  // Step 5a: standard validation.
  if (cert::validate_chain(*in.chain, roots_, now) != cert::ChainError::ok) {
    return reject(Verdict::bad_chain);
  }

  const cert::Certificate& leaf = in.chain->front();
  if (statuses.empty()) {
    if (config_.expect_ritm) return reject(Verdict::missing_status);
    // Non-RITM fallback: plain TLS acceptance (legacy behaviour).
    ++stats_.accepted;
    return Verdict::accepted;
  }

  // With multiple RAs on the path the client may receive several statuses;
  // any one valid absence proof from the issuing CA suffices.
  Verdict last = Verdict::missing_status;
  for (const Bytes& status : statuses) {
    ++stats_.statuses_validated;
    last = validate_status_bytes(ByteSpan(status), leaf, now);
    if (last == Verdict::accepted) break;
    if (last == Verdict::revoked) break;  // definitive: do not keep looking
  }
  if (last != Verdict::accepted) return reject(last);

  // §VIII chain proofs: every certificate in the chain needs an accepted
  // status of its own.
  if (config_.require_chain_proofs) {
    for (std::size_t i = 1; i < in.chain->size(); ++i) {
      Verdict link = Verdict::missing_status;
      for (const Bytes& status : statuses) {
        ++stats_.statuses_validated;
        link = validate_status_bytes(ByteSpan(status), (*in.chain)[i], now);
        if (link == Verdict::accepted || link == Verdict::revoked) break;
      }
      if (link != Verdict::accepted) {
        return reject(link == Verdict::revoked ? Verdict::revoked
                                               : Verdict::missing_status);
      }
    }
  }

  const sim::FlowKey flow = sim::FlowKey::of(pkt).reversed();
  connections_[flow] = Connection{leaf, now};
  ++stats_.accepted;
  return Verdict::accepted;
}

Verdict RitmClient::process_established(sim::Packet& pkt, UnixSeconds now) {
  const sim::FlowKey flow = sim::FlowKey::of(pkt).reversed();
  auto it = connections_.find(flow);
  const auto statuses = ra::strip_status(pkt);
  if (it == connections_.end()) return Verdict::accepted;  // untracked
  if (statuses.empty()) return Verdict::accepted;  // ordinary data packet

  Verdict last = Verdict::missing_status;
  for (const Bytes& status : statuses) {
    ++stats_.statuses_validated;
    last = validate_status_bytes(ByteSpan(status), it->second.leaf, now);
    if (last == Verdict::accepted) {
      it->second.last_status = now;
      return Verdict::accepted;
    }
    if (last == Verdict::revoked) break;
  }
  if (last == Verdict::revoked) {
    // Mid-connection revocation: tear the connection down immediately.
    connections_.erase(it);
    ++stats_.interrupts;
  }
  return last;
}

bool RitmClient::check_interrupt(const sim::FlowKey& flow, UnixSeconds now) {
  auto it = connections_.find(flow);
  if (it == connections_.end()) return false;
  if (now - it->second.last_status <= 2 * config_.delta) return false;
  connections_.erase(it);
  ++stats_.interrupts;
  return true;
}

void RitmClient::close_connection(const sim::FlowKey& flow) {
  connections_.erase(flow);
}

}  // namespace ritm::client
