#include "ra/gossip.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/io.hpp"
#include "crypto/sha256.hpp"
#include "ra/service.hpp"

namespace ritm::ra {

std::size_t GossipDigest::coverage() const noexcept {
  std::size_t total = 0;
  for (const auto& [ca, ca_runs] : runs) {
    for (const auto& run : ca_runs) total += run.hi - run.lo + 1;
  }
  return total;
}

GossipPool::GossipPool(const cert::TrustStore* keys) : keys_(keys) {
  if (keys_ == nullptr) throw std::invalid_argument("GossipPool: null keys");
}

std::optional<MisbehaviourEvidence> GossipPool::observe(
    const dict::SignedRoot& root) {
  const auto key = keys_->find(root.ca);
  if (!key) return std::nullopt;  // unknown CA: nothing to check against
  // A byte-identical copy of a held root was verified when it was stored.
  if (const auto ca = seen_.find(root.ca); ca != seen_.end()) {
    const auto held = ca->second.find(root.n);
    if (held != ca->second.end() && held->second == root) return std::nullopt;
  }
  if (!root.verify(*key)) {
    ++forged_;
    return std::nullopt;  // not the CA's signature: not evidence of its lie
  }
  auto& by_n = seen_[root.ca];
  auto [it, inserted] = by_n.emplace(root.n, root);
  if (inserted) return std::nullopt;
  if (it->second.root == root.root) return std::nullopt;  // consistent
  return MisbehaviourEvidence{it->second, root};
}

void GossipPool::adopt_peer_evidence(
    const std::vector<MisbehaviourEvidence>& claimed,
    std::vector<MisbehaviourEvidence>& out) {
  // Peer-supplied evidence is hostile input: a lying peer must not be able
  // to frame an honest CA, so each pair is re-checked against the exact
  // rule observe() enforces — both roots signed by the CA's registered
  // key, same size, different root hash — before it is believed.
  for (const auto& e : claimed) {
    if (e.ours.ca != e.theirs.ca || e.ours.n != e.theirs.n ||
        e.ours.root == e.theirs.root) {
      ++forged_;
      continue;
    }
    const auto key = keys_->find(e.ours.ca);
    if (!key || !e.ours.verify(*key) || !e.theirs.verify(*key)) {
      ++forged_;
      continue;
    }
    out.push_back(e);
  }
}

crypto::Digest20 GossipPool::hash_run(const RootsByN& by_n, std::uint64_t lo,
                                      std::uint64_t hi) {
  crypto::Sha256 h;
  std::uint8_t buf[8 + 20];
  for (auto it = by_n.lower_bound(lo); it != by_n.end() && it->first <= hi;
       ++it) {
    for (int s = 0; s < 8; ++s) {
      buf[s] = static_cast<std::uint8_t>(it->first >> (56 - 8 * s));
    }
    std::copy(it->second.root.begin(), it->second.root.end(), buf + 8);
    h.update(ByteSpan(buf, sizeof buf));
  }
  const auto full = h.finish();
  crypto::Digest20 out;
  std::copy(full.begin(), full.begin() + out.size(), out.begin());
  return out;
}

bool GossipPool::run_in_sync(const RootsByN& by_n, const GossipRun& run) {
  // Full coverage first (counted over held entries, never range width)...
  std::uint64_t held = 0;
  for (auto it = by_n.lower_bound(run.lo);
       it != by_n.end() && it->first <= run.hi; ++it) {
    ++held;
  }
  if (held != run.hi - run.lo + 1) return false;
  // ...then the hash: equal means every (n, root) pair matches.
  return hash_run(by_n, run.lo, run.hi) == run.hash;
}

GossipDigest GossipPool::digest() const {
  GossipDigest d;
  for (const auto& [ca, by_n] : seen_) {
    if (by_n.empty()) continue;
    auto& ca_runs = d.runs[ca];
    std::uint64_t lo = 0, prev = 0;
    bool open = false;
    for (const auto& [n, root] : by_n) {
      // Break the run on a gap or at a segment boundary, so any two pools'
      // overlapping runs stay hash-comparable.
      if (open && (n != prev + 1 || n % kDigestSegment == 0)) {
        ca_runs.push_back({lo, prev, hash_run(by_n, lo, prev)});
        open = false;
      }
      if (!open) {
        lo = n;
        open = true;
      }
      prev = n;
    }
    if (open) ca_runs.push_back({lo, prev, hash_run(by_n, lo, prev)});
  }
  return d;
}

GossipWant GossipPool::want_from(const GossipDigest& theirs) const {
  GossipWant want;
  for (const auto& [ca, ca_runs] : theirs.runs) {
    if (!keys_->find(ca)) continue;  // observe() would drop these anyway
    const auto local = seen_.find(ca);
    static const RootsByN kEmpty;
    const RootsByN& by_n = local == seen_.end() ? kEmpty : local->second;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const auto& run : ca_runs) {
      if (run_in_sync(by_n, run)) continue;
      // Pull the whole run: it holds positions we are missing, or overlap
      // that may diverge — a full exchange would observe both, so must we.
      if (!ranges.empty() && ranges.back().second + 1 >= run.lo) {
        ranges.back().second = std::max(ranges.back().second, run.hi);
      } else {
        ranges.emplace_back(run.lo, run.hi);
      }
    }
    if (!ranges.empty()) want.ranges[ca] = std::move(ranges);
  }
  return want;
}

std::vector<dict::SignedRoot> GossipPool::push_for(
    const GossipDigest& theirs) const {
  std::vector<dict::SignedRoot> push;
  for (const auto& [ca, by_n] : seen_) {
    const auto advertised = theirs.runs.find(ca);
    const std::vector<GossipRun>* runs =
        advertised == theirs.runs.end() ? nullptr : &advertised->second;
    std::vector<bool> synced;
    if (runs != nullptr) {
      synced.reserve(runs->size());
      for (const auto& run : *runs) synced.push_back(run_in_sync(by_n, run));
    }
    for (const auto& [n, root] : by_n) {
      bool covered_in_sync = false, covered = false;
      if (runs != nullptr) {
        // Runs are sorted by lo: the only candidate is the last run whose
        // lo <= n.
        auto it = std::upper_bound(
            runs->begin(), runs->end(), n,
            [](std::uint64_t v, const GossipRun& r) { return v < r.lo; });
        if (it != runs->begin()) {
          const std::size_t idx = std::size_t(std::prev(it) - runs->begin());
          if ((*runs)[idx].hi >= n) {
            covered = true;
            covered_in_sync = synced[idx];
          }
        }
      }
      // Outside every advertised run: the peer is missing it. Inside a run
      // that failed the sync test: ship our version so a divergent position
      // surfaces on the peer's side too (mirror of want_from).
      if (!covered || !covered_in_sync) push.push_back(root);
    }
  }
  return push;
}

std::vector<dict::SignedRoot> GossipPool::roots_in(
    const GossipWant& want) const {
  std::vector<dict::SignedRoot> out;
  for (const auto& [ca, ranges] : want.ranges) {
    const auto local = seen_.find(ca);
    if (local == seen_.end()) continue;
    const RootsByN& by_n = local->second;
    for (const auto& [lo, hi] : ranges) {
      for (auto it = by_n.lower_bound(lo); it != by_n.end() && it->first <= hi;
           ++it) {
        out.push_back(it->second);
      }
    }
  }
  return out;
}

std::optional<std::vector<MisbehaviourEvidence>> GossipPool::reconcile_over(
    svc::Transport& peer) {
  ++stats_.attempted;

  svc::Request dreq;
  dreq.method = svc::Method::gossip_digest;
  dreq.body = encode_gossip_digest(digest());
  const svc::CallResult dres = peer.call(dreq);
  stats_.bytes_sent += dres.bytes_sent;
  stats_.bytes_received += dres.bytes_received;
  if (!dres.ok()) {
    ++stats_.failed;
    return std::nullopt;
  }
  const auto peer_digest =
      decode_gossip_digest(ByteSpan(dres.response.body));
  if (!peer_digest) {
    ++stats_.failed;
    return std::nullopt;
  }

  const GossipWant want = want_from(*peer_digest);
  std::vector<dict::SignedRoot> push = push_for(*peer_digest);

  svc::Request preq;
  preq.method = svc::Method::gossip_pull;
  preq.body = encode_gossip_pull(want, push);
  const svc::CallResult pres = peer.call(preq);
  stats_.bytes_sent += pres.bytes_sent;
  stats_.bytes_received += pres.bytes_received;
  if (!pres.ok()) {
    ++stats_.failed;
    return std::nullopt;
  }
  const auto reply = decode_gossip_reply(ByteSpan(pres.response.body));
  if (!reply) {
    ++stats_.failed;
    return std::nullopt;
  }

  std::vector<MisbehaviourEvidence> evidence;
  adopt_peer_evidence(reply->evidence, evidence);
  for (const auto& root : reply->roots) {
    if (auto e = observe(root)) evidence.push_back(std::move(*e));
  }

  ++stats_.digest_exchanges;
  stats_.roots_pushed += push.size();
  stats_.roots_pulled += reply->roots.size();
  return evidence;
}

std::vector<dict::SignedRoot> GossipPool::roots() const {
  std::vector<dict::SignedRoot> all;
  all.reserve(size());
  for (const auto& [ca, by_n] : seen_) {
    for (const auto& [n, root] : by_n) all.push_back(root);
  }
  return all;
}

std::size_t GossipPool::size() const noexcept {
  std::size_t total = 0;
  for (const auto& [ca, by_n] : seen_) total += by_n.size();
  return total;
}

}  // namespace ritm::ra
