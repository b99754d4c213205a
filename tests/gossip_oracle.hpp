// The in-memory oracle the gossip tests pin set reconciliation
// (GossipPool::reconcile_over and RaService's gossip_pull) against: a full
// bidirectional exchange of two pools' whole seen-sets, built from the
// public roots() and observe().
#pragma once

#include <utility>
#include <vector>

#include "ra/gossip.hpp"

namespace ritm::ra::oracle {

/// Both pools end up with the union of their observations; every conflict
/// discovered either way is returned. Both seen-sets are copied first, so
/// the exchange is symmetric even as the pools absorb each other's roots.
inline std::vector<MisbehaviourEvidence> exchange(GossipPool& a,
                                                  GossipPool& b) {
  const std::vector<dict::SignedRoot> mine = a.roots();
  const std::vector<dict::SignedRoot> theirs = b.roots();
  std::vector<MisbehaviourEvidence> evidence;
  for (const auto& root : theirs) {
    if (auto e = a.observe(root)) evidence.push_back(std::move(*e));
  }
  for (const auto& root : mine) {
    if (auto e = b.observe(root)) evidence.push_back(std::move(*e));
  }
  return evidence;
}

}  // namespace ritm::ra::oracle
