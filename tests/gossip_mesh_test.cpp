// Set-reconciliation gossip: the digest/pull path is pinned
// byte-identical — same final roots(), same MisbehaviourEvidence — to the
// in-memory full-exchange oracle (gossip_oracle.hpp) across a 300-seed
// churn/partition matrix, then exercised at mesh scale: 100 RAs with
// partitions, late joiners, and one misbehaving peer injecting forged
// roots and fabricated evidence. A peer that does not speak the digest
// methods (unknown_method or version_skew) fails the contact and leaves
// both pools unchanged, and every attempt leaves a GossipStats trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ca/authority.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "svc/transport.hpp"
#include "gossip_oracle.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

ca::CertificationAuthority make_ca(std::uint64_t seed,
                                   const std::string& id = "CA-1") {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = id;
  cfg.delta = 10;
  cfg.chain_length = 64;
  return ca::CertificationAuthority(cfg, rng, 1000);
}

std::string evidence_key(const ra::MisbehaviourEvidence& e) {
  return to_hex(ByteSpan(e.ours.encode())) + to_hex(ByteSpan(e.theirs.encode()));
}

std::vector<std::string> sorted_root_keys(const ra::GossipPool& pool) {
  std::vector<std::string> keys;
  for (const auto& root : pool.roots()) {
    keys.push_back(to_hex(ByteSpan(root.encode())));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The shared root universe of a scenario: a run of honest roots n=1..K
/// for one CA, plus CA-signed split views (same n, different root) minted
/// at two checkpoints — the §V misbehaving-CA artefacts gossip exists to
/// catch.
struct RootUniverse {
  std::vector<dict::SignedRoot> honest;       // honest[i] has n == i+1
  std::vector<dict::SignedRoot> conflicting;  // split views (valid sigs)
  dict::SignedRoot forged;                    // bad signature, must drop
  cert::TrustStore keys;
};

RootUniverse make_universe(std::uint64_t seed, std::size_t count) {
  RootUniverse u;
  auto ca = make_ca(seed);
  ca::MisbehavingCa evil(ca);
  const auto first = SerialNumber::from_uint(1);
  for (std::size_t i = 0; i < count; ++i) {
    const auto issuance =
        ca.revoke({SerialNumber::from_uint(i + 1)}, 1000 + 10 * i);
    u.honest.push_back(issuance.signed_root);
    if (i == count / 2 || i + 1 == count) {
      u.conflicting.push_back(
          evil.view_without(first, 1000 + 10 * i).signed_root);
    }
  }
  u.forged = u.honest.back();
  u.forged.root[0] ^= 0x01;  // different hash, signature now invalid
  u.keys.add(ca.id(), ca.public_key());
  return u;
}

// --------------------------------------------------------------- digests

TEST(GossipDigest, RunsSplitAtGapsAndSegmentBoundaries) {
  const auto u = make_universe(7, 130);
  ra::GossipPool pool(&u.keys);
  for (std::size_t i = 0; i < u.honest.size(); ++i) {
    if (i + 1 == 70) continue;  // hole at n=70
    pool.observe(u.honest[i]);
  }
  const auto d = pool.digest();
  ASSERT_EQ(d.runs.size(), 1u);
  const auto& runs = d.runs.begin()->second;
  // n=1..130 minus 70, segment size 64: [1,63] [64,69] [71,127] [128,130].
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].lo, 1u);
  EXPECT_EQ(runs[0].hi, 63u);
  EXPECT_EQ(runs[1].lo, 64u);
  EXPECT_EQ(runs[1].hi, 69u);
  EXPECT_EQ(runs[2].lo, 71u);
  EXPECT_EQ(runs[2].hi, 127u);
  EXPECT_EQ(runs[3].lo, 128u);
  EXPECT_EQ(runs[3].hi, 130u);
  EXPECT_EQ(d.coverage(), 129u);

  // Codec round trip, byte-exact.
  const auto decoded = ra::decode_gossip_digest(ByteSpan(ra::encode_gossip_digest(d)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, d);
}

TEST(GossipDigest, DecoderRejectsHostileShapes) {
  ra::GossipDigest bad;
  bad.runs["CA-1"] = {{10, 5, {}}};  // lo > hi
  EXPECT_FALSE(
      ra::decode_gossip_digest(ByteSpan(ra::encode_gossip_digest(bad))));
  bad.runs["CA-1"] = {{1, 9, {}}, {9, 12, {}}};  // overlapping runs
  EXPECT_FALSE(
      ra::decode_gossip_digest(ByteSpan(ra::encode_gossip_digest(bad))));
  bad.runs["CA-1"] = {{8, 12, {}}, {1, 3, {}}};  // out of order
  EXPECT_FALSE(
      ra::decode_gossip_digest(ByteSpan(ra::encode_gossip_digest(bad))));
  // Truncated body.
  const auto ok = ra::encode_gossip_digest({{{"CA-1", {{1, 3, {}}}}}});
  EXPECT_FALSE(ra::decode_gossip_digest(ByteSpan(ok).subspan(0, ok.size() - 1)));
}

TEST(GossipDigest, IdenticalPoolsWantAndPushNothing) {
  const auto u = make_universe(11, 40);
  ra::GossipPool a(&u.keys), b(&u.keys);
  for (const auto& root : u.honest) {
    a.observe(root);
    b.observe(root);
  }
  EXPECT_TRUE(a.want_from(b.digest()).empty());
  EXPECT_TRUE(a.push_for(b.digest()).empty());
}

// ----------------------------------------------- 300-seed oracle pinning

/// One deterministic scenario: initial per-RA subsets (some RAs seeded with
/// a split view), a partitioned early phase, a late joiner (churn), and a
/// random pairing schedule. Built once per seed, executed identically on
/// the in-memory oracle::exchange and on reconcile_over across
/// transports, then compared RA by RA.
struct MatrixScenario {
  static constexpr int kRas = 8;
  static constexpr int kRounds = 6;
  std::vector<std::vector<dict::SignedRoot>> initial;       // per RA
  std::vector<std::pair<int, dict::SignedRoot>> late;       // churn joins
  std::vector<std::vector<std::pair<int, int>>> rounds;     // (caller, callee)
};

MatrixScenario make_scenario(const RootUniverse& u, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b9 + 1);
  MatrixScenario s;
  s.initial.resize(MatrixScenario::kRas);
  const int late_joiner = int(rng.uniform(MatrixScenario::kRas));
  const int evil_holder = int(rng.uniform(MatrixScenario::kRas));
  for (int ra = 0; ra < MatrixScenario::kRas; ++ra) {
    for (std::size_t i = 0; i < u.honest.size(); ++i) {
      if (rng.uniform(2) == 0) continue;
      const auto& root =
          (ra == evil_holder && i + 1 == u.conflicting.back().n)
              ? u.conflicting.back()
              : u.honest[i];
      if (ra == late_joiner) {
        s.late.emplace_back(ra, root);
      } else {
        s.initial[ra].push_back(root);
      }
    }
  }
  // Half the seeds also plant the mid-history split view on another RA.
  if (rng.uniform(2) == 0) {
    const int ra = int(rng.uniform(MatrixScenario::kRas));
    if (ra != late_joiner) s.initial[ra].push_back(u.conflicting.front());
  }
  for (int round = 0; round < MatrixScenario::kRounds; ++round) {
    // First half of the schedule: the mesh is partitioned into halves.
    const bool partitioned = round < MatrixScenario::kRounds / 2;
    std::vector<int> order(MatrixScenario::kRas);
    for (int i = 0; i < MatrixScenario::kRas; ++i) order[i] = i;
    for (int i = MatrixScenario::kRas - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform(std::uint64_t(i) + 1)]);
    }
    std::vector<std::pair<int, int>> contacts;
    for (int i = 0; i + 1 < MatrixScenario::kRas; i += 2) {
      const int a = order[i], b = order[i + 1];
      const int half = MatrixScenario::kRas / 2;
      if (partitioned && (a < half) != (b < half)) continue;
      contacts.emplace_back(a, b);
    }
    s.rounds.push_back(std::move(contacts));
  }
  return s;
}

TEST(GossipMesh, ReconcilePinnedToExchangeOracleAcross300Seeds) {
  const auto u = make_universe(42, 24);
  std::uint64_t conflicts_seen = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto s = make_scenario(u, seed);

    // Oracle: direct in-memory pools, oracle::exchange.
    std::vector<std::unique_ptr<ra::GossipPool>> oracle;
    // Wired: the same pools behind RaService transports, reconcile_over().
    std::vector<std::unique_ptr<ra::GossipPool>> wired;
    std::vector<std::unique_ptr<ra::RaService>> services;
    std::vector<std::unique_ptr<svc::InProcessTransport>> rpcs;
    ra::DictionaryStore store;  // unused by gossip; RaService needs one
    for (int ra = 0; ra < MatrixScenario::kRas; ++ra) {
      oracle.push_back(std::make_unique<ra::GossipPool>(&u.keys));
      wired.push_back(std::make_unique<ra::GossipPool>(&u.keys));
      services.push_back(
          std::make_unique<ra::RaService>(&store, wired.back().get()));
      rpcs.push_back(
          std::make_unique<svc::InProcessTransport>(services.back().get()));
      for (const auto& root : s.initial[ra]) {
        oracle[ra]->observe(root);
        wired[ra]->observe(root);
      }
    }

    std::vector<std::vector<std::string>> oracle_ev(MatrixScenario::kRas);
    std::vector<std::vector<std::string>> wired_ev(MatrixScenario::kRas);
    for (std::size_t round = 0; round < s.rounds.size(); ++round) {
      if (round == s.rounds.size() / 2) {
        // Churn: the late joiner's observations arrive mid-schedule.
        for (const auto& [ra, root] : s.late) {
          oracle[ra]->observe(root);
          wired[ra]->observe(root);
        }
      }
      for (const auto& [a, b] : s.rounds[round]) {
        for (const auto& e : ra::oracle::exchange(*oracle[a], *oracle[b])) {
          oracle_ev[a].push_back(evidence_key(e));
        }
        const auto got = wired[a]->reconcile_over(*rpcs[b]);
        ASSERT_TRUE(got.has_value()) << "seed " << seed;
        for (const auto& e : *got) wired_ev[a].push_back(evidence_key(e));
      }
    }

    for (int ra = 0; ra < MatrixScenario::kRas; ++ra) {
      EXPECT_EQ(sorted_root_keys(*wired[ra]), sorted_root_keys(*oracle[ra]))
          << "roots diverged: seed " << seed << " ra " << ra;
      std::sort(oracle_ev[ra].begin(), oracle_ev[ra].end());
      std::sort(wired_ev[ra].begin(), wired_ev[ra].end());
      EXPECT_EQ(wired_ev[ra], oracle_ev[ra])
          << "evidence diverged: seed " << seed << " ra " << ra;
      conflicts_seen += oracle_ev[ra].size();
      EXPECT_EQ(wired[ra]->stats().failed, 0u);
    }
  }
  // The matrix would prove little if the split views never collided.
  EXPECT_GT(conflicts_seen, 100u);
}

// ------------------------------------------------------ mesh at 100 RAs

/// A mesh peer that speaks the reconciliation protocol but lies: its digest
/// advertises a fabricated run, its pull responses carry forged roots and
/// fabricated evidence. Honest pools must drop all of it.
class ForgingPeer final : public svc::Service {
 public:
  ForgingPeer(dict::SignedRoot forged, std::vector<ra::MisbehaviourEvidence> fab)
      : forged_(std::move(forged)), fabricated_(std::move(fab)) {}

  svc::ServeResult handle(const svc::Request& req) override {
    svc::ServeResult out;
    out.response.request_id = req.request_id;
    if (req.method == svc::Method::gossip_digest) {
      ra::GossipDigest d;
      d.runs[forged_.ca] = {{1, 5, {}}};  // garbage hash: everyone wants it
      out.response.body = ra::encode_gossip_digest(d);
      return out;
    }
    // gossip_pull: forged roots + invented evidence.
    ByteWriter w(out.response.body);
    w.u32(1);
    w.var16(ByteSpan(forged_.encode()));
    w.u32(static_cast<std::uint32_t>(fabricated_.size()));
    for (const auto& e : fabricated_) {
      w.var16(ByteSpan(e.ours.encode()));
      w.var16(ByteSpan(e.theirs.encode()));
    }
    return out;
  }

 private:
  dict::SignedRoot forged_;
  std::vector<ra::MisbehaviourEvidence> fabricated_;
};

TEST(GossipMesh, HundredRasConvergeUnderChurnPartitionAndForgery) {
  constexpr int kRas = 100;
  constexpr int kLateJoiners = 10;   // churn: empty until round 3
  constexpr int kPartitionRounds = 3;
  constexpr int kMaxRounds = 25;
  const auto u = make_universe(1337, 150);
  const auto& evil_root = u.conflicting.back();

  // One pool per honest RA behind a transport; slot kRas is the forger.
  ra::DictionaryStore store;
  std::vector<std::unique_ptr<ra::GossipPool>> pools;
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::unique_ptr<svc::InProcessTransport>> rpcs;
  Rng rng(2024);
  for (int ra = 0; ra < kRas; ++ra) {
    pools.push_back(std::make_unique<ra::GossipPool>(&u.keys));
    services.push_back(
        std::make_unique<ra::RaService>(&store, pools.back().get()));
    rpcs.push_back(
        std::make_unique<svc::InProcessTransport>(services.back().get()));
    if (ra >= kRas - kLateJoiners) continue;  // late joiners start empty
    // Each RA observed a prefix of the feed plus some stragglers (the top
    // position is held out: the split view below decides who saw what).
    const std::size_t prefix = rng.uniform(u.honest.size());
    for (std::size_t i = 0; i + 1 < u.honest.size(); ++i) {
      if (i >= prefix && rng.uniform(4) != 0) continue;
      pools[ra]->observe(u.honest[i]);
    }
    // §V split view along the partition: the CA showed the honest top root
    // to one half of the mesh and its lie to the other.
    pools[ra]->observe(ra < kRas / 2 ? u.honest.back() : evil_root);
  }
  ForgingPeer forger(u.forged, {{u.honest.back(), u.forged}});
  services.push_back(nullptr);  // slot kept parallel; forger served directly
  rpcs.push_back(std::make_unique<svc::InProcessTransport>(&forger));

  std::vector<bool> informed(kRas, false);  // saw split-view evidence
  int rounds_used = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    rounds_used = round + 1;
    for (int ra = 0; ra < kRas; ++ra) {
      const bool joined = ra < kRas - kLateJoiners || round >= kPartitionRounds;
      if (!joined) continue;
      // Partitioned phase: contacts stay within the RA's half of the mesh.
      int peer;
      do {
        if (round < kPartitionRounds) {
          const int half = kRas / 2;
          const int base = ra < half ? 0 : half;
          peer = base + int(rng.uniform(std::uint64_t(half)));
        } else {
          peer = int(rng.uniform(std::uint64_t(kRas) + 1));  // may hit forger
        }
      } while (peer == ra);
      const auto evidence = pools[ra]->reconcile_over(*rpcs[peer]);
      ASSERT_TRUE(evidence.has_value());
      for (const auto& e : *evidence) {
        // Only the genuine split view may ever surface as evidence.
        EXPECT_EQ(e.ours.n, evil_root.n);
        EXPECT_NE(e.ours.root, e.theirs.root);
        informed[ra] = true;
      }
    }
    bool done = true;
    for (int ra = 0; ra < kRas && done; ++ra) {
      done = informed[ra] && pools[ra]->size() == u.honest.size();
    }
    if (done) break;
  }

  // Convergence: every honest RA covers the full universe and learned of
  // the CA's split view — the paper's deterrence property at mesh scale.
  for (int ra = 0; ra < kRas; ++ra) {
    EXPECT_EQ(pools[ra]->size(), u.honest.size()) << "ra " << ra;
    EXPECT_TRUE(informed[ra]) << "ra " << ra;
    EXPECT_EQ(pools[ra]->stats().failed, 0u);
  }
  EXPECT_LT(rounds_used, kMaxRounds);

  // The forger accomplished nothing but a counter: forged roots dropped on
  // observation, fabricated evidence dropped on adoption — and anyone who
  // talked to it shows the drops in forged_dropped().
  std::uint64_t forged_drops = 0;
  for (int ra = 0; ra < kRas; ++ra) {
    forged_drops += pools[ra]->forged_dropped();
    for (const auto& root : pools[ra]->roots()) {
      EXPECT_NE(to_hex(ByteSpan(root.encode())),
                to_hex(ByteSpan(u.forged.encode())));
    }
  }
  EXPECT_GT(forged_drops, 0u);
}

/// What one contact would move as a full-list exchange: the caller's whole
/// root list out and the peer's whole list back plus an empty evidence
/// count, one frame each.
std::uint64_t full_list_bytes(const ra::GossipPool& caller,
                              const ra::GossipPool& peer) {
  return 2 * svc::kFrameOverheadBytes +
         ra::encode_gossip_roots(caller.roots()).size() +
         ra::encode_gossip_roots(peer.roots()).size() + 4;
}

TEST(GossipMesh, DigestPathMovesFractionOfFullListBytes) {
  // The anti-entropy maintenance workload reconciliation exists for: every
  // RA holds the full history except a staggered recent tail (it is a few
  // feed periods behind) and a couple of scattered holes. 32 RAs reconcile
  // for 5 rounds; before each contact the full-list cost of the same
  // contact is summed as the reference (a full-list exchange leaves the
  // pair with the same union, so the pools evolve identically). The bench
  // pins the 100-RA ratio; this keeps the property under test on every
  // ctest run.
  constexpr int kRas = 32;
  constexpr int kRounds = 5;
  const auto u = make_universe(77, 256);

  ra::DictionaryStore store;
  std::vector<std::unique_ptr<ra::GossipPool>> pools;
  std::vector<std::unique_ptr<ra::RaService>> services;
  std::vector<std::unique_ptr<svc::InProcessTransport>> rpcs;
  Rng rng(99);
  for (int ra = 0; ra < kRas; ++ra) {
    pools.push_back(std::make_unique<ra::GossipPool>(&u.keys));
    services.push_back(
        std::make_unique<ra::RaService>(&store, pools.back().get()));
    rpcs.push_back(
        std::make_unique<svc::InProcessTransport>(services.back().get()));
    // Synced up to a recent cursor, minus two scattered holes.
    const std::size_t cursor = u.honest.size() - 32 + rng.uniform(33);
    const std::size_t hole1 = rng.uniform(u.honest.size());
    const std::size_t hole2 = rng.uniform(u.honest.size());
    for (std::size_t i = 0; i < cursor; ++i) {
      if (i == hole1 || i == hole2) continue;
      pools[ra]->observe(u.honest[i]);
    }
  }
  std::uint64_t full_bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int ra = 0; ra < kRas; ++ra) {
      int peer;
      do {
        peer = int(rng.uniform(std::uint64_t(kRas)));
      } while (peer == ra);
      full_bytes += full_list_bytes(*pools[ra], *pools[peer]);
      // The counterfactual holds only while reconciliation leaves the pair
      // with the union, as the full-list exchange would.
      const auto mine = sorted_root_keys(*pools[ra]);
      const auto theirs = sorted_root_keys(*pools[peer]);
      std::vector<std::string> both;
      std::set_union(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                     std::back_inserter(both));
      ASSERT_TRUE(pools[ra]->reconcile_over(*rpcs[peer]).has_value());
      EXPECT_EQ(sorted_root_keys(*pools[ra]), both);
      EXPECT_EQ(sorted_root_keys(*pools[peer]), both);
    }
  }
  std::uint64_t digest_bytes = 0;
  for (int ra = 0; ra < kRas; ++ra) {
    digest_bytes +=
        pools[ra]->stats().bytes_sent + pools[ra]->stats().bytes_received;
  }
  EXPECT_GT(digest_bytes, 0u);
  EXPECT_LT(digest_bytes * 5, full_bytes);  // <= 0.2x, the bench's gate
}

// ------------------------------------------------- peers without digests

/// A peer RA whose dispatch does not implement the reconciliation methods.
class NoDigestRaService final : public svc::Service {
 public:
  NoDigestRaService(ra::RaService* inner, svc::Status answer)
      : inner_(inner), answer_(answer) {}
  svc::ServeResult handle(const svc::Request& req) override {
    if (req.method == svc::Method::gossip_digest ||
        req.method == svc::Method::gossip_pull) {
      svc::ServeResult out;
      out.response = svc::reject(req, answer_);
      return out;
    }
    return inner_->handle(req);
  }
 private:
  ra::RaService* inner_;
  svc::Status answer_;
};

TEST(GossipInterop, PeerWithoutDigestMethodsFailsTheContact) {
  // There is no full-list fallback: unknown_method and version_skew fail
  // the contact like any other refusal, and neither pool moves.
  const auto u = make_universe(5, 20);
  for (const svc::Status answer :
       {svc::Status::unknown_method, svc::Status::version_skew}) {
    ra::DictionaryStore store;
    ra::GossipPool alice(&u.keys), bob(&u.keys);
    alice.observe(u.honest[0]);
    bob.observe(u.honest[1]);
    bob.observe(u.conflicting.back());
    const auto alice_before = sorted_root_keys(alice);
    const auto bob_before = sorted_root_keys(bob);
    ra::RaService bob_service(&store, &bob);
    NoDigestRaService peer(&bob_service, answer);
    svc::InProcessTransport peer_rpc(&peer);

    EXPECT_FALSE(alice.reconcile_over(peer_rpc).has_value())
        << svc::to_string(answer);
    EXPECT_EQ(alice.stats().attempted, 1u);
    EXPECT_EQ(alice.stats().failed, 1u);
    EXPECT_EQ(alice.stats().digest_exchanges, 0u);
    EXPECT_EQ(sorted_root_keys(alice), alice_before);
    EXPECT_EQ(sorted_root_keys(bob), bob_before);
  }
}

// ----------------------------------------------------------- statistics

class DeadTransport final : public svc::Transport {
 public:
  svc::CallResult call(const svc::Request&) override {
    svc::CallResult r;
    r.status = svc::Status::transport_error;
    r.bytes_sent = 42;  // the request left before the socket died
    return r;
  }
};

/// Passes calls through until `fail_after` have succeeded, then dies —
/// exercises the digest-succeeded-pull-failed half-exchange.
class FlakyTransport final : public svc::Transport {
 public:
  FlakyTransport(svc::Transport* inner, int fail_after)
      : inner_(inner), remaining_(fail_after) {}
  svc::CallResult call(const svc::Request& req) override {
    if (remaining_-- <= 0) {
      svc::CallResult r;
      r.status = svc::Status::transport_error;
      return r;
    }
    return inner_->call(req);
  }
 private:
  svc::Transport* inner_;
  int remaining_;
};

TEST(GossipStats, EveryFailureLeavesATrace) {
  const auto u = make_universe(9, 10);
  ra::GossipPool pool(&u.keys);
  pool.observe(u.honest[0]);

  DeadTransport dead;
  EXPECT_FALSE(pool.reconcile_over(dead).has_value());
  EXPECT_EQ(pool.stats().attempted, 1u);
  EXPECT_EQ(pool.stats().failed, 1u);
  EXPECT_EQ(pool.stats().bytes_sent, 42u);  // counted even on failure

  EXPECT_FALSE(pool.reconcile_over(dead).has_value());
  EXPECT_EQ(pool.stats().attempted, 2u);
  EXPECT_EQ(pool.stats().failed, 2u);
  EXPECT_EQ(pool.stats().bytes_sent, 84u);

  // Digest leg succeeds, pull leg dies mid-exchange.
  ra::DictionaryStore store;
  ra::GossipPool peer(&u.keys);
  peer.observe(u.honest[1]);
  ra::RaService peer_service(&store, &peer);
  svc::InProcessTransport peer_rpc(&peer_service);
  FlakyTransport flaky(&peer_rpc, 1);
  EXPECT_FALSE(pool.reconcile_over(flaky).has_value());
  EXPECT_EQ(pool.stats().attempted, 3u);
  EXPECT_EQ(pool.stats().failed, 3u);
  EXPECT_EQ(pool.stats().digest_exchanges, 0u);

  // And a clean digest exchange balances the books.
  const auto got = pool.reconcile_over(peer_rpc);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(pool.stats().attempted, 4u);
  EXPECT_EQ(pool.stats().failed, 3u);
  EXPECT_EQ(pool.stats().digest_exchanges, 1u);
  EXPECT_EQ(pool.stats().roots_pulled, 1u);
  EXPECT_EQ(pool.stats().roots_pushed, 1u);
  EXPECT_GT(pool.stats().bytes_received, 0u);
}

TEST(GossipStats, ConvergedPeersExchangeOnlyDigests) {
  const auto u = make_universe(13, 80);
  ra::DictionaryStore store;
  ra::GossipPool a(&u.keys), b(&u.keys);
  for (const auto& root : u.honest) {
    a.observe(root);
    b.observe(root);
  }
  ra::RaService b_service(&store, &b);
  svc::InProcessTransport b_rpc(&b_service);

  const auto got = a.reconcile_over(b_rpc);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(a.stats().roots_pulled, 0u);
  EXPECT_EQ(a.stats().roots_pushed, 0u);
  // 80 identical roots: two digest frames instead of ~10 KB of root lists.
  const auto moved = a.stats().bytes_sent + a.stats().bytes_received;
  EXPECT_LT(moved, 500u);
  EXPECT_LT(moved * 20, full_list_bytes(a, b));
}

}  // namespace
}  // namespace ritm
