// The fault matrix (PR 6): ≥1000 deterministic, seed-driven fault
// schedules driven through the end-to-end serving flows — feed
// dissemination with gap sync, RA<->RA gossip, and batched status queries
// — each running behind a FaultTransport (drops, delays, corruption,
// truncation, partial writes, duplicates, resets) wrapped in a
// ResilientTransport on a virtual clock. Every schedule must converge to
// byte-identical state with the fault-free oracle, with zero hangs: the
// convergence contract is FaultProfile::max_consecutive (at most 6 faulted
// calls in a row) against RetryPolicy::max_attempts (8 > 6+1, enough for a
// trailing stale duplicate plus the forced-clean call).
//
// Unit coverage for the two layers rides along: schedule determinism,
// retry/backoff/deadline semantics, retry_after honoring, stale-duplicate
// rejection, and the circuit breaker's open/half-open cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/service.hpp"
#include "common/io.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "svc/fault.hpp"
#include "svc/resilient.hpp"
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

/// Virtual time shared by every resilient wrapper in a schedule: backoff
/// "sleeps" advance the clock instead of blocking, so thousands of
/// schedules with retries run in milliseconds of real time.
struct VirtualTime {
  std::uint64_t now = 0;
  void install(svc::ResilientTransport* t) {
    if (t == nullptr) return;
    t->set_time([this](std::uint32_t ms) { now += ms; },
                [this] { return now; });
  }
};

class EchoService final : public svc::Service {
 public:
  svc::Response handle(const svc::Request& req) override {
    svc::Response out;
    out.request_id = req.request_id;
    out.body = req.body;
    return out;
  }
};

// ----------------------------------------------------------- FaultTransport

TEST(FaultTransport, SameSeedReplaysIdenticalSchedule) {
  EchoService echo;
  svc::InProcessTransport inner(&echo);
  const auto run = [&](std::uint64_t seed) {
    svc::FaultTransport fault(&inner, seed);
    std::string trace;
    for (int i = 0; i < 400; ++i) {
      svc::Request req;
      req.method = svc::Method::status_query;
      req.body = {std::uint8_t(i)};
      const auto r = fault.call(req);
      trace += svc::to_string(r.status);
      trace += r.ok() ? svc::to_string(r.response.status) : "-";
      trace += '|';
    }
    return trace;
  };
  EXPECT_EQ(run(7), run(7));      // bit-for-bit reproducible
  EXPECT_NE(run(7), run(8));      // and actually seed-driven
}

TEST(FaultTransport, ForcedCleanBoundsConsecutiveFaults) {
  EchoService echo;
  svc::InProcessTransport inner(&echo);
  svc::FaultProfile always;  // every call faulted unless forced clean
  always.drop_request = 1.0;
  always.max_consecutive = 4;
  svc::FaultTransport fault(&inner, 3, always);
  int consecutive = 0, worst = 0;
  for (int i = 0; i < 100; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    if (fault.call(req).ok()) {
      consecutive = 0;
    } else {
      worst = std::max(worst, ++consecutive);
    }
  }
  EXPECT_EQ(worst, 4);
  EXPECT_EQ(fault.stats().forced_clean, 20u);  // every 5th call
}

// ------------------------------------------------------- ResilientTransport

/// Scripted inner transport: plays a fixed sequence of outcomes.
class ScriptedTransport final : public svc::Transport {
 public:
  struct Step {
    svc::Status transport = svc::Status::ok;  // != ok: failed round trip
    svc::Status served = svc::Status::ok;
    Bytes body;
    std::uint64_t override_id = 0;  // != 0: reply with this (stale) id
  };
  std::vector<Step> steps;
  std::size_t next = 0;
  std::vector<std::uint64_t> seen_ids;

  svc::CallResult call(const svc::Request& req) override {
    const Step step = next < steps.size() ? steps[next++] : Step{};
    seen_ids.push_back(req.request_id);
    svc::CallResult r;
    if (step.transport != svc::Status::ok) {
      r.status = step.transport;
      return r;
    }
    r.response.request_id =
        step.override_id != 0 ? step.override_id : req.request_id;
    r.response.status = step.served;
    r.response.body = step.body;
    return r;
  }
};

TEST(ResilientTransport, RetriesReuseOneRequestIdAndBackOff) {
  ScriptedTransport inner;
  inner.steps = {{svc::Status::transport_error},
                 {svc::Status::transport_error},
                 {}};
  svc::ResilientTransport rt(&inner, {.base_backoff_ms = 8, .jitter = 0.0});
  VirtualTime vt;
  vt.install(&rt);

  svc::Request req;
  req.method = svc::Method::status_query;
  const auto r = rt.call(req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.response.status, svc::Status::ok);
  ASSERT_EQ(inner.seen_ids.size(), 3u);
  // The idempotent retry key: all attempts carried the same id.
  EXPECT_EQ(inner.seen_ids[0], inner.seen_ids[1]);
  EXPECT_EQ(inner.seen_ids[1], inner.seen_ids[2]);
  // Exponential: 8 then 16 ms of (virtual) backoff.
  EXPECT_EQ(vt.now, 24u);
  EXPECT_EQ(rt.stats().retries, 2u);
}

TEST(ResilientTransport, StaleDuplicateResponseIsRejectedAndRetried) {
  ScriptedTransport inner;
  inner.steps = {{.override_id = 0xDEAD}, {}};  // stale id, then the answer
  svc::ResilientTransport rt(&inner);
  VirtualTime vt;
  vt.install(&rt);
  svc::Request req;
  req.method = svc::Method::status_query;
  const auto r = rt.call(req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.response.request_id, inner.seen_ids[0]);
  EXPECT_EQ(rt.stats().stale_rejected, 1u);
}

TEST(ResilientTransport, RetryAfterHintFloorsBackoff) {
  ScriptedTransport inner;
  ScriptedTransport::Step overloaded;
  overloaded.served = svc::Status::overloaded;
  overloaded.body = svc::encode_retry_after(250);
  inner.steps = {overloaded, {}};
  svc::ResilientTransport rt(&inner, {.base_backoff_ms = 1, .jitter = 0.0});
  VirtualTime vt;
  vt.install(&rt);
  svc::Request req;
  req.method = svc::Method::status_query;
  ASSERT_TRUE(rt.call(req).ok());
  EXPECT_EQ(rt.stats().retry_after_honored, 1u);
  EXPECT_EQ(vt.now, 250u);  // the hint overrode the 1 ms backoff
}

TEST(ResilientTransport, DeadlineBoundsTheWholeCall) {
  ScriptedTransport inner;
  for (int i = 0; i < 64; ++i) {
    inner.steps.push_back({svc::Status::transport_error});
  }
  svc::ResilientTransport rt(
      &inner,
      {.max_attempts = 64, .base_backoff_ms = 100, .jitter = 0.0,
       .deadline_ms = 500},
      {.failure_threshold = 0});
  VirtualTime vt;
  vt.install(&rt);
  svc::Request req;
  req.method = svc::Method::status_query;
  const auto r = rt.call(req);
  EXPECT_EQ(r.status, svc::Status::deadline_exceeded);
  EXPECT_LE(vt.now, 500u);  // backoffs were clipped to the budget
  EXPECT_GE(rt.stats().deadline_exhausted, 1u);
}

TEST(ResilientTransport, BreakerOpensFastFailsThenProbes) {
  ScriptedTransport inner;
  // 2 calls x 2 attempts open the breaker; the first half-open probe call
  // burns 2 more failures and re-opens; the next probe succeeds.
  for (int i = 0; i < 6; ++i) {
    inner.steps.push_back({svc::Status::transport_error});
  }
  inner.steps.push_back({});
  svc::ResilientTransport rt(&inner,
                             {.max_attempts = 2, .base_backoff_ms = 1,
                              .jitter = 0.0},
                             {.failure_threshold = 4, .open_ms = 1000});
  VirtualTime vt;
  vt.install(&rt);
  svc::Request req;
  req.method = svc::Method::status_query;

  // 2 calls x 2 attempts = 4 consecutive failures: the breaker opens.
  EXPECT_FALSE(rt.call(req).ok());
  EXPECT_FALSE(rt.call(req).ok());
  ASSERT_TRUE(rt.circuit_open());
  EXPECT_EQ(rt.stats().breaker_opens, 1u);

  // While open: fail fast, no inner calls.
  const auto attempts_before = rt.stats().attempts;
  EXPECT_EQ(rt.call(req).status, svc::Status::circuit_open);
  EXPECT_EQ(rt.stats().attempts, attempts_before);
  EXPECT_EQ(rt.stats().breaker_fast_fails, 1u);

  // After open_ms the next call probes through — but the script still
  // fails, so the breaker re-opens...
  vt.now += 1000;
  EXPECT_FALSE(rt.call(req).ok());
  EXPECT_TRUE(rt.circuit_open());
  // ...until a probe finally succeeds and closes it.
  while (rt.circuit_open()) vt.now += 1000;
  ASSERT_TRUE(rt.call(req).ok());
  EXPECT_FALSE(rt.circuit_open());
}

// ------------------------------------------------------------ the matrix

/// A published world: one CA, three feed periods on the CDN, a sync
/// endpoint for gap recovery. Period 1's issuance is never submitted, so
/// period 2's exposes a numbering gap and every RA runs a gap sync over
/// feed_delta. Read-only once built, so many fault schedules can share it.
struct FeedWorld {
  ca::CertificationAuthority ca;
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp{&cdn, 10};
  ca::SyncService sync_service;

  explicit FeedWorld(std::uint64_t seed) : ca(make_ca(seed)) {
    dp.register_ca(ca.id(), ca.public_key());
    sync_service.add(&ca);
    Rng rng(seed ^ 0x5eed);
    UnixSeconds t = 1000;
    std::uint64_t serial = 1;
    for (int period = 0; period < 3; ++period) {
      std::vector<SerialNumber> batch;
      const std::size_t k = 1 + rng.uniform(4);
      for (std::size_t i = 0; i < k; ++i) {
        serial += 1 + rng.uniform(5);
        batch.push_back(SerialNumber::from_uint(serial, 4));
      }
      const auto issuance = ca.revoke(batch, t);
      if (period != 1) {
        EXPECT_EQ(dp.submit(ca::FeedMessage::of(issuance)), svc::Status::ok);
      }
      dp.publish(from_seconds(t));
      t += 10;
    }
  }
};

/// Serialized observable state of a replica: root count plus the served
/// status bytes of a fixed probe set — what a client would actually see.
Bytes fingerprint(ra::DictionaryStore& store, const cert::CaId& ca_id) {
  ra::RaService service(&store);
  svc::InProcessTransport rpc(&service);
  std::vector<SerialNumber> probes;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    probes.push_back(SerialNumber::from_uint(i, 4));
  }
  svc::Request req;
  req.method = svc::Method::status_batch;
  req.body = ra::encode_status_batch(ca_id, probes);
  const auto r = rpc.call(req);
  Bytes fp;
  ByteWriter w(fp);
  w.u64(store.have_n(ca_id));
  w.u16(static_cast<std::uint16_t>(r.response.status));
  w.raw(ByteSpan(r.response.body));
  return fp;
}

TEST(FaultMatrix, FeedSyncConvergesUnderEveryScheduleToOracleState) {
  constexpr int kWorlds = 20;
  constexpr int kSchedulesPerWorld = 20;  // 400 schedules
  svc::FaultStats aggregate;
  std::uint64_t total_retries = 0;

  for (int wi = 0; wi < kWorlds; ++wi) {
    FeedWorld world(100 + std::uint64_t(wi));

    // Fault-free oracle.
    cdn::LocalCdn oracle_cdn(&world.cdn);
    svc::InProcessTransport oracle_sync(&world.sync_service);
    ra::DictionaryStore oracle_store;
    oracle_store.register_ca(world.ca.id(), world.ca.public_key(),
                             world.ca.delta());
    ra::RaUpdater oracle({sim::GeoPoint{47.4, 8.5}}, &oracle_store,
                         &oracle_cdn.rpc, &oracle_sync);
    oracle.pull_up_to(2, from_seconds(2000));
    ASSERT_EQ(oracle.next_period(), 3u) << "world " << wi;
    ASSERT_EQ(oracle.totals().syncs, 1u) << "world " << wi;
    ASSERT_EQ(oracle_store.have_n(world.ca.id()),
              world.ca.dictionary().size())
        << "world " << wi;
    const Bytes want = fingerprint(oracle_store, world.ca.id());

    for (int si = 0; si < kSchedulesPerWorld; ++si) {
      const auto seed = std::uint64_t(wi) * 1000 + std::uint64_t(si);
      cdn::LocalCdn cdn_rpc(&world.cdn);
      svc::InProcessTransport sync_in(&world.sync_service);
      svc::FaultTransport cdn_fault(&cdn_rpc.rpc, seed * 2 + 1);
      svc::FaultTransport sync_fault(&sync_in, seed * 2 + 2);

      ra::DictionaryStore store;
      store.register_ca(world.ca.id(), world.ca.public_key(),
                        world.ca.delta());
      ra::RaUpdater up({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_fault,
                       &sync_fault);
      up.enable_resilience({}, {}, seed);
      VirtualTime vt;
      vt.install(up.resilient_cdn());
      vt.install(up.resilient_sync());

      // One resilient pull normally converges outright (max_attempts=8 >
      // max_consecutive=6 + one stale); the bounded outer loop absorbs the
      // astronomically-rare CRC-passing corruption.
      int guard = 0;
      while (up.next_period() <= 2 && ++guard <= 50) {
        up.pull_up_to(2, from_seconds(2000));
      }
      ASSERT_LE(guard, 50) << "seed " << seed << " did not converge";
      EXPECT_EQ(fingerprint(store, world.ca.id()), want) << "seed " << seed;
      EXPECT_GE(up.totals().syncs, 1u) << "seed " << seed;
      EXPECT_FALSE(up.health().degraded) << "seed " << seed;
      EXPECT_GE(up.staleness_s(from_seconds(2000)), 0.0) << "seed " << seed;

      const auto& fs = cdn_fault.stats();
      aggregate.calls += fs.calls + sync_fault.stats().calls;
      aggregate.clean += fs.clean;
      aggregate.forced_clean += fs.forced_clean;
      aggregate.drop_request += fs.drop_request;
      aggregate.drop_response += fs.drop_response;
      aggregate.delays += fs.delays;
      aggregate.corruptions += fs.corruptions;
      aggregate.truncations += fs.truncations;
      aggregate.partial_writes += fs.partial_writes;
      aggregate.duplicates += fs.duplicates;
      aggregate.stale_delivered += fs.stale_delivered;
      aggregate.resets += fs.resets;
      total_retries += up.resilient_cdn()->stats().retries;
    }
  }

  // The matrix exercised every fault kind and actually forced retries —
  // guard against a silently-pass-through profile.
  EXPECT_GT(aggregate.drop_request, 0u);
  EXPECT_GT(aggregate.drop_response, 0u);
  EXPECT_GT(aggregate.delays, 0u);
  EXPECT_GT(aggregate.corruptions, 0u);
  EXPECT_GT(aggregate.truncations, 0u);
  EXPECT_GT(aggregate.partial_writes, 0u);
  EXPECT_GT(aggregate.duplicates, 0u);
  EXPECT_GT(aggregate.stale_delivered, 0u);
  EXPECT_GT(aggregate.resets, 0u);
  EXPECT_GT(total_retries, 0u);
}

TEST(FaultMatrix, GossipExchangeMatchesDirectExchangeUnderFaults) {
  constexpr int kWorlds = 5;
  constexpr int kSchedulesPerWorld = 60;  // 300 schedules

  for (int wi = 0; wi < kWorlds; ++wi) {
    auto ca = make_ca(500 + std::uint64_t(wi));
    ca::MisbehavingCa evil(ca);
    const auto hide = SerialNumber::from_uint(13);
    const auto honest =
        ca.revoke({SerialNumber::from_uint(12), hide}, 1000);
    const auto fake = evil.view_without(hide, 1000);

    cert::TrustStore keys;
    keys.add(ca.id(), ca.public_key());

    // Direct in-memory exchange as the oracle.
    ra::GossipPool alice_direct(&keys), bob_direct(&keys);
    alice_direct.observe(honest.signed_root);
    bob_direct.observe(fake.signed_root);
    const auto direct = ra::oracle::exchange(alice_direct, bob_direct);
    ASSERT_EQ(direct.size(), 2u);
    const auto key = [](const ra::MisbehaviourEvidence& e) {
      return to_hex(ByteSpan(e.ours.encode())) +
             to_hex(ByteSpan(e.theirs.encode()));
    };
    std::vector<std::string> want;
    for (const auto& e : direct) want.push_back(key(e));
    std::sort(want.begin(), want.end());

    for (int si = 0; si < kSchedulesPerWorld; ++si) {
      const auto seed = 7000 + std::uint64_t(wi) * 1000 + std::uint64_t(si);
      ra::DictionaryStore bob_store;
      ra::GossipPool alice(&keys), bob(&keys);
      alice.observe(honest.signed_root);
      bob.observe(fake.signed_root);
      ra::RaService bob_service(&bob_store, &bob);
      svc::InProcessTransport bob_rpc(&bob_service);
      svc::FaultTransport fault(&bob_rpc, seed);
      svc::ResilientTransport resilient(&fault, {}, {}, seed);
      VirtualTime vt;
      vt.install(&resilient);

      // reconcile_over returns nullopt only if a resilient call itself
      // exhausts its budget — bounded retry, never a hang.
      std::optional<std::vector<ra::MisbehaviourEvidence>> wired;
      int guard = 0;
      while (!wired.has_value() && ++guard <= 50) {
        wired = alice.reconcile_over(resilient);
      }
      ASSERT_TRUE(wired.has_value()) << "seed " << seed;
      std::vector<std::string> got;
      for (const auto& e : *wired) got.push_back(key(e));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "seed " << seed;
      // Both sides hold the union, exactly like the direct exchange —
      // retries and duplicate deliveries never double-count observations.
      EXPECT_EQ(alice.size(), alice_direct.size()) << "seed " << seed;
      EXPECT_EQ(bob.size(), bob_direct.size()) << "seed " << seed;
    }
  }
}

TEST(FaultMatrix, BatchedQueriesByteIdenticalUnderFaults) {
  constexpr int kSchedules = 300;

  auto ca = make_ca(900);
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  std::vector<SerialNumber> revoked;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    revoked.push_back(SerialNumber::from_uint(i * 3, 4));
  }
  ASSERT_EQ(store.apply_issuance(ca.revoke(revoked, 1000), 1000),
            ra::ApplyResult::ok);
  ra::RaService service(&store);
  svc::InProcessTransport rpc(&service);

  // The request stream and its fault-free answers (status + body; request
  // ids differ per schedule since the resilient layer stamps its own).
  std::vector<svc::Request> stream;
  for (std::uint64_t q = 0; q < 4; ++q) {
    std::vector<SerialNumber> batch;
    for (std::uint64_t i = 0; i < 48; ++i) {
      batch.push_back(SerialNumber::from_uint(q * 100 + i + 1, 4));
    }
    svc::Request req;
    req.method = svc::Method::status_batch;
    req.body = ra::encode_status_batch(ca.id(), batch);
    stream.push_back(std::move(req));
  }
  std::vector<svc::Response> want;
  for (const auto& req : stream) want.push_back(rpc.call(req).response);

  for (int si = 0; si < kSchedules; ++si) {
    const auto seed = 42'000 + std::uint64_t(si);
    svc::FaultTransport fault(&rpc, seed);
    svc::ResilientTransport resilient(&fault, {}, {}, seed);
    VirtualTime vt;
    vt.install(&resilient);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto r = resilient.call(stream[i]);
      ASSERT_TRUE(r.ok()) << "seed " << seed << " req " << i;
      EXPECT_EQ(r.response.status, want[i].status)
          << "seed " << seed << " req " << i;
      EXPECT_EQ(r.response.body, want[i].body)
          << "seed " << seed << " req " << i;
    }
  }
}

TEST(FaultMatrix, PipelinedSchedulesConvergeUnderPermutedCollects) {
  // The pipelined seed bank: 8 logical requests outstanding at once
  // through FaultTransport's submit/collect face, collected in a
  // seed-permuted order. Because faults are drawn at collect time, the
  // permutation itself reshuffles the schedule — duplicates stashed by one
  // collect surface on an arbitrary later one, so the driver must reject
  // by request_id and resubmit. Every schedule converges to the fault-free
  // oracle's bytes within a bounded retry budget (max_consecutive forces a
  // clean call through every 7th collect at the latest).
  constexpr int kSchedules = 300;
  constexpr std::size_t kLogical = 8;

  auto ca = make_ca(901);
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  std::vector<SerialNumber> revoked;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    revoked.push_back(SerialNumber::from_uint(i * 3, 4));
  }
  ASSERT_EQ(store.apply_issuance(ca.revoke(revoked, 1000), 1000),
            ra::ApplyResult::ok);
  ra::RaService service(&store);
  svc::InProcessTransport rpc(&service);

  std::vector<svc::Request> stream;
  std::vector<svc::Response> want;
  for (std::uint64_t i = 0; i < kLogical; ++i) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body =
        ra::encode_status_query(ca.id(), SerialNumber::from_uint(i * 9, 4));
    want.push_back(rpc.call(req).response);
    stream.push_back(std::move(req));
  }

  svc::FaultStats aggregate;
  std::uint64_t resubmits = 0;
  for (int si = 0; si < kSchedules; ++si) {
    const auto seed = 77'000 + std::uint64_t(si);
    svc::FaultTransport fault(&rpc, seed);
    Rng perm(seed ^ 0xC0117EC7);

    std::vector<std::uint64_t> id_of(kLogical, 0);
    std::vector<bool> done(kLogical, false);
    for (std::size_t i = 0; i < kLogical; ++i) {
      ASSERT_EQ(fault.submit(stream[i], &id_of[i]), svc::Status::ok);
    }
    EXPECT_EQ(fault.inflight(), kLogical);

    std::size_t remaining = kLogical;
    int guard = 0;
    while (remaining > 0 && ++guard <= int(kLogical) * 64) {
      // Collect a random still-open logical request: the permutation is
      // part of the seed, so the whole schedule stays reproducible.
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < kLogical; ++i) {
        if (!done[i]) open.push_back(i);
      }
      const std::size_t j = open[perm.uniform(open.size())];
      const auto r = fault.collect(id_of[j]);
      const bool wrong_id =
          r.status == svc::Status::ok && r.response.request_id != id_of[j];
      if (r.status != svc::Status::ok || wrong_id ||
          r.response.status != svc::Status::ok) {
        // Injected failure, a stale duplicate of an earlier call, or a
        // served refusal: resubmit under a fresh id, bounded by `guard`.
        ++resubmits;
        ASSERT_EQ(fault.submit(stream[j], &id_of[j]), svc::Status::ok)
            << "seed " << seed;
        continue;
      }
      EXPECT_EQ(r.response.body, want[j].body)
          << "seed " << seed << " logical " << j;
      done[j] = true;
      --remaining;
    }
    ASSERT_EQ(remaining, 0u) << "seed " << seed << " did not converge";
    EXPECT_EQ(fault.inflight(), 0u) << "seed " << seed;

    const auto& fs = fault.stats();
    aggregate.calls += fs.calls;
    aggregate.duplicates += fs.duplicates;
    aggregate.stale_delivered += fs.stale_delivered;
    aggregate.drop_request += fs.drop_request;
    aggregate.corruptions += fs.corruptions;
    aggregate.resets += fs.resets;
  }
  // The bank actually exercised the adversarial pipelined path.
  EXPECT_GT(aggregate.duplicates, 0u);
  EXPECT_GT(aggregate.stale_delivered, 0u);
  EXPECT_GT(aggregate.drop_request, 0u);
  EXPECT_GT(aggregate.corruptions, 0u);
  EXPECT_GT(aggregate.resets, 0u);
  EXPECT_GT(resubmits, 0u);
}

}  // namespace
}  // namespace ritm
