// Checkpoint-while-serving: the background checkpoint thread copies and
// persists the store while TCP reactors serve statuses and the updater
// keeps applying feed periods. Runs under TSan in CI (label "tsan") to pin
// the store's own reader/writer contract: the reactors call RaService with
// no lock of the test's, and the checkpoint copies the store under its
// writer mutex, the one lock that orders it against pulls — so a
// checkpoint may land between two messages of one period.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
#include "persist/wal.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "svc/tcp.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           ("ritm-ckpt-" + name + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(CheckpointWhileServing, ServedStatusesStayConsistentAcrossCheckpoints) {
  TempDir dir("serve");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);

  Rng ca_rng(91);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-CK";
  cfg.delta = 10;
  cfg.chain_length = 256;
  ca::CertificationAuthority ca(cfg, ca_rng, 1000);
  dp.register_ca(ca.id(), ca.public_key());
  const cert::CaId ca_id = ca.id();

  // One period forges its issuance: one serial swapped, the CA's signed
  // root kept, so the signature verifies but the serials do not reproduce
  // the root and the store rejects it with root_mismatch. The genuine
  // issuance opens the next period, so readers are served from the
  // rolled-back replica in between.
  constexpr std::uint64_t kPeriods = 150;
  constexpr std::uint64_t kForgedPeriod = 75;
  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  std::optional<dict::RevocationIssuance> held;
  const auto publish_period = [&](std::uint64_t period,
                                  std::size_t revocations) {
    if (held) {
      dp.submit(ca::FeedMessage::of(std::move(*held)));
      held.reset();
    }
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < revocations; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    auto issuance = ca.revoke(serials, now_s);
    if (period == kForgedPeriod) {
      auto forged = issuance;
      forged.serials.front() = SerialNumber::from_uint(1u << 30, 4);
      dp.submit(ca::FeedMessage::of(std::move(forged)));
      held = std::move(issuance);
    } else {
      dp.submit(ca::FeedMessage::of(std::move(issuance)));
    }
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  ra::DictionaryStore store;
  store.register_ca(ca_id, ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  updater.enable_persistence(dir.str());

  // A first period before serving starts, so there is always a root.
  publish_period(0, 4);
  updater.pull_up_to(0, from_seconds(now_s));

  // Two reactors serve RaService straight over the store, and the
  // checkpoint runs as fast as its cycle allows for the whole window.
  ra::RaService service(&store);
  svc::TcpServer server(&service, {.port = 0, .reactors = 2});
  updater.start_checkpoints(0.001);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      svc::TcpClient client("127.0.0.1", server.port());
      Rng rng(1000 + t);
      const auto draw = [&] {
        return SerialNumber::from_uint(rng.uniform(1 << 12), 4);
      };
      // Every served status decodes, and its proof verifies against the
      // signed root it carries — a torn read of a mid-mutation replica
      // could not.
      const auto check = [&](ByteSpan bytes, const SerialNumber& probe) {
        const auto status = dict::RevocationStatus::decode(bytes);
        if (!status || status->signed_root.ca != ca_id ||
            !dict::verify_proof(status->proof, probe,
                                status->signed_root.root,
                                status->signed_root.n)) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1, std::memory_order_relaxed);
      };
      while (!stop.load(std::memory_order_relaxed)) {
        svc::Request single;
        single.method = svc::Method::status_query;
        const SerialNumber probe = draw();
        single.body = ra::encode_status_query(ca_id, probe);
        const auto one = client.call(single);
        if (one.ok()) {
          check(ByteSpan(one.response.body), probe);
        } else {
          failures.fetch_add(1);
        }

        svc::Request batch;
        batch.method = svc::Method::status_batch;
        std::vector<SerialNumber> probes;
        for (int i = 0; i < 8; ++i) probes.push_back(draw());
        batch.body = ra::encode_status_batch(ca_id, probes);
        const auto many = client.call(batch);
        const auto statuses =
            many.ok() ? ra::decode_status_batch_reply(
                            ByteSpan(many.response.body))
                      : std::nullopt;
        if (!statuses || statuses->size() != probes.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < probes.size(); ++i) {
          check(ByteSpan((*statuses)[i]), probes[i]);
        }
      }
    });
  }

  // Each period is served before the next lands, the forged one included.
  const auto await_serving = [&] {
    const std::uint64_t target = served.load() + 9;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (served.load() < target && failures.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  for (std::uint64_t p = 1; p <= kPeriods; ++p) {
    publish_period(p, 1 + p % 4);
    updater.pull_up_to(p, from_seconds(now_s));
    await_serving();
  }

  stop.store(true);
  for (auto& t : clients) t.join();
  updater.stop_checkpoints();
  updater.checkpoint();  // clean shutdown snapshot

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(served.load(), 9 * kPeriods);
  const auto& rejected = updater.totals().rejected_by;
  ASSERT_EQ(rejected.count(svc::Status::root_mismatch), 1u);
  EXPECT_EQ(rejected.at(svc::Status::root_mismatch), 1u);
  EXPECT_EQ(updater.totals().rejected, 1u);
  EXPECT_EQ(store.have_n(ca_id), serial - 1);
  const auto cs = updater.checkpoint_stats();
  EXPECT_GE(cs.checkpoints, 2u);
  EXPECT_GT(cs.last_bytes, 0u);

  // The concurrent checkpoints persisted a real, recoverable state: a
  // fresh replica recovers to exactly the live store.
  ra::DictionaryStore store2;
  store2.register_ca(ca_id, ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  const auto report = updater2.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(store2.have_n(ca_id), store.have_n(ca_id));
  EXPECT_EQ(store2.root_of(ca_id)->encode(), store.root_of(ca_id)->encode());
  const auto probe = SerialNumber::from_uint(77, 4);
  EXPECT_EQ(store2.status_for(ca_id, probe)->encode(),
            store.status_for(ca_id, probe)->encode());
  EXPECT_EQ(updater2.next_period(), kPeriods + 1);
}

// checkpoint.stall_us is how long a cycle holds the store's writer mutex,
// the one stall it imposes on pulls. A checkpoint that starts while a
// mutator holds that mutex waits for it; that wait stalls the checkpointer,
// not the mutator, and is not part of the recorded stall.
TEST(CheckpointWhileServing, StallExcludesTheWaitForAPull) {
  using Clock = std::chrono::steady_clock;
  TempDir dir("stall");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  Rng ca_rng(93);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-CK";
  cfg.delta = 10;
  cfg.chain_length = 64;
  ca::CertificationAuthority ca(cfg, ca_rng, 1000);
  dp.register_ca(ca.id(), ca.public_key());

  std::vector<SerialNumber> first;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    first.push_back(SerialNumber::from_uint(s, 4));
  }
  dp.submit(ca::FeedMessage::of(ca.revoke(first, 1000)));
  dp.publish(from_seconds(1000));

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  updater.enable_persistence(dir.str());
  updater.pull_up_to(0, from_seconds(1000));
  store.wal()->sync();

  // A mutator that holds the writer mutex for a while and logs nothing: an
  // issuance of 2^17 random serials with one swapped, so the store inserts
  // the batch, finds the signed root not reproduced, and rolls it back.
  Rng rng(95);
  std::vector<SerialNumber> serials;
  for (int i = 0; i < (1 << 17); ++i) serials.push_back({rng.bytes(16)});
  auto forged = ca.revoke(serials, 1010);
  forged.serials.front() = SerialNumber{rng.bytes(16)};

  std::atomic<bool> started{false};
  ra::ApplyResult verdict = ra::ApplyResult::ok;
  Clock::time_point mutation_end;
  std::thread mutator([&] {
    started.store(true);
    verdict = store.apply_issuance(forged, 1010);
    mutation_end = Clock::now();
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Past the mutator's signature check, inside its writer section.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto checkpoint_start = Clock::now();
  updater.checkpoint();  // waits for the mutator's writer mutex
  mutator.join();

  ASSERT_EQ(verdict, ra::ApplyResult::root_mismatch);
  const auto cs = updater.checkpoint_stats();
  ASSERT_EQ(cs.checkpoints, 1u);
  const auto waited_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             mutation_end - checkpoint_start)
                             .count();
  // The copy itself (a WAL sync and an O(#CAs) copy) takes well under half
  // the wait; timing the wait as stall would not.
  EXPECT_LT(2 * static_cast<std::int64_t>(cs.last_stall_us), waited_us)
      << "stall " << cs.last_stall_us << " us, wait " << waited_us << " us";
  EXPECT_EQ(store.have_n(ca.id()), 4u);
}

// Without a lock of the updater's, a checkpoint may land between two
// messages of one feed period. Here it lands between two CAs' issuances of
// period 1, and the WAL past it is lost: the restarted RA resumes at
// period 1 with CA-A's issuance already applied. Re-pulling the period
// re-delivers that issuance, which the store answers as applied, so no
// sync runs and the replicas equal the live ones.
TEST(CheckpointWhileServing,
     CheckpointBetweenTwoIssuancesOfAPeriodNeedsNoSync) {
  TempDir dir("mid-period");
  TempDir crashed("mid-period-crash");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  ca::SyncService sync_service;
  sync_service.set_period_source(&dp);
  svc::InProcessTransport sync_rpc(&sync_service);
  std::deque<ca::CertificationAuthority> cas;  // references stay valid
  Rng rng(94);
  for (const char* id : {"CA-A", "CA-B"}) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = id;
    cfg.delta = 10;
    cfg.chain_length = 64;
    cas.emplace_back(cfg, rng, 1000);
    dp.register_ca(cas.back().id(), cas.back().public_key());
    sync_service.add(&cas.back());
  }
  const auto registered = [&](ra::DictionaryStore& store) {
    for (const auto& ca : cas) {
      store.register_ca(ca.id(), ca.public_key(), ca.delta());
    }
  };

  // Periods 0 and 1 each carry one issuance of each CA.
  std::uint64_t serial = 1;
  std::vector<dict::RevocationIssuance> period1;
  for (const UnixSeconds t : {1000, 1010}) {
    for (auto& ca : cas) {
      auto msg = ca.revoke({SerialNumber::from_uint(serial, 4),
                            SerialNumber::from_uint(serial + 1, 4)},
                           t);
      serial += 2;
      if (t == 1010) period1.push_back(msg);
      dp.submit(ca::FeedMessage::of(std::move(msg)));
    }
    dp.publish(from_seconds(t));
  }

  ra::DictionaryStore live;
  registered(live);
  ra::RaUpdater updater({.location = {0, 0}}, &live, &cdn_rpc.rpc, &sync_rpc);
  updater.enable_persistence(dir.str());
  updater.pull_up_to(0, from_seconds(1000));
  // Period 1's first message lands as a pull applies it, and a checkpoint
  // follows before the second; the pull then re-delivers the first.
  ASSERT_EQ(live.apply_issuance(period1[0], 1010), ra::ApplyResult::ok);
  updater.checkpoint();
  const auto wal_at_checkpoint =
      std::filesystem::file_size(persist::wal_path(dir.str()));
  updater.pull_up_to(1, from_seconds(1010));
  EXPECT_EQ(updater.totals().syncs, 0u);
  EXPECT_EQ(updater.totals().rejected, 0u);
  ASSERT_EQ(updater.next_period(), 2u);

  // Crash: the WAL past the checkpoint is lost.
  std::filesystem::copy(dir.path, crashed.path,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(persist::wal_path(crashed.str()),
                               wal_at_checkpoint);

  ra::DictionaryStore restarted;
  registered(restarted);
  ra::RaUpdater updater2({.location = {0, 0}}, &restarted, &cdn_rpc.rpc,
                         &sync_rpc);
  const auto report = updater2.recover(crashed.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.replayed, 0u);
  ASSERT_EQ(updater2.next_period(), 1u);
  ASSERT_EQ(restarted.have_n(cas[0].id()), 4u);
  ASSERT_EQ(restarted.have_n(cas[1].id()), 2u);

  updater2.pull_up_to(1, from_seconds(1010));
  EXPECT_EQ(updater2.totals().syncs, 0u);
  EXPECT_EQ(updater2.totals().rejected, 0u);
  EXPECT_EQ(updater2.next_period(), 2u);
  for (const auto& ca : cas) {
    EXPECT_FALSE(restarted.needs_sync(ca.id()));
    EXPECT_EQ(restarted.have_n(ca.id()), live.have_n(ca.id()));
    EXPECT_EQ(restarted.root_of(ca.id())->encode(),
              live.root_of(ca.id())->encode());
    for (std::uint64_t s = 1; s < serial + 2; ++s) {
      const auto probe = SerialNumber::from_uint(s, 4);
      EXPECT_EQ(restarted.status_for(ca.id(), probe)->encode(),
                live.status_for(ca.id(), probe)->encode());
    }
  }
}

// A WAL-reset race pinned deterministically: when a mutation lands while
// the snapshot file is being written, the cycle must leave the log intact
// (skipping the reset) and recovery must still see the newest state.
TEST(CheckpointWhileServing, MutationDuringCheckpointKeepsWalTail) {
  TempDir dir("wal-race");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  Rng ca_rng(92);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-CK";
  cfg.delta = 10;
  cfg.chain_length = 64;
  ca::CertificationAuthority ca(cfg, ca_rng, 1000);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&](std::size_t revocations) {
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < revocations; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  updater.enable_persistence(dir.str());

  // Race background checkpoints against pulls until a cycle observes a
  // mutation mid-write (wal_reset_skipped > 0) — bounded by the period
  // budget, after which the test still passes on the recovery property.
  updater.start_checkpoints(0.0005);
  for (std::uint64_t p = 0; p < 40; ++p) {
    publish_period(2);
    updater.pull_up_to(p, from_seconds(now_s));
    if (updater.checkpoint_stats().wal_reset_skipped > 0) break;
  }
  updater.stop_checkpoints();
  store.wal()->sync();  // crash here: snapshot + whatever tail remains

  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  const auto report = updater2.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(store2.have_n(ca.id()), store.have_n(ca.id()));
  EXPECT_EQ(store2.root_of(ca.id())->encode(),
            store.root_of(ca.id())->encode());
}

}  // namespace
}  // namespace ritm
