// Checkpoint-while-serving (PR 9): the background checkpoint thread
// freezes and persists the store while TCP reactors serve statuses and the
// updater keeps applying feed periods. Runs under TSan in CI (label
// "tsan") to pin the store's own reader/writer contract: the reactors call
// RaService with no lock of the test's, the checkpointer freezes under the
// store's writer mutex, and the updater's freeze mutex keeps each freeze
// between feed periods.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
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

/// A CDN transport that, once armed, holds each call for kHold: a pull
/// through it holds the updater's freeze mutex at least that long.
class SlowCdn final : public svc::Transport {
 public:
  static constexpr std::chrono::milliseconds kHold{300};

  explicit SlowCdn(svc::Transport* inner) : inner_(inner) {}

  svc::CallResult call(const svc::Request& req) override {
    if (armed.load()) {
      entered.store(true);
      std::this_thread::sleep_for(kHold);
    }
    return inner_->call(req);
  }

  std::atomic<bool> armed{false};
  std::atomic<bool> entered{false};

 private:
  svc::Transport* inner_;
};

// checkpoint.stall_us is the freeze window a cycle imposes on pulls. A
// checkpoint that starts while a pull holds the freeze mutex waits for the
// whole pull; that wait stalls the checkpointer, not the pull, and is not
// part of the recorded stall.
TEST(CheckpointWhileServing, StallExcludesTheWaitForAPull) {
  TempDir dir("stall");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  SlowCdn slow(&cdn_rpc.rpc);
  ca::DistributionPoint dp(&cdn, 10);
  Rng ca_rng(93);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-CK";
  cfg.delta = 10;
  cfg.chain_length = 64;
  ca::CertificationAuthority ca(cfg, ca_rng, 1000);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&] {
    std::vector<SerialNumber> serials;
    for (int i = 0; i < 4; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &slow);
  updater.enable_persistence(dir.str());
  publish_period();
  updater.pull_up_to(0, from_seconds(now_s));

  publish_period();
  slow.armed.store(true);
  std::int64_t pull_us = 0;
  std::thread puller([&] {
    const auto t0 = std::chrono::steady_clock::now();
    updater.pull_up_to(1, from_seconds(now_s));
    pull_us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  });
  while (!slow.entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  updater.checkpoint();  // blocks until the pull releases the freeze mutex
  puller.join();

  const auto cs = updater.checkpoint_stats();
  ASSERT_EQ(cs.checkpoints, 1u);
  EXPECT_GE(pull_us, std::chrono::microseconds(SlowCdn::kHold).count());
  // The freeze itself (a WAL sync and an O(#CAs) copy) takes well under
  // half the pull; timing the wait for the pull as stall would not.
  EXPECT_LT(2 * cs.last_stall_us, static_cast<std::uint64_t>(pull_us))
      << "stall " << cs.last_stall_us << " us, pull " << pull_us << " us";
  EXPECT_EQ(store.have_n(ca.id()), 8u);
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
