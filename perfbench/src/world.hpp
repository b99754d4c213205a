// The RA under test, stood up in-process from the library's public API:
// eight CAs, a distribution point publishing into a one-edge CDN, and an RA
// (DictionaryStore + RaUpdater + RaService) served by an svc::TcpServer on
// host loopback. The store's reader/writer contract is kept the way the
// scenario engine keeps it: reads go through svc::SharedLockService (or the
// benchmark's timing twin of it in traced runs) and the writer takes the
// same std::shared_mutex exclusively around RaUpdater::pull_up_to.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "dict/dictionary.hpp"
#include "inputs.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "svc/tcp.hpp"

namespace perfbench {

inline constexpr UnixSeconds kDelta = 10;  // virtual seconds per feed period
inline constexpr unsigned kReactors = 2;
/// Background checkpoint interval of a durable-from-the-start RA.
inline constexpr double kCheckpointIntervalS = 5.0;

struct PeriodResult {
  std::uint64_t period = 0;
  bool mass = false;
  std::int64_t revoke_start_ns = 0;
  std::array<Key, kCas> canaries{};  // first serial each CA revokes
};

class World {
 public:
  struct Options {
    bool traced = false;
    std::string persist_dir;
    /// Persistence with background checkpoints from the start (otherwise
    /// it is switched on by enable_persistence()).
    bool persist_from_start = false;
  };

  World(const Inputs& in, Options opt);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::uint16_t port() const;
  const cert::CaId& ca_id(std::size_t c) const { return ids_[c]; }
  const crypto::PublicKey& ca_key(std::size_t c) const {
    return cas_[c]->public_key();
  }
  const ca::CertificationAuthority& ca(std::size_t c) const {
    return *cas_[c];
  }
  const ra::DictionaryStore& store() const;
  svc::TcpServer::Stats server_stats() const;
  ra::RaUpdater::CheckpointStats checkpoint_stats() const;
  /// Virtual time of the newest published period.
  UnixSeconds now() const { return static_cast<UnixSeconds>(period_) * kDelta; }

  /// One feed period: every CA revokes its batch of fresh random serials
  /// (the largest CA 10^5 more when `mass`), the distribution point
  /// publishes the feed object, and the RA pulls it under the writer lock.
  /// `on_start` runs just before the first revoke.
  PeriodResult publish_period(bool mass,
                              const std::function<void(const PeriodResult&)>&
                                  on_start);

  /// A period with no revocations: every CA publishes its freshness
  /// statement and the RA pulls it.
  void publish_freshness_period();

  /// Switches the RA to durable mode (WAL in the persistence directory).
  void enable_persistence();
  /// Stops background checkpoints and takes one synchronously.
  void checkpoint_now();

  /// Drops the RA, recovers it from the persistence directory with
  /// RaUpdater::recover, and serves again on a new port.
  ra::DictionaryStore::RecoveryReport restart();

  /// Traced runs: the issuances of every period, per CA, and a copy of
  /// each CA's dictionary from before the first period (shadow replicas).
  const std::vector<std::vector<dict::RevocationIssuance>>& issuances() const {
    return issuances_;
  }
  const std::vector<dict::Dictionary>& shadows() const { return shadows_; }

  /// Feed bytes the RA fetched in pulls, and the pulls made.
  std::uint64_t feed_bytes() const { return feed_bytes_; }
  std::uint64_t periods() const { return period_; }

 private:
  class CdnTap;
  struct Ra;
  std::unique_ptr<Ra> make_ra();
  void serve(Ra& ra);
  /// Pulls `period` into the RA under the writer lock.
  void pull(std::uint64_t period);

  const Inputs& in_;
  Options opt_;
  std::vector<std::unique_ptr<ca::CertificationAuthority>> cas_;
  std::vector<cert::CaId> ids_;
  cdn::Cdn cdn_;
  std::unique_ptr<ca::DistributionPoint> dp_;
  std::unique_ptr<cdn::LocalCdn> cdn_rpc_;
  std::unique_ptr<CdnTap> tap_;
  ca::SyncService sync_service_;
  std::unique_ptr<svc::InProcessTransport> sync_rpc_;
  std::shared_mutex store_mu_;
  std::unique_ptr<Ra> ra_;
  std::array<std::uint64_t, kCas> next_index_{};  // next revoked index per CA
  std::uint64_t period_ = 0;
  std::uint64_t feed_bytes_ = 0;
  std::vector<std::vector<dict::RevocationIssuance>> issuances_;
  std::vector<dict::Dictionary> shadows_;
};

}  // namespace perfbench
