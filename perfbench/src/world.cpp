#include "world.hpp"

#include <mutex>
#include <stdexcept>

#include "ca/feed.hpp"
#include "svc/mux.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// Traced twin of svc::SharedLockService: the same shared lock around
/// RaService::handle, with the lock wait and the handle call timed.
class TracedLockService final : public svc::Service {
 public:
  TracedLockService(svc::Service* inner, std::shared_mutex* mu)
      : inner_(inner), mu_(mu) {}

  svc::ServeResult handle(const svc::Request& req) override {
    if (!tracer().slice_on()) {
      std::shared_lock lock(*mu_);
      return inner_->handle(req);
    }
    const std::int64_t t0 = now_ns();
    std::shared_lock lock(*mu_);
    const std::int64_t t1 = now_ns();
    auto result = inner_->handle(req);
    const std::int64_t t2 = now_ns();
    tracer().record("ra.lock_wait", t0, t1);
    tracer().record("ra.handle", t1, t2, req.request_id);
    return result;
  }

 private:
  svc::Service* inner_;
  std::shared_mutex* mu_;
};

}  // namespace

/// The RaUpdater's CDN transport: times each GET and counts its bytes.
class World::CdnTap final : public svc::Transport {
 public:
  explicit CdnTap(svc::Transport* inner) : inner_(inner) {}

  svc::CallResult call(const svc::Request& req) override {
    const std::int64_t t0 = now_ns();
    auto result = inner_->call(req);
    if (tracer().active()) tracer().record("cdn.get", t0, now_ns());
    bytes += result.bytes_received;
    return result;
  }

  std::uint64_t bytes = 0;

 private:
  svc::Transport* inner_;
};

struct World::Ra {
  ra::DictionaryStore store;
  std::unique_ptr<ra::RaUpdater> updater;
  std::unique_ptr<ra::RaService> service;
  std::unique_ptr<svc::Service> serving;
  std::unique_ptr<svc::TcpServer> server;
};

World::World(const Inputs& in, Options opt)
    : in_(in), opt_(std::move(opt)), cdn_({0.0, 0.0}, 0) {
  cdn_.add_edge("edge", "local", {0.0, 0.0});
  dp_ = std::make_unique<ca::DistributionPoint>(&cdn_, kDelta);
  cdn_rpc_ = std::make_unique<cdn::LocalCdn>(&cdn_, in.seed());
  tap_ = std::make_unique<CdnTap>(&cdn_rpc_->rpc);

  // The CAs revoke their initial corpora and publish cold-start objects.
  ritm::Rng key_rng(in.seed() ^ 0xCA5EEDULL);
  for (std::size_t c = 0; c < kCas; ++c) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = Inputs::ca_name(c);
    cfg.delta = kDelta;
    cfg.chain_length = 64;
    cfg.serial_width = 16;
    cas_.push_back(
        std::make_unique<ca::CertificationAuthority>(cfg, key_rng, 0));
    ids_.push_back(cas_.back()->id());
    dp_->register_ca(ids_[c], cas_[c]->public_key());
    sync_service_.add(cas_[c].get());
    const std::uint64_t n = in.shape().corpus(c);
    const auto issuance = cas_[c]->revoke(in.revoked_serials(c, 0, n), 0);
    if (issuance.signed_root.n != n) {
      throw std::runtime_error("corpus numbering mismatch at " + ids_[c]);
    }
    next_index_[c] = n;
  }
  sync_service_.set_period_source(dp_.get());
  sync_rpc_ = std::make_unique<svc::InProcessTransport>(&sync_service_);
  dp_->publish(0);
  for (std::size_t c = 0; c < kCas; ++c) {
    if (dp_->publish_cold_start(cas_[c]->cold_start_object(0, 0), 0) !=
        svc::Status::ok) {
      throw std::runtime_error("cold-start publish refused for " + ids_[c]);
    }
  }

  // The RA bootstraps every replica with one GET each and starts serving.
  ra_ = make_ra();
  for (std::size_t c = 0; c < kCas; ++c) {
    if (ra_->updater->bootstrap(ids_[c], 0) != svc::Status::ok) {
      throw std::runtime_error("bootstrap refused for " + ids_[c]);
    }
  }
  if (opt_.persist_from_start) {
    enable_persistence();
    ra_->updater->checkpoint();
    ra_->updater->start_checkpoints(kCheckpointIntervalS);
  }
  serve(*ra_);

  if (opt_.traced) {
    issuances_.resize(kCas);
    for (const auto& ca : cas_) shadows_.push_back(ca->dictionary());
  }
}

World::~World() {
  ra_.reset();  // server first: no reactor may outlive the store
}

std::uint16_t World::port() const { return ra_->server->port(); }

const ra::DictionaryStore& World::store() const { return ra_->store; }

svc::TcpServer::Stats World::server_stats() const {
  return ra_->server->stats();
}

ra::RaUpdater::CheckpointStats World::checkpoint_stats() const {
  return ra_->updater->checkpoint_stats();
}

std::unique_ptr<World::Ra> World::make_ra() {
  auto ra = std::make_unique<Ra>();
  for (std::size_t c = 0; c < kCas; ++c) {
    ra->store.register_ca(ids_[c], cas_[c]->public_key(), kDelta);
  }
  ra->updater = std::make_unique<ra::RaUpdater>(
      ra::RaUpdater::Config{}, &ra->store, tap_.get(), sync_rpc_.get());
  return ra;
}

void World::serve(Ra& ra) {
  ra.service = std::make_unique<ra::RaService>(&ra.store, nullptr);
  if (opt_.traced) {
    ra.serving =
        std::make_unique<TracedLockService>(ra.service.get(), &store_mu_);
  } else {
    ra.serving = std::make_unique<svc::SharedLockService>(ra.service.get(),
                                                          &store_mu_);
  }
  svc::TcpServerOptions opts;
  opts.port = 0;
  opts.reactors = kReactors;
  opts.max_connections = 8;
  // One acceptor hands connections to reactors round-robin, so the two
  // generator connections always land on different reactors (with
  // SO_REUSEPORT the kernel's 4-tuple hash puts both on one reactor half
  // the time, which halves capacity in those runs).
  opts.force_fd_handoff = true;
  ra.server = std::make_unique<svc::TcpServer>(ra.serving.get(), opts);
}

PeriodResult World::publish_period(
    bool mass, const std::function<void(const PeriodResult&)>& on_start) {
  PeriodResult r;
  r.period = ++period_;
  r.mass = mass;
  std::array<std::vector<cert::SerialNumber>, kCas> batches;
  for (std::size_t c = 0; c < kCas; ++c) {
    std::uint64_t count = in_.shape().period_count(c, r.period);
    if (mass && c == 0) count += in_.shape().mass();
    batches[c] = in_.revoked_serials(c, next_index_[c], count);
    r.canaries[c] = Key{static_cast<std::uint32_t>(c), true, next_index_[c]};
  }
  const UnixSeconds t = now();

  r.revoke_start_ns = now_ns();
  on_start(r);
  Tracer::Scope period_scope(tracer(), "writer.period");
  std::vector<ca::FeedMessage> messages;
  for (std::size_t c = 0; c < kCas; ++c) {
    const std::uint64_t count = batches[c].size();
    dict::RevocationIssuance issuance;
    {
      Tracer::Scope s(tracer(), "ca.revoke");
      issuance = cas_[c]->revoke(std::move(batches[c]), t);
    }
    next_index_[c] += count;
    if (issuance.signed_root.n != next_index_[c] ||
        issuance.serials.size() != count) {
      throw std::runtime_error("revocation numbering mismatch at " + ids_[c]);
    }
    if (opt_.traced) issuances_[c].push_back(issuance);
    messages.push_back(ca::FeedMessage::of(std::move(issuance)));
  }
  {
    Tracer::Scope s(tracer(), "ca.publish");
    for (auto& m : messages) {
      if (dp_->submit(std::move(m)) != svc::Status::ok) {
        throw std::runtime_error("distribution point refused an issuance");
      }
    }
    dp_->publish(from_seconds(t));
  }
  pull(r.period);
  return r;
}

void World::publish_freshness_period() {
  ++period_;
  for (const auto& ca : cas_) {
    if (dp_->submit(ca->refresh(now())) != svc::Status::ok) {
      throw std::runtime_error("distribution point refused a statement");
    }
  }
  dp_->publish(from_seconds(now()));
  pull(period_);
}

void World::pull(std::uint64_t period) {
  {
    std::unique_lock lock(store_mu_);
    Tracer::Scope hold(tracer(), "ra.write_lock");
    Tracer::Scope pull(tracer(), "ra.pull");
    const std::uint64_t before = tap_->bytes;
    ra_->updater->pull_up_to(period, from_seconds(now()));
    feed_bytes_ += tap_->bytes - before;
  }
  if (ra_->updater->next_period() != period + 1 ||
      ra_->updater->health().degraded) {
    throw std::runtime_error("RA failed to pull feed period " +
                             std::to_string(period));
  }
}

void World::enable_persistence() {
  ra_->updater->enable_persistence(opt_.persist_dir);
}

void World::checkpoint_now() {
  ra_->updater->stop_checkpoints();
  ra_->updater->checkpoint();
}

ra::DictionaryStore::RecoveryReport World::restart() {
  ra_.reset();
  ra_ = make_ra();
  ra::DictionaryStore::RecoveryReport report;
  {
    Tracer::Scope s(tracer(), "persist.recover");
    report = ra_->updater->recover(opt_.persist_dir);
  }
  if (!report.ok) {
    throw std::runtime_error("RaUpdater::recover failed: " + report.error);
  }
  serve(*ra_);
  return report;
}

}  // namespace perfbench
