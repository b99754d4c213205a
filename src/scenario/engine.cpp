#include "scenario/engine.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/messages.hpp"
#include "dict/proof.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "svc/tcp.hpp"
#include "svc/transport.hpp"

namespace ritm::scenario {

namespace {

std::size_t serial_width_for(std::uint64_t serial_space) {
  std::size_t w = 3;
  while (w < 8 && serial_space >= (std::uint64_t{1} << (8 * w))) ++w;
  return w;
}

cert::CaId ca_name(int c) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "CA-%03d", c);
  return buf;
}

/// Dates a served status: walks the freshness statement forward to the
/// signed root's anchor; statement H^(m-p)(v) means the CA was live at
/// timestamp + p*delta. An unmatchable statement (never the case against
/// an honest stack) dates as the root timestamp itself.
UnixSeconds effective_time(const dict::RevocationStatus& st, UnixSeconds delta,
                           std::size_t max_steps) {
  crypto::Digest20 h = st.freshness;
  for (std::size_t off = 0; off <= max_steps; ++off) {
    if (h == st.signed_root.freshness_anchor) {
      return st.signed_root.timestamp +
             static_cast<UnixSeconds>(off) * delta;
    }
    h = crypto::HashChain::advance(h, 1);
  }
  return st.signed_root.timestamp;
}

struct BatchItem {
  std::uint64_t value = 0;  // serial value
  std::uint64_t idx = 0;    // flow index within its period (vtime)
  bool canary = false;      // attack-window probe for a fresh revocation
};

/// One client thread: slices each period's flows, groups them into per-CA
/// status_batch envelopes, and records outcomes into its own accumulator.
class FlowDriver {
 public:
  FlowDriver(const WorkloadPlan& plan, DriverMetrics& metrics,
             const std::vector<cert::CaId>& ca_ids, std::size_t serial_width,
             svc::Transport* rpc, svc::TcpClient* tcp)
      : plan_(plan),
        spec_(plan.spec()),
        m_(metrics),
        ca_ids_(ca_ids),
        width_(serial_width),
        rpc_(rpc),
        tcp_(tcp),
        pending_(ca_ids.size()) {}

  /// Runs this driver's slice of period p's flows and drains every
  /// outstanding envelope before returning.
  void run_period(std::uint64_t p, unsigned driver, unsigned drivers) {
    const std::uint64_t begin = plan_.flow_begin(p);
    const std::uint64_t n = plan_.flows_in(p);
    const std::uint64_t lo = begin + n * driver / drivers;
    const std::uint64_t hi = begin + n * (driver + 1) / drivers;
    for (std::uint64_t g = lo; g < hi; ++g) {
      const std::uint64_t word = plan_.flows()[g];
      const auto ca = static_cast<std::size_t>(flow_ca(word));
      pending_[ca].push_back(
          {flow_value(word), g - begin, flow_is_canary(word)});
      if (pending_[ca].size() >= spec_.batch) flush(static_cast<int>(ca), p);
    }
    for (std::size_t ca = 0; ca < pending_.size(); ++ca) {
      flush(static_cast<int>(ca), p);
    }
    while (!inflight_.empty()) retire_front();
  }

 private:
  struct Inflight {
    std::uint64_t id = 0;
    int ca = 0;
    std::uint64_t period = 0;
    std::vector<BatchItem> items;
  };

  void flush(int ca, std::uint64_t period) {
    auto& items = pending_[static_cast<std::size_t>(ca)];
    if (items.empty()) return;
    svc::Request req;
    req.method = svc::Method::status_batch;
    std::vector<cert::SerialNumber> serials;
    serials.reserve(items.size());
    for (const auto& it : items) {
      serials.push_back(cert::SerialNumber::from_uint(it.value, width_));
    }
    req.body = ra::encode_status_batch(ca_ids_[static_cast<std::size_t>(ca)],
                                       serials);
    if (tcp_ != nullptr) {
      // Pipelined: keep a submission window open so the reactor sees
      // back-to-back frames on one connection.
      std::uint64_t id = 0;
      const auto st = tcp_->submit(req, &id);
      if (st != svc::Status::ok) {
        ++m_.batches;
        ++m_.rpc_errors;
        items.clear();
        return;
      }
      inflight_.push_back({id, ca, period, std::move(items)});
      items = {};
      if (inflight_.size() >= kPipelineWindow) retire_front();
    } else {
      // InProcessTransport reports the *simulated* service latency (zero
      // for the RA); the harness wants the real round trip.
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = rpc_->call(req);
      const double real_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      process(result, ca, period, items, real_ms);
      items.clear();
    }
  }

  void retire_front() {
    Inflight f = std::move(inflight_.front());
    inflight_.pop_front();
    const auto result = tcp_->collect(f.id);
    process(result, f.ca, f.period, f.items, result.latency_ms);
  }

  void process(const svc::CallResult& result, int ca, std::uint64_t period,
               const std::vector<BatchItem>& items, double latency_ms) {
    ++m_.batches;
    m_.bytes_sent += result.bytes_sent;
    m_.bytes_received += result.bytes_received;
    m_.latency_us.add(static_cast<std::uint64_t>(latency_ms * 1000.0));
    if (!result.ok()) {
      ++m_.rpc_errors;
      return;
    }
    const auto statuses = ra::decode_status_batch_reply(result.response.body);
    if (!statuses || statuses->size() != items.size()) {
      ++m_.decode_errors;
      return;
    }
    bool dated = false;
    UnixSeconds served_time = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto st = dict::RevocationStatus::decode((*statuses)[i]);
      if (!st) {
        ++m_.decode_errors;
        continue;
      }
      if (!dated) {
        served_time =
            effective_time(*st, spec_.delta,
                           static_cast<std::size_t>(spec_.periods) + 4);
        dated = true;
      }
      const bool revoked = st->proof.type == dict::Proof::Type::presence;
      const std::uint64_t value = items[i].value;
      const TimeMs vtime = plan_.flow_vtime_ms(period, items[i].idx);
      ++m_.flows;
      revoked ? ++m_.revoked : ++m_.valid;
      TimeMs staleness = vtime - from_seconds(served_time);
      if (staleness < 0) staleness = 0;
      m_.staleness_ms.add(static_cast<std::uint64_t>(staleness));

      bool wrong = false;
      if (spec_.lockstep) {
        // The RA has applied exactly feed period `period` here, so the
        // plan's frontier is the ground truth.
        wrong = revoked != plan_.revoked_at(ca, value, period);
      } else {
        // Freerun: the RA may lag the publisher, so only timeless facts
        // are checkable — evens are never revoked, the initial corpus
        // always is.
        const bool odd = (value & 1) != 0;
        wrong = (revoked && !odd) ||
                (!revoked && odd &&
                 (value - 1) / 2 <
                     plan_.initial_count(ca));
      }
      if (!wrong && spec_.verify_proofs &&
          !dict::verify_proof(st->proof,
                              cert::SerialNumber::from_uint(value, width_),
                              st->signed_root.root, st->signed_root.n)) {
        wrong = true;
      }
      if (wrong) ++m_.wrong_verdict;
      // Attack-window evidence comes from canary probes only: they query
      // a serial revoked in the current period, so first observation -
      // request time measures dissemination, not how long Zipf sampling
      // took to stumble on an old revocation.
      if (revoked && items[i].canary && (value & 1) != 0 &&
          (value - 1) / 2 >= plan_.initial_count(ca)) {
        m_.note_first_seen(tracked_key(ca, value), vtime);
      }
    }
  }

  static constexpr std::size_t kPipelineWindow = 8;

  const WorkloadPlan& plan_;
  const ScenarioSpec& spec_;
  DriverMetrics& m_;
  const std::vector<cert::CaId>& ca_ids_;
  std::size_t width_;
  svc::Transport* rpc_;
  svc::TcpClient* tcp_;
  std::vector<std::vector<BatchItem>> pending_;
  std::deque<Inflight> inflight_;
};

std::int64_t sample_percentile(const std::vector<std::int64_t>& sorted,
                               double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(sorted.size()));
  if (rank < sorted.size()) ++rank;
  return sorted[static_cast<std::size_t>(rank - 1)];
}

}  // namespace

ScenarioEngine::ScenarioEngine(ScenarioSpec spec)
    : plan_(WorkloadPlan::compile(spec)) {}

ScenarioReport ScenarioEngine::run() {
  const ScenarioSpec& spec = plan_.spec();
  const unsigned drivers = spec.drivers;
  const std::size_t width = serial_width_for(spec.serial_space);
  const auto cas_n = static_cast<std::size_t>(spec.cas);

  // ------------------------------------------------------ build the world
  Rng ca_rng(spec.seed ^ 0xCA15EEDull);
  std::vector<std::unique_ptr<ca::CertificationAuthority>> cas;
  std::vector<cert::CaId> ids;
  for (std::size_t c = 0; c < cas_n; ++c) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = ca_name(static_cast<int>(c));
    cfg.delta = spec.delta;
    cfg.chain_length =
        std::max<std::size_t>(64, static_cast<std::size_t>(spec.periods) + 8);
    cfg.serial_width = width;
    cas.push_back(std::make_unique<ca::CertificationAuthority>(
        cfg, ca_rng, UnixSeconds{0}));
    ids.push_back(cas.back()->id());
  }

  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, spec.delta);
  for (std::size_t c = 0; c < cas_n; ++c) {
    dp.register_ca(ids[c], cas[c]->public_key());
  }
  cdn::LocalCdn cdn_rpc(&cdn, spec.seed ^ 0x5eed);
  ca::SyncService sync_service;
  for (const auto& ca : cas) sync_service.add(ca.get());
  sync_service.set_period_source(&dp);
  svc::InProcessTransport sync_rpc(&sync_service);

  ra::DictionaryStore store;
  for (std::size_t c = 0; c < cas_n; ++c) {
    store.register_ca(ids[c], cas[c]->public_key(), spec.delta);
  }
  ra::RaUpdater updater({}, &store, &cdn_rpc.rpc, &sync_rpc);

  // Period 0: each CA revokes its initial corpus (serials 1, 3, 5, ...)
  // and the RA bootstraps every replica from the CDN cold-start objects.
  for (std::size_t c = 0; c < cas_n; ++c) {
    const std::uint64_t n = plan_.initial_count(static_cast<int>(c));
    std::vector<cert::SerialNumber> serials;
    serials.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      serials.push_back(cert::SerialNumber::from_uint(2 * k + 1, width));
    }
    cas[c]->revoke(std::move(serials), UnixSeconds{0});
  }
  dp.publish(0);  // period 0: the (empty) feed slot the cold start covers
  for (std::size_t c = 0; c < cas_n; ++c) {
    const auto st =
        dp.publish_cold_start(cas[c]->cold_start_object(0, UnixSeconds{0}), 0);
    if (st != svc::Status::ok) {
      throw std::runtime_error("scenario: cold-start publish refused for " +
                               ids[c]);
    }
  }
  for (std::size_t c = 0; c < cas_n; ++c) {
    const auto st = updater.bootstrap(ids[c], TimeMs{0});
    if (st != svc::Status::ok) {
      throw std::runtime_error("scenario: bootstrap refused for " + ids[c]);
    }
  }
  const auto cache_before = store.cache_stats();

  // Serving plane: RaService straight over the store, which locks itself.
  ra::RaService ra_service(&store, nullptr);
  std::unique_ptr<svc::TcpServer> server;
  if (spec.tcp) {
    svc::TcpServerOptions opts;
    opts.port = 0;
    opts.max_connections = drivers + 8;
    opts.reactors = spec.reactors;
    server = std::make_unique<svc::TcpServer>(&ra_service, opts);
  }

  // Publishes feed period p (CA revocations per the plan, freshness for
  // idle CAs) and pulls it into the RA.
  auto publish_period = [&](std::uint64_t p) {
    const auto t = static_cast<UnixSeconds>(p) * spec.delta;
    for (std::size_t c = 0; c < cas_n; ++c) {
      const std::uint64_t n = plan_.feed_count(p, static_cast<int>(c));
      if (n > 0) {
        const std::uint64_t k0 =
            plan_.revoked_after(static_cast<int>(c), p - 1);
        std::vector<cert::SerialNumber> serials;
        serials.reserve(n);
        for (std::uint64_t k = k0; k < k0 + n; ++k) {
          serials.push_back(cert::SerialNumber::from_uint(2 * k + 1, width));
        }
        dp.submit(ca::FeedMessage::of(cas[c]->revoke(std::move(serials), t)));
      } else {
        dp.submit(cas[c]->refresh(t));
      }
    }
    dp.publish(from_seconds(t));
    updater.pull_up_to(p, from_seconds(t));
  };

  // ------------------------------------------------------------- drivers
  std::vector<DriverMetrics> metrics(drivers);
  std::vector<std::unique_ptr<svc::InProcessTransport>> inproc;
  std::vector<std::unique_ptr<svc::TcpClient>> tcp_clients;
  for (unsigned d = 0; d < drivers; ++d) {
    if (spec.tcp) {
      svc::TcpClientOptions copts;
      copts.max_inflight = 64;
      tcp_clients.push_back(std::make_unique<svc::TcpClient>(
          "127.0.0.1", server->port(), copts));
      inproc.push_back(nullptr);
    } else {
      inproc.push_back(std::make_unique<svc::InProcessTransport>(&ra_service));
      tcp_clients.push_back(nullptr);
    }
  }

  std::barrier<> gate(static_cast<std::ptrdiff_t>(drivers) + 1);
  std::atomic<std::uint64_t> current_period{0};
  const auto wall_start = std::chrono::steady_clock::now();

  auto driver_fn = [&](unsigned d) {
    FlowDriver driver(plan_, metrics[d], ids, width, inproc[d].get(),
                      tcp_clients[d].get());
    for (std::uint64_t p = 1; p <= spec.periods; ++p) {
      if (spec.lockstep) {
        gate.arrive_and_wait();  // wait for period p's publish + pull
      } else {
        while (current_period.load(std::memory_order_acquire) < p) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      driver.run_period(p, d, drivers);
      if (spec.lockstep) gate.arrive_and_wait();  // period p done
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (unsigned d = 0; d < drivers; ++d) threads.emplace_back(driver_fn, d);

  if (spec.lockstep) {
    for (std::uint64_t p = 1; p <= spec.periods; ++p) {
      publish_period(p);
      gate.arrive_and_wait();  // release the drivers into period p
      gate.arrive_and_wait();  // wait for them to drain it
    }
    for (auto& t : threads) t.join();
  } else {
    std::thread publisher([&] {
      for (std::uint64_t p = 1; p <= spec.periods; ++p) {
        publish_period(p);
        current_period.store(p, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::milliseconds(spec.period_ms));
      }
    });
    for (auto& t : threads) t.join();
    publisher.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  tcp_clients.clear();
  server.reset();

  // -------------------------------------------------------------- report
  const DriverMetrics merged = merge_metrics(metrics);
  ScenarioReport rep;
  rep.name = spec.name;
  rep.schedule_digest = plan_.digest();
  rep.lockstep = spec.lockstep;
  rep.tcp = spec.tcp;
  rep.drivers = drivers;
  rep.flows = merged.flows;
  rep.revoked = merged.revoked;
  rep.valid = merged.valid;
  rep.wrong_verdict = merged.wrong_verdict;
  rep.rpc_errors = merged.rpc_errors;
  rep.decode_errors = merged.decode_errors;
  rep.batches = merged.batches;
  rep.bytes_sent = merged.bytes_sent;
  rep.bytes_received = merged.bytes_received;

  // Attack windows: for every run-revoked serial some flow saw as revoked,
  // window = first observation - its revocation's request time at the CA.
  for (const auto& [key, vtime] : merged.first_seen) {
    const int ca = static_cast<int>(key >> 48);
    const std::uint64_t k = ((key & kFlowValueMask) - 1) / 2;
    std::uint64_t issue_period = 0;
    for (std::uint64_t p = 1; p <= spec.periods; ++p) {
      if (plan_.revoked_after(ca, p) > k) {
        issue_period = p;
        break;
      }
    }
    if (issue_period == 0) continue;  // untracked (should not happen)
    rep.attack_window_ms.push_back(
        static_cast<std::int64_t>(vtime) -
        plan_.issue_vtime_ms(issue_period));
  }
  std::sort(rep.attack_window_ms.begin(), rep.attack_window_ms.end());
  rep.attack_window_p50_s =
      static_cast<double>(sample_percentile(rep.attack_window_ms, 0.5)) /
      1000.0;
  rep.attack_window_p99_s =
      static_cast<double>(sample_percentile(rep.attack_window_ms, 0.99)) /
      1000.0;
  rep.attack_window_p999_s =
      static_cast<double>(sample_percentile(rep.attack_window_ms, 0.999)) /
      1000.0;

  rep.staleness_ms_hist = merged.staleness_ms;
  rep.staleness_p50_ms = merged.staleness_ms.percentile(0.5);
  rep.staleness_p99_ms = merged.staleness_ms.percentile(0.99);
  rep.staleness_p999_ms = merged.staleness_ms.percentile(0.999);
  rep.latency_p50_us = merged.latency_us.percentile(0.5);
  rep.latency_p99_us = merged.latency_us.percentile(0.99);
  rep.latency_p999_us = merged.latency_us.percentile(0.999);

  const auto cache_after = store.cache_stats();
  rep.cache_hits = cache_after.hits - cache_before.hits;
  rep.cache_misses = cache_after.misses - cache_before.misses;
  const auto lookups = rep.cache_hits + rep.cache_misses;
  rep.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(rep.cache_hits) /
                         static_cast<double>(lookups);
  rep.elapsed_s = elapsed_s;
  rep.flows_per_s =
      elapsed_s > 0.0 ? static_cast<double>(rep.flows) / elapsed_s : 0.0;
  return rep;
}

}  // namespace ritm::scenario
