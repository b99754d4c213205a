// RA benchmark: one command runs a named workload against an in-process
// RA served over host loopback TCP and prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) with its unit; the last line of
// stdout is the JSON result. See perfbench/README.md.
//
//   ritm_perfbench --workload handshake|bulk_cold|revocation_day
//                  --seed N --seconds S --trace 0|1 [--size full|tiny]
//   ritm_perfbench --self-test          (input digest determinism)
//   ritm_perfbench --summarize DUMP     (per-layer metrics from a dump)
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hash_chain.hpp"
#include "crypto/sha256_engine.hpp"
#include "dict/messages.hpp"
#include "dict/proof.hpp"
#include "inputs.hpp"
#include "loadgen.hpp"
#include "ra/service.hpp"
#include "trace.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------------ parameters

constexpr unsigned kGenerators = 2;  // one connection each
/// Open-loop offered rate of handshake and revocation_day (statuses/s).
constexpr double kOfferedRate = 20000.0;
/// Open-loop rate while the write-path probe runs after the window.
constexpr double kProbeRate = 4000.0;
constexpr int kSetupRepeats = 3;
constexpr int kRestarts = 5;
/// Traced runs: fresh keys replayed after the served stream (miss path).
constexpr int kColdReplays = 5000;
constexpr double kWarmupSeconds = 0.5;
constexpr std::int64_t kSliceNs = 250'000'000;
/// revocation_day: the feed schedule of a kWindowRefS-second window — the
/// first period's offset, the gap between periods, and the quiet time left
/// at the end. Other window lengths scale the whole schedule.
constexpr double kWindowRefS = 20.0;
constexpr double kFirstPeriodS = 1.0;
constexpr double kPeriodGapS = 5.0;
constexpr double kQuietTailS = 2.5;
/// Tail latency is the median over this many equal slices of the window
/// (by send or due time) of each slice's p90 and p99: a burst of host CPU
/// steal that hits one slice moves it little, while a stall that recurs in
/// most slices — revocation_day's writer lock, once per slice — moves it
/// fully. The tails are printed on every run and reported as per-layer
/// client.* metrics, but they are not bounded end-to-end metrics: on a
/// shared virtual machine they varied several-fold from run to run
/// (IQR/median 0.4-1.2 over ten runs), beyond any usable bound.
constexpr int kTailSlices = 6;
/// Open-loop health: a run whose backlog grew by more than this share of
/// the requests sent is unsteady. Generator lateness is reported, not
/// gated: on a shared virtual machine the host can steal CPU in 10-50 ms
/// bursts.
constexpr double kMaxBacklogFrac = 0.01;

enum class Workload { handshake, bulk_cold, revocation_day };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t divisor = 1;
  std::string out_dir = ".bench_build/perfbench";
};

struct Unsteady : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------ core layout

/// With >= 4 cores the RA (reactors, writer, checkpointer: every thread the
/// main thread creates inherits its mask) runs on cores 0-1 and generator g
/// on core 2 + g, so load generation never steals the RA's cores.
bool split_cores() { return sysconf(_SC_NPROCESSORS_ONLN) >= 4; }

void pin_to(std::initializer_list<int> cores) {
  if (!split_cores()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cores) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ------------------------------------------------------------- statistics

std::vector<double> merged(const std::vector<GenResult>& gens,
                           std::vector<double> GenResult::*field) {
  std::vector<double> out;
  for (const auto& g : gens) {
    out.insert(out.end(), (g.*field).begin(), (g.*field).end());
  }
  return out;
}

/// The highest percentile, at most `q`, with >= 10 samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> v, double q) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  if (static_cast<double>(v.size()) * (1.0 - q) < 10.0) {
    q = std::max(0.5, 1.0 - 10.0 / static_cast<double>(v.size()));
  }
  t.percentile = q * 100.0;
  t.value = quantile(v, q);
  t.beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

/// Median over kTailSlices time slices of each slice's tail percentiles.
struct SlicedTail {
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<Tail> p90s;
  std::vector<Tail> p99s;
};
SlicedTail sliced_tail(const std::vector<GenResult>& gens, double seconds) {
  std::vector<std::vector<double>> by_slice(kTailSlices);
  for (const auto& g : gens) {
    for (std::size_t i = 0; i < g.latency_us.size(); ++i) {
      const double at = static_cast<double>(g.latency_at_ns[i]) / 1e9;
      const auto k = std::clamp(
          static_cast<int>(at / seconds * kTailSlices), 0, kTailSlices - 1);
      by_slice[static_cast<std::size_t>(k)].push_back(g.latency_us[i]);
    }
  }
  SlicedTail out;
  std::vector<double> p90, p99;
  for (auto& v : by_slice) {
    out.p90s.push_back(tail_percentile(v, 0.90));
    out.p99s.push_back(tail_percentile(std::move(v), 0.99));
    p90.push_back(out.p90s.back().value);
    p99.push_back(out.p99s.back().value);
  }
  out.p90 = quantile(p90, 0.5);
  out.p99 = quantile(p99, 0.5);
  return out;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// --------------------------------------------------------------- context

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void print_context(const Args& a, const Inputs& in) {
  std::printf(
      "context {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"sha256_backend\": \"%s\", \"reactors\": %u, "
      "\"generator_threads\": %u, \"connections\": %u, \"network\": \"host "
      "loopback\", \"cores\": \"%s\", \"commit\": \"%s\", \"source_sha256\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"size_divisor\": %llu, \"input_digest\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      crypto::sha256_engine().name, kReactors, kGenerators, kGenerators,
      split_cores() ? "RA 0-1, generators 2-3" : "shared",
      json_escape(env_or("PERFBENCH_COMMIT", "unknown")).c_str(),
      json_escape(env_or("PERFBENCH_SOURCE_SHA256", "unknown")).c_str(),
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, static_cast<unsigned long long>(a.divisor),
      in.digest().c_str());
}

// ---------------------------------------------------------------- phases

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;
  std::uint64_t errored = 0;
  void add(const std::vector<GenResult>& gens) {
    for (const auto& g : gens) {
      attempted += g.attempted;
      wrong += g.wrong;
      errored += g.errored;
    }
  }
};

struct Rig {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<World> world;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::unique_ptr<Checker>> checkers;
  std::unique_ptr<Validator> validator;

  void connect() {
    conns.clear();
    for (unsigned g = 0; g < kGenerators; ++g) {
      conns.push_back(std::make_unique<Conn>(world->port()));
    }
  }
  void reset() {
    validator.reset();
    checkers.clear();
    conns.clear();
    world.reset();
    in.reset();
  }
  std::vector<cert::CaId> ids() const {
    std::vector<cert::CaId> out;
    for (std::size_t c = 0; c < kCas; ++c) out.push_back(world->ca_id(c));
    return out;
  }
};

/// Runs `fn(g)` on one thread per generator while the calling thread flips
/// the trace slices (traced runs).
template <typename Fn>
void run_generators(Fn fn, bool traced, std::int64_t start_ns) {
  std::atomic<unsigned> finished{0};
  std::vector<std::exception_ptr> errors(kGenerators);
  std::vector<std::thread> threads;
  for (unsigned g = 0; g < kGenerators; ++g) {
    threads.emplace_back([&, g] {
      pin_to({static_cast<int>(2 + g)});
      prctl(PR_SET_TIMERSLACK, 1000UL);
      try {
        fn(g);
      } catch (...) {
        errors[g] = std::current_exception();
      }
      finished.fetch_add(1);
    });
  }
  while (finished.load() < kGenerators) {
    const std::int64_t t = now_ns() - start_ns;
    if (traced) tracer().set_slice(t >= 0 && (t / kSliceNs) % 2 == 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  tracer().set_slice(false);
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

struct OpenPhase {
  std::vector<GenResult> gens;
  std::vector<PeriodResult> periods;
};

/// Open-loop reads at `rate` for `seconds`; when `plan` is non-empty a
/// writer publishes those periods (mass flag each) — at fixed offsets when
/// `paced`, else back to back, after which the readers stop.
OpenPhase open_phase(Rig& rig, double rate, double seconds,
                     std::uint64_t stream, bool traced,
                     const std::vector<bool>& plan, bool paced,
                     Canaries* canaries, bool measure) {
  OpenPhase out;
  out.gens.resize(kGenerators);
  std::vector<std::vector<Inputs::Arrival>> arrivals;
  for (unsigned g = 0; g < kGenerators; ++g) {
    arrivals.push_back(
        rig.in->schedule(rate / kGenerators, seconds, stream + g));
  }
  const auto ids = rig.ids();
  std::atomic<bool> stop{false};
  const std::int64_t start = now_ns() + 20'000'000;  // let threads spin up
  std::exception_ptr writer_error;
  std::thread writer;
  if (!plan.empty()) {
    writer = std::thread([&] {
      try {
        for (std::size_t i = 0; i < plan.size(); ++i) {
          if (paced) {
            const double at = (kFirstPeriodS + kPeriodGapS * static_cast<double>(i)) *
                              seconds / kWindowRefS;
            const auto due = start + static_cast<std::int64_t>(at * 1e9);
            while (now_ns() < due) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
          out.periods.push_back(rig.world->publish_period(
              plan[i], [&](const PeriodResult& r) {
                canaries->start(r.period, r.canaries, r.revoke_start_ns);
              }));
          // The probes chase one period at a time: wait until they see it.
          const auto p = out.periods.back().period;
          const std::int64_t give_up = now_ns() + 10'000'000'000;
          while (!canaries->visible_ms(p) && now_ns() < give_up) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
        if (!paced) stop.store(true);
      } catch (...) {
        writer_error = std::current_exception();
        stop.store(true);
      }
    });
  }
  run_generators(
      [&](unsigned g) {
        OpenLoop cfg;
        cfg.in = rig.in.get();
        cfg.tag = static_cast<std::uint64_t>(g + 1) << 40;
        cfg.arrivals = &arrivals[g];
        cfg.start_ns = start;
        cfg.window_ns = static_cast<std::int64_t>(seconds * 1e9);
        cfg.canaries = canaries;
        cfg.canary_every = paced ? 4 : 1;
        cfg.stop = plan.empty() ? nullptr : &stop;
        cfg.validator = measure ? rig.validator.get() : nullptr;
        cfg.keep_keys = measure && traced;
        run_open_loop(*rig.conns[g], cfg, *rig.checkers[g], ids, out.gens[g]);
      },
      traced, start);
  if (writer.joinable()) writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  return out;
}

std::vector<GenResult> closed_phase(Rig& rig, double seconds,
                                    std::uint64_t stream, bool traced,
                                    bool measure) {
  std::vector<GenResult> gens(kGenerators);
  const auto ids = rig.ids();
  const std::int64_t start = now_ns() + 20'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  run_generators(
      [&](unsigned g) {
        while (now_ns() < start) {
        }
        ClosedLoop cfg;
        cfg.in = rig.in.get();
        cfg.tag = static_cast<std::uint64_t>(g + 1) << 40;
        cfg.rng_seed = mix64(rig.in->seed() ^ (stream + g));
        cfg.start_ns = start;
        cfg.end_ns = end;
        cfg.validator = measure ? rig.validator.get() : nullptr;
        cfg.keep_keys = measure && traced;
        run_closed_loop(*rig.conns[g], cfg, *rig.checkers[g], ids, gens[g]);
      },
      traced, start);
  return gens;
}

/// Open-loop health of a phase: generator lateness and queue growth.
struct Health {
  double late_p99_us = 0.0;
  double backlog = 0.0;
  std::uint64_t sent = 0;
};
Health open_health(const std::vector<GenResult>& gens) {
  Health h;
  std::vector<double> late = merged(gens, &GenResult::late_us);
  h.late_p99_us = quantile(late, 0.99);
  for (const auto& g : gens) {
    std::vector<double> inflight(g.inflight.begin(), g.inflight.end());
    h.backlog += static_cast<double>(g.backlog) - median(inflight);
    h.sent += g.attempted;
  }
  h.backlog = std::max(0.0, h.backlog);
  return h;
}

// --------------------------------------------------- offline replays

/// Per-layer client-side spans on the same samples: proof verification,
/// signature verification, and the freshness walk.
void replay_client_layers(const Rig& rig, const std::vector<Sample>& samples) {
  for (const auto& s : samples) {
    const auto st = dict::RevocationStatus::decode(ByteSpan(s.status));
    if (!st) continue;
    const auto serial = rig.in->serial(s.key);
    std::int64_t t0 = now_ns();
    dict::verify_proof(st->proof, serial, st->signed_root.root,
                       st->signed_root.n);
    tracer().record("dict.verify", t0, now_ns());
    t0 = now_ns();
    st->signed_root.verify(rig.world->ca_key(s.key.ca));
    tracer().record("crypto.sig", t0, now_ns());
    t0 = now_ns();
    for (std::size_t p = 0; p <= 2; ++p) {
      if (crypto::HashChain::verify(st->freshness, p,
                                    st->signed_root.freshness_anchor)) {
        break;
      }
    }
    tracer().record("crypto.fresh", t0, now_ns());
  }
}

/// The served serial stream replayed in-process through status_bytes_for
/// (hit or miss read off the cache counters), then the misses through
/// Dictionary::prove on the CA's own dictionary. Fresh cold keys follow the
/// served ones: a window without writes or evictions leaves every served
/// serial cached, and the miss path must still be timed.
void replay_status_path(const Rig& rig, std::vector<Key> keys) {
  Rng rng(mix64(rig.in->seed() ^ 0x5eedc01dULL));
  for (int i = 0; i < kColdReplays; ++i) {
    keys.push_back(rig.in->draw_cold(rng, rig.in->draw_ca(rng)));
  }
  const auto& store = rig.world->store();
  std::vector<Key> misses;
  for (const auto& k : keys) {
    const auto serial = rig.in->serial(k);
    const auto before = store.cache_stats().hits;
    const std::int64_t t0 = now_ns();
    const auto got = store.status_bytes_for(rig.world->ca_id(k.ca), serial);
    const std::int64_t t1 = now_ns();
    if (!got) throw std::runtime_error("status_bytes_for found no replica");
    const bool hit = store.cache_stats().hits != before;
    tracer().record(hit ? "ra.status_hit" : "ra.status_miss", t0, t1);
    if (!hit) misses.push_back(k);
  }
  for (const auto& k : misses) {
    const auto serial = rig.in->serial(k);
    const std::int64_t t0 = now_ns();
    const auto proof = rig.world->ca(k.ca).dictionary().prove(serial);
    tracer().record("dict.prove", t0, now_ns());
    if (proof.type != dict::Proof::Type::presence &&
        proof.type != dict::Proof::Type::absence) {
      throw std::runtime_error("bad proof type");
    }
  }
}

/// Shadow replicas replay every issuance through Dictionary::update; the
/// hash count is exact and repeats for a given seed.
void replay_updates(const World& world) {
  double hashes = 0.0;
  double revocations = 0.0;
  for (std::size_t c = 0; c < kCas; ++c) {
    dict::Dictionary shadow = world.shadows()[c];
    for (const auto& iss : world.issuances()[c]) {
      const std::uint64_t h0 = shadow.total_hash_count();
      const std::int64_t t0 = now_ns();
      const bool ok =
          shadow.update(iss.serials, iss.signed_root.root, iss.signed_root.n);
      tracer().record("dict.update", t0, now_ns());
      if (!ok) throw std::runtime_error("shadow replica rejected an update");
      hashes += static_cast<double>(shadow.total_hash_count() - h0);
      revocations += static_cast<double>(iss.serials.size());
    }
  }
  tracer().counter("dict.update_hashes", hashes);
  tracer().counter("dict.update_revocations", revocations);
}

/// One status_query on a fresh connection; nullopt if no response came.
std::optional<svc::Response> query_once(std::uint16_t port,
                                        const cert::CaId& ca,
                                        const cert::SerialNumber& serial) {
  Conn conn(port);
  svc::Request req;
  req.method = svc::Method::status_query;
  req.request_id = 1;
  req.body = ra::encode_status_query(ca, serial);
  conn.queue(req);
  bool broken = false;
  const std::int64_t give_up = now_ns() + 10'000'000'000;
  while (!broken && now_ns() < give_up) {
    if ((conn.want_write() && !conn.flush()) || !conn.fill()) break;
    if (auto resp = conn.pop(broken)) return resp;
    conn.wait(1'000'000);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = {
      {"revocation_visible_p50_ms", "ms"},
      {"mass_visible_ms", "ms"},
      {"restart_ms", "ms"},
      {"client.status_p90_us", "us"},
      {"client.status_p99_us", "us"},
      {"svc.call_p50_us", "us"},
      {"svc.call_p99_us", "us"},
      {"svc.transport_self_p50_us", "us"},
      {"svc.bytes_out_per_status", "bytes"},
      {"svc.backpressure_pauses", "count"},
      {"svc.refused", "count"},
      {"ra.handle_p50_us", "us"},
      {"ra.handle_p99_us", "us"},
      {"ra.cache_hit_rate", "ratio"},
      {"ra.cache_evictions", "count"},
      {"ra.cache_invalidations", "count"},
      {"ra.status_hit_ns", "ns"},
      {"ra.status_miss_us", "us"},
      {"ra.read_lock_blocked_ms", "ms"},
      {"ra.write_lock_hold_ms", "ms"},
      {"ra.pull_ms", "ms"},
      {"ra.apply_self_ms", "ms"},
      {"dict.prove_us", "us"},
      {"dict.update_ms", "ms"},
      {"dict.hashes_per_revocation", "hashes"},
      {"dict.verify_proof_us", "us"},
      {"crypto.sig_verify_us", "us"},
      {"crypto.freshness_walk_us", "us"},
      {"ca.revoke_ms", "ms"},
      {"ca.publish_ms", "ms"},
      {"cdn.get_us", "us"},
      {"cdn.bytes_per_period", "bytes"},
      {"persist.checkpoint_stall_mean_us", "us"},
      {"persist.checkpoint_stall_max_us", "us"},
      {"persist.recover_ms", "ms"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.wal_replayed", "count"},
      {"gen.late_p99_us", "us"},
      {"gen.backlog", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return units;
}

void print_result(const std::vector<Metric>& metrics, const Totals& totals) {
  for (const auto& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::uint64_t failed = totals.wrong + totals.errored;
  std::printf(
      "statuses attempted %llu, wrong verdicts %llu, refused/errored/timed "
      "out %llu, failed_frac %.6g\n",
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(totals.wrong),
      static_cast<unsigned long long>(totals.errored),
      totals.attempted ? static_cast<double>(failed) /
                             static_cast<double>(totals.attempted)
                       : 0.0);
  std::string json = "{\"correct\": ";
  json += totals.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    1, totals.attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ run

int run(const Args& a) {
  Workload w;
  if (a.workload == "handshake") {
    w = Workload::handshake;
  } else if (a.workload == "bulk_cold") {
    w = Workload::bulk_cold;
  } else if (a.workload == "revocation_day") {
    w = Workload::revocation_day;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  pin_to({0, 1});
  const Shape shape{a.divisor};
  const std::string persist_dir =
      a.out_dir + "/persist-" + std::to_string(::getpid());
  struct Cleanup {
    std::string dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{persist_dir};

  World::Options opt;
  opt.traced = a.trace;
  opt.persist_dir = persist_dir;
  opt.persist_from_start = w == Workload::revocation_day;

  // ----------------------------------------------------------- set-up
  // Set up several times and report the median; the last rig is measured.
  Totals totals;
  Rig rig;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    std::filesystem::remove_all(persist_dir);
    std::filesystem::create_directories(persist_dir);
    const std::int64_t t0 = now_ns();
    rig.in = std::make_unique<Inputs>(a.seed, shape);
    rig.world = std::make_unique<World>(*rig.in, opt);
    rig.connect();
    std::vector<crypto::PublicKey> keys;
    for (std::size_t c = 0; c < kCas; ++c) keys.push_back(rig.world->ca_key(c));
    for (unsigned g = 0; g < kGenerators; ++g) {
      rig.checkers.push_back(std::make_unique<Checker>(keys));
    }
    rig.validator = std::make_unique<Validator>(*rig.in, rig.ids(), keys);
    if (w == Workload::bulk_cold) {
      totals.add(closed_phase(rig, kWarmupSeconds, 100, false, false));
    } else {
      totals.add(open_phase(rig, kOfferedRate, kWarmupSeconds, 100, false, {},
                            false, nullptr, false)
                     .gens);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  print_context(a, *rig.in);
  tracer().set_active(a.trace);

  // ---------------------------------------------------------- window
  const auto cache0 = rig.world->store().cache_stats();
  const auto srv0 = rig.world->server_stats();
  Canaries canaries;
  std::vector<GenResult> window;
  std::vector<PeriodResult> window_periods;
  if (w == Workload::bulk_cold) {
    window = closed_phase(rig, a.seconds, 200, a.trace, true);
  } else {
    std::vector<bool> plan;
    if (w == Workload::revocation_day) {
      for (double t = kFirstPeriodS; t <= kWindowRefS - kQuietTailS;
           t += kPeriodGapS) {
        plan.push_back(plan.size() == 1);  // the second period is the mass one
      }
    }
    auto phase = open_phase(rig, kOfferedRate, a.seconds, 200, a.trace, plan,
                            true, &canaries, true);
    window = std::move(phase.gens);
    window_periods = std::move(phase.periods);
  }
  totals.add(window);
  const auto cache1 = rig.world->store().cache_stats();
  const auto srv1 = rig.world->server_stats();

  std::vector<Sample> samples;
  std::vector<Key> served;
  for (const auto& g : window) {
    samples.insert(samples.end(), g.samples.begin(), g.samples.end());
    served.insert(served.end(), g.served_keys.begin(), g.served_keys.end());
  }
  if (a.trace) {
    replay_status_path(rig, served);
    replay_client_layers(rig, samples);
  }

  // Closed-loop bulk_cold has no schedule to fall behind: its gen.* are 0.
  const Health health =
      w == Workload::bulk_cold ? Health{} : open_health(window);

  // ------------------------------------------------- write-path probe
  // handshake and bulk_cold measure the write path after their window: six
  // periods (the third one mass) published back to back while a light
  // open-loop stream probes for the new revocations.
  std::vector<PeriodResult> periods = window_periods;
  if (w != Workload::revocation_day) {
    rig.world->enable_persistence();
    auto probe = open_phase(rig, kProbeRate, 30.0, 300, false,
                            {false, false, true, false, false, false}, false,
                            &canaries, false);
    totals.add(probe.gens);
    periods = std::move(probe.periods);
  }
  std::vector<double> visible;
  double mass_visible = 0.0;
  for (const auto& p : periods) {
    const auto ms = canaries.visible_ms(p.period);
    if (!ms) {
      throw std::runtime_error("revocations of period " +
                               std::to_string(p.period) +
                               " never became visible");
    }
    if (p.mass) {
      mass_visible = *ms;
    } else {
      visible.push_back(*ms);
    }
  }

  if (visible.empty() || mass_visible <= 0.0) {
    throw std::runtime_error("the write path was not measured");
  }

  // ---------------------------------------------------------- restart
  // One checkpoint, one freshness-only period into the WAL, then the RA is
  // dropped and recovered: restart_ms runs to the first verified status.
  // The WAL tail carries no issuance, so restart_ms measures the restore
  // and replay path itself, not one more dictionary rebuild (the rebuild
  // cost is what revocation_visible_p50_ms already measures).
  rig.world->checkpoint_now();
  const auto ckpt = rig.world->checkpoint_stats();
  rig.world->publish_freshness_period();
  const PeriodResult& last = periods.back();
  rig.conns.clear();
  std::vector<double> restarts;
  ra::DictionaryStore::RecoveryReport report;
  for (int r = 0; r < kRestarts; ++r) {
    const std::int64_t r0 = now_ns();
    report = rig.world->restart();
    const Key probe = last.canaries[0];
    const auto resp = query_once(rig.world->port(),
                                 rig.world->ca_id(probe.ca),
                                 rig.in->serial(probe));
    totals.attempted += 1;
    if (!resp || resp->status != svc::Status::ok) {
      throw std::runtime_error("no status served after restart");
    }
    const auto verdict = rig.checkers[0]->check(ByteSpan(resp->body), probe,
                                                rig.in->serial(probe));
    if (!verdict.ok || !verdict.presence) ++totals.wrong;
    restarts.push_back(static_cast<double>(now_ns() - r0) / 1e6);
  }
  const double restart_ms = median(restarts);

  const double validate_us = median(merged(window, &GenResult::validate_us));

  // ---------------------------------------------------------- results
  const SlicedTail tail = sliced_tail(window, a.seconds);
  std::uint64_t in_window = 0;
  for (const auto& g : window) in_window += g.statuses_in_window;
  const double rps = static_cast<double>(in_window) / a.seconds;
  std::printf("window: %s; open-loop health: late p99 %.1f us, backlog %.1f "
              "of %llu sent\n",
              w == Workload::bulk_cold ? "closed loop, 256-status envelopes"
                                       : "open loop, Poisson arrivals",
              health.late_p99_us, health.backlog,
              static_cast<unsigned long long>(health.sent));
  for (std::size_t k = 0; k < tail.p90s.size(); ++k) {
    const Tail& t = tail.p90s[k];
    const Tail& u = tail.p99s[k];
    std::printf("  slice %zu: %zu latency samples, p%.2f = %.1f us with %zu "
                "beyond; p%.2f = %.1f us with %zu beyond\n",
                k, t.samples, t.percentile, t.value, t.beyond, u.percentile,
                u.value, u.beyond);
  }
  std::printf("status_p90_us %.3f us, status_p99_us %.3f us (median over "
              "slices; not bounded)\n",
              tail.p90, tail.p99);
  std::printf("restart: snapshot %s, %zu WAL records replayed\n",
              report.have_snapshot ? "loaded" : "absent", report.replayed);

  if (health.backlog > kMaxBacklogFrac * static_cast<double>(health.sent)) {
    throw Unsteady("the open-loop backlog grew");
  }

  if (!a.trace) {
    std::vector<Metric> m = {
        {"setup_s", median(setup_s), "s"},
        {"status_rps", rps, "statuses/s"},
        {"status_p50_us", median(merged(window, &GenResult::latency_us)),
         "us"},
        {"client_validate_us", validate_us, "us"},
    };
    print_result(m, totals);
    return 0;
  }

  // Traced run: counters, offline replays, dump, summary.
  auto& t = tracer();
  t.counter("svc.bytes_out", static_cast<double>(srv1.bytes_out - srv0.bytes_out));
  std::uint64_t window_attempted = 0;
  for (const auto& g : window) window_attempted += g.attempted;
  t.counter("svc.statuses", static_cast<double>(window_attempted));
  t.counter("svc.backpressure_pauses",
            static_cast<double>(srv1.backpressure_pauses -
                                srv0.backpressure_pauses));
  t.counter("svc.refused",
            static_cast<double>((srv1.throttled - srv0.throttled) +
                                (srv1.shed_over_limit - srv0.shed_over_limit) +
                                (srv1.fatal_frames - srv0.fatal_frames)));
  t.counter("ra.cache_hits", static_cast<double>(cache1.hits - cache0.hits));
  t.counter("ra.cache_misses",
            static_cast<double>(cache1.misses - cache0.misses));
  t.counter("ra.cache_evictions",
            static_cast<double>(cache1.evictions - cache0.evictions));
  t.counter("ra.cache_invalidations",
            static_cast<double>(cache1.invalidations - cache0.invalidations));
  t.counter("cdn.feed_bytes", static_cast<double>(rig.world->feed_bytes()));
  t.counter("cdn.periods", static_cast<double>(rig.world->periods()));
  t.counter("persist.checkpoint_stall_mean_us",
            ckpt.checkpoints ? static_cast<double>(ckpt.total_stall_us) /
                                   static_cast<double>(ckpt.checkpoints)
                             : 0.0);
  t.counter("persist.checkpoint_stall_max_us",
            static_cast<double>(ckpt.max_stall_us));
  t.counter("persist.snapshot_bytes", static_cast<double>(ckpt.last_bytes));
  t.counter("persist.wal_replayed", static_cast<double>(report.replayed));
  t.counter("revocation_visible_p50_ms", median(visible));
  t.counter("mass_visible_ms", mass_visible);
  t.counter("restart_ms", restart_ms);
  t.counter("client.status_p90_us", tail.p90);
  t.counter("client.status_p99_us", tail.p99);
  t.counter("gen.late_p99_us", health.late_p99_us);
  t.counter("gen.backlog", health.backlog);
  t.counter("trace.p50_on_us", median(merged(window, &GenResult::latency_on_us)));
  t.counter("trace.p50_off_us", median(merged(window, &GenResult::latency_us)));
  replay_updates(*rig.world);

  const std::string dump = a.out_dir + "/trace-" + a.workload + ".tsv";
  t.dump(dump);
  std::printf("trace dump: %s\n", dump.c_str());
  std::vector<Metric> m;
  for (const auto& [name, value] : summarize(t.spans(), t.counters())) {
    m.push_back({name, value, per_layer_units().at(name)});
  }
  print_result(m, totals);
  return 0;
}

// ------------------------------------------------------------- self-test

int self_test() {
  const Inputs a(7, Shape{}), b(7, Shape{}), c(8, Shape{});
  const bool same = a.digest() == b.digest();
  const bool differ = a.digest() != c.digest();
  std::printf("input digest seed 7: %s, again: %s, seed 8: %s\n",
              a.digest().c_str(), b.digest().c_str(), c.digest().c_str());
  std::printf("same seed -> same digest: %s; other seed -> other digest: %s\n",
              same ? "ok" : "FAIL", differ ? "ok" : "FAIL");
  return same && differ ? 0 : 1;
}

int summarize_dump(const std::string& path) {
  std::vector<Span> spans;
  std::map<std::string, double> counters;
  if (!load_dump(path, spans, counters)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  for (const auto& [name, value] : summarize(spans, counters)) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), value,
                per_layer_units().at(name).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") return self_test();
    if (val == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--summarize") return summarize_dump(val);
    if (arg == "--workload") {
      a.workload = val;
    } else if (arg == "--seed") {
      a.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(val);
    } else if (arg == "--trace") {
      a.trace = std::string(val) == "1";
    } else if (arg == "--size") {
      a.divisor = std::string(val) == "tiny" ? 100 : 1;
    } else if (arg == "--out-dir") {
      a.out_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    return run(a);
  } catch (const Unsteady& e) {
    std::fprintf(stderr, "unsteady run, no result: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
