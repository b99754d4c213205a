// §VII-D throughput claims, measured end to end on this implementation:
//
//   "an RA can process more than 340,000 non-TLS packets per second and
//    more than 50,000 RITM-supported TLS handshakes per second, on average.
//    Clients can validate almost 4,000 revocation statuses per second."
//
// We drive the real agent with wire packets and the real client with RA
// output, using the largest-CRL dictionary.
//
// Results are also written to BENCH_throughput.json (ops/sec, ns/op, rehash
// counts) so successive PRs have a machine-readable perf trajectory.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "client/client.hpp"
#include "common/table.hpp"
#include "context.hpp"
#include "crypto/sha256_engine.hpp"
#include "dict/dictionary.hpp"
#include "ra/agent.hpp"
#include "ra/service.hpp"
#include "ra/updater.hpp"
#include "scenario/engine.hpp"
#include "svc/tcp.hpp"
#include "tls/session.hpp"

using namespace ritm;

namespace {
double rate_per_sec(std::size_t ops, std::chrono::steady_clock::duration d) {
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
  return double(ops) / secs;
}

double ns_per_op(std::size_t ops, std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::nano>>(d)
             .count() /
         double(ops);
}

double ms_of(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             d)
      .count();
}

/// Dictionary Δ-batch maintenance (the per-CA hot path): appends `batches`
/// batches of `batch_size` fresh serials past the current maximum and
/// recomputes the root after each, the per-issuance pattern of §III. When
/// `force_full` is set the incremental state is dropped before every root,
/// reproducing the seed's O(n)-hashing-per-batch cost model.
struct DictUpdateResult {
  double entries_per_sec = 0;
  double ns_per_entry = 0;
  std::uint64_t hashes = 0;
};

DictUpdateResult bench_dict_updates(
    const std::vector<std::vector<cert::SerialNumber>>& batches,
    std::uint64_t base_n, bool force_full) {
  dict::Dictionary d;
  std::vector<cert::SerialNumber> base;
  base.reserve(base_n);
  for (std::uint64_t i = 0; i < base_n; ++i) {
    base.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
  }
  d.insert(base);

  const std::uint64_t hashes_before = d.total_hash_count();
  std::size_t entries = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& batch : batches) {
    d.insert(batch);
    if (force_full) d.rebuild_all();
    entries += batch.size();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  DictUpdateResult r;
  r.entries_per_sec = rate_per_sec(entries, elapsed);
  r.ns_per_entry =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(
          elapsed)
          .count() /
      double(entries);
  r.hashes = d.total_hash_count() - hashes_before;
  return r;
}
}  // namespace

int main() {
  constexpr UnixSeconds kDelta = 10;
  Rng rng(17);

  // Largest-CRL dictionary behind the RA.
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-1";
  cfg.delta = kDelta;
  ca::CertificationAuthority ca(cfg, rng, 1000);
  {
    std::vector<cert::SerialNumber> serials;
    serials.reserve(339'557);
    for (std::uint64_t i = 0; i < 339'557; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
    }
    ca.revoke(std::move(serials), 1000);
  }

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), kDelta);
  {
    dict::SyncResponse boot;
    boot.ca = ca.id();
    boot.entries = ca.dictionary().entries_from(1);
    boot.signed_root = ca.signed_root();
    boot.freshness = ca.freshness_at(1000);
    store.apply_sync(boot, 1000);
  }
  ra::RevocationAgent agent({.delta = kDelta}, &store);

  crypto::Seed skey{};
  skey.fill(1);
  const auto server_kp = crypto::keypair_from_seed(skey);
  auto leaf = ca.issue("www.example.com", server_kp.public_key, 0,
                       2'000'000'000);
  leaf.serial = cert::SerialNumber::from_uint(2, 4);  // not revoked
  const cert::Chain chain = {leaf};

  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};

  Table t({"operation", "rate (ops/s)", "paper (Python)"});
  double non_tls_rate = 0, handshake_rate = 0, validation_rate = 0;

  // --- non-TLS packets through the agent.
  {
    auto pkt = tls::make_plain_packet({1, 1}, se, rng.bytes(512));
    constexpr std::size_t kOps = 2'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      agent.process(pkt, 1000);
    }
    non_tls_rate = rate_per_sec(kOps, std::chrono::steady_clock::now() - start);
    t.add_row({"RA: non-TLS packets", Table::num(non_tls_rate, 0),
               ">340,000/s"});
  }

  // --- full RITM handshakes (ClientHello + flight + status injection).
  {
    constexpr std::size_t kOps = 20'000;
    // Pre-build packets so we measure the RA, not the generator.
    std::vector<sim::Packet> hellos, flights;
    hellos.reserve(kOps);
    flights.reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      const sim::Endpoint ce{std::uint32_t(0x0A000001 + i / 60000),
                             std::uint16_t(1024 + i % 60000)};
      hellos.push_back(tls::make_client_hello(ce, se, rng, true));
      flights.push_back(tls::make_server_flight(ce, se, rng, chain, false));
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      agent.process(hellos[i], 1000);
      agent.process(flights[i], 1000);
    }
    handshake_rate =
        rate_per_sec(kOps, std::chrono::steady_clock::now() - start);
    t.add_row({"RA: RITM handshakes", Table::num(handshake_rate, 0),
               ">50,000/s"});
  }

  // --- client status validations (signature + freshness + proof). The
  // paper's row is a cold validation: a client's verified-root memo would
  // answer every repeat of this one root, so each validation gets a fresh
  // client (its construction, timed alone below, is part of the row). The
  // warm rows validate the served bytes, as a client receives them, through
  // one client whose memo already holds the root, so they run no Ed25519
  // verification at all: one row for a presence status (a revoked serial)
  // and one for an absence status (two neighbours, whose shared upper path
  // is hashed once).
  constexpr std::size_t kValidations = 20'000;
  double warm_presence_rate = 0, warm_absence_rate = 0;
  double client_construct_ns = 0;
  unsigned long long cold_verifications = 0, warm_verifications = 0;
  {
    cert::TrustStore roots;
    roots.add(ca.id(), ca.public_key());
    const client::RitmClient::Config ccfg{
        .delta = kDelta, .expect_ritm = true,
        .require_server_confirmation = false};
    const Bytes status = store.status_for(ca.id(), leaf.serial)->encode();
    std::size_t accepted = 0;

    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kValidations; ++i) {
      const client::RitmClient client(ccfg, roots);
      accepted += client.validate_status_bytes(ByteSpan(status), leaf, 1000) ==
                  client::Verdict::accepted;
      cold_verifications += client.root_memo_stats().verifications;
    }
    validation_rate =
        rate_per_sec(kValidations, std::chrono::steady_clock::now() - start);

    start = std::chrono::steady_clock::now();
    std::size_t constructed = 0;
    for (std::size_t i = 0; i < kValidations; ++i) {
      const client::RitmClient client(ccfg, roots);
      constructed += client.roots().size();
    }
    client_construct_ns =
        ns_per_op(kValidations, std::chrono::steady_clock::now() - start);

    cert::Certificate revoked_leaf = leaf;
    revoked_leaf.serial = cert::SerialNumber::from_uint(7 * 1000 + 1, 4);
    const auto absence = store.status_bytes_for(ca.id(), leaf.serial);
    const auto presence = store.status_bytes_for(ca.id(), revoked_leaf.serial);
    const client::RitmClient client(ccfg, roots);
    accepted += client.validate_status_bytes(ByteSpan(*absence->bytes), leaf,
                                             1000) ==
                client::Verdict::accepted;  // fills the memo
    const auto warm_before = client.root_memo_stats().verifications;
    const auto warm_rate = [&](const Bytes& bytes,
                               const cert::Certificate& for_leaf,
                               client::Verdict want) {
      const auto begin = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kValidations; ++i) {
        accepted += client.validate_status_bytes(ByteSpan(bytes), for_leaf,
                                                 1000) == want;
      }
      return rate_per_sec(kValidations,
                          std::chrono::steady_clock::now() - begin);
    };
    warm_presence_rate = warm_rate(*presence->bytes, revoked_leaf,
                                   client::Verdict::revoked);
    warm_absence_rate =
        warm_rate(*absence->bytes, leaf, client::Verdict::accepted);
    warm_verifications =
        client.root_memo_stats().verifications - warm_before;

    t.add_row({"client: status validations (cold)",
               Table::num(validation_rate, 0), "~4,000/s"});
    t.add_row({"client: warm memo, presence status bytes",
               Table::num(warm_presence_rate, 0), "-"});
    t.add_row({"client: warm memo, absence status bytes",
               Table::num(warm_absence_rate, 0), "-"});
    if (accepted != 3 * kValidations + 1 || constructed != kValidations) {
      std::printf("unexpected rejections! %zu/%zu\n", accepted,
                  3 * kValidations + 1);
      return 1;
    }
  }

  std::printf("== §VII-D throughput ==\n%s", t.render().c_str());
  std::printf("\nRA flows tracked: %zu; statuses attached: %llu\n",
              agent.flow_count(),
              (unsigned long long)agent.stats().statuses_attached);
  std::printf("client: %.0f ns to construct; Ed25519 verifications %llu cold, "
              "%llu warm, over %zu validations each\n",
              client_construct_ns, cold_verifications, warm_verifications,
              kValidations);

  // --- status serving: uncached (prove + encode per op) vs the warm
  // status cache (lookup + memcpy per op), over a working set of
  // serials against the 339k-entry dictionary. The warm loop's cache misses
  // are exact: one prove + encode per working-set serial, every other
  // lookup a hit.
  double status_cold_ns = 0, status_warm_ns = 0, status_speedup = 0;
  std::uint64_t status_warm_misses = 0;
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kOps = 100'000;
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }
    Bytes sink;
    sink.reserve(2048);

    // Cold path: what every packet paid before the cache existed.
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      sink.clear();
      const auto status = store.status_for(ca.id(), probes[i % kWorkingSet]);
      status->encode_into(sink);
    }
    status_cold_ns = ns_per_op(kOps, std::chrono::steady_clock::now() - start);

    // Warm path: first kWorkingSet lookups prove once, the rest memcpy.
    const std::uint64_t misses_before = store.cache_stats().misses;
    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      sink.clear();
      const auto cached =
          store.status_bytes_for(ca.id(), probes[i % kWorkingSet]);
      append(sink, ByteSpan(*cached->bytes));
    }
    status_warm_ns = ns_per_op(kOps, std::chrono::steady_clock::now() - start);
    status_speedup = status_cold_ns / status_warm_ns;
    status_warm_misses = store.cache_stats().misses - misses_before;

    Table tc({"status serving (n=339,557)", "ns/status", "vs uncached"});
    tc.add_row({"uncached: prove + encode", Table::num(status_cold_ns, 0),
                "1.0x"});
    tc.add_row({"warm cache: lookup + memcpy", Table::num(status_warm_ns, 0),
                Table::num(status_speedup, 1) + "x"});
    std::printf("\n== status cache (working set %zu serials) ==\n%s",
                kWorkingSet, tc.render().c_str());
    std::printf("warm loop: %llu cache misses over %zu lookups\n",
                (unsigned long long)status_warm_misses, kOps);
  }

  // --- multi-CA handshakes, cold vs warm cache: every handshake carries a
  // distinct certificate, so the cold pass misses on every serial and the
  // warm pass (same population, new flows) hits on every serial.
  constexpr std::size_t kCas = 4;
  constexpr std::uint64_t kEntriesPerCa = 50'000;
  constexpr std::size_t kHandshakesPerCa = 2'000;
  double multi_cold_rate = 0, multi_warm_rate = 0, multi_hit_rate = 0;
  std::uint64_t multi_invalidations = 0;
  {
    Rng mrng(99);
    std::vector<ca::CertificationAuthority> cas;
    ra::DictionaryStore mstore;
    for (std::size_t c = 0; c < kCas; ++c) {
      ca::CertificationAuthority::Config ccfg;
      ccfg.id = "CA-M" + std::to_string(c);
      ccfg.delta = kDelta;
      cas.emplace_back(ccfg, mrng, 1000);
      std::vector<cert::SerialNumber> serials;
      serials.reserve(kEntriesPerCa);
      for (std::uint64_t i = 0; i < kEntriesPerCa; ++i) {
        serials.push_back(cert::SerialNumber::from_uint(i * 11 + 3, 4));
      }
      cas.back().revoke(std::move(serials), 1000);
      mstore.register_ca(cas.back().id(), cas.back().public_key(), kDelta);
      dict::SyncResponse boot;
      boot.ca = cas.back().id();
      boot.entries = cas.back().dictionary().entries_from(1);
      boot.signed_root = cas.back().signed_root();
      boot.freshness = cas.back().freshness_at(1000);
      mstore.apply_sync(boot, 1000);
    }
    ra::RevocationAgent magent({.delta = kDelta}, &mstore);

    // One pass = kCas * kHandshakesPerCa handshakes, each with its own
    // (never-revoked) certificate. `port_base` separates the passes' flows.
    const auto run_pass = [&](std::uint16_t port_base) {
      std::vector<sim::Packet> hellos, flights;
      hellos.reserve(kCas * kHandshakesPerCa);
      flights.reserve(kCas * kHandshakesPerCa);
      for (std::size_t c = 0; c < kCas; ++c) {
        for (std::size_t i = 0; i < kHandshakesPerCa; ++i) {
          const sim::Endpoint ce{std::uint32_t(0x0B000001 + i),
                                 std::uint16_t(port_base + c)};
          cert::Certificate leaf2;
          leaf2.serial = cert::SerialNumber::from_uint(2 + i * 11, 4);
          leaf2.issuer = cas[c].id();
          leaf2.subject = "bench.example";
          hellos.push_back(tls::make_client_hello(ce, se, mrng, true));
          flights.push_back(
              tls::make_server_flight(ce, se, mrng, {leaf2}, false));
        }
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < hellos.size(); ++i) {
        magent.process(hellos[i], 1000);
        magent.process(flights[i], 1000);
      }
      return rate_per_sec(hellos.size(),
                          std::chrono::steady_clock::now() - start);
    };

    multi_cold_rate = run_pass(20000);  // every serial: cache miss
    multi_warm_rate = run_pass(30000);  // same population: cache hit
    // A new issuance per CA drops that CA's cache — the invalidation count
    // the JSON tracks.
    for (auto& mca : cas) {
      mstore.apply_issuance(
          mca.revoke({cert::SerialNumber::from_uint(1, 4)}, 1010), 1010);
    }
    (void)run_pass(40000);  // re-warm after invalidation
    const auto& cs = mstore.cache_stats();
    multi_invalidations = cs.invalidations;
    multi_hit_rate = double(cs.hits) / double(cs.hits + cs.misses);

    Table tm({"multi-CA handshakes (4 CAs x 50k)", "rate (ops/s)"});
    tm.add_row({"cold cache (all misses)", Table::num(multi_cold_rate, 0)});
    tm.add_row({"warm cache (all hits)", Table::num(multi_warm_rate, 0)});
    std::printf("\n%s", tm.render().c_str());
    std::printf("cache: %llu hits, %llu misses, %llu invalidations "
                "(hit rate %.3f)\n",
                (unsigned long long)cs.hits, (unsigned long long)cs.misses,
                (unsigned long long)cs.invalidations, multi_hit_rate);
  }

  // --- dictionary Δ-batch update throughput (100k-entry dictionary).
  constexpr std::uint64_t kDictBase = 100'000;
  constexpr std::size_t kDictBatches = 200;
  constexpr std::size_t kDictBatchSize = 64;
  std::vector<std::vector<cert::SerialNumber>> delta_batches;
  delta_batches.reserve(kDictBatches);
  for (std::size_t b = 0; b < kDictBatches; ++b) {
    std::vector<cert::SerialNumber> batch;
    batch.reserve(kDictBatchSize);
    for (std::size_t i = 0; i < kDictBatchSize; ++i) {
      // Fresh serials past the base range: the append-heavy issuance stream.
      batch.push_back(cert::SerialNumber::from_uint(
          kDictBase * 7 + 100 + b * kDictBatchSize + i, 4));
    }
    delta_batches.push_back(std::move(batch));
  }
  const auto inc = bench_dict_updates(delta_batches, kDictBase, false);
  const auto full = bench_dict_updates(delta_batches, kDictBase, true);
  const double speedup = full.ns_per_entry / inc.ns_per_entry;

  Table td({"dictionary maintenance", "entries/s", "ns/entry", "SHA-256 ops"});
  td.add_row({"incremental (dirty-range)", Table::num(inc.entries_per_sec, 0),
              Table::num(inc.ns_per_entry, 0), Table::num(inc.hashes)});
  td.add_row({"full rebuild (seed)", Table::num(full.entries_per_sec, 0),
              Table::num(full.ns_per_entry, 0), Table::num(full.hashes)});
  std::printf("\n== dictionary Δ-batch updates (n=%llu, %zu x %zu) ==\n%s",
              (unsigned long long)kDictBase, kDictBatches, kDictBatchSize,
              td.render().c_str());
  std::printf("\nincremental speedup: %.1fx\n", speedup);

  // --- SHA-256 engine: ns/hash per backend on 64-input batches of
  // interior-node-sized (41-byte) messages — the exact shape the rebuild
  // hot loop feeds hash20_batch — plus the end-to-end full-rebuild win.
  const char* engine_active = crypto::sha256_engine().name;
  std::string engine_backends_json;
  double engine_scalar_ns = 0, engine_batch_speedup = 1.0;
  double rebuild_scalar_ms = 0, rebuild_engine_ms = 0, rebuild_speedup = 1.0;
  {
    constexpr std::size_t kBatch = 64;
    constexpr std::size_t kMsgLen = 41;
    constexpr std::size_t kIters = 20'000;  // 1.28M hashes per backend
    std::uint8_t msgs[kBatch][kMsgLen];
    ByteSpan spans[kBatch];
    crypto::Digest20 digests[kBatch];
    Rng erng(4242);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto bytes = erng.bytes(kMsgLen);
      std::copy(bytes.begin(), bytes.end(), msgs[i]);
      spans[i] = ByteSpan(msgs[i], kMsgLen);
    }
    const auto batch = std::span<const ByteSpan>(spans, kBatch);

    Table te({"sha256 engine (64-msg batches)", "ns/hash", "vs scalar"});
    for (const auto backend : crypto::sha256_available_backends()) {
      crypto::sha256_select_backend(backend);
      for (std::size_t w = 0; w < 200; ++w) {
        crypto::hash20_batch(batch, digests);  // warm-up
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t it = 0; it < kIters; ++it) {
        crypto::hash20_batch(batch, digests);
      }
      const double ns =
          ns_per_op(kBatch * kIters, std::chrono::steady_clock::now() - start);
      const char* name = crypto::sha256_backend_name(backend);
      if (backend == crypto::Sha256Backend::scalar) engine_scalar_ns = ns;
      const double vs = engine_scalar_ns / ns;
      if (vs > engine_batch_speedup) engine_batch_speedup = vs;
      te.add_row({name, Table::num(ns, 1), Table::num(vs, 1) + "x"});
      char row[128];
      std::snprintf(row, sizeof(row), "%s\"%s\": {\"ns_per_hash\": %.1f}",
                    engine_backends_json.empty() ? "" : ", ", name, ns);
      engine_backends_json += row;
    }
    crypto::sha256_reset_backend();

    // Full from-scratch rebuild of a 100k dictionary: scalar engine vs the
    // auto-detected one, identical work, roots asserted equal.
    dict::Dictionary rd;
    std::vector<cert::SerialNumber> base;
    base.reserve(kDictBase);
    for (std::uint64_t i = 0; i < kDictBase; ++i) {
      base.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
    }
    rd.insert(base);
    crypto::sha256_select_backend(crypto::Sha256Backend::scalar);
    auto start = std::chrono::steady_clock::now();
    rd.rebuild_all();
    const auto scalar_root = rd.root();
    rebuild_scalar_ms = ms_of(std::chrono::steady_clock::now() - start);
    crypto::sha256_reset_backend();
    start = std::chrono::steady_clock::now();
    rd.rebuild_all();
    const auto engine_root = rd.root();
    rebuild_engine_ms = ms_of(std::chrono::steady_clock::now() - start);
    rebuild_speedup = rebuild_scalar_ms / rebuild_engine_ms;
    if (scalar_root != engine_root) {
      std::printf("SHA-256 backends DIVERGED on the dictionary root!\n");
      return 1;
    }

    std::printf("\n%s", te.render().c_str());
    std::printf("active backend: %s; 100k full rebuild: %.2f ms scalar -> "
                "%.2f ms (%.1fx)\n",
                engine_active, rebuild_scalar_ms, rebuild_engine_ms,
                rebuild_speedup);
  }

  // --- recovery: RA restart via checkpoint + WAL tail vs a full feed
  // replay of the issuance history, on a 1M-entry dictionary disseminated
  // over 1k feed periods (1000 revocations each;
  // RITM_BENCH_RECOVERY_ENTRIES overrides the size — the nightly job runs
  // 10M). The durable RA checkpoints 10 periods before the "crash", so
  // restart = mmap the checkpoint's part and adopt its arenas (no
  // per-entry re-hash, no per-issuance signature) + replay the log tail;
  // the cold RA re-pulls, re-verifies, and re-applies every period. The
  // tail is 1% of the corpus (the same dirt fraction the
  // incremental-checkpoint gate uses): with background checkpoints every
  // ~30s a restart sees at most a few periods of tail, and tail replay cost
  // scales with dictionary size, not tail size alone. A second pass
  // restores the same state from the CDN cold-start object (streaming) and
  // from a checkpoint (mmap) with no tail to isolate the mmap restart win.
  std::uint64_t kRecEntries = 1'000'000;
  constexpr std::size_t kRecBatch = 1000;
  constexpr std::uint64_t kRecTailPeriods = 10;
  if (const char* env = std::getenv("RITM_BENCH_RECOVERY_ENTRIES")) {
    const std::uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) kRecEntries = v;
  }
  if (kRecEntries < 2 * kRecTailPeriods * kRecBatch) {
    kRecEntries = 2 * kRecTailPeriods * kRecBatch;
  }
  double recovery_replay_ms = 0, recovery_recover_ms = 0;
  double recovery_speedup = 0;
  double recovery_coldstart_restore_ms = 0, recovery_v2_restore_ms = 0;
  double recovery_mmap_speedup = 0;
  std::uint64_t recovery_periods = 0;
  std::uint64_t recovery_wal_replayed = 0;
  double checkpoint_stall_us = 0, checkpoint_max_stall_us = 0;
  std::uint64_t checkpoint_cycles = 0, checkpoint_snapshot_bytes = 0;
  {
    Rng rrng(7);
    auto rcdn = cdn::make_global_cdn(60'000);
    ca::DistributionPoint dp(&rcdn, kDelta);
    ca::CertificationAuthority::Config rcfg;
    rcfg.id = "CA-R";
    rcfg.delta = kDelta;
    ca::CertificationAuthority rca(rcfg, rrng, 1000);
    dp.register_ca(rca.id(), rca.public_key());

    UnixSeconds now_s = 1000;
    std::uint64_t next = 1;
    const auto publish_batches = [&](std::uint64_t upto_serial) {
      while (next <= upto_serial) {
        std::vector<cert::SerialNumber> batch;
        batch.reserve(kRecBatch);
        for (std::size_t i = 0; i < kRecBatch && next <= upto_serial; ++i) {
          batch.push_back(cert::SerialNumber::from_uint(next++ * 7, 5));
        }
        dp.submit(ca::FeedMessage::of(rca.revoke(std::move(batch), now_s)));
        dp.publish(from_seconds(now_s));
        now_s += kDelta;
      }
    };
    publish_batches(kRecEntries - kRecTailPeriods * kRecBatch);

    const std::string dir = "persist-bench";
    std::filesystem::remove_all(dir);
    const sim::GeoPoint here{40.7, -74.0};
    cdn::LocalCdn rcdn_rpc(&rcdn);

    // Durable RA: pull everything published so far, checkpoint, then pull
    // the 10-period tail that only reaches the WAL.
    ra::DictionaryStore dur_store;
    dur_store.register_ca(rca.id(), rca.public_key(), kDelta);
    ra::RaUpdater dur({.location = here}, &dur_store, &rcdn_rpc.rpc);
    dur.enable_persistence(dir);
    dur.pull_up_to(dp.next_period() - 1, from_seconds(now_s));
    dur.checkpoint();
    publish_batches(kRecEntries);
    recovery_periods = dp.next_period();
    dur.pull_up_to(recovery_periods - 1, from_seconds(now_s));
    dur_store.wal()->sync();  // the crash point

    // Restart A: checkpoint + WAL tail.
    ra::DictionaryStore rec_store;
    rec_store.register_ca(rca.id(), rca.public_key(), kDelta);
    ra::RaUpdater rec({.location = here}, &rec_store, &rcdn_rpc.rpc);
    auto start = std::chrono::steady_clock::now();
    const auto report = rec.recover(dir);
    recovery_recover_ms = ms_of(std::chrono::steady_clock::now() - start);
    recovery_wal_replayed = report.replayed;

    // Restart B: cold RA replaying the full feed.
    ra::DictionaryStore cold_store;
    cold_store.register_ca(rca.id(), rca.public_key(), kDelta);
    ra::RaUpdater cold({.location = here}, &cold_store, &rcdn_rpc.rpc);
    start = std::chrono::steady_clock::now();
    cold.pull_up_to(recovery_periods - 1, from_seconds(now_s));
    recovery_replay_ms = ms_of(std::chrono::steady_clock::now() - start);
    recovery_speedup = recovery_replay_ms / recovery_recover_ms;

    const bool equal =
        report.ok && rec_store.have_n(rca.id()) == kRecEntries &&
        cold_store.have_n(rca.id()) == kRecEntries &&
        rec_store.root_of(rca.id())->encode() ==
            cold_store.root_of(rca.id())->encode() &&
        rec.next_period() == recovery_periods;
    std::printf("\n== recovery (n=%llu over %llu periods, %llu-period WAL "
                "tail) ==\n",
                (unsigned long long)kRecEntries,
                (unsigned long long)recovery_periods,
                (unsigned long long)kRecTailPeriods);
    std::printf("full feed replay: %.1f ms; snapshot+WAL restart: %.1f ms "
                "(%.1fx, %llu WAL records replayed); states %s\n",
                recovery_replay_ms, recovery_recover_ms, recovery_speedup,
                (unsigned long long)recovery_wal_replayed,
                equal ? "identical" : "DIVERGED!");
    if (!equal) return 1;

    // Restore only, identical state, no WAL tail: the snapshot restart
    // mmaps the file and adopts the arenas in place; the reference is the
    // streaming restore that ships beside it — the CDN cold-start install
    // (decode the object, then bootstrap_replica deserializes and
    // re-hashes every entry).
    const std::string dir_v2 = "persist-bench-v2";
    std::filesystem::remove_all(dir_v2);
    cold_store.persist_to(dir_v2);
    const Bytes cold_start =
        rca.cold_start_object(recovery_periods - 1, now_s).encode();
    bool restore_equal = false;
    {
      ra::DictionaryStore cs_store;
      cs_store.register_ca(rca.id(), rca.public_key(), kDelta);
      start = std::chrono::steady_clock::now();
      const auto obj = ca::ColdStartObject::decode(ByteSpan(cold_start));
      const bool installed =
          obj && cs_store.bootstrap_replica(
                     rca.id(), ByteSpan(obj->dict_snapshot), obj->signed_root,
                     obj->freshness, now_s) == ra::ApplyResult::ok;
      recovery_coldstart_restore_ms =
          ms_of(std::chrono::steady_clock::now() - start);
      ra::DictionaryStore v2_store;
      v2_store.register_ca(rca.id(), rca.public_key(), kDelta);
      start = std::chrono::steady_clock::now();
      const auto v2_report = v2_store.recover_from(dir_v2);
      recovery_v2_restore_ms =
          ms_of(std::chrono::steady_clock::now() - start);
      recovery_mmap_speedup =
          recovery_coldstart_restore_ms / recovery_v2_restore_ms;
      restore_equal = installed && v2_report.ok &&
                      v2_store.have_n(rca.id()) == kRecEntries &&
                      cs_store.root_of(rca.id())->encode() ==
                          v2_store.root_of(rca.id())->encode();
    }
    std::printf("restore only: cold-start install %.1f ms -> snapshot mmap "
                "%.1f ms (%.1fx); states %s\n",
                recovery_coldstart_restore_ms, recovery_v2_restore_ms,
                recovery_mmap_speedup,
                restore_equal ? "identical" : "DIVERGED!");
    std::filesystem::remove_all(dir_v2);
    if (!restore_equal) return 1;

    // Background checkpointing stall: cycles run on the recovered replica
    // while feed pulls keep mutating it. The stall a cycle imposes on the
    // mutation path is its freeze window (the O(#CAs) arena-sharing copy),
    // not the off-lock checkpoint write.
    rec.start_checkpoints(0.001);
    std::uint64_t extra = 0;
    while (rec.checkpoint_stats().checkpoints < 3 && extra < 300) {
      ++extra;
      publish_batches(kRecEntries + extra * kRecBatch);
      rec.pull_up_to(dp.next_period() - 1, from_seconds(now_s));
    }
    rec.stop_checkpoints();
    const auto cs = rec.checkpoint_stats();
    checkpoint_cycles = cs.checkpoints;
    checkpoint_max_stall_us = double(cs.max_stall_us);
    checkpoint_stall_us =
        cs.checkpoints == 0 ? 0.0
                            : double(cs.total_stall_us) / double(cs.checkpoints);
    checkpoint_snapshot_bytes = cs.last_bytes;
    std::printf("\n== background checkpoint (n=%llu + %llu pulled periods "
                "during cycles) ==\n",
                (unsigned long long)kRecEntries, (unsigned long long)extra);
    std::printf("%llu cycles, freeze stall mean %.0f us / max %.0f us, "
                "last cycle wrote %.1f MiB (WAL resets %llu, skipped "
                "%llu)\n",
                (unsigned long long)checkpoint_cycles, checkpoint_stall_us,
                checkpoint_max_stall_us,
                double(checkpoint_snapshot_bytes) / (1024.0 * 1024.0),
                (unsigned long long)cs.wal_resets,
                (unsigned long long)cs.wal_reset_skipped);
    std::filesystem::remove_all(dir);
  }

  // --- incremental checkpoints: byte cost of re-checkpointing a 64-CA
  // store after 1% new entries land in one CA, relative to the full
  // checkpoint. Only that CA's part and the manifest are written again.
  double checkpoint_incr_ratio = 0;
  std::uint64_t checkpoint_full_bytes = 0, checkpoint_incr_bytes = 0;
  constexpr std::size_t kCkptCas = 64;
  {
    const std::uint64_t n = std::min<std::uint64_t>(kRecEntries, 256'000);
    const std::uint64_t per_ca = n / kCkptCas;
    Rng krng(11);
    ra::DictionaryStore kstore;
    std::vector<ca::CertificationAuthority> kcas;
    kcas.reserve(kCkptCas);
    for (std::size_t c = 0; c < kCkptCas; ++c) {
      ca::CertificationAuthority::Config kcfg;
      kcfg.id = "CA-K" + std::to_string(c);
      kcfg.delta = kDelta;
      kcas.emplace_back(kcfg, krng, 1000);
      kstore.register_ca(kcas.back().id(), kcas.back().public_key(), kDelta);
      std::vector<cert::SerialNumber> serials;
      serials.reserve(per_ca);
      for (std::uint64_t i = 0; i < per_ca; ++i) {
        serials.push_back(
            cert::SerialNumber::from_uint((c * per_ca + i) * 11 + 3, 5));
      }
      if (kstore.apply_issuance(kcas.back().revoke(std::move(serials), 1000),
                                1000) != ra::ApplyResult::ok) {
        return 1;
      }
    }
    const std::string kdir = "persist-bench-parts";
    std::filesystem::remove_all(kdir);
    const auto full_ck = kstore.persist_to(kdir);
    std::vector<cert::SerialNumber> dirt;
    dirt.reserve(n / 100);
    for (std::uint64_t i = 0; i < n / 100; ++i) {
      dirt.push_back(cert::SerialNumber::from_uint((n + i) * 11 + 3, 5));
    }
    // All the dirt in one CA.
    if (kstore.apply_issuance(kcas[7].revoke(std::move(dirt), 1010), 1010) !=
        ra::ApplyResult::ok) {
      return 1;
    }
    const auto incr_ck = kstore.persist_to(kdir);
    checkpoint_full_bytes = full_ck.bytes;
    checkpoint_incr_bytes = incr_ck.bytes;
    checkpoint_incr_ratio =
        double(checkpoint_incr_bytes) / double(checkpoint_full_bytes);
    std::printf("\n== incremental store checkpoint (%zu CAs, n=%llu, "
                "1%% new entries in one CA) ==\n",
                kCkptCas, (unsigned long long)n);
    std::printf("full %.1f MiB -> incremental %.2f MiB (%.3fx; %zu parts "
                "written, %zu reused)\n",
                double(checkpoint_full_bytes) / (1024.0 * 1024.0),
                double(checkpoint_incr_bytes) / (1024.0 * 1024.0),
                checkpoint_incr_ratio, incr_ck.parts_written,
                incr_ck.parts_reused);
    std::filesystem::remove_all(kdir);
  }

  // --- service envelope: single vs batched status RPS over loopback TCP
  // (the PR 5 headline). Every request rides the real wire protocol through
  // the epoll server; the batch method amortizes framing + syscalls over
  // kSvcBatch serials per envelope, fanned out over the status-byte cache.
  constexpr std::size_t kSvcBatch = 256;
  double svc_single_rps = 0, svc_batch_rps = 0, svc_batch_speedup = 0;
  double svc_inproc_single_rps = 0;
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kSingleOps = 20'000;
    constexpr std::size_t kBatchOps = 400;  // x kSvcBatch serials each
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }

    ra::RaService service(&store);
    svc::TcpServer server(&service, {.port = 0});
    svc::TcpClient tcp("127.0.0.1", server.port());
    svc::InProcessTransport inproc(&service);

    const auto run_single = [&](svc::Transport& t, std::size_t ops) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < ops; ++i) {
        svc::Request req;
        req.method = svc::Method::status_query;
        req.body = ra::encode_status_query(ca.id(),
                                           probes[i % kWorkingSet]);
        const auto r = t.call(req);
        if (!r.ok()) {
          std::printf("svc single query failed: %s\n",
                      svc::to_string(r.response.status));
          std::exit(1);
        }
      }
      return rate_per_sec(ops, std::chrono::steady_clock::now() - start);
    };

    // Warm the status cache + the connection, then measure.
    run_single(tcp, kWorkingSet);
    svc_single_rps = run_single(tcp, kSingleOps);
    svc_inproc_single_rps = run_single(inproc, kSingleOps);

    std::vector<cert::SerialNumber> batch(kSvcBatch);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kBatchOps; ++i) {
      for (std::size_t j = 0; j < kSvcBatch; ++j) {
        batch[j] = probes[(i * kSvcBatch + j) % kWorkingSet];
      }
      svc::Request req;
      req.method = svc::Method::status_batch;
      req.body = ra::encode_status_batch(ca.id(), batch);
      const auto r = tcp.call(req);
      if (!r.ok()) {
        std::printf("svc batch query failed: %s\n",
                    svc::to_string(r.response.status));
        return 1;
      }
    }
    svc_batch_rps = rate_per_sec(kBatchOps * kSvcBatch,
                                 std::chrono::steady_clock::now() - start);
    svc_batch_speedup = svc_batch_rps / svc_single_rps;

    Table ts({"svc status over loopback TCP", "serials/s", "vs single"});
    ts.add_row({"single-serial envelopes", Table::num(svc_single_rps, 0),
                "1.0x"});
    ts.add_row({"batched x" + std::to_string(kSvcBatch),
                Table::num(svc_batch_rps, 0),
                Table::num(svc_batch_speedup, 1) + "x"});
    std::printf("\n== service envelope (n=339,557 dictionary) ==\n%s",
                ts.render().c_str());
    std::printf("in-process single RPS: %.0f; server: %llu requests, "
                "%llu serials served\n",
                svc_inproc_single_rps,
                (unsigned long long)server.stats().requests,
                (unsigned long long)service.stats().serials_served);
  }

  // --- multi-reactor scaling: aggregate batched-status RPS as the reactor
  // count grows (the PR 7 headline). Each configuration runs max(2, R)
  // client threads, every thread pipelining depth-4 batched status queries
  // on its own connection against a server whose acceptor hands the
  // connections to its R reactors round-robin.
  // On a box with >= 8 cores the 4-reactor aggregate must clear 2.5x the
  // 1-reactor number (tools/check_bench.py enforces the floor; on smaller
  // machines the `cores` field documents why it cannot be measured).
  const unsigned mc_reactor_counts[4] = {1, 2, 4, 8};
  double mc_rps[4] = {0, 0, 0, 0};
  const unsigned mc_cores =
      std::max(1u, std::thread::hardware_concurrency());
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kMcBatch = 256;
    constexpr std::size_t kMcDepth = 4;       // pipelined window per client
    constexpr std::size_t kMcOpsPerThread = 40;  // batches per client thread
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }
    ra::RaService service(&store);

    Table tm({"multi-reactor batched status", "serials/s", "vs 1 reactor"});
    for (int ci = 0; ci < 4; ++ci) {
      const unsigned reactors = mc_reactor_counts[ci];
      svc::TcpServer server(&service, {.port = 0, .reactors = reactors});
      const unsigned n_threads = std::max(2u, reactors);

      std::atomic<bool> go{false};
      std::atomic<bool> failed{false};
      std::vector<std::thread> clients;
      for (unsigned t = 0; t < n_threads; ++t) {
        clients.emplace_back([&, t] {
          svc::TcpClient tcp("127.0.0.1", server.port(),
                             {.max_inflight = kMcDepth});
          std::vector<cert::SerialNumber> batch(kMcBatch);
          for (std::size_t j = 0; j < kMcBatch; ++j) {
            batch[j] = probes[(t * kMcBatch + j) % kWorkingSet];
          }
          svc::Request req;
          req.method = svc::Method::status_batch;
          req.body = ra::encode_status_batch(ca.id(), batch);
          while (!go.load(std::memory_order_acquire)) {
          }
          std::vector<std::uint64_t> window;
          for (std::size_t op = 0; op < kMcOpsPerThread; ++op) {
            if (window.size() == kMcDepth) {
              if (!tcp.collect(window.front()).ok()) {
                failed.store(true);
                return;
              }
              window.erase(window.begin());
            }
            std::uint64_t id = 0;
            if (tcp.submit(req, &id) != svc::Status::ok) {
              failed.store(true);
              return;
            }
            window.push_back(id);
          }
          for (const auto id : window) {
            if (!tcp.collect(id).ok()) {
              failed.store(true);
              return;
            }
          }
        });
      }
      const auto start = std::chrono::steady_clock::now();
      go.store(true, std::memory_order_release);
      for (auto& c : clients) c.join();
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (failed.load()) {
        std::printf("multicore scaling run failed (reactors=%u)\n", reactors);
        return 1;
      }
      mc_rps[ci] = rate_per_sec(
          std::size_t(n_threads) * kMcOpsPerThread * kMcBatch, elapsed);
      tm.add_row({std::to_string(reactors) + " reactors, " +
                      std::to_string(n_threads) + " clients",
                  Table::num(mc_rps[ci], 0),
                  Table::num(mc_rps[ci] / mc_rps[0], 2) + "x"});
    }
    std::printf("\n== multi-reactor scaling (%u hardware threads) ==\n%s",
                mc_cores, tm.render().c_str());
  }
  const double mc_factor_at_2 = mc_rps[1] / mc_rps[0];
  const double mc_factor_at_4 = mc_rps[2] / mc_rps[0];

  // --- resilience: compliant goodput under a misbehaving flood (the PR 6
  // headline). A compliant client runs batched status queries (well under
  // the per-client request quota) while flooder connections hammer
  // single-serial queries as fast as the socket allows. With quotas on,
  // flooders are throttled to cheap `overloaded` envelopes and the
  // compliant client keeps most of its quiet-server goodput; the no-quota
  // run shows what the flood costs without the protection. One quiet and
  // one flooded measurement make a round, and the ratio is the median over
  // alternating rounds: a single round's ratio spread 0.65-1.35 over 30
  // runs on a shared 4-vCPU VM, across the 0.70 floor. Every server here
  // runs one reactor, so the compliant client always shares the flooders'
  // reactor: with more, the acceptor's round-robin gives the client a
  // reactor of its own on any host with >= 3 cores, and neither the quota
  // nor its absence would show in its goodput.
  constexpr std::size_t kResBatch = 256;
  constexpr int kResFlooders = 2;
  constexpr std::size_t kResRounds = 5;
  double res_baseline_rps = 0, res_quota_rps = 0, res_noquota_rps = 0;
  double res_goodput_ratio = 0, res_goodput_min = 0, res_goodput_max = 0;
  unsigned long long res_refused = 0;
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kResBatches = 120;  // x kResBatch serials each
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }

    ra::RaService service(&store);

    // Flooders pipeline pre-encoded single-serial queries over a raw
    // nonblocking socket — no request/response ping-pong, so the server
    // sees a saturating byte stream, not a self-limiting polite client.
    Bytes flood_blob;
    for (std::size_t j = 0; j < 64; ++j) {
      svc::Request req;
      req.method = svc::Method::status_query;
      req.request_id = j;
      req.body = ra::encode_status_query(ca.id(), probes[j % kWorkingSet]);
      const Bytes frame = svc::encode_frame(req);
      flood_blob.insert(flood_blob.end(), frame.begin(), frame.end());
    }

    const auto measure = [&](const svc::TcpServerOptions& opts, int flooders,
                             unsigned long long* refused) {
      svc::TcpServer server(&service, opts);
      std::atomic<bool> stop{false};
      std::vector<std::thread> flood;
      flood.reserve(flooders);
      for (int f = 0; f < flooders; ++f) {
        flood.emplace_back([&] {
          const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
          if (fd < 0) return;
          sockaddr_in addr{};
          addr.sin_family = AF_INET;
          addr.sin_port = htons(server.port());
          ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
          if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) != 0) {
            ::close(fd);
            return;
          }
          std::size_t off = 0;
          std::uint8_t sink[64 * 1024];
          while (!stop.load(std::memory_order_relaxed)) {
            const ssize_t n =
                ::send(fd, flood_blob.data() + off, flood_blob.size() - off,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n > 0) off = (off + std::size_t(n)) % flood_blob.size();
            ssize_t r;
            while ((r = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT)) > 0) {
            }
            if (r == 0) break;  // server closed the connection
            if (n < 0) {  // send buffer full (server paused us): wait a bit
              pollfd p{fd, POLLIN | POLLOUT, 0};
              ::poll(&p, 1, 1);
            }
          }
          ::close(fd);
        });
      }

      svc::TcpClient good("127.0.0.1", server.port());
      std::vector<cert::SerialNumber> batch(kResBatch);
      const auto do_batch = [&](std::size_t i) {
        for (std::size_t j = 0; j < kResBatch; ++j) {
          batch[j] = probes[(i * kResBatch + j) % kWorkingSet];
        }
        svc::Request req;
        req.method = svc::Method::status_batch;
        req.body = ra::encode_status_batch(ca.id(), batch);
        const auto r = good.call(req);
        if (!r.ok()) {
          std::printf("resilience: compliant batch failed: %s\n",
                      svc::to_string(r.response.status));
          std::exit(1);
        }
      };

      // Let the flood ramp up, warm the connection + status cache.
      if (flooders > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      do_batch(0);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kResBatches; ++i) do_batch(i);
      const double rps = rate_per_sec(
          kResBatches * kResBatch, std::chrono::steady_clock::now() - start);
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : flood) t.join();
      if (refused) *refused = server.stats().throttled;
      return rps;
    };

    // A compliant x256 batch client runs at ~2k envelopes/s, so a 5k req/s
    // per-connection quota never touches it, while a pipelining flooder
    // blows through its bucket instantly and spends the rest of each
    // retry_after window paused (reads parked, sends backing up).
    svc::TcpServerOptions quota{.port = 0, .reactors = 1};
    quota.requests_per_sec = 5'000.0;
    quota.burst_requests = 64;
    quota.retry_after_ms = 250;  // park offenders longer between refusals

    std::vector<double> quiet, flooded, ratios;
    std::vector<unsigned long long> refused;
    for (std::size_t r = 0; r < kResRounds; ++r) {
      quiet.push_back(measure(quota, 0, nullptr));
      refused.push_back(0);
      flooded.push_back(measure(quota, kResFlooders, &refused.back()));
      ratios.push_back(flooded.back() / quiet.back());
    }
    res_noquota_rps =
        measure({.port = 0, .reactors = 1}, kResFlooders, nullptr);
    const auto median = [](auto v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    res_baseline_rps = median(quiet);
    res_quota_rps = median(flooded);
    res_refused = median(refused);
    res_goodput_ratio = median(ratios);
    res_goodput_min = *std::min_element(ratios.begin(), ratios.end());
    res_goodput_max = *std::max_element(ratios.begin(), ratios.end());
    const double noquota_ratio = res_noquota_rps / res_baseline_rps;

    Table tq({"compliant goodput (batch x" + std::to_string(kResBatch) + ")",
              "serials/s", "vs quiet"});
    tq.add_row({"quiet server, quota on", Table::num(res_baseline_rps, 0),
                "1.00x"});
    tq.add_row({std::to_string(kResFlooders) + " flooders, quota on",
                Table::num(res_quota_rps, 0),
                Table::num(res_goodput_ratio, 2) + "x (" +
                    Table::num(res_goodput_min, 2) + "-" +
                    Table::num(res_goodput_max, 2) + ")"});
    tq.add_row({std::to_string(kResFlooders) + " flooders, quota off",
                Table::num(res_noquota_rps, 0),
                Table::num(noquota_ratio, 2) + "x"});
    std::printf("\n== resilience: per-client quotas under flood (median of "
                "%zu rounds; ratio range in brackets) ==\n%s",
                kResRounds, tq.render().c_str());
    std::printf("quota run: %llu flood requests refused (overloaded + "
                "retry_after hint; median round)\n",
                res_refused);
  }

  // Gossip set reconciliation (PR 8): 100 RAs in the anti-entropy
  // maintenance posture — every pool holds the full signed-root history
  // except a staggered recent tail and a couple of scattered holes — run to
  // convergence with the digest/pull path (reconcile_over). The reference
  // is what a full-list exchange of every contact would have moved: before
  // each contact, the caller's whole root list out and the peer's whole
  // list back (plus an empty evidence count), each in one frame. A
  // full-list exchange also leaves a contacted pair with the pairwise
  // union, so the counterfactual follows the same schedule and converges
  // in the same number of rounds.
  constexpr int kMeshRas = 100;
  constexpr std::size_t kMeshRoots = 256;
  constexpr std::size_t kMeshTail = 48;
  double mesh_bytes_ratio = 0;
  unsigned long long mesh_rounds = 0, mesh_digest_bytes = 0,
                     mesh_full_bytes = 0;
  {
    ca::CertificationAuthority::Config gcfg;
    gcfg.id = "CA-G";
    gcfg.delta = kDelta;
    Rng grng(23);
    ca::CertificationAuthority gossip_ca(gcfg, grng, 1000);
    std::vector<dict::SignedRoot> history;
    history.reserve(kMeshRoots);
    for (std::size_t i = 0; i < kMeshRoots; ++i) {
      history.push_back(
          gossip_ca.revoke({cert::SerialNumber::from_uint(i + 1, 4)},
                           1000 + 10 * i)
              .signed_root);
    }
    cert::TrustStore keys;
    keys.add(gossip_ca.id(), gossip_ca.public_key());
    ra::DictionaryStore mesh_store;
    std::vector<std::unique_ptr<ra::GossipPool>> pools;
    std::vector<std::unique_ptr<ra::RaService>> services;
    std::vector<std::unique_ptr<svc::InProcessTransport>> rpcs;
    Rng rng(4242);
    for (int r = 0; r < kMeshRas; ++r) {
      pools.push_back(std::make_unique<ra::GossipPool>(&keys));
      services.push_back(
          std::make_unique<ra::RaService>(&mesh_store, pools.back().get()));
      rpcs.push_back(
          std::make_unique<svc::InProcessTransport>(services.back().get()));
      const std::size_t cursor =
          kMeshRoots - kMeshTail + rng.uniform(kMeshTail + 1);
      const std::size_t hole1 = rng.uniform(kMeshRoots);
      const std::size_t hole2 = rng.uniform(kMeshRoots);
      for (std::size_t i = 0; i < cursor; ++i) {
        if (i == hole1 || i == hole2) continue;
        pools[r]->observe(history[i]);
      }
    }
    for (int round = 0; round < 32; ++round) {
      ++mesh_rounds;
      for (int r = 0; r < kMeshRas; ++r) {
        int peer;
        do {
          peer = int(rng.uniform(kMeshRas));
        } while (peer == r);
        mesh_full_bytes +=
            2 * svc::kFrameOverheadBytes +
            ra::encode_gossip_roots(pools[r]->roots()).size() +
            ra::encode_gossip_roots(pools[peer]->roots()).size() + 4;
        (void)pools[r]->reconcile_over(*rpcs[peer]);
      }
      bool converged = true;
      for (int r = 0; r < kMeshRas && converged; ++r) {
        converged = pools[r]->size() == kMeshRoots;
      }
      if (converged) break;
    }
    for (int r = 0; r < kMeshRas; ++r) {
      mesh_digest_bytes +=
          pools[r]->stats().bytes_sent + pools[r]->stats().bytes_received;
    }
    mesh_bytes_ratio = mesh_full_bytes > 0
                           ? double(mesh_digest_bytes) / mesh_full_bytes
                           : 0;

    Table tg({"gossip to convergence (" + std::to_string(kMeshRas) + " RAs, " +
                  std::to_string(kMeshRoots) + " roots)",
              "rounds", "bytes moved"});
    tg.add_row({"digest + pull (gossip_digest/gossip_pull)",
                std::to_string(mesh_rounds),
                Table::num(double(mesh_digest_bytes) / 1024.0, 1) + " KiB"});
    tg.add_row({"full list of every contact (counterfactual)",
                std::to_string(mesh_rounds),
                Table::num(double(mesh_full_bytes) / 1024.0, 1) + " KiB"});
    std::printf("\n== gossip set reconciliation at mesh scale ==\n%s",
                tg.render().c_str());
    std::printf("digest path moved %.3fx the full-list bytes\n",
                mesh_bytes_ratio);
  }

  // Internet-scale scenario: the heartbleed preset (flash crowd at period
  // 12, 120k mass revocations in one period) driven through the real
  // envelope dispatch in lockstep. CI runs it at RITM_BENCH_SCENARIO_FLOWS
  // (default the full 1M); the gates below watch the attack window the
  // paper bounds at 2∆ and the status-cache hit rate under Zipf traffic.
  scenario::ScenarioReport sc;
  {
    scenario::ScenarioSpec sc_spec = scenario::ScenarioSpec::heartbleed();
    if (const char* env = std::getenv("RITM_BENCH_SCENARIO_FLOWS")) {
      sc_spec.flows = std::strtoull(env, nullptr, 10);
    }
    scenario::ScenarioEngine sc_engine(sc_spec);
    sc = sc_engine.run();

    Table ts({"scenario '" + sc.name + "' (" + std::to_string(sc.drivers) +
                  " drivers, lockstep, inproc)",
              "value"});
    ts.add_row({"flows", std::to_string(sc.flows)});
    ts.add_row({"flows/s", Table::num(sc.flows_per_s, 0)});
    ts.add_row({"revoked verdicts", std::to_string(sc.revoked)});
    ts.add_row({"wrong verdicts", std::to_string(sc.wrong_verdict)});
    ts.add_row({"attack window p50/p99/p999",
                Table::num(sc.attack_window_p50_s, 2) + " / " +
                    Table::num(sc.attack_window_p99_s, 2) + " / " +
                    Table::num(sc.attack_window_p999_s, 2) + " s"});
    ts.add_row({"staleness p50/p99",
                std::to_string(sc.staleness_p50_ms) + " / " +
                    std::to_string(sc.staleness_p99_ms) + " ms"});
    ts.add_row({"status-cache hit rate", Table::num(sc.cache_hit_rate, 4)});
    ts.add_row({"latency p99", std::to_string(sc.latency_p99_us) + " us"});
    ts.add_row({"bytes on wire",
                std::to_string(sc.bytes_sent + sc.bytes_received)});
    ts.add_row({"report digest", sc.digest()});
    std::printf("\n== internet-scale scenario (trace-driven, mass-revocation "
                "day) ==\n%s", ts.render().c_str());
  }

  // Machine-readable trajectory for future PRs.
  if (std::FILE* f = std::fopen("BENCH_throughput.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  %s,\n"
                 "  \"ra_non_tls_packets_per_sec\": %.0f,\n"
                 "  \"ra_handshakes_per_sec\": %.0f,\n"
                 "  \"client_validations_per_sec\": %.0f,\n"
                 "  \"client_validation\": {\n"
                 "    \"validations\": %zu,\n"
                 "    \"cold_sig_verifications\": %llu,\n"
                 "    \"construct_ns\": %.1f,\n"
                 "    \"warm_presence_per_sec\": %.0f,\n"
                 "    \"warm_absence_per_sec\": %.0f,\n"
                 "    \"warm_sig_verifications\": %llu\n"
                 "  },\n"
                 "  \"status_cache\": {\n"
                 "    \"uncached_ns_per_status\": %.1f,\n"
                 "    \"warm_ns_per_status\": %.1f,\n"
                 "    \"speedup\": %.1f,\n"
                 "    \"warm_misses\": %llu\n"
                 "  },\n"
                 "  \"multi_ca_handshakes\": {\n"
                 "    \"cas\": %zu,\n"
                 "    \"entries_per_ca\": %llu,\n"
                 "    \"cold_per_sec\": %.0f,\n"
                 "    \"warm_per_sec\": %.0f,\n"
                 "    \"cache_hit_rate\": %.4f,\n"
                 "    \"cache_invalidations\": %llu\n"
                 "  },\n"
                 "  \"dict_update\": {\n"
                 "    \"base_entries\": %llu,\n"
                 "    \"batches\": %zu,\n"
                 "    \"batch_size\": %zu,\n"
                 "    \"incremental\": {\"entries_per_sec\": %.0f, "
                 "\"ns_per_entry\": %.1f, \"sha256_ops\": %llu},\n"
                 "    \"full_rebuild\": {\"entries_per_sec\": %.0f, "
                 "\"ns_per_entry\": %.1f, \"sha256_ops\": %llu},\n"
                 "    \"speedup\": %.2f\n"
                 "  },\n"
                 "  \"sha256_engine\": {\n"
                 "    \"active\": \"%s\",\n"
                 "    \"batch_size\": 64,\n"
                 "    \"message_bytes\": 41,\n"
                 "    \"backends\": {%s},\n"
                 "    \"batch64_speedup\": %.2f,\n"
                 "    \"full_rebuild_scalar_ms\": %.2f,\n"
                 "    \"full_rebuild_ms\": %.2f,\n"
                 "    \"full_rebuild_speedup\": %.2f\n"
                 "  },\n"
                 "  \"recovery\": {\n"
                 "    \"entries\": %llu,\n"
                 "    \"feed_periods\": %llu,\n"
                 "    \"wal_tail_periods\": %llu,\n"
                 "    \"full_replay_ms\": %.1f,\n"
                 "    \"snapshot_wal_ms\": %.1f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"wal_replayed\": %llu,\n"
                 "    \"coldstart_restore_ms\": %.1f,\n"
                 "    \"v2_restore_ms\": %.1f,\n"
                 "    \"mmap_speedup\": %.2f\n"
                 "  },\n"
                 "  \"checkpoint\": {\n"
                 "    \"cycles\": %llu,\n"
                 "    \"stall_us\": %.1f,\n"
                 "    \"max_stall_us\": %.1f,\n"
                 "    \"snapshot_bytes\": %llu,\n"
                 "    \"shards\": %zu,\n"
                 "    \"full_bytes\": %llu,\n"
                 "    \"incremental_bytes\": %llu,\n"
                 "    \"incremental_bytes_ratio\": %.4f\n"
                 "  },\n"
                 "  \"svc_status\": {\n"
                 "    \"batch_size\": %zu,\n"
                 "    \"tcp_single_rps\": %.0f,\n"
                 "    \"tcp_batch_rps\": %.0f,\n"
                 "    \"inproc_single_rps\": %.0f,\n"
                 "    \"batch_speedup\": %.2f,\n"
                 "    \"multicore_scaling\": {\n"
                 "      \"cores\": %u,\n"
                 "      \"rps_1\": %.0f,\n"
                 "      \"rps_2\": %.0f,\n"
                 "      \"rps_4\": %.0f,\n"
                 "      \"rps_8\": %.0f,\n"
                 "      \"factor_at_2\": %.2f,\n"
                 "      \"factor_at_4\": %.2f\n"
                 "    }\n"
                 "  },\n"
                 "  \"svc_resilience\": {\n"
                 "    \"batch_size\": %zu,\n"
                 "    \"flooders\": %d,\n"
                 "    \"baseline_goodput_rps\": %.0f,\n"
                 "    \"flood_goodput_quota_rps\": %.0f,\n"
                 "    \"flood_goodput_noquota_rps\": %.0f,\n"
                 "    \"flood_refused\": %llu,\n"
                 "    \"rounds\": %zu,\n"
                 "    \"goodput_ratio\": %.3f,\n"
                 "    \"goodput_ratio_min\": %.3f,\n"
                 "    \"goodput_ratio_max\": %.3f\n"
                 "  },\n"
                 "  \"gossip_mesh\": {\n"
                 "    \"ras\": %d,\n"
                 "    \"roots\": %zu,\n"
                 "    \"rounds_to_convergence\": %llu,\n"
                 "    \"digest_bytes\": %llu,\n"
                 "    \"full_list_bytes\": %llu,\n"
                 "    \"bytes_ratio\": %.4f\n"
                 "  },\n",
                 bench::context_json().c_str(), non_tls_rate, handshake_rate,
                 validation_rate, kValidations,
                 cold_verifications, client_construct_ns,
                 warm_presence_rate, warm_absence_rate, warm_verifications,
                 status_cold_ns, status_warm_ns, status_speedup,
                 (unsigned long long)status_warm_misses, kCas,
                 (unsigned long long)kEntriesPerCa, multi_cold_rate,
                 multi_warm_rate, multi_hit_rate,
                 (unsigned long long)multi_invalidations,
                 (unsigned long long)kDictBase, kDictBatches, kDictBatchSize,
                 inc.entries_per_sec, inc.ns_per_entry,
                 (unsigned long long)inc.hashes, full.entries_per_sec,
                 full.ns_per_entry, (unsigned long long)full.hashes, speedup,
                 engine_active, engine_backends_json.c_str(),
                 engine_batch_speedup, rebuild_scalar_ms, rebuild_engine_ms,
                 rebuild_speedup, (unsigned long long)kRecEntries,
                 (unsigned long long)recovery_periods,
                 (unsigned long long)kRecTailPeriods, recovery_replay_ms,
                 recovery_recover_ms, recovery_speedup,
                 (unsigned long long)recovery_wal_replayed,
                 recovery_coldstart_restore_ms, recovery_v2_restore_ms,
                 recovery_mmap_speedup,
                 (unsigned long long)checkpoint_cycles, checkpoint_stall_us,
                 checkpoint_max_stall_us,
                 (unsigned long long)checkpoint_snapshot_bytes, kCkptCas,
                 (unsigned long long)checkpoint_full_bytes,
                 (unsigned long long)checkpoint_incr_bytes,
                 checkpoint_incr_ratio, kSvcBatch,
                 svc_single_rps, svc_batch_rps, svc_inproc_single_rps,
                 svc_batch_speedup, mc_cores, mc_rps[0], mc_rps[1],
                 mc_rps[2], mc_rps[3], mc_factor_at_2, mc_factor_at_4,
                 kResBatch, kResFlooders,
                 res_baseline_rps, res_quota_rps, res_noquota_rps,
                 res_refused, kResRounds, res_goodput_ratio, res_goodput_min,
                 res_goodput_max, kMeshRas, kMeshRoots,
                 mesh_rounds, mesh_digest_bytes, mesh_full_bytes,
                 mesh_bytes_ratio);
    std::fprintf(f,
                 "  \"scenario\": {\n"
                 "    \"preset\": \"%s\",\n"
                 "    \"flows\": %llu,\n"
                 "    \"drivers\": %u,\n"
                 "    \"revoked\": %llu,\n"
                 "    \"wrong_verdict\": %llu,\n"
                 "    \"rpc_errors\": %llu,\n"
                 "    \"attack_window_p50_s\": %.3f,\n"
                 "    \"attack_window_p99_s\": %.3f,\n"
                 "    \"attack_window_p999_s\": %.3f,\n"
                 "    \"staleness_p50_ms\": %llu,\n"
                 "    \"staleness_p99_ms\": %llu,\n"
                 "    \"cache_hit_rate\": %.4f,\n"
                 "    \"latency_p99_us\": %llu,\n"
                 "    \"bytes_on_wire\": %llu,\n"
                 "    \"flows_per_s\": %.0f,\n"
                 "    \"report_digest\": \"%s\"\n"
                 "  }\n"
                 "}\n",
                 sc.name.c_str(), (unsigned long long)sc.flows, sc.drivers,
                 (unsigned long long)sc.revoked,
                 (unsigned long long)sc.wrong_verdict,
                 (unsigned long long)sc.rpc_errors, sc.attack_window_p50_s,
                 sc.attack_window_p99_s, sc.attack_window_p999_s,
                 (unsigned long long)sc.staleness_p50_ms,
                 (unsigned long long)sc.staleness_p99_ms, sc.cache_hit_rate,
                 (unsigned long long)sc.latency_p99_us,
                 (unsigned long long)(sc.bytes_sent + sc.bytes_received),
                 sc.flows_per_s, sc.digest().c_str());
    std::fclose(f);
    std::printf("wrote BENCH_throughput.json\n");
  }
  if (status_speedup < 3.0) {
    std::printf("WARNING: warm-cache status path only %.1fx faster than "
                "uncached (gate floor: 3x)\n", status_speedup);
  }
  if (engine_batch_speedup < 2.0 &&
      crypto::sha256_available_backends().size() > 1) {
    std::printf("WARNING: best SHA-256 backend only %.1fx faster than scalar "
                "on 64-input batches (acceptance floor: 2x)\n",
                engine_batch_speedup);
  }
  if (recovery_speedup < 3.0) {
    std::printf("WARNING: snapshot+WAL restart only %.1fx faster than full "
                "feed replay (gate floor: 3x)\n", recovery_speedup);
  }
  if (recovery_mmap_speedup < 3.0) {
    std::printf("WARNING: snapshot mmap restore only %.1fx faster than the "
                "cold-start install (acceptance floor: 3x)\n",
                recovery_mmap_speedup);
  }
  if (checkpoint_stall_us > 5000.0) {
    std::printf("WARNING: background checkpoint freeze stall averaged "
                "%.0f us (acceptance ceiling: 5000 us)\n",
                checkpoint_stall_us);
  }
  if (checkpoint_incr_ratio > 0.2) {
    std::printf("WARNING: incremental store checkpoint wrote %.2fx the full "
                "checkpoint bytes at 1%% dirt (acceptance ceiling: 0.2x)\n",
                checkpoint_incr_ratio);
  }
  if (svc_batch_speedup < 3.0) {
    std::printf("WARNING: batched status envelopes only %.1fx the RPS of "
                "single-serial requests (acceptance floor: 3x)\n",
                svc_batch_speedup);
  }
  if (mc_cores >= 8 && mc_factor_at_4 < 2.5) {
    std::printf("WARNING: 4-reactor aggregate RPS only %.2fx the 1-reactor "
                "number on %u cores (acceptance floor: 2.5x)\n",
                mc_factor_at_4, mc_cores);
  }
  if (res_goodput_ratio < 0.7) {
    std::printf("WARNING: compliant goodput under flood only %.2fx of the "
                "quiet baseline with quotas on (median of %zu rounds; "
                "acceptance floor: 0.7)\n",
                res_goodput_ratio, kResRounds);
  }
  if (mesh_bytes_ratio > 0.2) {
    std::printf("WARNING: digest gossip moved %.2fx the full-list bytes at "
                "%d RAs (acceptance ceiling: 0.2x)\n",
                mesh_bytes_ratio, kMeshRas);
  }
  if (mesh_rounds > 12) {
    std::printf("WARNING: gossip mesh took %llu rounds to converge "
                "(acceptance ceiling: 12)\n", mesh_rounds);
  }
  if (sc.wrong_verdict != 0 || sc.decode_errors != 0) {
    std::printf("WARNING: scenario served %llu wrong verdicts and %llu "
                "undecodable statuses (acceptance: 0)\n",
                (unsigned long long)sc.wrong_verdict,
                (unsigned long long)sc.decode_errors);
  }
  if (sc.attack_window_p99_s > 25.0) {
    std::printf("WARNING: scenario attack window p99 %.2f s exceeds the "
                "2*delta+margin bound (acceptance ceiling: 25 s)\n",
                sc.attack_window_p99_s);
  }
  if (sc.cache_hit_rate < 0.5) {
    std::printf("WARNING: scenario status-cache hit rate %.3f under Zipf "
                "traffic (acceptance floor: 0.5)\n", sc.cache_hit_rate);
  }
  return 0;
}
