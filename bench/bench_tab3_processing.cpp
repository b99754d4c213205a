// Tab. III: detailed processing time of each RITM operation, measured with
// google-benchmark on the real implementations:
//
//   RA     TLS detection (DPI)            (paper, Python: avg  2.93 us)
//   RA     Certificate parsing (DPI)      (paper, Python: avg 19.95 us)
//   RA     Proof construction             (paper, Python: avg 67.17 us)
//   Client Proof validation               (paper, Python: avg 54.51 us)
//   Client Sig. + freshness validation    (paper, Python: avg 197.27 us)
//   CA     insert 1000 revocations        (paper, Python: avg  2.93 ms)
//   RA     update 1000 revocations        (paper, Python: avg  2.84 ms)
//
// The dictionary used is the paper's largest CRL: 339,557 revocations.
// Absolute numbers differ (C++ vs Python 2.7); the ordering and the
// "RITM adds <1% to a ~30 ms TLS handshake" conclusion are the targets.
#include <benchmark/benchmark.h>

#include <memory>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/dictionary.hpp"
#include "ra/dpi.hpp"
#include "tls/session.hpp"

using namespace ritm;

namespace {

constexpr std::uint64_t kLargestCrl = 339'557;
constexpr UnixSeconds kDelta = 10;

/// Shared expensive state, built once.
struct Env {
  Env() : rng(7) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-1";
    cfg.delta = kDelta;
    ca = std::make_unique<ca::CertificationAuthority>(cfg, rng, 1000);

    std::vector<cert::SerialNumber> serials;
    serials.reserve(kLargestCrl);
    for (std::uint64_t i = 0; i < kLargestCrl; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
    }
    issuance = ca->revoke(std::move(serials), 1000);

    // Certificate chain of length 3 (the paper's most common chain length).
    crypto::Seed s{};
    s.fill(3);
    const auto kp = crypto::keypair_from_seed(s);
    cert::Certificate leaf = ca->issue("www.example.com", kp.public_key, 0,
                                       2'000'000'000);
    // The leaf serial is NOT revoked (numbering uses i*7+1; leaf has a small
    // sequential serial that may collide — pick an explicitly absent one).
    leaf.serial = cert::SerialNumber::from_uint(2, 4);  // 2 mod 7 != 1
    chain = {leaf,
             ca->issue("INT-CA", kp.public_key, 0, 2'000'000'000),
             ca->issue("ROOT-CA", kp.public_key, 0, 2'000'000'000)};

    const sim::Endpoint ce{sim::Endpoint::parse_ip("10.1.2.3"), 5555};
    const sim::Endpoint se{sim::Endpoint::parse_ip("10.4.5.6"), 443};
    server_flight = tls::make_server_flight(ce, se, rng, chain, false);
    non_tls_payload = rng.bytes(512);
    non_tls_payload[0] = 'G';  // definitely not a TLS content type

    status = ca->status_for(leaf.serial, 1000);
    status_bytes = status->encode();
    revoked_serial = cert::SerialNumber::from_uint(7 * 1000 + 1, 4);
    presence_bytes = ca->status_for(revoked_serial, 1000).encode();
    roots.add(ca->id(), ca->public_key());
  }

  Rng rng;
  std::unique_ptr<ca::CertificationAuthority> ca;
  dict::RevocationIssuance issuance;
  cert::Chain chain;
  sim::Packet server_flight;
  Bytes non_tls_payload;
  std::optional<dict::RevocationStatus> status;  // absence, two neighbours
  Bytes status_bytes;                             // its encoding
  cert::SerialNumber revoked_serial;
  Bytes presence_bytes;  // a presence status for revoked_serial
  cert::TrustStore roots;
};

Env& env() {
  static Env e;
  return e;
}

void BM_RA_TlsDetection_NonTls(benchmark::State& state) {
  const auto& payload = env().non_tls_payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ra::is_tls(ByteSpan(payload)));
  }
}
BENCHMARK(BM_RA_TlsDetection_NonTls);

void BM_RA_TlsDetection_Tls(benchmark::State& state) {
  const auto& payload = env().server_flight.payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ra::is_tls(ByteSpan(payload)));
  }
}
BENCHMARK(BM_RA_TlsDetection_Tls);

void BM_RA_CertificateParsing(benchmark::State& state) {
  const auto& payload = env().server_flight.payload;
  for (auto _ : state) {
    const auto in = ra::inspect(ByteSpan(payload));
    benchmark::DoNotOptimize(in.chain);
  }
}
BENCHMARK(BM_RA_CertificateParsing);

void BM_RA_ProofConstruction(benchmark::State& state) {
  const auto& dict = env().ca->dictionary();
  const auto serial = env().chain.front().serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.prove(serial));
  }
}
BENCHMARK(BM_RA_ProofConstruction);

void BM_Client_ProofValidation(benchmark::State& state) {
  const auto& status = *env().status;
  const auto serial = env().chain.front().serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict::verify_proof(status.proof, serial,
                                                status.signed_root.root,
                                                status.signed_root.n));
  }
}
BENCHMARK(BM_Client_ProofValidation);

void BM_Client_StatusDecode(benchmark::State& state) {
  // The owning decode of the absence status (perfbench's checker runs it on
  // every served status).
  const auto& bytes = env().status_bytes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict::RevocationStatus::decode(ByteSpan(bytes)));
  }
}
BENCHMARK(BM_Client_StatusDecode);

void BM_Client_SigAndFreshnessValidation(benchmark::State& state) {
  const auto& status = *env().status;
  const auto key = *env().roots.find("CA-1");
  for (auto _ : state) {
    bool ok = status.signed_root.verify(key);
    ok &= crypto::HashChain::verify(status.freshness, 0,
                                    status.signed_root.freshness_anchor);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Client_SigAndFreshnessValidation);

constexpr client::RitmClient::Config kClientConfig{
    .delta = kDelta, .expect_ritm = true,
    .require_server_confirmation = false};

void BM_Client_FullStatusValidation(benchmark::State& state) {
  // End-to-end step 5: what the client runs per handshake. Each iteration
  // gets a fresh client, so its verified-root memo is cold and the row
  // keeps the signature check (BM_Client_Construct times the construction).
  const auto& bytes = env().status_bytes;
  const auto& leaf = env().chain.front();
  std::uint64_t verifications = 0;
  for (auto _ : state) {
    const client::RitmClient client(kClientConfig, env().roots);
    benchmark::DoNotOptimize(
        client.validate_status_bytes(ByteSpan(bytes), leaf, 1000));
    verifications += client.root_memo_stats().verifications;
  }
  state.counters["sig_verifications"] = benchmark::Counter(
      static_cast<double>(verifications), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Client_FullStatusValidation);

/// The served bytes of one status through one client whose memo already
/// holds its signed root: a repeat of a root skips only the Ed25519
/// verification, and the status is validated in place.
void warm_status_bytes(benchmark::State& state, const Bytes& bytes,
                       const cert::Certificate& leaf) {
  const client::RitmClient client(kClientConfig, env().roots);
  benchmark::DoNotOptimize(
      client.validate_status_bytes(ByteSpan(bytes), leaf, 1000));
  const auto before = client.root_memo_stats().verifications;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.validate_status_bytes(ByteSpan(bytes), leaf, 1000));
  }
  state.counters["sig_verifications"] = benchmark::Counter(
      static_cast<double>(client.root_memo_stats().verifications - before),
      benchmark::Counter::kAvgIterations);
}

void BM_Client_FullStatusValidationWarmPresence(benchmark::State& state) {
  cert::Certificate leaf = env().chain.front();
  leaf.serial = env().revoked_serial;
  warm_status_bytes(state, env().presence_bytes, leaf);
}
BENCHMARK(BM_Client_FullStatusValidationWarmPresence);

void BM_Client_FullStatusValidationWarmAbsence(benchmark::State& state) {
  warm_status_bytes(state, env().status_bytes, env().chain.front());
}
BENCHMARK(BM_Client_FullStatusValidationWarmAbsence);

void BM_Client_Construct(benchmark::State& state) {
  // What the cold row pays on top of a validation.
  for (auto _ : state) {
    const client::RitmClient client(kClientConfig, env().roots);
    benchmark::DoNotOptimize(client.roots().size());
  }
}
BENCHMARK(BM_Client_Construct);

void BM_CA_Insert1000(benchmark::State& state) {
  // Fig. 2 insert: 1000 new revocations into an existing dictionary,
  // including the Merkle rebuild (paper: 2.93 ms avg).
  std::vector<cert::SerialNumber> batch;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    batch.push_back(cert::SerialNumber::from_uint(1'000'000 + i, 4));
  }
  for (auto _ : state) {
    state.PauseTiming();
    dict::Dictionary d;
    std::vector<cert::SerialNumber> base;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      base.push_back(cert::SerialNumber::from_uint(i * 3, 4));
    }
    d.insert(base);
    benchmark::DoNotOptimize(d.root());
    state.ResumeTiming();

    d.insert(batch);
    benchmark::DoNotOptimize(d.root());
  }
}
BENCHMARK(BM_CA_Insert1000)->Unit(benchmark::kMillisecond);

void BM_RA_Update1000(benchmark::State& state) {
  // Fig. 2 update: replay 1000 revocations and compare against the signed
  // root (paper: 2.84 ms avg).
  std::vector<cert::SerialNumber> base, batch;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    base.push_back(cert::SerialNumber::from_uint(i * 3, 4));
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    batch.push_back(cert::SerialNumber::from_uint(1'000'000 + i, 4));
  }
  dict::Dictionary ca_dict;
  ca_dict.insert(base);
  ca_dict.insert(batch);
  const auto target_root = ca_dict.root();
  const auto target_n = ca_dict.size();

  for (auto _ : state) {
    state.PauseTiming();
    dict::Dictionary ra_dict;
    ra_dict.insert(base);
    benchmark::DoNotOptimize(ra_dict.root());
    state.ResumeTiming();

    const bool ok = ra_dict.update(batch, target_root, target_n);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RA_Update1000)->Unit(benchmark::kMillisecond);

void BM_Crypto_Ed25519Sign(benchmark::State& state) {
  crypto::Seed seed{};
  seed.fill(1);
  const auto kp = crypto::keypair_from_seed(seed);
  const Bytes msg = env().rng.bytes(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::sign(ByteSpan(msg), kp.seed, kp.public_key));
  }
}
BENCHMARK(BM_Crypto_Ed25519Sign);

void BM_Crypto_Ed25519Verify(benchmark::State& state) {
  crypto::Seed seed{};
  seed.fill(2);
  const auto kp = crypto::keypair_from_seed(seed);
  const Bytes msg = env().rng.bytes(96);
  const auto sig = crypto::sign(ByteSpan(msg), kp.seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(ByteSpan(msg), sig, kp.public_key));
  }
}
BENCHMARK(BM_Crypto_Ed25519Verify);

void BM_Crypto_Sha256_1KiB(benchmark::State& state) {
  const Bytes data = env().rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(ByteSpan(data)));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 1024);
}
BENCHMARK(BM_Crypto_Sha256_1KiB);

}  // namespace

BENCHMARK_MAIN();
