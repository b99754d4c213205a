// Ablation: authenticated-dictionary design choices (DESIGN.md §3).
//
//  1. Proof size and prove/verify latency vs dictionary size (log growth).
//  2. Batch insert vs one-at-a-time insert (the rebuild amortization).
//  2b. An issuance stream of appended vs random serials: the sorted tree's
//      rehash cost per period.
//  3. Freshness chain length m: CA re-sign cost vs statement cost.
//
// Each table's deterministic columns (sizes, depths, rebuild and rehash
// counts) go to stdout, which tests/golden/bench_ablation_dict.txt pins byte
// for byte; its timing columns go to stderr. Numbers (ops/sec, ns/op, rehash
// counts) are also written to BENCH_dict.json so successive PRs have a
// machine-readable perf trajectory.
#include <chrono>
#include <cstdio>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "context.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/dictionary.hpp"

using namespace ritm;

namespace {
double us_per_op(std::chrono::steady_clock::duration d, std::size_t ops) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             d)
             .count() /
         double(ops);
}

/// A stream of issuances into a 50k-entry dictionary (ablation 2b).
struct IssuanceStream {
  std::vector<cert::SerialNumber> base;
  std::vector<std::vector<cert::SerialNumber>> batches;
};

struct StreamResult {
  std::uint64_t rehashes = 0;
  double ms = 0;
  std::size_t absence_proof_bytes = 0;
};

/// Inserts the stream's base, then times its batches one insert each, as an
/// RA applies issuances; sizes an absence proof for `probe` afterwards
/// (without serializing it).
StreamResult run_stream(const IssuanceStream& stream,
                        const cert::SerialNumber& probe) {
  dict::Dictionary tree;
  tree.insert(stream.base);
  const std::uint64_t hashes_before = tree.total_hash_count();
  const auto start = std::chrono::steady_clock::now();
  for (const auto& batch : stream.batches) tree.insert(batch);
  StreamResult out;
  out.ms = us_per_op(std::chrono::steady_clock::now() - start, 1) / 1000.0;
  out.rehashes = tree.total_hash_count() - hashes_before;
  out.absence_proof_bytes = tree.prove(probe).wire_size();
  return out;
}
}  // namespace

int main() {
  Rng rng(3);

  // Collected for BENCH_dict.json.
  double prove_us_100k = 0, verify_us_100k = 0, proof_bytes_100k = 0;
  double batch_ms_final = 0, inc_ms_final = 0;
  StreamResult append_result, random_result;

  std::printf("== ablation 1: proof size vs dictionary size ==\n\n");
  Table t1({"n", "proof bytes", "depth"});
  Table t1_time({"n", "prove (us)", "verify (us)"});
  for (std::uint64_t n : {1'000ull, 10'000ull, 100'000ull, 1'000'000ull}) {
    dict::Dictionary d;
    std::vector<cert::SerialNumber> serials;
    serials.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 2 + 1, 4));
    }
    d.insert(serials);

    constexpr int kProbes = 500;
    std::vector<cert::SerialNumber> probes;
    for (int i = 0; i < kProbes; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(rng.uniform(2 * n), 4));
    }

    Summary size;
    auto start = std::chrono::steady_clock::now();
    for (const auto& p : probes) {
      auto proof = d.prove(p);
      size.add(double(proof.encode().size()));
    }
    const double prove_us =
        us_per_op(std::chrono::steady_clock::now() - start, kProbes);

    const auto proof = d.prove(probes[0]);
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kProbes; ++i) {
      if (!dict::verify_proof(proof, probes[0], d.root(), d.size())) {
        return 1;
      }
    }
    const double verify_us =
        us_per_op(std::chrono::steady_clock::now() - start, kProbes);

    const auto depth = proof.left ? proof.left->path.size()
                                  : (proof.leaf ? proof.leaf->path.size() : 0);
    if (n == 100'000) {
      prove_us_100k = prove_us;
      verify_us_100k = verify_us;
      proof_bytes_100k = size.mean();
    }
    t1.add_row({Table::num(n), Table::num(size.mean(), 0),
                Table::num(std::uint64_t(depth))});
    t1_time.add_row({Table::num(n), Table::num(prove_us, 1),
                     Table::num(verify_us, 1)});
  }
  std::printf("%s\n", t1.render().c_str());
  std::fprintf(stderr, "== ablation 1: prove/verify latency ==\n\n%s\n",
               t1_time.render().c_str());

  std::printf("== ablation 2: batch vs incremental insert (10k entries) ==\n\n");
  {
    std::vector<cert::SerialNumber> serials;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 3 + 1, 4));
    }
    Table t2({"strategy", "rebuilds"});
    Table t2_time({"strategy", "total ms"});

    auto start = std::chrono::steady_clock::now();
    dict::Dictionary batch;
    batch.insert(serials);
    const double batch_ms =
        us_per_op(std::chrono::steady_clock::now() - start, 1) / 1000.0;
    t2.add_row({"one batch", "1"});
    t2_time.add_row({"one batch", Table::num(batch_ms, 1)});

    start = std::chrono::steady_clock::now();
    dict::Dictionary incremental;
    for (std::size_t i = 0; i < serials.size(); i += 100) {
      // Each insert rebuilds the tree, as an RA does per issuance.
      incremental.insert(std::vector<cert::SerialNumber>(
          serials.begin() + std::ptrdiff_t(i),
          serials.begin() + std::ptrdiff_t(i + 100)));
    }
    const double inc_ms =
        us_per_op(std::chrono::steady_clock::now() - start, 1) / 1000.0;
    t2.add_row({"100-entry issuances", "100"});
    t2_time.add_row({"100-entry issuances", Table::num(inc_ms, 1)});

    if (batch.root() != incremental.root()) {
      std::printf("ROOT MISMATCH\n");
      return 1;
    }
    batch_ms_final = batch_ms;
    inc_ms_final = inc_ms;
    std::printf("%s\n", t2.render().c_str());
    std::fprintf(stderr, "== ablation 2: insert time ==\n\n%s\n",
                 t2_time.render().c_str());
  }

  std::printf(
      "== ablation 2b: sorted Merkle tree, appended vs random serials ==\n\n");
  {
    // The sorted tree rehashes every leaf from a batch's first insertion
    // point on, plus their ancestors. Stream a Heartbleed-hour of issuances
    // (120 batches of 50) into a 50k-entry dictionary twice. First with
    // serials that all sort after the base, so every batch is an append;
    // then with base and batches drawn uniformly below 2^32 from a seeded
    // generator, as real serials are random (CA/Browser Forum Baseline
    // Requirements §7.1), so a batch's first insertion point lands near the
    // front and nearly the whole tree is rehashed.
    constexpr std::uint64_t kBase = 50'000, kBatches = 120, kBatchSize = 50;
    IssuanceStream append_stream, random_stream;
    Rng serial_rng(2024);
    const auto random_serial = [&] {
      return cert::SerialNumber::from_uint(serial_rng.uniform(1ull << 32), 4);
    };
    for (std::uint64_t i = 0; i < kBase; ++i) {
      append_stream.base.push_back(cert::SerialNumber::from_uint(i * 5 + 1, 4));
      random_stream.base.push_back(random_serial());
    }
    for (std::uint64_t k = 0; k < kBatches; ++k) {
      auto& appended_batch = append_stream.batches.emplace_back();
      auto& random_batch = random_stream.batches.emplace_back();
      for (std::uint64_t i = 0; i < kBatchSize; ++i) {
        appended_batch.push_back(cert::SerialNumber::from_uint(
            1'000'000 + k * kBatchSize + i, 4));
        random_batch.push_back(random_serial());
      }
    }

    const auto probe = cert::SerialNumber::from_uint(123'456'789, 4);
    append_result = run_stream(append_stream, probe);
    random_result = run_stream(random_stream, probe);

    Table t2b({"backend", "rehashes", "absence proof (B)"});
    Table t2b_time({"backend", "120 issuances (ms)"});
    for (const auto& [name, r] :
         {std::pair{"sorted Merkle tree (paper)", append_result},
          std::pair{"random serials", random_result}}) {
      t2b.add_row({name, Table::num(r.rehashes),
                   Table::num(std::uint64_t(r.absence_proof_bytes))});
      t2b_time.add_row({name, Table::num(r.ms, 1)});
    }
    std::printf("%s\n", t2b.render().c_str());
    std::fprintf(stderr, "== ablation 2b: issuance time ==\n\n%s\n",
                 t2b_time.render().c_str());
  }

  std::printf("== ablation 3: freshness chain length m ==\n\n");
  {
    // m trades CA re-sign frequency (one Ed25519 signature + m hashes)
    // against nothing on the verifier side (statements are O(gap) to
    // check). Build cost scales linearly with m, up to the longest chain
    // a verifier walks.
    Table t3({"m", "re-signs/day (d=10s)"});
    Table t3_time({"m", "build (us)"});
    for (std::size_t m :
         {std::size_t{64}, std::size_t{1024}, std::size_t{8640},
          std::size_t{crypto::HashChain::kMaxFreshnessWalk}}) {
      crypto::Digest20 v{};
      v.fill(0x7);
      const auto start = std::chrono::steady_clock::now();
      crypto::HashChain chain(v, m);
      const double us = us_per_op(std::chrono::steady_clock::now() - start, 1);
      t3.add_row({Table::num(std::uint64_t(m)),
                  Table::num(8640.0 / double(m), 2)});
      t3_time.add_row({Table::num(std::uint64_t(m)), Table::num(us, 0)});
    }
    std::printf("%s", t3.render().c_str());
    std::fprintf(stderr, "== ablation 3: chain build time ==\n\n%s",
                 t3_time.render().c_str());
  }

  if (std::FILE* f = std::fopen("BENCH_dict.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  %s,\n"
        "  \"proofs_100k\": {\"prove_ns\": %.0f, \"verify_ns\": %.0f, "
        "\"proof_bytes\": %.0f, \"prove_ops_per_sec\": %.0f, "
        "\"verify_ops_per_sec\": %.0f},\n"
        "  \"insert_10k\": {\"one_batch_ms\": %.2f, "
        "\"hundred_issuances_ms\": %.2f},\n"
        "  \"issuance_stream_50k\": {\n"
        "    \"tree\": {\"ms\": %.2f, \"rehashes\": %llu, "
        "\"absence_proof_bytes\": %zu},\n"
        "    \"tree_random\": {\"ms\": %.2f, \"rehashes\": %llu, "
        "\"absence_proof_bytes\": %zu}\n"
        "  }\n"
        "}\n",
        bench::context_json().c_str(), prove_us_100k * 1000.0,
        verify_us_100k * 1000.0, proof_bytes_100k,
        prove_us_100k > 0 ? 1e6 / prove_us_100k : 0,
        verify_us_100k > 0 ? 1e6 / verify_us_100k : 0, batch_ms_final,
        inc_ms_final, append_result.ms,
        (unsigned long long)append_result.rehashes,
        append_result.absence_proof_bytes, random_result.ms,
        (unsigned long long)random_result.rehashes,
        random_result.absence_proof_bytes);
    std::fclose(f);
    std::printf("\nwrote BENCH_dict.json\n");
  }
  return 0;
}
