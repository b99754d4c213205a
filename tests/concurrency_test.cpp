// Concurrency suite (ctest label: tsan): first use of the shared Ed25519
// base-point table from several threads, and store readers racing each
// other after a rejected issuance. Built with -DRITM_SANITIZE=thread these
// tests run under ThreadSanitizer, which is the point; the label's other
// suite, checkpoint_test, serves over TCP while the updater pulls and the
// background checkpointer runs.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "dict/messages.hpp"
#include "ra/store.hpp"

namespace ritm {
namespace {

// ------------------------------------------------------ Ed25519 base table

// The base-point table behind sign/verify is a function-local static built
// on first use. This is the first test in the binary and the tests after it
// sign and verify only once it has run, so these threads race to build it;
// each must get the answers a single-threaded pass gets afterwards.
TEST(Ed25519SharedTable, ConcurrentFirstUseAgrees) {
  constexpr int kThreads = 4;
  const Bytes msg = bytes_of("shared base-point table");
  const auto seed_of = [](int t) {
    crypto::Seed seed{};
    seed.fill(static_cast<std::uint8_t>(t + 1));
    return seed;
  };
  std::vector<crypto::PublicKey> keys(kThreads);
  std::vector<crypto::Signature> sigs(kThreads);
  std::vector<int> verified(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      const crypto::Seed seed = seed_of(t);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      keys[i] = crypto::derive_public_key(seed);
      sigs[i] = crypto::sign(ByteSpan(msg), seed, keys[i]);
      verified[i] = crypto::verify(ByteSpan(msg), sigs[i], keys[i]) ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_EQ(keys[i], crypto::derive_public_key(seed_of(t)));
    EXPECT_EQ(sigs[i], crypto::sign(ByteSpan(msg), seed_of(t)));
    EXPECT_EQ(verified[i], 1);
  }
}

// ------------------------------------------ readers after a rejection

// A rejected issuance rolls the replica back. The rollback leaves the
// Merkle tree built, so the readers that follow only read it; if they
// found it stale, each would rebuild it from inside a const call, racing
// the others and serving proofs from a half-written tree.
TEST(StoreReaders, ProofsVerifyAfterARejectedIssuance) {
  Rng rng(7);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-RACE";
  cfg.delta = 10;
  cfg.chain_length = 8;
  ca::CertificationAuthority ca(cfg, rng, 1000);
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  std::vector<cert::SerialNumber> corpus;
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    corpus.push_back(cert::SerialNumber::from_uint(2 * i + 1, 4));
  }
  ASSERT_EQ(store.apply_issuance(ca.revoke(corpus, 1000), 1000),
            ra::ApplyResult::ok);

  // CA-signed, but its serial list does not reproduce its root.
  auto forged = ca.revoke({cert::SerialNumber::from_uint(2, 4)}, 1010);
  forged.serials.front() = cert::SerialNumber::from_uint(4, 4);
  ASSERT_EQ(store.apply_issuance(forged, 1010), ra::ApplyResult::root_mismatch);

  constexpr int kReaders = 4;
  constexpr int kLookups = 64;
  std::atomic<int> ready{0};
  std::vector<int> failures(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng probes(100 + static_cast<std::uint64_t>(t));
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
      }
      for (int i = 0; i < kLookups; ++i) {
        const auto serial =
            cert::SerialNumber::from_uint(probes.uniform(40'000), 4);
        // Alternate the cold path and the cached path.
        std::optional<dict::RevocationStatus> status;
        if (i % 2 == 0) {
          status = store.status_for(ca.id(), serial);
        } else if (const auto cached = store.status_bytes_for(ca.id(), serial)) {
          status = dict::RevocationStatus::decode(ByteSpan(*cached->bytes));
        }
        if (!status || !dict::verify_proof(status->proof, serial,
                                           status->signed_root.root,
                                           status->signed_root.n)) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "reader " << t;
  }
}

}  // namespace
}  // namespace ritm
