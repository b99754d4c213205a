// Concurrency suite (ctest label: tsan): first use of the shared Ed25519
// base-point table from several threads, dictionary readers racing each
// other straight after an insert, store readers racing each other after a
// rejected issuance, and client validations racing through one client's
// verified-root memo. Built with -DRITM_SANITIZE=thread these
// tests run under ThreadSanitizer, which is the point; the label's other
// suite, checkpoint_test, serves over TCP while the updater pulls and the
// background checkpointer runs.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "dict/dictionary.hpp"
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

// ---------------------------------------- dictionary readers after insert

// insert() returns with the Merkle tree built, so const calls straight
// after it only read and any number of threads may make them at once with
// no writer-side warm-up.
TEST(DictionaryReaders, ConstCallsAfterInsertOnlyRead) {
  dict::Dictionary d;
  std::vector<cert::SerialNumber> corpus;
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    corpus.push_back(cert::SerialNumber::from_uint(2 * i + 1, 4));
  }
  d.insert(corpus);
  d.insert({cert::SerialNumber::from_uint(2, 4),
            cert::SerialNumber::from_uint(50'000, 4)});

  constexpr int kReaders = 4;
  constexpr int kLookups = 64;
  std::atomic<int> ready{0};
  std::vector<int> failures(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng probes(200 + static_cast<std::uint64_t>(t));
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
      }
      for (int i = 0; i < kLookups; ++i) {
        const auto serial =
            cert::SerialNumber::from_uint(probes.uniform(60'000), 4);
        const dict::Proof proof = d.prove(serial);
        const dict::DictSections sections = d.snapshot_sections();
        if (!dict::verify_proof(proof, serial, d.root(), d.size()) ||
            sections.root != d.root()) {
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

// ------------------------------------------ the client's verified-root memo

// Four threads validate encoded statuses of one CA through one client while
// the statuses rotate through three signed roots, so the memo's two slots
// are filled and evicted concurrently. Every verdict must be the one a fresh
// client gave beforehand, and every validation is either a verification or
// a memo hit.
TEST(ClientRootMemo, ConcurrentValidationsMatchAFreshClient) {
  Rng rng(11);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-MEMO";
  cfg.delta = 10;
  cfg.chain_length = 8;
  ca::CertificationAuthority ca(cfg, rng, 1000);
  cert::TrustStore roots;
  roots.add(ca.id(), ca.public_key());
  const client::RitmClient::Config ccfg{.delta = cfg.delta};

  struct Case {
    Bytes status;  // encoded, as a client receives it
    cert::Certificate leaf;
    UnixSeconds now = 0;
    client::Verdict want = client::Verdict::accepted;
  };
  constexpr std::size_t kRoots = 3;
  constexpr std::size_t kPerRoot = 6;
  std::vector<Case> cases;  // kPerRoot consecutive cases per root
  for (std::size_t r = 0; r < kRoots; ++r) {
    const UnixSeconds t = 1000 + 10 * static_cast<UnixSeconds>(r);
    ca.revoke({cert::SerialNumber::from_uint(2 * r + 1, 4)}, t);
    for (std::uint64_t serial = 1; serial < kPerRoot; ++serial) {
      Case c;
      c.leaf.issuer = ca.id();
      c.leaf.serial = cert::SerialNumber::from_uint(serial, 4);
      c.status = ca.status_for(c.leaf.serial, t).encode();
      c.now = t;
      cases.push_back(c);
    }
    Case tampered = cases.back();
    auto status = ca.status_for(tampered.leaf.serial, t);
    status.signed_root.signature[40] ^= 0x10;
    tampered.status = status.encode();
    cases.push_back(tampered);
  }
  for (Case& c : cases) {
    const client::RitmClient fresh(ccfg, roots);
    c.want = fresh.validate_status_bytes(ByteSpan(c.status), c.leaf, c.now);
  }
  ASSERT_EQ(cases.front().want, client::Verdict::revoked);
  ASSERT_EQ(cases[1].want, client::Verdict::accepted);
  ASSERT_EQ(cases.back().want, client::Verdict::bad_signature);

  const client::RitmClient shared(ccfg, roots);
  constexpr int kThreads = 4;
  constexpr std::size_t kRun = 4;  // statuses per root before moving on
  constexpr std::size_t kValidations = 96;
  std::atomic<int> ready{0};
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t i = 0; i < kValidations; ++i) {
        const std::size_t root = (i / kRun + static_cast<std::size_t>(t)) %
                                 kRoots;
        const Case& c = cases[root * kPerRoot + (i + i / kRun) % kPerRoot];
        if (shared.validate_status_bytes(ByteSpan(c.status), c.leaf, c.now) !=
            c.want) {
          ++wrong[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const auto memo = shared.root_memo_stats();
  EXPECT_EQ(memo.verifications + memo.hits, kThreads * kValidations);
  EXPECT_GE(memo.verifications, kRoots);
  EXPECT_GE(memo.hits, 1u);
}

}  // namespace
}  // namespace ritm
