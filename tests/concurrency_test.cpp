// Concurrency suite (ctest label: tsan): first use of the shared Ed25519
// base-point table from several threads. Built with -DRITM_SANITIZE=thread
// these tests run under ThreadSanitizer, which is the point; the label's
// other suite, checkpoint_test, races the background checkpointer against
// serving readers and feed pulls.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"

namespace ritm {
namespace {

// ------------------------------------------------------ Ed25519 base table

// The base-point table behind sign/verify is a function-local static built
// on first use. This is the first test in the binary and no other test here
// signs or verifies, so these threads race to build it; each must get the
// answers a single-threaded pass gets afterwards.
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

}  // namespace
}  // namespace ritm
