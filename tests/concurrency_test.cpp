// Concurrency suite (ctest label: tsan): the thread pool, the parallel
// dirty-shard rebuild, and first use of the shared Ed25519 base-point
// table. Built with -DRITM_SANITIZE=thread these tests run
// under ThreadSanitizer, which is the point — every cross-thread interaction
// in the codebase goes through what is exercised here.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/ed25519.hpp"
#include "dict/sharded.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

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

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 1; wave <= 3; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), wave * 10);
  }
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // nothing submitted: must not deadlock
  SUCCEED();
}

TEST(ThreadPool, RunIndexedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run_indexed(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RunIndexedZeroAndOne) {
  ThreadPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  pool.run_indexed(1, [&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

// ------------------------------------------------- parallel shard rebuild

/// Drives two identical sharded dictionaries through the same random
/// insert stream; one rebuilds serially, the other through the pool. The
/// §VIII sharding invariant under test: dirty shards share no state, so the
/// rebuild order cannot influence any shard root.
TEST(ParallelRebuild, MatchesSerialOver1kRandomBatches) {
  constexpr UnixSeconds kBucket = 7 * 86400;
  dict::ShardedDictionary serial_d(kBucket), parallel_d(kBucket);
  ThreadPool pool(4);
  Rng rng(4242);

  constexpr int kBatches = 1000;
  for (int b = 0; b < kBatches; ++b) {
    const std::size_t batch_size = 1 + rng.uniform(8);
    for (std::size_t i = 0; i < batch_size; ++i) {
      const auto serial = SerialNumber::from_uint(rng.uniform(1 << 20), 4);
      // Spread expiries over ~64 buckets so many shards go dirty at once.
      const UnixSeconds not_after =
          static_cast<UnixSeconds>(rng.uniform(64)) * kBucket + 1;
      const auto a = serial_d.insert(serial, not_after);
      const auto c = parallel_d.insert(serial, not_after);
      ASSERT_EQ(a.has_value(), c.has_value());
    }
    // Rebuild at random points, sometimes with several dirty shards queued.
    if (rng.uniform(4) == 0) {
      const std::size_t dirty = parallel_d.dirty_shard_count();
      EXPECT_EQ(serial_d.rebuild_dirty(nullptr), dirty);
      EXPECT_EQ(parallel_d.rebuild_dirty(&pool), dirty);
      EXPECT_EQ(parallel_d.dirty_shard_count(), 0u);
      ASSERT_EQ(serial_d.shard_roots(), parallel_d.shard_roots())
          << "divergence after batch " << b;
    }
  }
  serial_d.rebuild_dirty(nullptr);
  parallel_d.rebuild_dirty(&pool);
  EXPECT_EQ(serial_d.shard_roots(), parallel_d.shard_roots());
  EXPECT_EQ(serial_d.total_entries(), parallel_d.total_entries());
  // Identical work, identical hash counts: the pool changed scheduling only.
  EXPECT_EQ(serial_d.total_hash_count(), parallel_d.total_hash_count());
}

TEST(ParallelRebuild, RebuildDirtyCountsAndIdempotence) {
  dict::ShardedDictionary d(1000);
  ThreadPool pool(2);
  EXPECT_EQ(d.rebuild_dirty(&pool), 0u);  // nothing to do on empty dict

  d.insert(SerialNumber::from_uint(1), 500);    // bucket 0
  d.insert(SerialNumber::from_uint(2), 1500);   // bucket 1
  d.insert(SerialNumber::from_uint(3), 2500);   // bucket 2
  EXPECT_EQ(d.dirty_shard_count(), 3u);
  EXPECT_EQ(d.rebuild_dirty(&pool), 3u);
  EXPECT_EQ(d.dirty_shard_count(), 0u);
  EXPECT_EQ(d.rebuild_dirty(&pool), 0u);  // idempotent

  d.insert(SerialNumber::from_uint(4), 1600);  // dirties only bucket 1
  EXPECT_EQ(d.dirty_shard_count(), 1u);
  EXPECT_EQ(d.rebuild_dirty(&pool), 1u);
}

TEST(ParallelRebuild, RebuildDoesNotAdvanceEpoch) {
  dict::ShardedDictionary d(1000);
  ThreadPool pool(2);
  d.insert(SerialNumber::from_uint(1), 500);
  d.insert(SerialNumber::from_uint(2), 1500);
  const auto epoch = d.epoch();
  d.rebuild_dirty(&pool);
  EXPECT_EQ(d.epoch(), epoch);  // rebuilds are not mutations
  d.insert(SerialNumber::from_uint(3), 500);
  EXPECT_GT(d.epoch(), epoch);
  d.insert(SerialNumber::from_uint(3), 500);  // duplicate: rejected
  EXPECT_EQ(d.epoch(), epoch + 1);
}

TEST(ParallelRebuild, ProofsAfterParallelRebuildVerify) {
  dict::ShardedDictionary d(1000);
  ThreadPool pool(4);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    d.insert(SerialNumber::from_uint(i * 3), (i % 10) * 1000 + 500);
  }
  d.rebuild_dirty(&pool);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    const auto serial = SerialNumber::from_uint(i * 3);
    const UnixSeconds exp = (i % 10) * 1000 + 500;
    const auto proof = d.prove(serial, exp);
    EXPECT_EQ(proof.type, dict::Proof::Type::presence);
    EXPECT_TRUE(
        dict::verify_proof(proof, serial, d.shard_root(exp), d.shard_size(exp)));
  }
}

}  // namespace
}  // namespace ritm
