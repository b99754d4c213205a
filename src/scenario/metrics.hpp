// Per-driver flow accumulators for the scenario engine.
//
// Each driver thread owns one DriverMetrics, cache-line aligned so drivers
// never share a line; there are no atomics on the flow path — the engine
// merges after the drivers join. Latency and staleness go into log-scaled
// histograms (bounded memory at any flow count, ~6% bucket resolution);
// attack-window evidence is the per-serial minimum first-seen virtual time,
// merged across drivers and turned into exact samples by the engine.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"

namespace ritm::scenario {

/// Log2-bucketed histogram with 16 linear sub-buckets per octave: values
/// 0..15 are exact, larger values land in a bucket whose lower bound is
/// within 1/16 of the value. Deterministic (integer-only), mergeable, and
/// its raw counts feed the report digest.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 1024;

  void add(std::uint64_t v) noexcept {
    ++counts_[index_of(v)];
    ++total_;
  }
  void merge(const LogHistogram& other) noexcept;

  std::uint64_t total() const noexcept { return total_; }
  /// Lower bound of the bucket holding the q-quantile (q in [0,1]).
  std::uint64_t percentile(double q) const noexcept;
  const std::array<std::uint64_t, kBuckets>& counts() const noexcept {
    return counts_;
  }

  static std::size_t index_of(std::uint64_t v) noexcept {
    if (v < 16) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= 4
    const auto sub = static_cast<std::size_t>((v >> (e - 4)) & 15);
    return static_cast<std::size_t>(e - 3) * 16 + sub;
  }
  static std::uint64_t bucket_low(std::size_t idx) noexcept {
    if (idx < 16) return idx;
    const auto e = idx / 16 + 3;
    const auto sub = idx % 16;
    return (std::uint64_t{16} + sub) << (e - 4);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Tracked-serial key: CA index in the high bits, serial value in the low
/// 48 (same packing as the flow words).
constexpr std::uint64_t tracked_key(int ca, std::uint64_t value) noexcept {
  return (static_cast<std::uint64_t>(ca) << 48) | value;
}

struct alignas(64) DriverMetrics {
  std::uint64_t flows = 0;           // serials whose verdict was recorded
  std::uint64_t batches = 0;         // envelopes sent
  std::uint64_t revoked = 0;         // revoked verdicts
  std::uint64_t valid = 0;           // accepted verdicts
  std::uint64_t wrong_verdict = 0;   // any other verdict, or one the
                                     // ground truth contradicts
  std::uint64_t rpc_errors = 0;      // non-ok envelope / transport failures
  std::uint64_t decode_errors = 0;   // undecodable RevocationStatus
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  LogHistogram latency_us;    // real round-trip per envelope
  LogHistogram staleness_ms;  // flow vtime - signed_root.timestamp
  /// Canary serials: minimum virtual time a presence proof was observed.
  std::unordered_map<std::uint64_t, TimeMs> first_seen;

  void note_first_seen(std::uint64_t key, TimeMs vtime) {
    auto [it, inserted] = first_seen.try_emplace(key, vtime);
    if (!inserted && vtime < it->second) it->second = vtime;
  }
};

/// Sums counters, merges histograms, min-merges first-seen maps.
DriverMetrics merge_metrics(const std::vector<DriverMetrics>& drivers);

}  // namespace ritm::scenario
