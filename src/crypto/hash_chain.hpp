// Hash chains H^m(v), the paper's freshness-statement mechanism (§II, §III
// Fig. 2): a CA commits to the anchor H^m(v) inside a signed root, then at
// period p it discloses H^(m-p)(v). Anyone holding the anchor verifies a
// statement by hashing it forward; nobody but the CA can walk backward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "crypto/sha256.hpp"

namespace ritm::crypto {

/// CA-side hash chain: keeps all m+1 links for O(1) statement lookup.
/// (m is at most a few thousand for realistic chain lifetimes: e.g. one
/// re-sign per day at ∆ = 10 s means m = 8640.)
class HashChain {
 public:
  /// The longest walk one freshness check makes (chain_period), and so the
  /// longest chain a CA may commit to: a verifier refuses any statement
  /// further than this from its starting point, whatever its clock reads.
  static constexpr std::uint64_t kMaxFreshnessWalk = 1u << 16;

  /// Builds a chain of length m over a 20-byte random seed v. Throws
  /// std::invalid_argument unless 1 <= m <= kMaxFreshnessWalk.
  HashChain(const Digest20& v, std::size_t m);

  /// H^m(v): the value committed to in the signed root.
  const Digest20& anchor() const noexcept { return links_.back(); }

  /// Chain length m.
  std::size_t length() const noexcept { return links_.size() - 1; }

  /// H^(m-p)(v), the freshness statement for period p. Requires p <= m
  /// (p == 0 returns the anchor itself; the paper emits statements for
  /// 0 < p < m and re-signs once p >= m).
  const Digest20& statement(std::size_t p) const;

  /// Applies H() `steps` times.
  static Digest20 advance(Digest20 value, std::size_t steps) noexcept;

  /// True iff H^steps(statement) == anchor.
  static bool verify(const Digest20& statement, std::size_t steps,
                     const Digest20& anchor) noexcept;

 private:
  std::vector<Digest20> links_;  // links_[i] = H^i(v)
};

/// The freshness rule (paper §III step 5c, §V), shared by the RA's store and
/// the client: the period p at which `statement` extends the chain of a
/// root signed at `root_ts` from `last`, the chain's statement at period
/// `last_period` (a root's anchor is its period 0). With
/// p' = floor((now - root_ts) / delta), p must lie in {p'-1, p', p'+1} — one
/// period of clock skew either way, so an accepted statement is never older
/// than 2∆ — and at most HashChain::kMaxFreshnessWalk periods past
/// `last_period`. Returns the smallest such p, or nullopt. Costs at most
/// that many hashes whatever `now` reads.
std::optional<std::uint64_t> chain_period(UnixSeconds root_ts,
                                          UnixSeconds delta,
                                          const Digest20& last,
                                          std::uint64_t last_period,
                                          const Digest20& statement,
                                          UnixSeconds now);

}  // namespace ritm::crypto
