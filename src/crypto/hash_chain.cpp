#include "crypto/hash_chain.hpp"

#include <algorithm>
#include <stdexcept>

namespace ritm::crypto {

HashChain::HashChain(const Digest20& v, std::size_t m) {
  if (m == 0 || m > kMaxFreshnessWalk) {
    throw std::invalid_argument("HashChain: m must be in [1, 2^16]");
  }
  links_.reserve(m + 1);
  links_.push_back(v);
  // rehash20 is the single-block fast path: each link is one compression.
  for (std::size_t i = 0; i < m; ++i) {
    links_.push_back(rehash20(links_.back()));
  }
}

const Digest20& HashChain::statement(std::size_t p) const {
  if (p > length()) {
    throw std::out_of_range("HashChain::statement: period beyond chain");
  }
  return links_[links_.size() - 1 - p];
}

Digest20 HashChain::advance(Digest20 value, std::size_t steps) noexcept {
  for (std::size_t i = 0; i < steps; ++i) value = rehash20(value);
  return value;
}

bool HashChain::verify(const Digest20& statement, std::size_t steps,
                       const Digest20& anchor) noexcept {
  return advance(statement, steps) == anchor;
}

std::optional<std::uint64_t> chain_period(UnixSeconds root_ts,
                                          UnixSeconds delta,
                                          const Digest20& last,
                                          std::uint64_t last_period,
                                          const Digest20& statement,
                                          UnixSeconds now) {
  const std::uint64_t expected =
      now <= root_ts ? 0
                     : static_cast<std::uint64_t>((now - root_ts) / delta);
  const std::uint64_t lo =
      std::max(expected == 0 ? 0 : expected - 1, last_period);
  const std::uint64_t hi = std::min(
      expected + 1, last_period + HashChain::kMaxFreshnessWalk);
  if (lo > hi) return std::nullopt;
  // One walk covers every candidate: H^(p - last_period)(statement) for
  // p = lo, lo + 1, ..., hi.
  Digest20 v = HashChain::advance(statement, lo - last_period);
  for (std::uint64_t p = lo;; ++p) {
    if (v == last) return p;
    if (p == hi) return std::nullopt;
    v = rehash20(v);
  }
}

}  // namespace ritm::crypto
