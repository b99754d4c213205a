#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: a bijection on 64 bits.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() {
  s_ += 0x9e3779b97f4a7c15ULL;
  return mix64(s_);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Shape::corpus(std::size_t ca) const {
  return std::max<std::uint64_t>(1, kCorpus[ca] / divisor);
}

std::uint64_t Shape::period_count(std::size_t ca, std::uint64_t period) const {
  const auto day = period % 7;
  const auto& row = (day == 3 || day == 4) ? kPeriodWeekend : kPeriodWeekday;
  return std::max<std::uint64_t>(1, row[ca] / divisor);
}

namespace {

constexpr std::uint64_t kColdBase = std::uint64_t{1} << 41;
constexpr std::uint64_t kColdSpace = std::uint64_t{1} << 40;

}  // namespace

Inputs::Inputs(std::uint64_t seed, Shape shape)
    : seed_(seed),
      shape_(shape),
      k1_(mix64(seed ^ 0x5e7a1a1ULL)),
      k2_(mix64(seed ^ 0x7a11ULL)) {
  double total = 0.0;
  for (std::size_t c = 0; c < kCas; ++c) {
    total += static_cast<double>(shape_.corpus(c));
    ca_cdf_[c] = total;
    auto& cdf = zipf_cdf_[c];
    cdf.resize(2 * shape_.corpus(c));
    double acc = 0.0;
    for (std::size_t r = 0; r < cdf.size(); ++r) {
      acc += std::pow(static_cast<double>(r + 1), -kZipfExponent);
      cdf[r] = acc;
    }
  }
}

std::string Inputs::ca_name(std::size_t ca) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "CA-%02zu", ca);
  return buf;
}

cert::SerialNumber Inputs::serial(const Key& k) const {
  const std::uint64_t x = (std::uint64_t{k.revoked} << 63) |
                          (std::uint64_t{k.ca} << 48) | k.index;
  const std::uint64_t hi = mix64(x ^ k1_);
  const std::uint64_t lo = mix64(hi ^ k2_);
  cert::SerialNumber s;
  s.value.resize(16);
  for (int i = 0; i < 8; ++i) {
    s.value[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(hi >> (56 - 8 * i));
    s.value[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(lo >> (56 - 8 * i));
  }
  return s;
}

std::vector<cert::SerialNumber> Inputs::revoked_serials(
    std::size_t ca, std::uint64_t first, std::uint64_t count) const {
  std::vector<cert::SerialNumber> out;
  out.reserve(count);
  for (std::uint64_t i = first; i < first + count; ++i) {
    out.push_back(serial(Key{static_cast<std::uint32_t>(ca), true, i}));
  }
  return out;
}

std::uint32_t Inputs::draw_ca(Rng& rng) const {
  const double u = rng.uniform01() * ca_cdf_.back();
  const auto it = std::upper_bound(ca_cdf_.begin(), ca_cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - ca_cdf_.begin(), kCas - 1));
}

Key Inputs::draw_popular(Rng& rng) const {
  const std::uint32_t ca = draw_ca(rng);
  const auto& cdf = zipf_cdf_[ca];
  const double u = rng.uniform01() * cdf.back();
  const auto rank = static_cast<std::uint64_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  const std::uint64_t h = mix64(k2_ ^ (std::uint64_t{ca} << 56) ^ rank);
  if ((h & 1) != 0) return Key{ca, true, (h >> 1) % shape_.corpus(ca)};
  return Key{ca, false, rank};
}

Key Inputs::draw_cold(Rng& rng, std::uint32_t ca) const {
  if (rng.below(8) == 0) return Key{ca, true, rng.below(shape_.corpus(ca))};
  return Key{ca, false, kColdBase + rng.below(kColdSpace)};
}

std::vector<Inputs::Arrival> Inputs::schedule(double rate_per_s,
                                              double seconds,
                                              std::uint64_t stream) const {
  Rng rng(mix64(seed_ ^ (0xa11e5ULL + stream)));
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform01()) / rate_per_s;
    if (t >= seconds) break;
    out.push_back({static_cast<std::int64_t>(t * 1e9), draw_popular(rng)});
  }
  return out;
}

std::string Inputs::digest() const {
  std::uint64_t h = 0x6469676573740aULL;
  auto eat_bytes = [&](const Bytes& b) {
    for (const auto byte : b) h = mix64(h ^ byte);
  };
  for (std::size_t c = 0; c < kCas; ++c) {
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(shape_.corpus(c), 64);
         ++i) {
      eat_bytes(serial(Key{static_cast<std::uint32_t>(c), true, i}).value);
    }
    h = mix64(h ^ shape_.corpus(c) ^ shape_.period_count(c, 3));
  }
  for (std::uint64_t stream = 0; stream < 2; ++stream) {
    const auto arrivals = schedule(1000.0, 0.5, stream);
    for (const auto& a : arrivals) {
      h = mix64(h ^ static_cast<std::uint64_t>(a.due_ns));
      eat_bytes(serial(a.key).value);
    }
  }
  Rng rng(mix64(seed_ ^ 0xc01dULL));
  for (int i = 0; i < 256; ++i) {
    eat_bytes(serial(draw_cold(rng, draw_ca(rng))).value);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
