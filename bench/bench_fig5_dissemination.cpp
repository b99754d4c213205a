// Fig. 5: CDF of download times for five revocation messages (0 / 15K /
// 30K / 45K / 60K revoked certificates), fetched from the CDN by 80
// geo-distributed vantage points, 10 trials each, with edge caching
// disabled (TTL=0 — the paper's worst case: every request goes through to
// the origin).
//
// Paper result to compare against: even for 60K revocations, 90% of nodes
// download in under one second.
#include <cstdio>

#include "ca/authority.hpp"
#include "cdn/cdn.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "eval/population.hpp"

using namespace ritm;

int main() {
  Rng rng(42);

  // Build the five revocation messages with real wire encodings.
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-1";
  ca::CertificationAuthority ca(cfg, rng, 0);

  // Message m carries kCounts[m] serials the CA has not revoked before.
  const std::size_t kCounts[] = {0, 15'000, 30'000, 45'000, 60'000};
  std::vector<Bytes> messages;
  std::uint64_t next_serial = 1;
  for (std::size_t count : kCounts) {
    if (count == 0) {
      // Only a freshness statement.
      messages.push_back(
          dict::FreshnessStatement{ca.id(), ca.freshness_at(0)}.encode());
      continue;
    }
    std::vector<cert::SerialNumber> serials;
    serials.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(next_serial++, 3));
    }
    messages.push_back(ca.revoke(std::move(serials), 0).encode());
  }

  // 80 vantage points, population-weighted (the paper's PlanetLab nodes).
  const eval::Population population;
  const auto vantage = population.sample_vantage_points(80, rng);

  std::printf("== Fig. 5: download-time CDF, TTL=0 (worst case) ==\n");
  Table sizes({"message", "revocations", "bytes"});
  for (std::size_t m = 0; m < std::size(kCounts); ++m) {
    sizes.add_row({"msg" + std::to_string(m),
                   Table::num(std::uint64_t(kCounts[m])),
                   Table::num(std::uint64_t(messages[m].size()))});
  }
  std::printf("%s\n", sizes.render().c_str());

  Table cdf({"revocations", "p10 (s)", "p50 (s)", "p90 (s)", "p99 (s)",
             "max (s)", "frac < 1s"});
  for (std::size_t m = 0; m < std::size(kCounts); ++m) {
    cdn::Cdn cdn = cdn::make_global_cdn(/*ttl=*/0);
    cdn.origin().put("revocations", messages[m], 0);
    Summary times;
    TimeMs now = 0;
    for (int trial = 0; trial < 10; ++trial) {
      for (const auto& point : vantage) {
        const auto fetch = cdn.get("revocations", now, point, rng);
        times.add(fetch.latency_ms / 1000.0);
        now += 1;
      }
    }
    cdf.add_row({Table::num(std::uint64_t(kCounts[m])),
                 Table::num(times.percentile(0.10), 3),
                 Table::num(times.percentile(0.50), 3),
                 Table::num(times.percentile(0.90), 3),
                 Table::num(times.percentile(0.99), 3),
                 Table::num(times.max(), 3),
                 Table::num(times.cdf_at(1.0), 3)});
  }
  std::printf("%s\n", cdf.render().c_str());

  // The full CDF curve for the largest message (the paper's purple line).
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  cdn.origin().put("revocations", messages.back(), 0);
  Summary times;
  TimeMs now = 0;
  for (int trial = 0; trial < 10; ++trial) {
    for (const auto& point : vantage) {
      times.add(cdn.get("revocations", now++, point, rng).latency_ms / 1000.0);
    }
  }
  std::printf("CDF curve, 60000 revocations (download time s -> fraction):\n");
  for (const auto& [x, f] : times.cdf_curve(12)) {
    std::printf("  %6.3f s  %5.3f  %s\n", x, f,
                std::string(std::size_t(f * 40), '#').c_str());
  }
  return 0;
}
