#include "eval/cost.hpp"

#include <cmath>
#include <stdexcept>

#include "dict/messages.hpp"

namespace ritm::eval {

MessageSizes measured_message_sizes() {
  // Representative freshness statement ("CA-042" id, 20-byte statement).
  dict::FreshnessStatement fs;
  fs.ca = "CA-042";
  const double freshness = double(fs.encode().size());

  // Signed root with the same CA id.
  dict::SignedRoot root;
  root.ca = "CA-042";
  const double root_bytes = double(root.encode().size());

  // Marginal bytes per revocation in an issuance: 1000 3-byte serials.
  dict::RevocationIssuance small, big;
  small.signed_root = root;
  big.signed_root = root;
  for (int i = 0; i < 1000; ++i) {
    big.serials.push_back(cert::SerialNumber::from_uint(
        static_cast<std::uint64_t>(i) + 1, 3));
  }
  const double per_rev =
      double(big.encode().size() - small.encode().size()) / 1000.0;

  return MessageSizes{freshness, per_rev, root_bytes};
}

namespace {
// Bytes every pull carries before its freshness statements (feed framing).
constexpr double kFeedHeaderBytes = 6.0;
constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;
}  // namespace

CostSimulator::CostSimulator(const RevocationTrace* trace,
                             const Population* population)
    : trace_(trace),
      population_(population),
      sizes_(measured_message_sizes()) {
  if (trace_ == nullptr || population_ == nullptr) {
    throw std::invalid_argument("CostSimulator: null trace or population");
  }
}

double CostSimulator::covered_share(const CostParams& p) const {
  double share = 0.0;
  for (int d = 0; d < p.dictionaries; ++d) share += trace_->ca_share(d);
  return share;
}

RaBytes CostSimulator::ra_bytes(const CostParams& p, int day_from,
                                int day_to) const {
  if (p.delta_seconds <= 0 || p.dictionaries <= 0) {
    throw std::invalid_argument("CostSimulator: bad params");
  }
  const double seconds = double(day_to - day_from) * 86400.0;
  const double pulls = double(std::uint64_t(seconds / p.delta_seconds));
  RaBytes bytes;
  bytes.keep_alive =
      pulls * (kFeedHeaderBytes +
               double(p.dictionaries) * sizes_.freshness_bytes);

  const double periods_per_day = 86400.0 / p.delta_seconds;
  for (int day = day_from; day < day_to; ++day) {
    for (int ca = 0; ca < p.dictionaries; ++ca) {
      const double revs = double(trace_->daily_for_ca(day, ca));
      bytes.serials += revs * sizes_.per_revocation_bytes;
      // Expected number of ∆-periods that contain at least one revocation
      // of this CA — each such period carries one freshly signed root.
      const double occupied =
          periods_per_day * (1.0 - std::exp(-revs / periods_per_day));
      bytes.roots += occupied * sizes_.signed_root_bytes;
    }
  }
  return bytes;
}

std::vector<RaBytes> CostSimulator::cycle_bytes(const CostParams& p) const {
  std::vector<RaBytes> cycles;
  const int days = trace_->config().days;
  for (int start = 0; start + kDaysPerCycle <= days; start += kDaysPerCycle) {
    cycles.push_back(ra_bytes(p, start, start + kDaysPerCycle));
  }
  return cycles;
}

std::vector<double> CostSimulator::monthly_bills(const CostParams& p) const {
  const double ras = double(population_->total_ras(p.clients_per_ra));
  std::vector<double> bills;
  for (const RaBytes& per_ra : cycle_bytes(p)) {
    bills.push_back(per_ra.total() * ras / kBytesPerGb * kUsdPerGb);
  }
  return bills;
}

double CostSimulator::average_bill(const CostParams& p) const {
  const auto bills = monthly_bills(p);
  if (bills.empty()) return 0.0;
  double total = 0.0;
  for (double b : bills) total += b;
  return total / double(bills.size());
}

std::vector<double> CostSimulator::per_pull_bytes(const CostParams& p,
                                                  int day_from,
                                                  int day_to) const {
  const auto hourly = trace_->hourly(day_from, day_to);

  // Fraction of all trace revocations covered by the priced dictionaries,
  // and the per-CA conditional shares for the expected-issuer estimate.
  const double covered = covered_share(p);

  auto bytes_for = [&](double revs_total_trace) {
    const double revs = revs_total_trace * covered;
    double bytes = kFeedHeaderBytes +
                   double(p.dictionaries) * sizes_.freshness_bytes +
                   revs * sizes_.per_revocation_bytes;
    double issuers = 0.0;
    for (int ca = 0; ca < p.dictionaries; ++ca) {
      const double ca_revs = revs_total_trace * trace_->ca_share(ca);
      issuers += 1.0 - std::exp(-ca_revs);
    }
    return bytes + issuers * sizes_.signed_root_bytes;
  };

  std::vector<double> out;
  const double periods_per_hour = 3600.0 / p.delta_seconds;
  if (periods_per_hour >= 1.0) {
    out.reserve(hourly.size() * static_cast<std::size_t>(periods_per_hour));
    for (std::uint64_t hour_revs : hourly) {
      const double per_period = double(hour_revs) / periods_per_hour;
      for (int k = 0; k < int(periods_per_hour); ++k) {
        out.push_back(bytes_for(per_period));
      }
    }
  } else {
    const std::size_t hours_per_period =
        static_cast<std::size_t>(p.delta_seconds / 3600.0);
    for (std::size_t h = 0; h + hours_per_period <= hourly.size();
         h += hours_per_period) {
      double revs = 0.0;
      for (std::size_t k = 0; k < hours_per_period; ++k) {
        revs += double(hourly[h + k]);
      }
      out.push_back(bytes_for(revs));
    }
  }
  return out;
}

}  // namespace ritm::eval
