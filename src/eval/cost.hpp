// Cost and communication-overhead simulator (paper §VII-C, Fig. 6, Tab. II,
// and Fig. 7).
//
// Model: every RA pulls the dissemination feed once per ∆. A pull carries a
// feed header and a freshness statement per dictionary, plus the revocation
// entries (and a signed root per issuing CA) that accumulated during the
// period, each at the size of this repo's wire encoding
// (measured_message_sizes()). A billing cycle's bill is the bytes one RA
// downloads in it, times the RA fleet, times one price per GB.
#pragma once

#include <cstdint>
#include <vector>

#include "eval/population.hpp"
#include "eval/trace.hpp"

namespace ritm::eval {

/// The CDN's price, USD per GB transferred out, the same for every RA and
/// every volume. Inferred, not quoted (the paper's text is not in this
/// repository): the paper's Tab. II scales exactly with the RA fleet, which
/// only one per-GB price gives, and $0.025 is the top volume tier for North
/// America and Europe of the CloudFront 2015-era rate card the model was
/// calibrated to.
inline constexpr double kUsdPerGb = 0.025;

/// Days per billing cycle.
inline constexpr int kDaysPerCycle = 30;

struct CostParams {
  double delta_seconds = 10.0;
  double clients_per_ra = 10.0;
  /// Dictionaries priced, largest CA first: 1 is the largest CA alone
  /// (Fig. 6, Tab. II); Fig. 7 prices all 254.
  int dictionaries = 1;
};

/// Actual encoded sizes of the protocol messages, measured by constructing
/// representative messages with the repo's codecs.
struct MessageSizes {
  double freshness_bytes;
  double per_revocation_bytes;
  double signed_root_bytes;
};
MessageSizes measured_message_sizes();

/// Bytes one RA downloads over a window, by what carries them.
struct RaBytes {
  double keep_alive = 0;  // every pull: feed header + freshness statements
  double serials = 0;     // revocation entries
  double roots = 0;       // one signed root per ∆-period with a revocation
  double total() const noexcept { return keep_alive + serials + roots; }
};

class CostSimulator {
 public:
  CostSimulator(const RevocationTrace* trace, const Population* population);

  /// Bytes one RA downloads in each billing cycle of the trace.
  std::vector<RaBytes> cycle_bytes(const CostParams& p) const;

  /// Monthly (billing-cycle) bills in USD over the whole trace — Fig. 6.
  std::vector<double> monthly_bills(const CostParams& p) const;

  /// Mean of monthly_bills — Tab. II entries.
  double average_bill(const CostParams& p) const;

  /// Per-pull download sizes (bytes) for each ∆-period in days
  /// [day_from, day_to) — Fig. 7. For coarse ∆ one value per period.
  std::vector<double> per_pull_bytes(const CostParams& p, int day_from,
                                     int day_to) const;

 private:
  RaBytes ra_bytes(const CostParams& p, int day_from, int day_to) const;
  /// Share of all trace revocations held by the priced dictionaries.
  double covered_share(const CostParams& p) const;

  const RevocationTrace* trace_;
  const Population* population_;
  MessageSizes sizes_;
};

}  // namespace ritm::eval
