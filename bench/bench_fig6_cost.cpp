// Fig. 6: monthly CDN bill for a CA disseminating its revocation list via
// RITM, over the 18 billing cycles from January 2014 to mid-2015 (covering
// the Heartbleed event), for ∆ = 10 s / 1 min / 1 h / 1 day, with every RA
// serving 10 clients (the paper's conservative 230 million RAs).
//
// The CA priced is the largest one in the dataset (the 339,557-entry CRL,
// 24.6% of all revocations). Paper magnitudes: ~$54-60K (∆=10 s),
// ~$9.5-13.5K (1 min), ~$1.5-3.5K (1 h), ~$0.25-0.45K (1 day).
//
// A bill is the bytes one RA downloads in a cycle, times the RA fleet,
// times one price per GB; the last table splits those bytes by what
// carries them. Bytes per RA do not depend on clients/RA, so the same split
// explains Tab. II.
#include <cstdio>

#include "common/table.hpp"
#include "eval/cost.hpp"

using namespace ritm;

int main() {
  const eval::RevocationTrace trace;
  const eval::Population population;
  const eval::CostSimulator sim(&trace, &population);
  const auto sizes = eval::measured_message_sizes();

  std::printf("== Fig. 6: monthly bills (thousands of USD), 10 clients/RA ==\n");
  std::printf("RA fleet: %llu agents; priced CA: largest CRL (%.1f%% of "
              "revocations)\n",
              (unsigned long long)population.total_ras(10),
              trace.ca_share(0) * 100.0);
  std::printf("message sizes (measured from wire codecs): freshness %.0f B, "
              "per-revocation %.1f B, signed root %.0f B\n\n",
              sizes.freshness_bytes, sizes.per_revocation_bytes,
              sizes.signed_root_bytes);

  const double deltas[] = {10, 60, 3600, 86400};
  const char* labels[] = {"d=10s", "d=1m", "d=1h", "d=1d"};

  std::vector<std::vector<double>> bills;
  std::vector<std::vector<eval::RaBytes>> cycle_bytes;
  for (double delta : deltas) {
    eval::CostParams p;
    p.delta_seconds = delta;
    p.clients_per_ra = 10;
    bills.push_back(sim.monthly_bills(p));
    cycle_bytes.push_back(sim.cycle_bytes(p));
  }

  Table t({"cycle", labels[0], labels[1], labels[2], labels[3]});
  for (std::size_t c = 0; c < bills[0].size(); ++c) {
    t.add_row({Table::num(std::uint64_t(c)),
               Table::num(bills[0][c] / 1000.0, 3),
               Table::num(bills[1][c] / 1000.0, 3),
               Table::num(bills[2][c] / 1000.0, 3),
               Table::num(bills[3][c] / 1000.0, 3)});
  }
  std::printf("%s\n", t.render().c_str());

  Table avg({"delta", "avg bill (k$)", "paper range (k$)"});
  const char* paper[] = {"54 - 60", "9.5 - 13.5", "1.5 - 3.5", "0.25 - 0.45"};
  for (std::size_t i = 0; i < 4; ++i) {
    double total = 0;
    for (double b : bills[i]) total += b;
    avg.add_row({labels[i], Table::num(total / double(bills[i].size()) / 1000.0, 3),
                 paper[i]});
  }
  std::printf("%s\n", avg.render().c_str());

  std::printf("average bytes per RA per billing cycle (%d days), KB:\n",
              eval::kDaysPerCycle);
  Table split({"delta", "$/GB", "keep-alive", "serials", "roots", "total"});
  for (std::size_t i = 0; i < 4; ++i) {
    eval::RaBytes sum;
    for (const auto& c : cycle_bytes[i]) {
      sum.keep_alive += c.keep_alive;
      sum.serials += c.serials;
      sum.roots += c.roots;
    }
    // Mean over the cycles, in KB.
    const double kb = 1024.0 * double(cycle_bytes[i].size());
    split.add_row({labels[i], Table::num(eval::kUsdPerGb, 3),
                   Table::num(sum.keep_alive / kb, 1),
                   Table::num(sum.serials / kb, 1),
                   Table::num(sum.roots / kb, 1),
                   Table::num(sum.total() / kb, 1)});
  }
  std::printf("%s", split.render().c_str());
  return 0;
}
