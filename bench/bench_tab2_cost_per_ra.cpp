// Tab. II: average monthly cost (thousands of USD) as a function of ∆ and
// the number of clients a single RA handles.
//
// Paper values (thousands of USD):
//   clients/RA    ∆=10s    ∆=1min   ∆=1h    ∆=1day
//   30            18.574   3.450    0.647   0.108
//   250           2.229    0.414    0.078   0.013
//   1000          0.557    0.103    0.019   0.003
#include <cstdio>

#include "common/table.hpp"
#include "eval/cost.hpp"

using namespace ritm;

int main() {
  const eval::RevocationTrace trace;
  const eval::Population population;
  const eval::CostSimulator sim(&trace, &population);

  std::printf("== Tab. II: average monthly cost (thousands of USD) ==\n\n");

  const double clients_per_ra[] = {30, 250, 1000};
  const double deltas[] = {10, 60, 3600, 86400};

  Table t({"clients/RA", "d=10s", "d=1m", "d=1h", "d=1d"});
  for (double cpr : clients_per_ra) {
    std::vector<std::string> row{Table::num(std::uint64_t(cpr))};
    for (double delta : deltas) {
      eval::CostParams p;
      p.delta_seconds = delta;
      p.clients_per_ra = cpr;
      row.push_back(Table::num(sim.average_bill(p) / 1000.0, 3));
    }
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("paper (for comparison):\n");
  std::printf("  30    18.574  3.450  0.647  0.108\n");
  std::printf("  250    2.229  0.414  0.078  0.013\n");
  std::printf("  1000   0.557  0.103  0.019  0.003\n");
  return 0;
}
