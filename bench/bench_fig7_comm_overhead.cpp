// Fig. 7: dissemination bandwidth — how much data a single RA downloads
// every ∆ during the Heartbleed week, with all 254 dictionaries, for
// ∆ ∈ {10 s, 1 min, 5 min, 1 h, 1 day}.
//
// Paper shape: ~4 KB/∆ at the standard rate (dominated by the per-
// dictionary freshness statements), <5 KB for small ∆ even at the peak,
// ~25 KB at ∆=1 h, ~230 KB at ∆=1 day.
#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "eval/cost.hpp"

using namespace ritm;

int main() {
  const eval::RevocationTrace trace;
  const eval::Population population;
  const eval::CostSimulator sim(&trace, &population);

  // The Heartbleed week: two days before 16 April to four after. The trace
  // peaks on 16-17 April, and its busiest day is the 17th.
  const int heartbleed = trace.config().heartbleed_peak_day;
  const int from = heartbleed - 2, to = heartbleed + 5;
  const int peak = trace.day_of_max();

  std::printf("== Fig. 7: per-pull download (KB) during the Heartbleed week "
              "==\n");
  std::printf("254 dictionaries; days %d..%d (peak %d: %llu revocations)\n\n",
              from, to - 1, peak, (unsigned long long)trace.max_daily());

  const double deltas[] = {10, 60, 300, 3600, 86400};
  const char* labels[] = {"10 sec", "1 min", "5 min", "1 hour", "1 day"};

  Table t({"delta", "min KB", "avg KB", "max KB", "pulls"});
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < std::size(deltas); ++i) {
    eval::CostParams p;
    p.delta_seconds = deltas[i];
    p.dictionaries = trace.config().num_cas;
    const auto pulls = sim.per_pull_bytes(p, from, to);
    Summary s;
    for (double b : pulls) s.add(b / 1024.0);
    series.push_back(pulls);
    t.add_row({labels[i], Table::num(s.min(), 2), Table::num(s.mean(), 2),
               Table::num(s.max(), 2),
               Table::num(std::uint64_t(pulls.size()))});
  }
  std::printf("%s\n", t.render().c_str());

  // Daily averages for the two extremes (the paper's two panels).
  std::printf("daily average KB/pull:\n");
  Table daily({"day", "d=10s", "d=1day"});
  const auto& fast = series[0];
  const auto& slow = series[4];
  const std::size_t fast_per_day = fast.size() / std::size_t(to - from);
  for (int d = 0; d < to - from; ++d) {
    double fsum = 0;
    for (std::size_t k = 0; k < fast_per_day; ++k) {
      fsum += fast[std::size_t(d) * fast_per_day + k];
    }
    daily.add_row({"day " + std::to_string(from + d) +
                       (from + d == peak ? " (peak)" : ""),
                   Table::num(fsum / double(fast_per_day) / 1024.0, 2),
                   Table::num(slow[std::size_t(d)] / 1024.0, 1)});
  }
  std::printf("%s", daily.render().c_str());
  return 0;
}
