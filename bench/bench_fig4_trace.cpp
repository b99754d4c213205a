// Fig. 4: number of revocations issued between January 2014 and June 2015,
// with the zoom on the Heartbleed peak (16-17 April 2014).
//
// The paper plots the ISC dataset; we regenerate the series from the
// calibrated synthetic trace (same total, same peak shape) and print it as
// monthly aggregates (top plot) and the 6-hourly zoom (bottom plot).
#include <cstdio>

#include "common/table.hpp"
#include "eval/trace.hpp"

using namespace ritm;

namespace {
const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

std::string bar(double value, double max, int width = 40) {
  const int n = max > 0 ? int(value / max * width) : 0;
  return std::string(static_cast<std::size_t>(std::max(0, n)), '#');
}
}  // namespace

int main() {
  const eval::RevocationTrace trace;

  std::printf("== Fig. 4 (top): revocations per month, Jan 2014 - Jun 2015 ==\n");
  std::printf("total revocations: %llu (paper dataset: 1,381,992)\n",
              (unsigned long long)trace.total());
  std::printf("peak day: %d with %llu revocations\n\n", trace.day_of_max(),
              (unsigned long long)trace.max_daily());

  // Aggregate by calendar month (day 0 = 1 Jan 2014).
  const int month_days[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31,
                            31, 28, 31, 30, 31, 30};
  int day = 0;
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  std::uint64_t month_max = 0;
  for (int m = 0; m < 18 && day < trace.config().days; ++m) {
    std::uint64_t total = 0;
    for (int d = 0; d < month_days[m] && day < trace.config().days;
         ++d, ++day) {
      total += trace.daily()[static_cast<std::size_t>(day)];
    }
    const std::string label =
        std::string(kMonths[m % 12]) + " " + (m < 12 ? "2014" : "2015");
    rows.emplace_back(label, total);
    month_max = std::max(month_max, total);
  }
  // Bars scaled to the max month.
  Table monthly({"month", "revocations", ""});
  for (const auto& [label, total] : rows) {
    monthly.add_row(
        {label, Table::num(total), bar(double(total), double(month_max))});
  }
  std::printf("%s\n", monthly.render().c_str());

  std::printf("== Fig. 4 (bottom): 6-hourly zoom, 16-17 April 2014 ==\n");
  const int peak = trace.config().heartbleed_peak_day;
  const auto hours = trace.hourly(peak, peak + 2);
  std::uint64_t zoom_max = 0;
  std::vector<std::uint64_t> buckets;
  for (std::size_t h = 0; h + 6 <= hours.size(); h += 6) {
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < 6; ++k) v += hours[h + k];
    buckets.push_back(v);
    zoom_max = std::max(zoom_max, v);
  }
  Table zoom({"window", "revocations", ""});
  const char* windows[] = {"Apr 16 00:00", "Apr 16 06:00", "Apr 16 12:00",
                           "Apr 16 18:00", "Apr 17 00:00", "Apr 17 06:00",
                           "Apr 17 12:00", "Apr 17 18:00"};
  for (std::size_t i = 0; i < buckets.size() && i < 8; ++i) {
    zoom.add_row({windows[i], Table::num(buckets[i]),
                  bar(double(buckets[i]), double(zoom_max))});
  }
  std::printf("%s", zoom.render().c_str());
  return 0;
}
