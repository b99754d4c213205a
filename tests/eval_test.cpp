// Evaluation-toolkit tests: trace calibration against the paper's dataset
// statistics, population/RA placement, and the cost model's behaviour (cost
// grows as ∆ shrinks and scales with the RA fleet; Heartbleed is visible).
#include <gtest/gtest.h>

#include "eval/cost.hpp"
#include "eval/population.hpp"
#include "eval/trace.hpp"

namespace ritm::eval {
namespace {

TEST(Trace, TotalMatchesDatasetScale) {
  const RevocationTrace trace;
  // Target: 1,381,992 revocations (±2% rounding slack).
  EXPECT_NEAR(double(trace.total()), 1'381'992.0, 0.02 * 1'381'992.0);
  EXPECT_EQ(trace.daily().size(), 546u);
}

TEST(Trace, HeartbleedPeakDominates) {
  const RevocationTrace trace;
  const int peak_day = trace.day_of_max();
  // The max day is at (or adjacent to) the configured Heartbleed day and
  // far above the baseline.
  EXPECT_NEAR(peak_day, trace.config().heartbleed_peak_day, 1);
  const double baseline =
      double(trace.total() - trace.config().heartbleed_extra) / 546.0;
  EXPECT_GT(double(trace.max_daily()), 10.0 * baseline);
}

TEST(Trace, DeterministicForSeed) {
  const RevocationTrace a, b;
  EXPECT_EQ(a.daily(), b.daily());
  TraceConfig other;
  other.seed = 7;
  const RevocationTrace c(other);
  EXPECT_NE(a.daily(), c.daily());
}

TEST(Trace, HourlySumsToDaily) {
  const RevocationTrace trace;
  const int day = trace.config().heartbleed_peak_day;
  const auto hours = trace.hourly(day, day + 2);
  ASSERT_EQ(hours.size(), 48u);
  std::uint64_t sum0 = 0, sum1 = 0;
  for (int h = 0; h < 24; ++h) sum0 += hours[static_cast<std::size_t>(h)];
  for (int h = 24; h < 48; ++h) sum1 += hours[static_cast<std::size_t>(h)];
  EXPECT_EQ(sum0, trace.daily()[static_cast<std::size_t>(day)]);
  EXPECT_EQ(sum1, trace.daily()[static_cast<std::size_t>(day) + 1]);
}

TEST(Trace, HourlyRejectsHostileDayRanges) {
  // Pin the range validation: negative start, inverted and empty windows,
  // and a window running past the trace span must all throw — a silent
  // empty result would make scenario feed plans quietly lose days.
  const RevocationTrace trace;
  const int days = trace.config().days;
  EXPECT_THROW(trace.hourly(-1, 1), std::invalid_argument);
  EXPECT_THROW(trace.hourly(5, 4), std::invalid_argument);
  EXPECT_THROW(trace.hourly(5, 5), std::invalid_argument);
  EXPECT_THROW(trace.hourly(0, days + 1), std::invalid_argument);
  EXPECT_THROW(trace.hourly(days, days + 1), std::invalid_argument);
  // The full span is the largest legal window.
  EXPECT_EQ(trace.hourly(0, days).size(),
            static_cast<std::size_t>(days) * 24u);
}

TEST(Trace, LargestCaShareMatchesPaper) {
  const RevocationTrace trace;
  EXPECT_NEAR(trace.ca_share(0), 0.246, 1e-9);
  double total = 0;
  for (int c = 0; c < trace.config().num_cas; ++c) total += trace.ca_share(c);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(trace.ca_share(1), trace.ca_share(100));  // Zipf tail
}

TEST(Trace, EventsMatchCountsAndSerialWidths) {
  TraceConfig cfg;
  cfg.days = 120;
  cfg.heartbleed_peak_day = 60;
  cfg.total_revocations = 20'000;
  cfg.heartbleed_extra = 5'000;
  const RevocationTrace trace(cfg);
  const auto events = trace.events(0, 10);
  std::uint64_t expected = 0;
  for (int d = 0; d < 10; ++d) {
    expected += trace.daily()[static_cast<std::size_t>(d)];
  }
  EXPECT_EQ(events.size(), expected);
  // Time-sorted, 3-byte serials are the modal width.
  std::size_t three_byte = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) { EXPECT_GE(events[i].time, events[i - 1].time); }
    if (events[i].serial.value.size() == 3) ++three_byte;
    EXPECT_LT(events[i].ca, cfg.num_cas);
  }
  EXPECT_NEAR(double(three_byte) / double(events.size()), 0.32, 0.05);
}

TEST(Population, TotalsMatchConfig) {
  const Population pop;
  EXPECT_EQ(pop.cities().size(), 47'980u);
  // Population within rounding of 2.3 B.
  EXPECT_NEAR(double(pop.total_population()), 2.3e9, 0.05e9);
}

TEST(Population, RasScaleInverselyWithClientsPerRa) {
  const Population pop;
  const auto ras10 = pop.total_ras(10);
  const auto ras1000 = pop.total_ras(1000);
  // ~230M RAs at 10 clients each (the paper's number), with ceil() slack.
  EXPECT_NEAR(double(ras10), 2.3e8, 0.2e8);
  EXPECT_GT(ras10, ras1000 * 50);
}

TEST(Population, VantagePointSampling) {
  const Population pop;
  Rng rng(3);
  const auto points = pop.sample_vantage_points(80, rng);
  EXPECT_EQ(points.size(), 80u);
}

TEST(Cost, MeasuredMessageSizesAreSane) {
  const auto sizes = measured_message_sizes();
  EXPECT_GT(sizes.freshness_bytes, 20.0);     // 20-byte statement + framing
  EXPECT_LT(sizes.freshness_bytes, 64.0);
  EXPECT_GT(sizes.signed_root_bytes, 100.0);  // 64-byte sig + fields
  EXPECT_LT(sizes.signed_root_bytes, 200.0);
  EXPECT_GT(sizes.per_revocation_bytes, 3.0);
  EXPECT_LT(sizes.per_revocation_bytes, 10.0);
}

TEST(Cost, BillIsProportionalToRaFleet) {
  // The paper's Tab. II scales exactly with the RA fleet: one price per GB,
  // and an RA's bytes do not depend on how many clients it serves.
  const RevocationTrace trace;
  const Population pop;
  const CostSimulator sim(&trace, &pop);
  const double clients_per_ra[] = {30, 250, 1000};
  const std::uint64_t fleet[] = {76'689'093, 9'224'013, 2'323'748};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pop.total_ras(clients_per_ra[i]), fleet[i]);
  }
  for (double delta : {10.0, 60.0, 3600.0, 86400.0}) {
    CostParams p;
    p.delta_seconds = delta;
    p.clients_per_ra = clients_per_ra[0];
    const double per_ra = sim.average_bill(p) / double(fleet[0]);
    for (std::size_t i = 1; i < 3; ++i) {
      p.clients_per_ra = clients_per_ra[i];
      const double ratio = sim.average_bill(p) / double(fleet[i]) / per_ra;
      EXPECT_NEAR(ratio, 1.0, 1e-9)
          << "delta " << delta << " s, " << clients_per_ra[i]
          << " clients/RA";
    }
  }
}

class CostTest : public ::testing::Test {
 protected:
  CostTest()
      : trace_(small_trace()),
        pop_(small_population()),
        sim_(&trace_, &pop_) {}

  static TraceConfig small_trace_cfg() {
    TraceConfig cfg;
    cfg.days = 120;
    cfg.heartbleed_peak_day = 75;
    cfg.total_revocations = 300'000;
    cfg.heartbleed_extra = 70'000;
    return cfg;
  }
  static RevocationTrace small_trace() {
    return RevocationTrace(small_trace_cfg());
  }
  static Population small_population() {
    PopulationConfig cfg;
    cfg.cities = 2000;
    cfg.total_population = 2'300'000'000;
    return Population(cfg);
  }

  RevocationTrace trace_;
  Population pop_;
  CostSimulator sim_;
};

TEST_F(CostTest, CostGrowsAsDeltaShrinks) {
  CostParams p10, p60, p3600, p86400;
  p10.delta_seconds = 10;
  p60.delta_seconds = 60;
  p3600.delta_seconds = 3600;
  p86400.delta_seconds = 86400;
  const double c10 = sim_.average_bill(p10);
  const double c60 = sim_.average_bill(p60);
  const double c3600 = sim_.average_bill(p3600);
  const double c86400 = sim_.average_bill(p86400);
  EXPECT_GT(c10, c60);
  EXPECT_GT(c60, c3600);
  EXPECT_GT(c3600, c86400);
  // The bill is linear in bytes. ∆=10 s makes 6x the keep-alives of
  // ∆=1 m, but the same serials, and a signed root only for the periods
  // that hold a revocation, so the cost ratio stays below 6 — far from the
  // naive 360x vs ∆=1 h.
  EXPECT_GT(c10 / c60, 2.0);
  EXPECT_LT(c10 / c60, 6.5);
  EXPECT_LT(c10 / c3600, 100.0);
}

TEST_F(CostTest, CostScalesWithRaCount) {
  CostParams few, many;
  few.clients_per_ra = 1000;
  many.clients_per_ra = 10;
  EXPECT_GT(sim_.average_bill(many), 50.0 * sim_.average_bill(few));
}

TEST_F(CostTest, HeartbleedCycleIsVisible) {
  CostParams p;
  p.delta_seconds = 86400;  // revocation-content dominated
  const auto bills = sim_.monthly_bills(p);
  ASSERT_GE(bills.size(), 3u);
  // The cycle containing the peak day (75/30 = cycle 2) must be the most
  // expensive.
  std::size_t max_cycle = 0;
  for (std::size_t i = 1; i < bills.size(); ++i) {
    if (bills[i] > bills[max_cycle]) max_cycle = i;
  }
  EXPECT_EQ(max_cycle, 2u);
}

TEST_F(CostTest, PerPullBytesTrackRevocationRate) {
  CostParams p;
  p.delta_seconds = 3600;
  p.dictionaries = trace_.config().num_cas;
  const int peak = trace_.config().heartbleed_peak_day;
  const auto quiet = sim_.per_pull_bytes(p, 5, 6);
  const auto burst = sim_.per_pull_bytes(p, peak, peak + 1);
  ASSERT_EQ(quiet.size(), 24u);
  ASSERT_EQ(burst.size(), 24u);
  double quiet_avg = 0, burst_avg = 0;
  for (double b : quiet) quiet_avg += b / 24.0;
  for (double b : burst) burst_avg += b / 24.0;
  // The burst is clearly visible despite the keep-alive floor and the
  // saturation of the one-signed-root-per-issuing-CA term (≤254 per pull).
  EXPECT_GT(burst_avg, 2.0 * quiet_avg);
  // Keep-alive floor: at least 254 freshness statements per pull.
  EXPECT_GT(quiet_avg, 254.0 * 20.0);
}

}  // namespace
}  // namespace ritm::eval
