#include "eval/population.hpp"

#include <cmath>
#include <stdexcept>

namespace ritm::eval {

namespace {
struct Continent {
  double share;  // of world population
  double lat_lo, lat_hi, lon_lo, lon_hi;
};

// Rough continental population shares and bounding boxes.
constexpr Continent kContinents[] = {
    {0.37, 20.0, 48.0, 95.0, 145.0},     // East/Southeast Asia
    {0.18, 8.0, 32.0, 68.0, 90.0},       // Indian subcontinent
    {0.12, 36.0, 60.0, -10.0, 40.0},     // Europe
    {0.08, 25.0, 50.0, -125.0, -70.0},   // North America
    {0.06, -35.0, 10.0, -80.0, -35.0},   // South America
    {0.16, -35.0, 37.0, -17.0, 55.0},    // Africa + Middle East
    {0.03, -43.0, -10.0, 113.0, 178.0},  // Oceania
};
}  // namespace

Population::Population(PopulationConfig config) {
  if (config.cities <= 0) {
    throw std::invalid_argument("Population: cities must be > 0");
  }
  Rng rng(config.seed);
  cities_.reserve(static_cast<std::size_t>(config.cities));

  // Zipf city sizes: weight of rank r is 1/(r+1)^s.
  const double s = 1.07;  // empirical city-size exponent
  std::vector<double> weights(static_cast<std::size_t>(config.cities));
  double total_w = 0.0;
  for (int r = 0; r < config.cities; ++r) {
    weights[static_cast<std::size_t>(r)] = 1.0 / std::pow(double(r + 1), s);
    total_w += weights[static_cast<std::size_t>(r)];
  }

  // Continent assignment: cumulative shares.
  double cum[std::size(kContinents)];
  double acc = 0.0;
  for (std::size_t i = 0; i < std::size(kContinents); ++i) {
    acc += kContinents[i].share;
    cum[i] = acc;
  }

  total_ = 0;
  for (int r = 0; r < config.cities; ++r) {
    City city;
    city.population = static_cast<std::uint64_t>(
        weights[static_cast<std::size_t>(r)] / total_w *
        double(config.total_population));
    if (city.population == 0) city.population = 1;

    const double draw = rng.uniform01() * acc;
    std::size_t c = 0;
    while (c + 1 < std::size(kContinents) && draw > cum[c]) ++c;
    const Continent& cont = kContinents[c];
    city.location.lat_deg =
        cont.lat_lo + rng.uniform01() * (cont.lat_hi - cont.lat_lo);
    city.location.lon_deg =
        cont.lon_lo + rng.uniform01() * (cont.lon_hi - cont.lon_lo);
    total_ += city.population;
    cities_.push_back(city);
  }
}

std::uint64_t Population::total_ras(double clients_per_ra) const {
  if (clients_per_ra <= 0) {
    throw std::invalid_argument("Population: clients_per_ra must be > 0");
  }
  std::uint64_t total = 0;
  for (const auto& city : cities_) {
    total += static_cast<std::uint64_t>(
        std::ceil(double(city.population) / clients_per_ra));
  }
  return total;
}

std::vector<sim::GeoPoint> Population::sample_vantage_points(std::size_t n,
                                                             Rng& rng) const {
  std::vector<sim::GeoPoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Population-weighted pick: rejection over Zipf ranks is cheap because
    // low ranks dominate.
    const std::size_t rank = rng.zipf(std::min<std::size_t>(cities_.size(),
                                                            2000),
                                      1.0);
    out.push_back(cities_[rank].location);
  }
  return out;
}

}  // namespace ritm::eval
