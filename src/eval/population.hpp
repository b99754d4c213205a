// Synthetic world-population model standing in for the MaxMind city dataset
// the paper used to place RAs (§VII-C: "we estimate that the number of RAs
// is proportional to the population size ... 2.3 billion people from
// 47,980 cities"). City sizes are Zipf-distributed; coordinates are drawn
// inside continent bounding boxes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/geo.hpp"

namespace ritm::eval {

struct City {
  sim::GeoPoint location;
  std::uint64_t population = 0;
};

struct PopulationConfig {
  std::uint64_t seed = 7;
  int cities = 47'980;
  std::uint64_t total_population = 2'300'000'000;
};

class Population {
 public:
  explicit Population(PopulationConfig config = {});

  const std::vector<City>& cities() const noexcept { return cities_; }
  std::uint64_t total_population() const noexcept { return total_; }

  /// Number of RAs given `clients_per_ra`: each city needs
  /// ceil(population / clients_per_ra) of them (each person is one client,
  /// as in the paper's conservative estimate).
  std::uint64_t total_ras(double clients_per_ra) const;

  /// A sample of `n` city locations weighted by population — used as
  /// vantage points (the paper's 80 PlanetLab nodes).
  std::vector<sim::GeoPoint> sample_vantage_points(std::size_t n,
                                                   Rng& rng) const;

 private:
  std::vector<City> cities_;
  std::uint64_t total_ = 0;
};

}  // namespace ritm::eval
