#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ritm {

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void Summary::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::min() const {
  if (samples_.empty()) throw std::logic_error("Summary::min on empty set");
  ensure_sorted();
  return sorted_.front();
}

double Summary::max() const {
  if (samples_.empty()) throw std::logic_error("Summary::max on empty set");
  ensure_sorted();
  return sorted_.back();
}

double Summary::mean() const {
  if (samples_.empty()) throw std::logic_error("Summary::mean on empty set");
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : samples_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

double Summary::percentile(double q) const {
  if (samples_.empty()) {
    throw std::logic_error("Summary::percentile on empty set");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("Summary::percentile q outside [0,1]");
  }
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

double Summary::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> Summary::cdf_curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> curve;
  if (samples_.empty() || points == 0) return curve;
  const double lo = min(), hi = max();
  curve.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        points == 1 ? hi
                    : lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(points - 1);
    curve.emplace_back(x, cdf_at(x));
  }
  return curve;
}

}  // namespace ritm
