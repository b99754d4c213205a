// Small statistics toolkit for the evaluation harness: summary statistics
// and empirical CDFs (Fig. 5 of the paper is a CDF plot).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ritm {

/// Accumulates samples; all queries are O(n log n) at most (sort-on-demand).
class Summary {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const noexcept { return samples_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  /// q in [0,1]; linear interpolation between order statistics.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }

  const std::vector<double>& samples() const noexcept { return samples_; }

  /// Empirical CDF evaluated at x: fraction of samples <= x.
  double cdf_at(double x) const;

  /// Sampled CDF curve: `points` evenly spaced (x, F(x)) pairs spanning
  /// [min, max]. Suitable for printing Fig. 5-style series.
  std::vector<std::pair<double, double>> cdf_curve(std::size_t points) const;

 private:
  void ensure_sorted() const;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace ritm
