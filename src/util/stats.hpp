// Streaming/summary statistics used by the error-measurement harnesses.
#pragma once

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace er {

/// Accumulates scalar samples and reports summary statistics.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Unbiased sample variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const;

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double m2_ = 0.0;   // Welford accumulator
  double mean_ = 0.0; // Welford running mean
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact quantile of a sample vector (copies and sorts; for reporting only).
double quantile(std::vector<double> samples, double q);

/// Relative error |approx - exact| / |exact| with a guard for exact == 0.
double relative_error(double approx, double exact);

}  // namespace er
