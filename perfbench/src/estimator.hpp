// The benchmark's estimator: every timed metric is built from per-unit
// medians across identical passes, then scaled by C_ref / C_run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmware::perfbench {

/// Median (mean of the middle two for even sizes); 0 for an empty input.
double median(std::vector<double> values);

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// A percentile is reported only when at least 10 samples lie beyond it.
inline bool percentile_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Nearest-rank q-percentile; 0 for an empty input.
double percentile(std::vector<double> values, double q);

/// Scales a raw time measured on this run's host onto the reference host.
inline double calibrated(double raw, double c_ref, double c_run) {
  return c_run > 0 ? raw * c_ref / c_run : raw;
}

/// Times of the same units over several identical passes.
class UnitTimes {
 public:
  /// Adds one pass; returns false (and ignores it) when its unit count
  /// differs from the first pass's, i.e. the units did not repeat.
  bool add_pass(const std::vector<double>& units);

  std::size_t passes() const { return passes_.size(); }
  std::size_t units() const {
    return passes_.empty() ? 0 : passes_.front().size();
  }
  /// Per-unit median across passes.
  std::vector<double> unit_medians() const;
  /// Sum of the per-unit medians: the estimated time of one pass.
  double total() const;

 private:
  std::vector<std::vector<double>> passes_;
};

}  // namespace pmware::perfbench
