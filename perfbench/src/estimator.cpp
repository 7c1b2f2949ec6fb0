#include "estimator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pmware::perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

/// 1-based nearest rank of the q-percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t k = nearest_rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

bool UnitTimes::add_pass(const std::vector<double>& units) {
  if (!passes_.empty() && units.size() != passes_.front().size()) return false;
  passes_.push_back(units);
  return true;
}

std::vector<double> UnitTimes::unit_medians() const {
  std::vector<double> out(units());
  std::vector<double> column(passes_.size());
  for (std::size_t u = 0; u < out.size(); ++u) {
    for (std::size_t p = 0; p < passes_.size(); ++p) column[p] = passes_[p][u];
    out[u] = median(column);
  }
  return out;
}

double UnitTimes::total() const {
  const std::vector<double> medians = unit_medians();
  return std::accumulate(medians.begin(), medians.end(), 0.0);
}

}  // namespace pmware::perfbench
