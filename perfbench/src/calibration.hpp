// Host-speed calibration. The benchmark host drifts: identical runs of one
// study differ by tens of percent in wall and CPU time. A fixed kernel that
// never calls into the middleware is timed densely between measured units;
// its median time C_run is this run's host speed, and timed metrics are
// scaled by C_ref / C_run (estimator.hpp) so they keep their units while the
// drift cancels.
#pragma once

#include <vector>

namespace pmware::perfbench {

/// C_ref: the kernel's median time, in ms, over the runs that recorded the
/// baseline (perfbench/README.md: 15 runs, RelWithDebInfo, g++ 12, a
/// 4-core Xeon VM). Scaling by C_ref / C_run maps every run onto that
/// host's speed.
inline constexpr double kCalibrationRefMs = 10.5;

/// Runs the calibration kernel once and returns its wall time in ms. The
/// kernel mirrors the middleware's cost mix: mt19937_64 + normal draws (the
/// radio model), hash-map inserts (JSON objects, registries) and a 4 MiB
/// copy (request bodies, checkpoints).
double run_calibration_kernel();

/// Collects kernel samples over one run.
class Calibrator {
 public:
  /// Runs the kernel once and records its time.
  void sample() { samples_.push_back(run_calibration_kernel()); }
  const std::vector<double>& samples() const { return samples_; }
  /// C_run: median of the recorded samples (the kernel's own time is as
  /// noisy as everything else, so no min-based estimate).
  double c_run() const;

 private:
  std::vector<double> samples_;
};

}  // namespace pmware::perfbench
