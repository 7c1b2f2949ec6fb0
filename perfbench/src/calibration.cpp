#include "calibration.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <unordered_map>

#include "estimator.hpp"

namespace pmware::perfbench {

namespace {

constexpr int kNormalDraws = 55000;
constexpr int kMapInserts = 20000;
constexpr std::size_t kCopyBytes = std::size_t{4} << 20;

/// Keeps the kernel's results observable so the optimizer cannot drop work.
volatile std::uint64_t g_sink = 0;

}  // namespace

double run_calibration_kernel() {
  const auto begin = std::chrono::steady_clock::now();

  std::mt19937_64 engine(0x5eed);
  double acc = 0;
  for (int i = 0; i < kNormalDraws; ++i) {
    // A fresh distribution per draw, as the middleware's Rng::normal does.
    std::normal_distribution<double> normal(0.0, 3.0);
    acc += normal(engine);
  }

  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < kMapInserts; ++i)
    map.emplace(engine(), static_cast<std::uint64_t>(i));

  std::vector<char> src(kCopyBytes, static_cast<char>(map.size()));
  std::vector<char> dst(kCopyBytes);
  std::memcpy(dst.data(), src.data(), kCopyBytes);

  g_sink = g_sink + static_cast<std::uint64_t>(acc) + map.size() +
           static_cast<unsigned char>(dst[kCopyBytes / 2]);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

double Calibrator::c_run() const { return median(samples_); }

}  // namespace pmware::perfbench
