#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace pmware {

namespace {

// SplitMix64 step (Steele, Lea & Flood): advances `x` by the golden gamma
// and returns the mixed output. Expands seeds into xoshiro state and
// decorrelates fork salts from the parent stream.
std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t x) { return splitmix64(x); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix64(seed);
}

Rng Rng::from_state(const State& state) {
  if (state == State{}) throw std::invalid_argument("Rng::from_state: zero state");
  Rng rng;
  rng.s_ = state;
  return rng;
}

Rng Rng::fork(std::uint64_t salt) {
  const std::uint64_t base = next();
  return Rng(mix(base ^ mix(salt)));
}

std::uint64_t Rng::bounded(std::uint64_t n) {
  unsigned __int128 m = static_cast<unsigned __int128>(next()) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = -n % n;  // 2^64 mod n
    while (low < threshold) {
      m = static_cast<unsigned __int128>(next()) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  const double x = lo + (hi - lo) * unit();
  // lo + (hi - lo) * u can round up to hi; keep the interval half-open.
  if (x < hi) return x;
  return lo < hi ? std::nextafter(hi, lo) : lo;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  // Unsigned arithmetic: the span of [INT64_MIN, INT64_MAX] is 2^64 - 1.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t offset = span == UINT64_MAX ? next() : bounded(span + 1);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

double Rng::normal_outside_layers(std::uint64_t r) {
  using namespace ziggurat;
  for (;;) {
    const std::size_t layer = r & (kLayers - 1);
    const std::int64_t j = static_cast<std::int64_t>(r) >> 11;
    const double x = static_cast<double>(j) * kLayerWidth[layer];
    if (std::abs(j) < kLayerBound[layer]) return x;
    if (layer == 0) {
      // The tail beyond R (Marsaglia 1964): an exponential proposal of
      // rate R, accepted with probability exp(-a^2 / 2).
      double a = 0;
      double b = 0;
      do {
        // 1 - unit() is in (0, 1], so both logs are finite.
        a = -std::log(1 - unit()) / kR;
        b = -std::log(1 - unit());
      } while (b + b < a * a);
      return j < 0 ? -(kR + a) : kR + a;
    }
    // The wedge: x is in the layer but past the part wholly under the
    // curve; a uniform height in the layer's band decides.
    const double y = kLayerDensity[layer] +
                     unit() * (kLayerDensity[layer - 1] - kLayerDensity[layer]);
    if (y < std::exp(-0.5 * x * x)) return x;
    r = next();
  }
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("Rng::exponential: mean <= 0");
  // 1 - unit() is in (0, 1], so the log is finite.
  return -mean * std::log(1 - unit());
}

bool Rng::bernoulli(double p) { return unit() < std::clamp(p, 0.0, 1.0); }

int Rng::poisson(double mean) {
  if (mean < 0 || mean > 700)
    throw std::invalid_argument("Rng::poisson: mean outside [0, 700]");
  if (mean == 0) return 0;
  const double u = unit();
  int k = 0;
  double p = std::exp(-mean);
  double cdf = p;
  // p reaches 0 once k is far past the mean, which ends the search even if
  // rounding left the summed cdf just below u.
  while (u >= cdf && p > 0) {
    ++k;
    p *= mean / k;
    cdf += p;
  }
  return k;
}

std::size_t Rng::index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::index: size == 0");
  return static_cast<std::size_t>(bounded(size));
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("Rng::weighted_index: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("Rng::weighted_index: no positive weight");
  double target = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace pmware
