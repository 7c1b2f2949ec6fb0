// Deterministic random-number utilities.
//
// Every stochastic component in PMWare takes an explicit Rng so that whole
// deployment studies replay bit-for-bit from a single seed (DESIGN.md §5).
// The engine and every distribution are implemented here rather than taken
// from <random>, whose distributions are implementation-defined: a stream
// is a function of the seed alone, not of the standard library that built
// it.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/ziggurat_tables.hpp"

namespace pmware {

/// Seeded xoshiro256++ generator (Blackman & Vigna) with the distribution
/// helpers used across the simulator. Not thread-safe: each owner (a
/// participant, a device, a client) holds its own, forked from a parent.
class Rng {
 public:
  using State = std::array<std::uint64_t, 4>;

  /// Constructs a generator from an explicit seed, expanded into the
  /// 256-bit state by SplitMix64. The same seed always yields the same
  /// stream.
  explicit Rng(std::uint64_t seed);

  /// Constructs a generator with the given raw xoshiro256++ state (must not
  /// be all zero). For known-answer tests against the reference outputs.
  static Rng from_state(const State& state);

  /// Derives an independent child generator; `salt` distinguishes siblings
  /// derived from the same parent (e.g. one child per participant).
  Rng fork(std::uint64_t salt);

  /// Next raw 64-bit output of xoshiro256++.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) on the 2^-53 grid (top 53 bits of next()).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi). Requires lo <= hi; lo == hi returns lo.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive, unbiased (Lemire's bounded
  /// multiply with rejection). Requires lo <= hi; the full int64 range is
  /// allowed.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal variate with the given mean and standard deviation (sigma >= 0),
  /// by a 128-layer ziggurat (Marsaglia & Tsang 2000; tables in
  /// util/ziggurat_tables.hpp). One next() picks a layer with its low 7 bits
  /// and a signed uniform with its top 53; about 97 % of draws are accepted
  /// by one table compare and cost that one next(). The rest go to the
  /// wedge test or the tail beyond R, out of line. sigma == 0 returns mean
  /// without drawing.
  double normal(double mean, double sigma) {
    if (sigma < 0) throw std::invalid_argument("Rng::normal: sigma < 0");
    if (sigma == 0) return mean;
    const std::uint64_t r = next();
    const std::size_t layer = r & (ziggurat::kLayers - 1);
    const std::int64_t j = static_cast<std::int64_t>(r) >> 11;
    const double x = static_cast<double>(j) * ziggurat::kLayerWidth[layer];
    if (std::abs(j) < ziggurat::kLayerBound[layer]) return mean + sigma * x;
    return mean + sigma * normal_outside_layers(r);
  }

  /// Exponential variate with the given mean (> 0), by inversion.
  double exponential(double mean);

  /// True with probability p (clamped to [0, 1]): unit() < p.
  bool bernoulli(double p);

  /// Poisson variate with the given mean, by sequential-search inversion
  /// (one unit() draw, O(mean) work). Valid for 0 <= mean <= 700: past
  /// ~708, e^-mean leaves the normal double range and the search loses
  /// precision. Throws outside that range.
  int poisson(double mean);

  /// Uniformly chosen index into a container of `size` elements (size > 0).
  std::size_t index(std::size_t size);

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[index(items.size())];
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Index chosen with probability proportional to `weights[i]`.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[index(i)]);
    }
  }

 private:
  Rng() = default;

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Uniform integer in [0, n), n > 0.
  std::uint64_t bounded(std::uint64_t n);

  /// The ziggurat's slow path for a raw draw `r` that the layer compare
  /// rejected: the wedge test, or the tail beyond R for layer 0. Draws
  /// again until a standard normal is accepted.
  double normal_outside_layers(std::uint64_t r);

  State s_{};
};

}  // namespace pmware
