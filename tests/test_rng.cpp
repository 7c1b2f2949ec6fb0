#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

namespace pmware {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child1 = parent1.fork(3);
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(child1.uniform(0, 1), child2.uniform(0, 1));
}

TEST(Rng, ForkSaltsAreIndependent) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, NormalZeroSigmaIsMean) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0, -1), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, BernoulliClampsOutOfRange) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, PoissonMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(23);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(29);
  const std::vector<int> items{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(items);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights{0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(Rng, WeightedIndexRejectsBadWeights) {
  Rng rng(1);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

// Known answers. The xoshiro256++ and SplitMix64 vectors are the
// reference implementations' outputs (Blackman & Vigna; Steele, Lea &
// Flood); the distribution vectors pin the first draws for seed 42, so any
// change to the engine, the seeding or a sampler shows up here before it
// shows up as a re-recorded study golden.

TEST(RngKnownAnswer, Xoshiro256PlusPlusReferenceOutputs) {
  Rng rng = Rng::from_state({1, 2, 3, 4});
  const std::uint64_t expected[] = {
      0x2800001ULL,          0x3800067ULL,
      0xcc00003800067ULL,    0xcc201994400b2ULL,
      0x8012a2019ac433cdULL, 0x8a69978acdee33baULL,
      0xc271134733154abdULL, 0xac2ba09179169e97ULL};
  for (std::uint64_t e : expected) EXPECT_EQ(rng.next(), e);
}

TEST(RngKnownAnswer, SeedIsExpandedBySplitMix64) {
  // SplitMix64's first four outputs from seed 0 are the state of Rng(0).
  Rng seeded(0);
  Rng reference = Rng::from_state({0xe220a8397b1dcdafULL, 0x6e789e6aa1b965f4ULL,
                                   0x06c45d188009454fULL, 0xf88bb8a8724c81ecULL});
  for (int i = 0; i < 16; ++i) EXPECT_EQ(seeded.next(), reference.next());
}

TEST(RngKnownAnswer, FromStateRejectsZeroState) {
  EXPECT_THROW(Rng::from_state({0, 0, 0, 0}), std::invalid_argument);
}

TEST(RngKnownAnswer, RawOutputsForSeed42) {
  Rng rng(42);
  EXPECT_EQ(rng.next(), 0xd0764d4f4476689fULL);
  EXPECT_EQ(rng.next(), 0x519e4174576f3791ULL);
  EXPECT_EQ(rng.next(), 0xfbe07cfb0c24ed8cULL);
  EXPECT_EQ(rng.next(), 0xb37d9f600cd835b8ULL);
}

TEST(RngKnownAnswer, UnitAndUniform) {
  Rng a(42);
  for (double e : {0.8143051451229099, 0.3188210400616611, 0.9838941681774888,
                   0.7011355981347556})
    EXPECT_EQ(a.unit(), e);
  Rng b(42);
  for (double e : {5.643051451229098, 0.6882104006166112, 7.338941681774887,
                   4.511355981347556})
    EXPECT_EQ(b.uniform(-2.5, 7.5), e);
}

TEST(RngKnownAnswer, BoundedIntegers) {
  Rng a(42);
  for (std::int64_t e : {3, -2, 5, 2, 3, 1, -4, 1})
    EXPECT_EQ(a.uniform_int(-5, 5), e);
  Rng b(42);
  for (std::size_t e : {8u, 3u, 9u, 7u, 7u, 5u, 1u, 6u}) EXPECT_EQ(b.index(10), e);
  // The full int64 span has no bound to reject against: one raw draw each.
  Rng c(42);
  EXPECT_EQ(c.uniform_int(INT64_MIN, INT64_MAX), 5797906573132458143LL);
  EXPECT_EQ(c.uniform_int(INT64_MIN, INT64_MAX), -3342161905523411055LL);
}

TEST(RngKnownAnswer, NormalExponentialBernoulliPoisson) {
  Rng n(42);
  for (double e : {2.1999146841271267, 4.069902470076673, 2.9529122227618143,
                   1.29617254525647})
    EXPECT_DOUBLE_EQ(n.normal(3.0, 2.0), e);
  Rng x(42);
  for (double e : {8.418252588232845, 1.9196510871585468, 20.642869237893294,
                   6.0388265696178305})
    EXPECT_DOUBLE_EQ(x.exponential(5.0), e);
  Rng b(42);
  for (bool e : {false, false, false, false, false, false, true, false})
    EXPECT_EQ(b.bernoulli(0.3), e);
  Rng p(42);
  for (int e : {6, 3, 9, 5, 6, 4, 2, 4}) EXPECT_EQ(p.poisson(4.0), e);
}

TEST(RngKnownAnswer, NormalFastPathConsumesOneWord) {
  // Seed 42's first raw word lands inside its layer: the draw costs exactly
  // that word, so the next raw output is the stream's second.
  Rng rng(42);
  EXPECT_DOUBLE_EQ(rng.normal(0, 1), -0.40004265793643673);
  EXPECT_EQ(rng.next(), 0x519e4174576f3791ULL);
}

TEST(RngKnownAnswer, NormalWedgeAndTailDraws) {
  // Seed 1517's first eight draws take the slow path twice: the third is
  // decided by a wedge test and the seventh comes from the tail beyond R.
  // Together they consume 13 raw words.
  Rng rng(1517);
  for (double e : {1.5142038453297508, 0.4630293541807749,
                   -0.0014808464813239144, -0.8221841898718517,
                   1.2685705897741741, 0.47006712729436145, 3.6578546646269103,
                   0.40856375842849024})
    EXPECT_DOUBLE_EQ(rng.normal(0, 1), e);
  EXPECT_EQ(rng.next(), 0x40868d8f16365428ULL);
}

TEST(Rng, UniformIsHalfOpenAndDegenerateRangeIsLo) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(2.0, 2.0), 2.0);
  const double tiny = std::nextafter(1.0, 2.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(1.0, tiny), tiny);
}

TEST(Rng, PoissonRejectsMeansOutsideValidRange) {
  Rng rng(1);
  EXPECT_THROW(rng.poisson(-1), std::invalid_argument);
  EXPECT_THROW(rng.poisson(701), std::invalid_argument);
  EXPECT_GE(rng.poisson(700), 0);
}

// The ziggurat tables are literals; check them against the construction
// they encode: 128 regions of equal area v under f(x) = exp(-x^2 / 2).
TEST(RngDistribution, ZigguratLayersHaveEqualArea) {
  using namespace ziggurat;
  const double scale = 0x1p52;
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  const double tail =
      std::sqrt(std::acos(-1.0) / 2) * std::erfc(kR / std::sqrt(2.0));
  const double v = kR * f(kR) + tail;
  EXPECT_EQ(kLayerWidth[kLayers - 1] * scale, kR);
  EXPECT_DOUBLE_EQ(kLayerWidth[0] * scale, v / f(kR));
  EXPECT_NEAR(static_cast<double>(kLayerBound[0]), scale * f(kR) * kR / v, 2);
  EXPECT_EQ(kLayerDensity[0], 1.0);
  EXPECT_EQ(kLayerBound[1], 0);
  for (int i = 1; i < kLayers; ++i) {
    SCOPED_TRACE(i);
    const double x = kLayerWidth[i] * scale;
    // x is x_i rounded to double, which moves f(x) by up to ~x^2 ulp.
    EXPECT_NEAR(kLayerDensity[i] / f(x), 1.0, 1e-14);
    EXPECT_NEAR(x * (kLayerDensity[i - 1] - kLayerDensity[i]), v, 1e-13);
    if (i > 1) {
      EXPECT_NEAR(static_cast<double>(kLayerBound[i]),
                  scale * kLayerWidth[i - 1] / kLayerWidth[i], 2);
    }
  }
}

// The first four moments of 10^7 standard normals and the two-sided mass
// beyond 1..4 sigma, each within five standard errors of its exact value.
TEST(RngDistribution, NormalMomentsAndTails) {
  constexpr int n = 10'000'000;
  Rng rng(20141208);
  double m[5] = {0, 0, 0, 0, 0};
  std::int64_t beyond[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(0, 1);
    const double x2 = x * x;
    m[1] += x;
    m[2] += x2;
    m[3] += x2 * x;
    m[4] += x2 * x2;
    for (int k = 1; k <= 4; ++k) beyond[k] += std::abs(x) > k;
  }
  // E[x^k] for k = 1..4 is 0, 1, 0, 3; Var[x^k] = E[x^2k] - E[x^k]^2 is
  // 1, 2, 15, 96.
  const double exact[5] = {0, 0, 1, 0, 3};
  const double var[5] = {0, 1, 2, 15, 96};
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE(k);
    EXPECT_NEAR(m[k] / n, exact[k], 5 * std::sqrt(var[k] / n));
    const double p = std::erfc(k / std::sqrt(2.0));
    EXPECT_NEAR(static_cast<double>(beyond[k]) / n, p,
                5 * std::sqrt(p * (1 - p) / n));
  }
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysInBoundsAndVaries) {
  Rng rng(GetParam());
  std::set<std::int64_t> distinct;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 100);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 100);
    distinct.insert(static_cast<std::int64_t>(x * 1e6));
  }
  EXPECT_GT(distinct.size(), 150u);
}

TEST_P(RngSeedSweep, ForkDoesNotEqualParentStream) {
  Rng parent(GetParam());
  Rng child = parent.fork(99);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.uniform_int(0, 1 << 30) == child.uniform_int(0, 1 << 30)) ++same;
  EXPECT_LT(same, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 20141208ULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace pmware
