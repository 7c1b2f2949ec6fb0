#include "world/roads.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/polyline.hpp"
#include "util/rng.hpp"

namespace pmware::world {
namespace {

constexpr geo::LatLng kOrigin{28.6139, 77.2090};

TEST(RoadNetwork, RejectsBadConstruction) {
  EXPECT_THROW(RoadNetwork(kOrigin, 0, 5, 5), std::invalid_argument);
  EXPECT_THROW(RoadNetwork(kOrigin, 100, 1, 5), std::invalid_argument);
  EXPECT_THROW(RoadNetwork(kOrigin, 100, 5, 1), std::invalid_argument);
}

TEST(RoadNetwork, NodePositions) {
  const RoadNetwork roads(kOrigin, 250, 10, 10);
  EXPECT_NEAR(geo::distance_m(roads.node(0, 0), kOrigin), 0, 0.1);
  EXPECT_NEAR(geo::distance_m(roads.node(1, 0), roads.node(0, 0)), 250, 1);
  EXPECT_NEAR(geo::distance_m(roads.node(0, 1), roads.node(0, 0)), 250, 1);
  EXPECT_NEAR(geo::distance_m(roads.node(3, 4), kOrigin),
              std::hypot(750.0, 1000.0), 2);
}

TEST(RoadNetwork, NearestNodeSnapsAndClamps) {
  const RoadNetwork roads(kOrigin, 250, 10, 10);
  const auto [i0, j0] = roads.nearest_node(kOrigin);
  EXPECT_EQ(i0, 0);
  EXPECT_EQ(j0, 0);
  // A point past the grid clamps to the last node.
  const geo::LatLng far = geo::from_enu(kOrigin, {100000, 100000});
  const auto [i1, j1] = roads.nearest_node(far);
  EXPECT_EQ(i1, 9);
  EXPECT_EQ(j1, 9);
  // Snapping rounds to the closest intersection.
  const geo::LatLng near_21 = geo::from_enu(kOrigin, {2 * 250 + 40, 250 - 40});
  const auto [i2, j2] = roads.nearest_node(near_21);
  EXPECT_EQ(i2, 2);
  EXPECT_EQ(j2, 1);
}

TEST(RoadNetwork, RouteStartsAndEndsAtRequestedPoints) {
  const RoadNetwork roads(kOrigin, 250, 10, 10);
  const geo::LatLng from = geo::from_enu(kOrigin, {130, 620});
  const geo::LatLng to = geo::from_enu(kOrigin, {1800, 1100});
  const auto route = roads.route(from, to);
  ASSERT_GE(route.size(), 2u);
  EXPECT_EQ(route.front(), from);
  EXPECT_EQ(route.back(), to);
}

TEST(RoadNetwork, RouteLengthApproximatesManhattanDistance) {
  const RoadNetwork roads(kOrigin, 250, 25, 25);
  const geo::LatLng from = geo::from_enu(kOrigin, {250, 250});
  const geo::LatLng to = geo::from_enu(kOrigin, {2250, 1750});
  const auto route = roads.route(from, to);
  const double length = geo::polyline_length_m(route);
  const double manhattan = 2000 + 1500;
  // Grid path cannot be shorter than Manhattan and should not exceed it by
  // much more than the snap overhead.
  EXPECT_GE(length, manhattan - 5);
  EXPECT_LE(length, manhattan + 2 * 250 + 5);
}

TEST(RoadNetwork, RouteBetweenSamePointIsTrivial) {
  const RoadNetwork roads(kOrigin, 250, 10, 10);
  const geo::LatLng p = geo::from_enu(kOrigin, {600, 600});
  const auto route = roads.route(p, p);
  EXPECT_EQ(route.front(), p);
  EXPECT_EQ(route.back(), p);
}

TEST(RoadNetwork, ConsecutiveRoutePointsAreAdjacent) {
  const RoadNetwork roads(kOrigin, 250, 20, 20);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::LatLng from =
        geo::from_enu(kOrigin, {rng.uniform(0, 4500), rng.uniform(0, 4500)});
    const geo::LatLng to =
        geo::from_enu(kOrigin, {rng.uniform(0, 4500), rng.uniform(0, 4500)});
    const auto route = roads.route(from, to);
    // Interior hops are single grid edges (≤ spacing + rounding).
    for (std::size_t i = 2; i + 1 < route.size(); ++i) {
      EXPECT_LE(geo::distance_m(route[i - 1], route[i]), 251.0)
          << "hop " << i << " in trial " << trial;
    }
  }
}

class RoadGridSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoadGridSweep, AllRoutesReachable) {
  const int n = GetParam();
  const RoadNetwork roads(kOrigin, 300, n, n);
  const geo::LatLng corner_a = roads.node(0, 0);
  const geo::LatLng corner_b = roads.node(n - 1, n - 1);
  const auto route = roads.route(corner_a, corner_b);
  const double expected = 2.0 * 300 * (n - 1);
  EXPECT_NEAR(geo::polyline_length_m(route), expected, 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoadGridSweep, ::testing::Values(2, 3, 5, 12));

}  // namespace
}  // namespace pmware::world
