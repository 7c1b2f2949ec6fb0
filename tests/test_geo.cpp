#include "geo/latlng.hpp"
#include "geo/polyline.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace pmware::geo {
namespace {

constexpr LatLng kDelhi{28.6139, 77.2090};

TEST(LatLng, DistanceToSelfIsZero) {
  EXPECT_DOUBLE_EQ(distance_m(kDelhi, kDelhi), 0.0);
}

TEST(LatLng, DistanceSymmetry) {
  const LatLng a{28.6, 77.2};
  const LatLng b{28.7, 77.3};
  EXPECT_DOUBLE_EQ(distance_m(a, b), distance_m(b, a));
}

TEST(LatLng, KnownDistanceOneDegreeLatitude) {
  const LatLng a{28.0, 77.0};
  const LatLng b{29.0, 77.0};
  // One degree of latitude is ~111.2 km on the spherical model.
  EXPECT_NEAR(distance_m(a, b), 111195, 100);
}

TEST(LatLng, BearingCardinalDirections) {
  EXPECT_NEAR(bearing_deg(kDelhi, destination(kDelhi, 0, 1000)), 0, 0.5);
  EXPECT_NEAR(bearing_deg(kDelhi, destination(kDelhi, 90, 1000)), 90, 0.5);
  EXPECT_NEAR(bearing_deg(kDelhi, destination(kDelhi, 180, 1000)), 180, 0.5);
  EXPECT_NEAR(bearing_deg(kDelhi, destination(kDelhi, 270, 1000)), 270, 0.5);
}

TEST(LatLng, DestinationDistanceRoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double bearing = rng.uniform(0, 360);
    const double dist = rng.uniform(1, 20000);
    const LatLng p = destination(kDelhi, bearing, dist);
    EXPECT_NEAR(distance_m(kDelhi, p), dist, dist * 1e-6 + 0.01);
  }
}

TEST(LatLng, CentroidOfSymmetricPoints) {
  const std::vector<LatLng> points{{28.0, 77.0}, {29.0, 78.0}};
  const LatLng c = centroid(points);
  EXPECT_DOUBLE_EQ(c.lat, 28.5);
  EXPECT_DOUBLE_EQ(c.lng, 77.5);
}

TEST(LatLng, CentroidThrowsOnEmpty) {
  EXPECT_THROW(centroid({}), std::invalid_argument);
}

TEST(LatLng, Lerp) {
  const LatLng a{28.0, 77.0};
  const LatLng b{29.0, 78.0};
  const LatLng mid = lerp(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.lat, 28.5);
  EXPECT_DOUBLE_EQ(mid.lng, 77.5);
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
}

TEST(BoundingBox, OfPoints) {
  const std::vector<LatLng> pts{{28.1, 77.5}, {28.9, 77.1}, {28.5, 77.9}};
  const BoundingBox box = BoundingBox::of(pts);
  EXPECT_DOUBLE_EQ(box.min_lat, 28.1);
  EXPECT_DOUBLE_EQ(box.max_lat, 28.9);
  EXPECT_DOUBLE_EQ(box.min_lng, 77.1);
  EXPECT_DOUBLE_EQ(box.max_lng, 77.9);
  for (const auto& p : pts) EXPECT_TRUE(box.contains(p));
  EXPECT_THROW(BoundingBox::of({}), std::invalid_argument);
}

TEST(BoundingBox, ExpandedContainsNearbyPoints) {
  const BoundingBox box = BoundingBox::of({kDelhi}).expanded(1000);
  EXPECT_TRUE(box.contains(destination(kDelhi, 45, 900)));
  EXPECT_FALSE(box.contains(destination(kDelhi, 0, 5000)));
}

TEST(Enu, RoundTrip) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const EnuOffset off{rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)};
    const LatLng p = from_enu(kDelhi, off);
    const EnuOffset back = to_enu(kDelhi, p);
    EXPECT_NEAR(back.east_m, off.east_m, 0.01);
    EXPECT_NEAR(back.north_m, off.north_m, 0.01);
  }
}

TEST(Enu, MatchesHaversineAtCityScale) {
  const LatLng p = destination(kDelhi, 30, 3000);
  const EnuOffset off = to_enu(kDelhi, p);
  const double enu_dist = std::hypot(off.east_m, off.north_m);
  EXPECT_NEAR(enu_dist, 3000, 3);
}

TEST(Polyline, LengthOfStraightSegments) {
  const LatLng a = kDelhi;
  const LatLng b = destination(a, 90, 1000);
  const LatLng c = destination(b, 0, 500);
  const std::vector<LatLng> line{a, b, c};
  EXPECT_NEAR(polyline_length_m(line), 1500, 1);
  EXPECT_DOUBLE_EQ(polyline_length_m({a}), 0.0);
  EXPECT_DOUBLE_EQ(polyline_length_m({}), 0.0);
}

TEST(Polyline, PointAlong) {
  const LatLng a = kDelhi;
  const LatLng b = destination(a, 90, 1000);
  const std::vector<LatLng> line{a, b};
  EXPECT_NEAR(distance_m(point_along(line, 0), a), 0, 0.1);
  EXPECT_NEAR(distance_m(point_along(line, 500), a), 500, 1);
  EXPECT_NEAR(distance_m(point_along(line, 2000), b), 0, 0.1);  // clamped
  EXPECT_NEAR(distance_m(point_along(line, -5), a), 0, 0.1);    // clamped
  EXPECT_THROW(point_along({}, 10), std::invalid_argument);
}

TEST(Polyline, ResampleSpacing) {
  const LatLng a = kDelhi;
  const LatLng b = destination(a, 90, 1000);
  const auto pts = resample({a, b}, 100);
  EXPECT_EQ(pts.size(), 11u);  // 0,100,...,900 plus endpoint
  for (std::size_t i = 1; i + 1 < pts.size(); ++i)
    EXPECT_NEAR(distance_m(pts[i - 1], pts[i]), 100, 1);
  EXPECT_THROW(resample({a, b}, 0), std::invalid_argument);
  EXPECT_THROW(resample({}, 10), std::invalid_argument);
}

TEST(Polyline, DistanceToPolyline) {
  const LatLng a = kDelhi;
  const LatLng b = destination(a, 90, 1000);
  const std::vector<LatLng> line{a, b};
  // Point 200m north of the segment midpoint.
  const LatLng mid = destination(a, 90, 500);
  const LatLng off = destination(mid, 0, 200);
  EXPECT_NEAR(distance_to_polyline_m(off, line), 200, 2);
  // Point beyond the end: distance to the endpoint.
  const LatLng past = destination(b, 90, 300);
  EXPECT_NEAR(distance_to_polyline_m(past, line), 300, 2);
  EXPECT_THROW(distance_to_polyline_m(a, {}), std::invalid_argument);
}

struct TriangleCase {
  double bearing1;
  double dist1;
  double bearing2;
  double dist2;
};

class TriangleInequality : public ::testing::TestWithParam<TriangleCase> {};

TEST_P(TriangleInequality, Holds) {
  const auto& c = GetParam();
  const LatLng a = kDelhi;
  const LatLng b = destination(a, c.bearing1, c.dist1);
  const LatLng d = destination(b, c.bearing2, c.dist2);
  EXPECT_LE(distance_m(a, d), distance_m(a, b) + distance_m(b, d) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Cases, TriangleInequality,
                         ::testing::Values(TriangleCase{0, 1000, 90, 1000},
                                           TriangleCase{45, 5000, 225, 2500},
                                           TriangleCase{120, 300, 10, 8000},
                                           TriangleCase{300, 50, 300, 50}));

}  // namespace
}  // namespace pmware::geo
