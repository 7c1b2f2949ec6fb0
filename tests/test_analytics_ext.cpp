// Tests for the extended analytics queries: typical departure time and
// first-order next-place prediction (paper §2.3.2 "advanced analytics and
// prediction operations").
#include <gtest/gtest.h>

#include "cloud/cloud_instance.hpp"

namespace pmware::cloud {
namespace {

/// Loads user 1 of `storage` with a regular fortnight: home (1) -> work (2)
/// -> cafe (3) -> home on weekdays; weekends at home then park (4).
void fill_regular_fortnight(CloudStorage& storage) {
  for (int day = 0; day < 14; ++day) {
    core::MobilityProfile profile;
    profile.user = 1;
    profile.day = day;
    const SimTime base = start_of_day(day);
    if (day % 7 < 5) {
      profile.places.push_back({1, base, base + hours(8) + minutes(30)});
      profile.places.push_back({2, base + hours(9), base + hours(17)});
      profile.places.push_back({3, base + hours(17) + minutes(15),
                                base + hours(18) + minutes(30)});
      profile.places.push_back({1, base + hours(19), base + hours(24)});
    } else {
      profile.places.push_back({1, base, base + hours(11)});
      profile.places.push_back({4, base + hours(11) + minutes(30),
                                base + hours(14)});
      profile.places.push_back({1, base + hours(14) + minutes(30),
                                base + hours(24)});
    }
    storage.user(1).profiles[day] = std::move(profile);
  }
}

TEST(AnalyticsExt, TypicalDepartureFromHomeMorning) {
  CloudStorage storage;
  fill_regular_fortnight(storage);
  const AnalyticsEngine analytics(&storage);
  const auto tod = analytics.typical_departure_tod(
      1, 1, DailyWindow{hours(5), hours(12)});
  ASSERT_TRUE(tod.has_value());
  // 10 weekday departures at 8:30 and 4 weekend at 11:00 -> mean ~9:13.
  EXPECT_NEAR(static_cast<double>(*tod),
              static_cast<double>((10 * (hours(8) + minutes(30)) +
                                   4 * hours(11)) / 14),
              60);
}

TEST(AnalyticsExt, DepartureIgnoresMidnightTruncation) {
  CloudStorage storage;
  fill_regular_fortnight(storage);
  const AnalyticsEngine analytics(&storage);
  // Home "departures" at exactly 24:00 are day-profile truncation, not real
  // departures; an all-day window must not be polluted by them.
  const auto tod = analytics.typical_departure_tod(1, 1);
  ASSERT_TRUE(tod.has_value());
  EXPECT_GT(*tod, hours(5));
  EXPECT_LT(*tod, hours(13));
}

TEST(AnalyticsExt, DepartureWithoutDataIsNull) {
  CloudStorage storage;
  const AnalyticsEngine analytics(&storage);
  EXPECT_FALSE(analytics.typical_departure_tod(1, 99).has_value());
}

TEST(AnalyticsExt, NextPlaceFromWorkIsCafe) {
  CloudStorage storage;
  fill_regular_fortnight(storage);
  const AnalyticsEngine analytics(&storage);
  const auto next = analytics.predict_next_place(1, 2);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->place, 3u);
  EXPECT_DOUBLE_EQ(next->probability, 1.0);
}

TEST(AnalyticsExt, NextPlaceFromHomeIsWeightedByDayMix) {
  CloudStorage storage;
  fill_regular_fortnight(storage);
  const AnalyticsEngine analytics(&storage);
  const auto next = analytics.predict_next_place(1, 1);
  ASSERT_TRUE(next.has_value());
  // 10 weekday transitions home->work vs 4 weekend home->park.
  EXPECT_EQ(next->place, 2u);
  EXPECT_NEAR(next->probability, 10.0 / 14.0, 0.01);
}

TEST(AnalyticsExt, NextPlaceUnknownCurrentIsNull) {
  CloudStorage storage;
  fill_regular_fortnight(storage);
  const AnalyticsEngine analytics(&storage);
  EXPECT_FALSE(analytics.predict_next_place(1, 77).has_value());
  EXPECT_FALSE(analytics.predict_next_place(9, 1).has_value());
}

TEST(AnalyticsExt, LongGapsDoNotCountAsTransitions) {
  CloudStorage storage;
  core::MobilityProfile profile;
  profile.user = 1;
  profile.day = 0;
  // At place 5 in the morning; tracking lost; place 6 twelve hours later.
  profile.places.push_back({5, hours(8), hours(9)});
  profile.places.push_back({6, hours(21), hours(22)});
  storage.user(1).profiles[0] = profile;
  const AnalyticsEngine analytics(&storage);
  EXPECT_FALSE(analytics.predict_next_place(1, 5).has_value());
}

TEST(AnalyticsExt, EndpointsServeDepartureAndNextPlace) {
  CloudInstance cloud(CloudConfig{}, GeoLocationService({}), Rng(1));
  // Register and load the storage directly.
  net::HttpRequest reg;
  reg.method = net::Method::Post;
  reg.path = "/api/register";
  reg.headers[CloudInstance::kSimTimeHeader] = "0";
  reg.body = Json::object();
  reg.body.set("imei", "1");
  reg.body.set("email", "a@b");
  const auto token = cloud.router().handle(reg).body.at("token").as_string();
  fill_regular_fortnight(cloud.storage());

  auto get = [&](const std::string& path) {
    net::HttpRequest req;
    req.method = net::Method::Get;
    req.path = path;
    req.headers[CloudInstance::kSimTimeHeader] = "0";
    req.headers["Authorization"] = "Bearer " + token;
    return cloud.router().handle(req);
  };

  const auto departure = get("/api/users/1/analytics/departure/2");
  ASSERT_TRUE(departure.ok());
  EXPECT_NEAR(static_cast<double>(
                  departure.body.at("typical_departure_tod").as_int()),
              static_cast<double>(hours(17)), 60);

  const auto next = get("/api/users/1/analytics/next_place/2");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.body.at("place").as_int(), 3);
  EXPECT_DOUBLE_EQ(next.body.at("probability").as_double(), 1.0);

  EXPECT_EQ(get("/api/users/1/analytics/next_place/77").status,
            net::kStatusNotFound);
}

TEST(AnalyticsExt, StitchedVisitsMergeMidnight) {
  CloudStorage storage;
  core::MobilityProfile day0;
  day0.user = 1;
  day0.day = 0;
  day0.places.push_back({1, hours(20), hours(24)});
  core::MobilityProfile day1;
  day1.user = 1;
  day1.day = 1;
  day1.places.push_back({1, hours(24), hours(32)});  // 00:00-08:00 of day 1
  storage.user(1).profiles[0] = day0;
  storage.user(1).profiles[1] = day1;

  const auto stitched = storage.stitched_visits_at(1, 1);
  ASSERT_EQ(stitched.size(), 1u);
  EXPECT_EQ(stitched[0].arrival, hours(20));
  EXPECT_EQ(stitched[0].departure, hours(32));
}

}  // namespace
}  // namespace pmware::cloud
