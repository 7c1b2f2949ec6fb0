#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace pmware::algorithms {

// gtest names each SignatureKindSweep case after its printed parameter. By
// default a set-based signature prints as a byte dump of its std::set, heap
// pointers included, so the names changed from run to run; print the set's
// size instead.
void PrintTo(const CellSignature& signature, std::ostream* os) {
  *os << signature.cells.size() << " cells";
}

void PrintTo(const WifiSignature& signature, std::ostream* os) {
  *os << signature.aps.size() << " aps";
}

}  // namespace pmware::algorithms

namespace pmware::core {
namespace {

using algorithms::CellObservation;
using algorithms::CellSignature;
using algorithms::GpsSignature;
using algorithms::PlaceSignature;
using algorithms::WifiSignature;
using world::CellId;

CellId cell(std::uint32_t cid, world::Radio radio = world::Radio::Gsm2G) {
  return CellId{404, 10, 101, cid, radio};
}

TEST(Codec, CellIdRoundTrip) {
  const CellId original = cell(12345, world::Radio::Umts3G);
  const CellId decoded = cell_from_json(to_json(original));
  EXPECT_EQ(decoded, original);
}

TEST(Codec, CellIdSurvivesSerializedText) {
  const CellId original = cell(999);
  const Json reparsed = Json::parse(to_json(original).dump());
  EXPECT_EQ(cell_from_json(reparsed), original);
}

TEST(Codec, LatLngRoundTrip) {
  const geo::LatLng original{28.613912, 77.209021};
  const geo::LatLng decoded =
      latlng_from_json(Json::parse(to_json(original).dump()));
  EXPECT_NEAR(decoded.lat, original.lat, 1e-9);
  EXPECT_NEAR(decoded.lng, original.lng, 1e-9);
}

TEST(Codec, CellSignatureRoundTrip) {
  CellSignature sig;
  sig.cells = {cell(1), cell(2, world::Radio::Umts3G), cell(3)};
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(PlaceSignature(sig)).dump()));
  ASSERT_TRUE(std::holds_alternative<CellSignature>(decoded));
  EXPECT_EQ(std::get<CellSignature>(decoded), sig);
}

TEST(Codec, WifiSignatureRoundTrip) {
  WifiSignature sig;
  sig.aps = {0x001122334455ULL, 0xa0b1c2d3e4f5ULL};
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(PlaceSignature(sig)).dump()));
  ASSERT_TRUE(std::holds_alternative<WifiSignature>(decoded));
  EXPECT_EQ(std::get<WifiSignature>(decoded), sig);
}

TEST(Codec, GpsSignatureRoundTrip) {
  const GpsSignature sig{{28.61, 77.21}, 120.5};
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(PlaceSignature(sig)).dump()));
  ASSERT_TRUE(std::holds_alternative<GpsSignature>(decoded));
  EXPECT_EQ(std::get<GpsSignature>(decoded), sig);
}

TEST(Codec, UnknownSignatureKindThrows) {
  Json j = Json::object();
  j.set("kind", "sonar");
  EXPECT_THROW(signature_from_json(j), JsonError);
}

TEST(Codec, PlaceRecordRoundTrip) {
  PlaceRecord record;
  record.uid = 42;
  WifiSignature sig;
  sig.aps = {1, 2, 3};
  record.signature = sig;
  record.label = "workplace";
  record.location = geo::LatLng{28.6, 77.2};
  record.granularity = Granularity::Room;
  record.visit_count = 17;
  record.total_dwell = hours(40);

  const PlaceRecord decoded =
      place_record_from_json(Json::parse(to_json(record).dump()));
  EXPECT_EQ(decoded.uid, record.uid);
  EXPECT_EQ(std::get<WifiSignature>(decoded.signature), sig);
  EXPECT_EQ(decoded.label, "workplace");
  ASSERT_TRUE(decoded.location.has_value());
  EXPECT_NEAR(decoded.location->lat, 28.6, 1e-9);
  EXPECT_EQ(decoded.granularity, Granularity::Room);
  EXPECT_EQ(decoded.visit_count, 17u);
  EXPECT_EQ(decoded.total_dwell, hours(40));
}

TEST(Codec, PlaceRecordWithoutLocation) {
  PlaceRecord record;
  record.uid = 1;
  record.signature = GpsSignature{{28.0, 77.0}, 75};
  const PlaceRecord decoded = place_record_from_json(to_json(record));
  EXPECT_FALSE(decoded.location.has_value());
  EXPECT_EQ(decoded.label, "");
}

TEST(Codec, MobilityProfileRoundTrip) {
  MobilityProfile profile;
  profile.user = 3;
  profile.day = 5;
  profile.places = {{10, hours(8), hours(12)}, {11, hours(13), hours(20)}};
  profile.routes = {{100, hours(12), hours(13)}};
  profile.encounters = {{7, 10, hours(9), hours(10)}};

  const MobilityProfile decoded =
      profile_from_json(Json::parse(to_json(profile).dump()));
  EXPECT_EQ(decoded.user, 3u);
  EXPECT_EQ(decoded.day, 5);
  ASSERT_EQ(decoded.places.size(), 2u);
  EXPECT_EQ(decoded.places[0].place, 10u);
  EXPECT_EQ(decoded.places[0].arrival, hours(8));
  EXPECT_EQ(decoded.places[1].departure, hours(20));
  ASSERT_EQ(decoded.routes.size(), 1u);
  EXPECT_EQ(decoded.routes[0].route_uid, 100u);
  ASSERT_EQ(decoded.encounters.size(), 1u);
  EXPECT_EQ(decoded.encounters[0].contact, 7u);
  EXPECT_EQ(decoded.encounters[0].place, 10u);
}

TEST(Codec, EmptyProfileRoundTrip) {
  MobilityProfile profile;
  profile.user = 1;
  profile.day = 0;
  const MobilityProfile decoded = profile_from_json(to_json(profile));
  EXPECT_TRUE(decoded.empty());
}

TEST(Codec, GranularityNames) {
  EXPECT_STREQ(to_string(Granularity::Area), "area");
  EXPECT_STREQ(to_string(Granularity::Building), "building");
  EXPECT_STREQ(to_string(Granularity::Room), "room");
}

/// Text round trip: encode, serialize, parse, decode.
template <typename T, typename Decode>
T round_trip(const T& value, Decode decode) {
  return decode(Json::parse(to_json(value).dump()));
}

algorithms::RouteObservation sample_route() {
  algorithms::RouteObservation route;
  route.from_place = 3;
  route.to_place = 4;
  route.window = TimeWindow{hours(8), hours(9)};
  route.cells = {{hours(8), hours(8) + 60}, {cell(1), cell(2)}};
  route.gps = {{hours(8) + 30}, {{28.6, 77.2}}};
  return route;
}

TEST(Codec, RouteRecordsRoundTrip) {
  const algorithms::RouteObservation route = sample_route();
  const auto decoded = round_trip(route, route_observation_from_json);
  EXPECT_EQ(decoded.from_place, 3u);
  EXPECT_EQ(decoded.window, route.window);
  EXPECT_EQ(decoded.cells.times, route.cells.times);
  EXPECT_EQ(decoded.cells.cells, route.cells.cells);
  EXPECT_EQ(decoded.gps.times, route.gps.times);
  ASSERT_EQ(decoded.gps.points.size(), 1u);
  EXPECT_NEAR(decoded.gps.points[0].lat, 28.6, 1e-9);

  const auto canonical = round_trip(algorithms::CanonicalRoute{route, 5},
                                    canonical_route_from_json);
  EXPECT_EQ(canonical.use_count, 5u);
  EXPECT_EQ(canonical.representative.cells.cells, route.cells.cells);

  const RouteUpload upload =
      round_trip(RouteUpload{7, route}, route_upload_from_json);
  EXPECT_EQ(upload.seq, std::optional<std::uint64_t>(7));
  EXPECT_FALSE(
      round_trip(RouteUpload{std::nullopt, route}, route_upload_from_json).seq);

  const RouteEvent event{9, 3, 4, TimeWindow{hours(8), hours(9)}, true};
  const RouteEvent back = round_trip(event, route_event_from_json);
  EXPECT_EQ(back.route_uid, 9u);
  EXPECT_EQ(back.window, event.window);
  EXPECT_TRUE(back.high_accuracy);
}

TEST(Codec, EncounterActivityAndVisitRoundTrip) {
  const EncounterBatch batch{12, {{5, 7, hours(9), hours(10)}}};
  const EncounterBatch decoded = round_trip(batch, encounter_batch_from_json);
  EXPECT_EQ(decoded.first_index, std::optional<std::uint64_t>(12));
  ASSERT_EQ(decoded.encounters.size(), 1u);
  EXPECT_EQ(decoded.encounters[0].contact, 5u);
  EXPECT_EQ(decoded.encounters[0].end, hours(10));

  const ActivitySummary activity{hours(20), hours(3), hours(1)};
  EXPECT_EQ(round_trip(activity, activity_from_json), activity);

  const CellObservation obs{120, cell(7)};
  const CellObservation obs_back =
      round_trip(obs, cell_observation_from_json);
  EXPECT_EQ(obs_back.t, 120);
  EXPECT_EQ(obs_back.cell, obs.cell);
}

TEST(Codec, GcaResultRoundTripRebuildsCellIndex) {
  algorithms::GcaResult result;
  result.places.push_back({CellSignature{{cell(1), cell(2)}}, hours(3)});
  result.places.push_back({CellSignature{{cell(3)}}, hours(1)});
  result.visits.push_back({1, TimeWindow{hours(1), hours(2)}});
  const auto decoded = round_trip(result, gca_result_from_json);
  ASSERT_EQ(decoded.places.size(), 2u);
  EXPECT_EQ(decoded.places[0].total_dwell, hours(3));
  EXPECT_EQ(decoded.cell_to_place.at(cell(3)), 1u);
  ASSERT_EQ(decoded.visits.size(), 1u);
  EXPECT_EQ(decoded.visits[0].place_index, 1u);

  // A visit naming a place the response does not contain is malformed.
  Json bad = to_json(result);
  result.visits[0].place_index = 2;
  EXPECT_THROW(gca_result_from_json(to_json(result)), JsonError);
  // So is a discovered place without a cell signature.
  Json places = Json::array();
  Json wifi_place = Json::object();
  wifi_place.set("signature", to_json(PlaceSignature(WifiSignature{{1}})));
  wifi_place.set("total_dwell", 60);
  places.push_back(std::move(wifi_place));
  bad.set("places", places);
  EXPECT_THROW(gca_result_from_json(bad), JsonError);
}

TEST(Codec, DiscoverRequestCarriesSuffixClaim) {
  const std::vector<CellObservation> observations{{0, cell(1)}, {60, cell(2)}};
  const DiscoverRequest full = discover_request_from_json(
      discover_request_to_json(observations, std::nullopt));
  EXPECT_EQ(full.observations.size(), 2u);
  EXPECT_FALSE(full.prefix);

  const Json suffix = discover_request_to_json(
      std::span(observations).subspan(1), PrefixClaim{1, 0xabcdef0123456789});
  EXPECT_EQ(suffix.at("prefix_digest").as_string(), "abcdef0123456789");
  const DiscoverRequest decoded = discover_request_from_json(suffix);
  ASSERT_TRUE(decoded.prefix);
  EXPECT_EQ(decoded.prefix->len, 1u);
  EXPECT_EQ(decoded.prefix->digest, 0xabcdef0123456789u);
  EXPECT_EQ(decoded.observations.size(), 1u);
}

// Known answer: three reads of cell 1 a minute apart, one of cell 2, then
// cell 1 again — two dictionary entries and three runs.
TEST(Codec, DiscoverBodyIsRunLengthEncoded) {
  const std::vector<CellObservation> observations{
      {0, cell(1)}, {60, cell(1)}, {120, cell(1)}, {180, cell(2)},
      {240, cell(1)}};
  EXPECT_EQ(discover_request_to_json(observations, PrefixClaim{2, 0xff}).dump(),
            R"({"cells":[{"cid":1,"lac":101,"mcc":404,"mnc":10,"radio":"2g"},)"
            R"({"cid":2,"lac":101,"mcc":404,"mnc":10,"radio":"2g"}],)"
            R"("prefix_digest":"00000000000000ff","prefix_len":2,)"
            R"("runs":[0,60,3,0,180,0,1,1,240,0,1,0]})");
}

void expect_discover_round_trip(const std::vector<CellObservation>& stream) {
  const Json body = discover_request_to_json(stream, std::nullopt);
  const DiscoverRequest decoded =
      discover_request_from_json(Json::parse(body.dump()));
  ASSERT_EQ(decoded.observations.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(decoded.observations[i].t, stream[i].t) << "read " << i;
    EXPECT_EQ(decoded.observations[i].cell, stream[i].cell) << "read " << i;
  }
  EXPECT_EQ(movement_digest(decoded.observations), movement_digest(stream));
}

TEST(Codec, IrregularDiscoverStreamsRoundTrip) {
  // Gaps other than the period: the run breaks, the next one starts.
  expect_discover_round_trip({{0, cell(1)}, {60, cell(1)}, {120, cell(1)},
                              {200, cell(1)}, {280, cell(1)}, {290, cell(1)}});
  // Repeated t, and a step back in time: one-read runs.
  expect_discover_round_trip({{0, cell(1)}, {0, cell(1)}, {0, cell(2)},
                              {60, cell(2)}, {30, cell(2)}, {-90, cell(3)}});
  // Oscillation: every run is one read long.
  std::vector<CellObservation> oscillating;
  for (int m = 0; m < 30; ++m) {
    const auto radio = m % 3 == 0 ? world::Radio::Umts3G : world::Radio::Gsm2G;
    oscillating.push_back({m * 60, cell(1 + m % 2, radio)});
  }
  expect_discover_round_trip(oscillating);
  expect_discover_round_trip({});
}

TEST(Codec, ReturningCellReusesItsDictionaryEntry) {
  const std::vector<CellObservation> stream{
      {0, cell(1)}, {60, cell(1)}, {120, cell(2)}, {180, cell(3)},
      {240, cell(1)}, {300, cell(1)}, {360, cell(1)}};
  const Json body = discover_request_to_json(stream, std::nullopt);
  EXPECT_EQ(body.at("cells").size(), 3u);
  EXPECT_EQ(body.at("runs").size(), 4u * 4u);
  EXPECT_EQ(body.at("runs")[15].as_int(), 0);  // the last run names cell 1
  expect_discover_round_trip(stream);
}

TEST(Codec, EmptySuffixKeepsItsPrefixClaim) {
  const Json body = discover_request_to_json({}, PrefixClaim{1440, 7});
  EXPECT_EQ(body.at("cells").size(), 0u);
  EXPECT_EQ(body.at("runs").size(), 0u);
  const DiscoverRequest decoded = discover_request_from_json(body);
  EXPECT_TRUE(decoded.observations.empty());
  ASSERT_TRUE(decoded.prefix);
  EXPECT_EQ(decoded.prefix->len, 1440u);
  EXPECT_EQ(decoded.prefix->digest, 7u);
}

TEST(Codec, ResponseBodiesRoundTrip) {
  const SessionGrant grant =
      round_trip(SessionGrant{4, "tok", hours(24), 2}, session_grant_from_json);
  EXPECT_EQ(grant.user, 4u);
  EXPECT_EQ(grant.token, "tok");
  EXPECT_EQ(grant.session, std::optional<std::uint64_t>(2));
  EXPECT_FALSE(round_trip(SessionGrant{4, "tok", hours(24), std::nullopt},
                          session_grant_from_json)
                   .session);

  const PlaceEcho echo =
      round_trip(PlaceEcho{7, geo::LatLng{28.6, 77.2}}, place_echo_from_json);
  EXPECT_EQ(echo.uid, 7u);
  ASSERT_TRUE(echo.location);
  EXPECT_NEAR(echo.location->lng, 77.2, 1e-9);

  EXPECT_EQ(hex64_from_json(Json(hex64(0x0123456789abcdef))),
            0x0123456789abcdefu);
}

// Decoders are total: every malformed shape is a JsonError, never a
// default value or another exception type.
TEST(Codec, MalformedRecordsThrowJsonError) {
  const Json route = to_json(sample_route());
  const auto without = [](Json j, const char* key) {
    Json out = Json::object();
    for (const auto& [k, v] : j.as_object())
      if (k != key) out.set(k, v);
    return out;
  };
  const auto with = [](Json j, const char* key, Json value) {
    j.set(key, std::move(value));
    return j;
  };
  EXPECT_THROW(route_observation_from_json(without(route, "from")), JsonError);
  EXPECT_THROW(route_observation_from_json(with(route, "to", Json("x"))),
               JsonError);
  EXPECT_THROW(route_observation_from_json(with(route, "from", Json(-1))),
               JsonError);
  // Inverted window.
  EXPECT_THROW(route_observation_from_json(with(route, "start", hours(10))),
               JsonError);
  EXPECT_THROW(route_upload_from_json(with(route, "seq", Json(-5))), JsonError);
  EXPECT_THROW(encounter_batch_from_json(Json::parse(R"({"encounters":
                   [{"contact": "x", "place": 1, "start": 0, "end": 1}]})")),
               JsonError);
  EXPECT_THROW(cell_from_json(with(to_json(cell(1)), "radio", Json("5g"))),
               JsonError);
  EXPECT_THROW(cell_from_json(with(to_json(cell(1)), "mcc", Json(70000))),
               JsonError);
  EXPECT_THROW(hex64_from_json(Json("zz")), JsonError);
  EXPECT_THROW(hex64_from_json(Json("")), JsonError);
  EXPECT_THROW(hex64_from_json(Json("0123456789abcdef0")), JsonError);
  EXPECT_THROW(discover_request_from_json(Json("x")), JsonError);
  EXPECT_THROW(session_grant_from_json(Json::object()), JsonError);
  EXPECT_THROW(place_echo_from_json(Json::array()), JsonError);
}

class SignatureKindSweep
    : public ::testing::TestWithParam<algorithms::PlaceSignature> {};

TEST_P(SignatureKindSweep, RoundTripPreservesKindAndEquality) {
  const PlaceSignature original = GetParam();
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(original).dump()));
  EXPECT_EQ(decoded.index(), original.index());
  EXPECT_TRUE(algorithms::signatures_match(original, decoded, 0.99) ||
              std::holds_alternative<GpsSignature>(original));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SignatureKindSweep,
    ::testing::Values(PlaceSignature(CellSignature{{cell(1), cell(2)}}),
                      PlaceSignature(WifiSignature{{11, 22, 33}}),
                      PlaceSignature(GpsSignature{{28.61, 77.21}, 90})));

}  // namespace
}  // namespace pmware::core
