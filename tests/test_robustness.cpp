// Failure-injection and noise-sweep tests: the middleware must degrade
// gracefully, not collapse, as the environment gets hostile.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "algorithms/evaluate.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "core/pms.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"

namespace pmware {
namespace {

struct RunOutcome {
  std::size_t visits = 0;
  std::size_t places = 0;
  std::size_t profile_syncs = 0;
  std::size_t gca_offloads = 0;
  std::size_t gca_local = 0;
  double correct_fraction = 0;
};

RunOutcome run_once(net::NetworkConditions network,
                    sensing::DeviceConfig device_config, int days_n = 3,
                    std::uint64_t seed = 1) {
  Rng rng(seed);
  Rng world_rng = rng.fork(1);
  world::WorldConfig wc;
  auto world = world::generate_world(wc, world_rng);
  Rng prng = rng.fork(2);
  auto participants = mobility::make_participants(*world, 1, prng);
  Rng trng = rng.fork(3);
  mobility::ScheduleConfig sc;
  sc.days = days_n;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], sc, trng);

  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService(world->cell_location_db()),
                             rng.fork(4));
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), device_config, rng.fork(5));
  auto client = std::make_unique<net::RestClient>(&cloud.router(), network,
                                                  rng.fork(6));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{},
                                std::move(client), rng.fork(7));
  core::PlaceAlertRequest request;
  request.app = "robustness";
  request.granularity = core::Granularity::Building;
  pms.apps().register_place_alerts(request);
  pms.register_with_cloud(0);
  pms.run(TimeWindow{0, days(days_n)});
  pms.shutdown(days(days_n));

  std::vector<algorithms::TruthVisit> truth;
  for (const auto& v : trace.significant_visits(minutes(10)))
    truth.push_back({v.place, v.window});
  std::vector<algorithms::ReportedVisit> reported;
  std::set<core::PlaceUid> distinct;
  for (const auto& v : pms.inference().visit_log()) {
    reported.push_back({static_cast<std::size_t>(v.uid), v.window});
    distinct.insert(v.uid);
  }
  const auto eval = algorithms::evaluate_discovered(truth, reported);

  RunOutcome outcome;
  outcome.visits = reported.size();
  outcome.places = distinct.size();
  outcome.profile_syncs = pms.stats().profile_syncs;
  outcome.gca_offloads = pms.stats().gca_offloads;
  outcome.gca_local = pms.stats().gca_local_runs;
  outcome.correct_fraction =
      eval.fraction(algorithms::DiscoveredOutcome::Correct);
  return outcome;
}

// Discovery quality is a distribution over seeds: one 3-day participant
// evaluates only 2-4 places, so a single run's correct fraction swings from
// 0 to 1 with the seed. The sweeps below assert structure on every one of
// kSweepSeeds seeds and quality on their mean.
constexpr std::uint64_t kSweepSeeds = 8;

double mean_correct(const std::vector<RunOutcome>& runs) {
  double sum = 0;
  for (const auto& r : runs) sum += r.correct_fraction;
  return sum / static_cast<double>(runs.size());
}

class NetworkLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(NetworkLossSweep, DiscoveryUnaffectedByNetworkLoss) {
  // The network only carries offloading and sync; place discovery itself
  // must keep working at any loss rate (local GCA fallback). The device
  // and the client draw from separate streams, so a lossy run discovers
  // exactly what the lossless run of the same seed discovers.
  std::vector<RunOutcome> runs;
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunOutcome lossless = run_once(net::NetworkConditions{0.0, 1},
                                         sensing::DeviceConfig{}, 3, seed);
    const RunOutcome outcome = run_once(net::NetworkConditions{GetParam(), 1},
                                        sensing::DeviceConfig{}, 3, seed);
    EXPECT_EQ(outcome.places, lossless.places);
    EXPECT_EQ(outcome.visits, lossless.visits);
    EXPECT_EQ(outcome.correct_fraction, lossless.correct_fraction);
    EXPECT_GE(outcome.places, 2u);
    EXPECT_GE(outcome.visits, 4u);
    EXPECT_GE(outcome.gca_offloads + outcome.gca_local, 3u);
    runs.push_back(outcome);
  }
  EXPECT_GT(mean_correct(runs), 0.4);
}

INSTANTIATE_TEST_SUITE_P(LossRates, NetworkLossSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6, 1.0));

TEST(NetworkLoss, TotalLossMeansLocalOnly) {
  const RunOutcome outcome =
      run_once(net::NetworkConditions{1.0, 0}, sensing::DeviceConfig{});
  EXPECT_EQ(outcome.gca_offloads, 0u);
  EXPECT_GE(outcome.gca_local, 3u);
  EXPECT_EQ(outcome.profile_syncs, 0u);
}

TEST(NetworkLoss, ModerateLossStillSyncsEventually) {
  // With retries, 30% loss should still land most profile syncs.
  const RunOutcome outcome =
      run_once(net::NetworkConditions{0.3, 1}, sensing::DeviceConfig{});
  EXPECT_GE(outcome.profile_syncs, 3u);
}

class FadingSweep : public ::testing::TestWithParam<double> {};

TEST_P(FadingSweep, DiscoverySurvivesRssiNoise) {
  sensing::DeviceConfig config;
  config.fading_sigma_db = GetParam();
  std::vector<RunOutcome> runs;
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runs.push_back(run_once(net::NetworkConditions{}, config, 3, seed));
    EXPECT_GE(runs.back().places, 2u);
  }
  EXPECT_GT(mean_correct(runs), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, FadingSweep,
                         ::testing::Values(1.0, 3.0, 5.0, 8.0));

class WifiMissSweep : public ::testing::TestWithParam<double> {};

TEST_P(WifiMissSweep, DiscoverySurvivesBeaconLoss) {
  sensing::DeviceConfig config;
  config.wifi_miss_prob = GetParam();
  const RunOutcome outcome = run_once(net::NetworkConditions{}, config);
  EXPECT_GE(outcome.places, 2u);
  EXPECT_GE(outcome.visits, 4u);
}

INSTANTIATE_TEST_SUITE_P(MissRates, WifiMissSweep,
                         ::testing::Values(0.0, 0.2, 0.4));

class ActivityErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ActivityErrorSweep, TriggersSurviveAccelMisclassification) {
  sensing::DeviceConfig config;
  config.activity_error_prob = GetParam();
  const RunOutcome outcome = run_once(net::NetworkConditions{}, config);
  // Misclassified activity wastes some scans but must not kill discovery.
  EXPECT_GE(outcome.places, 2u);
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, ActivityErrorSweep,
                         ::testing::Values(0.0, 0.1, 0.25));

class EndToEndSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndSeedSweep, InvariantsHoldForAnySeed) {
  const RunOutcome outcome = run_once(net::NetworkConditions{0.05, 1},
                                      sensing::DeviceConfig{}, 3, GetParam());
  // Structural invariants that must hold regardless of randomness:
  EXPECT_GE(outcome.places, 1u);
  EXPECT_GE(outcome.visits, outcome.places);
  EXPECT_GE(outcome.gca_offloads + outcome.gca_local, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndSeedSweep,
                         ::testing::Values(2ULL, 3ULL, 5ULL, 8ULL, 13ULL));

TEST(Robustness, VisitLogNeverOverlapsUnderStress) {
  sensing::DeviceConfig noisy;
  noisy.fading_sigma_db = 6;
  noisy.wifi_miss_prob = 0.3;
  noisy.activity_error_prob = 0.15;
  Rng rng(77);
  Rng world_rng = rng.fork(1);
  world::WorldConfig wc;
  auto world = world::generate_world(wc, world_rng);
  Rng prng = rng.fork(2);
  auto participants = mobility::make_participants(*world, 1, prng);
  Rng trng = rng.fork(3);
  mobility::ScheduleConfig sc;
  sc.days = 4;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], sc, trng);
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), noisy, rng.fork(4));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{}, nullptr,
                                rng.fork(5));
  core::PlaceAlertRequest request;
  request.app = "x";
  pms.apps().register_place_alerts(request);
  pms.run(TimeWindow{0, days(4)});
  pms.shutdown(days(4));
  const auto& log = pms.inference().visit_log();
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_LE(log[i - 1].window.end, log[i].window.begin + 1);
  for (const auto& v : log) EXPECT_GE(v.window.length(), minutes(10));
}


// --- Total decoding on both ends of the wire: every handler decodes its
// whole body before it touches storage (a malformed body is a 4xx that
// changes nothing), and the PMS treats an undecodable 2xx as a failed
// exchange instead of throwing out of run().

/// A cloud holding one registered user (id 1). Seeded through its own API
/// with a place (uid 7), a profile for day 0, a route, an encounter and a
/// retained GSM stream, so every route has state to read or to damage.
struct SeededCloud {
  explicit SeededCloud(bool with_data = true, cloud::CloudConfig config = {})
      : cloud(std::move(config), cloud::GeoLocationService({}), Rng(1)) {
    net::HttpRequest reg = request(net::Method::Post, "/api/register");
    reg.body = Json::object();
    reg.body.set("imei", "358240051111110");
    reg.body.set("email", "decode@study.pmware.org");
    token = cloud.router().handle(reg).body.at("token").as_string();
    if (!with_data) return;

    const world::CellId cell{404, 10, 101, 1000, world::Radio::Gsm2G};
    core::PlaceRecord record;
    record.uid = 7;
    record.signature = algorithms::CellSignature{{cell}};
    EXPECT_EQ(send(net::Method::Put, "/api/users/1/places/7",
                   core::to_json(record)).status,
              net::kStatusCreated);
    core::MobilityProfile profile;
    profile.user = 1;
    profile.places = {{7, hours(9), hours(17)}};
    profile.activity = {hours(20), hours(3), hours(1)};
    EXPECT_EQ(send(net::Method::Put, "/api/users/1/profiles/0",
                   core::to_json(profile)).status,
              net::kStatusCreated);
    algorithms::RouteObservation route;
    route.from_place = 7;
    route.to_place = 8;
    route.window = TimeWindow{hours(17), hours(18)};
    route.cells = {{hours(17)}, {cell}};
    EXPECT_EQ(send(net::Method::Post, "/api/users/1/routes",
                   core::to_json(core::RouteUpload{0, route})).status,
              net::kStatusCreated);
    EXPECT_EQ(send(net::Method::Post, "/api/users/1/contacts",
                   core::to_json(core::EncounterBatch{
                       0, {{5, 7, hours(10), hours(11)}}})).status,
              net::kStatusCreated);
    std::vector<algorithms::CellObservation> observations;
    for (int m = 0; m < 90; ++m) observations.push_back({minutes(m), cell});
    EXPECT_EQ(send(net::Method::Post, "/api/places/discover",
                   core::discover_request_to_json(observations, std::nullopt))
                  .status,
              net::kStatusOk);
  }

  net::HttpRequest request(net::Method method, std::string path) const {
    net::HttpRequest req;
    req.method = method;
    req.path = std::move(path);
    req.headers[net::kSimTimeHeader] = std::to_string(days(1));
    if (!token.empty()) req.headers["Authorization"] = "Bearer " + token;
    return req;
  }

  net::HttpResponse send(net::Method method, std::string path, Json body) {
    net::HttpRequest req = request(method, std::move(path));
    req.body = std::move(body);
    return cloud.router().handle(req);
  }

  std::uint64_t digest() const { return cloud.storage().content_digest(); }

  cloud::CloudInstance cloud;
  std::string token;
};

/// Nine bodies no handler may accept: wrong JSON types, an empty object,
/// wrong-typed fields, a bad array element, out-of-range and inverted
/// values, and a bad suffix claim / negative replay marks.
std::vector<Json> malformed_bodies() {
  std::vector<Json> bodies = {Json("x"), Json(), Json::array(), Json::object(),
                              Json(42)};
  const char* keys[] = {
      "imei",        "email",      "runs",       "uid",    "signature",
      "label",       "granularity", "visit_count", "total_dwell", "user",
      "day",         "places",     "routes",       "encounters", "from",
      "to",          "start",      "end",          "cells",  "gps",
      "seq",         "first_index", "prefix_len",  "prefix_digest"};
  Json wrong_types = Json::object();
  for (const char* key : keys) wrong_types.set(key, Json::array());
  wrong_types.set("label", 7);
  bodies.push_back(std::move(wrong_types));

  const auto cell = [](std::int64_t mcc) {
    return Json::parse(R"({"mcc":)" + std::to_string(mcc) +
                       R"(,"mnc":10,"lac":1,"cid":9,"radio":"2g"})");
  };
  // A bad element inside an otherwise well-formed array.
  Json bad_element = Json::parse(R"({
    "runs": [0, 0, "x", 0], "uid": 7, "label": ["x"],
    "signature": {"kind": "cells", "cells": [1]}, "granularity": "building",
    "visit_count": 1, "total_dwell": 1, "user": 1, "day": 0,
    "places": [1], "routes": [], "encounters": [{"contact": "x"}],
    "from": 1, "to": 2, "start": 0, "end": 60, "cells": [{"t": "x"}]})");
  bodies.push_back(std::move(bad_element));
  // Out-of-range integers and inverted windows.
  Json out_of_range = Json::parse(R"({
    "uid": 7, "label": null, "signature": {"kind": "wifi", "aps": [-1]},
    "granularity": "building", "visit_count": -1, "total_dwell": 0,
    "user": 1, "day": 0, "routes": [],
    "places": [{"place": 7, "arrival": 100, "departure": 50}],
    "encounters": [{"contact": 5, "place": 7, "start": 100, "end": 50}],
    "from": -1, "to": 2, "start": 100, "end": 50})");
  out_of_range.set("cells", Json(Json::Array{cell(70000)}));
  out_of_range.set("runs", Json(Json::Array{0, 0, 1, 0}));
  bodies.push_back(std::move(out_of_range));
  // A suffix claim with a non-hex digest, negative replay marks, unknown
  // enum names.
  bodies.push_back(Json::parse(R"({
    "cells": [], "runs": [], "prefix_len": 0, "prefix_digest": "zz",
    "uid": 7, "label": false, "signature": {"kind": "sonar"},
    "granularity": "planet", "visit_count": 0, "total_dwell": 0,
    "user": 1, "day": 0, "places": [], "encounters": [],
    "routes": [{"route": 1, "start": "x", "end": 0}],
    "first_index": -1, "seq": -5, "from": 1, "to": 2, "start": 0,
    "end": 60})"));
  return bodies;
}

struct RouteProbe {
  net::Method method;
  const char* path;
  bool decodes_body;  ///< the handler reads its request body
};

/// One concrete request per route of CloudInstance::register_routes().
constexpr RouteProbe kRouteProbes[] = {
    {net::Method::Get, "/metrics", false},
    {net::Method::Get, "/timeseries", false},
    {net::Method::Get, "/alertz", false},
    {net::Method::Get, "/healthz", false},
    {net::Method::Get, "/tracez", false},
    {net::Method::Post, "/api/register", true},
    {net::Method::Post, "/api/token/refresh", false},
    {net::Method::Post, "/api/places/discover", true},
    {net::Method::Get, "/api/users/1/places", false},
    {net::Method::Put, "/api/users/1/places/7", true},
    {net::Method::Post, "/api/users/1/places/7/label", true},
    {net::Method::Put, "/api/users/1/profiles/0", true},
    {net::Method::Get, "/api/users/1/profiles/0", false},
    {net::Method::Post, "/api/users/1/routes", true},
    {net::Method::Get, "/api/users/1/routes", false},
    {net::Method::Post, "/api/users/1/contacts", true},
    {net::Method::Get, "/api/users/1/contacts", false},
    {net::Method::Delete, "/api/users/1", false},
    {net::Method::Delete, "/api/users/1/places/7", false},
    {net::Method::Get, "/api/users/1/analytics/activity/0", false},
    {net::Method::Get, "/api/geo/cell/404/10/101/1000", false},
    {net::Method::Get, "/api/users/1/analytics/arrival/7", false},
    {net::Method::Get, "/api/users/1/analytics/next_visit/7", false},
    {net::Method::Get, "/api/users/1/analytics/departure/7", false},
    {net::Method::Get, "/api/users/1/analytics/next_place/7", false},
    {net::Method::Get, "/api/users/1/analytics/frequency", false},
};

TEST(TotalDecoding, MalformedBodiesNeverThrowAndFourXxChangesNothing) {
  ASSERT_EQ(std::size(kRouteProbes),
            SeededCloud(false).cloud.router().route_count())
      << "a route was added or removed: extend kRouteProbes";
  const std::vector<Json> bodies = malformed_bodies();
  ASSERT_EQ(bodies.size(), 9u);
  for (const RouteProbe& probe : kRouteProbes) {
    for (std::size_t b = 0; b < bodies.size(); ++b) {
      SCOPED_TRACE(std::string(net::to_string(probe.method)) + " " +
                   probe.path + " body " + bodies[b].dump());
      SeededCloud seeded;
      const std::uint64_t before = seeded.digest();
      const net::HttpResponse res =
          seeded.send(probe.method, probe.path, bodies[b]);
      EXPECT_NE(res.status, net::kStatusInternalError);
      EXPECT_NE(res.body.get_string("error", ""), "no route for " +
                                                      std::string(probe.path));
      if (probe.decodes_body) {
        EXPECT_GE(res.status, 400);
        EXPECT_LT(res.status, 500);
      }
      if (res.status >= 400 && res.status < 500) {
        EXPECT_EQ(seeded.digest(), before);
      }
    }
  }
}

/// Discover bodies that each break one rule of the run-length encoding
/// (t0, period, count, cell_index). The cell dictionary holds one cell.
std::vector<Json> malformed_run_bodies() {
  const auto body = [](Json::Array runs, const char* radio = "2g") {
    Json cell = core::to_json(
        world::CellId{404, 10, 101, 1000, world::Radio::Gsm2G});
    cell.set("radio", radio);
    Json j = Json::object();
    j.set("cells", Json(Json::Array{std::move(cell)}));
    j.set("runs", Json(std::move(runs)));
    return j;
  };
  const std::int64_t cap =
      static_cast<std::int64_t>(core::kMaxExpandedObservations);
  const std::int64_t two62 = std::int64_t{1} << 62;
  return {
      body({0, 60, 2}),                // length not a multiple of 4
      body({0, 60, 2, 0, 120}),
      body({0, 60, 0, 0}),             // count < 1
      body({0, 60, -3, 0}),
      body({0, -60, 2, 0}),            // negative period
      body({0, 0, 2, 0}),              // period 0 with several reads
      body({0, 60, 2, 1}),             // cell index outside the dictionary
      body({0, 60, 2, -1}),
      body({0, two62, 3, 0}),          // period * (count - 1) overflows
      body({two62, two62 / 2, 3, 0}),  // t0 + period * (count - 1) overflows
      // Counts past the expansion cap: one run, and two runs together.
      // Were the cap checked after the reserve, these would ask for up to
      // 2^62 observations (a fatal allocation under the sanitizers).
      body({0, 1, cap + 1, 0}),
      body({0, 1, two62, 0}),
      body({0, 1, cap / 2, 0, 0, 1, cap / 2 + 1, 0}),
      body({0, 0, 1, 0}, "5g"),        // bad radio in the dictionary
      // Past 2^53 a JSON number may not be the integer its text spelled
      // (this t0 parses as 2^53).
      body({std::int64_t{9007199254740993}, 60, 2, 0}),
  };
}

TEST(TotalDecoding, MalformedRunBodiesGetFourXxAndChangeNothing) {
  for (const Json& body : malformed_run_bodies()) {
    SCOPED_TRACE(body.dump());
    SeededCloud seeded;
    const std::uint64_t before = seeded.digest();
    const net::HttpResponse res =
        seeded.send(net::Method::Post, "/api/places/discover", body);
    EXPECT_EQ(res.status, net::kStatusBadRequest);
    EXPECT_EQ(seeded.digest(), before);
  }
}

/// One route with a numeric path parameter or query value; "%" marks the
/// value under test. `body` is valid, so only the tested value is bad.
struct ValueProbe {
  net::Method method;
  std::string path;
  std::string query_key;  ///< empty: "%" sits in the path
  Json body;
};

std::vector<ValueProbe> value_probes() {
  const world::CellId cell{404, 10, 101, 1000, world::Radio::Gsm2G};
  core::PlaceRecord record;
  record.uid = 7;
  record.signature = algorithms::CellSignature{{cell}};
  core::MobilityProfile profile;
  profile.user = 1;
  profile.places = {{7, hours(9), hours(17)}};
  Json label = Json::object();
  label.set("label", "home");
  algorithms::RouteObservation route;
  route.from_place = 7;
  route.to_place = 8;
  route.window = TimeWindow{hours(17), hours(18)};
  const Json upload = core::to_json(core::RouteUpload{9, route});
  using net::Method;
  std::vector<ValueProbe> probes = {
      {Method::Get, "/api/users/%/places", "", Json()},
      {Method::Put, "/api/users/%/places/7", "", core::to_json(record)},
      {Method::Put, "/api/users/1/places/%", "", core::to_json(record)},
      {Method::Post, "/api/users/1/places/%/label", "", label},
      {Method::Put, "/api/users/1/profiles/%", "", core::to_json(profile)},
      {Method::Get, "/api/users/1/profiles/%", "", Json()},
      {Method::Post, "/api/users/%/routes", "", upload},
      {Method::Delete, "/api/users/%", "", Json()},
      {Method::Delete, "/api/users/1/places/%", "", Json()},
      {Method::Get, "/api/users/1/analytics/activity/%", "", Json()},
      {Method::Get, "/api/geo/cell/%/10/101/1000", "", Json()},
      {Method::Get, "/api/geo/cell/404/%/101/1000", "", Json()},
      {Method::Get, "/api/geo/cell/404/10/%/1000", "", Json()},
      {Method::Get, "/api/geo/cell/404/10/101/%", "", Json()},
      {Method::Get, "/api/users/1/routes", "from", Json()},
      {Method::Get, "/api/users/1/routes", "to", Json()},
      {Method::Get, "/api/users/1/contacts", "place", Json()},
      {Method::Get, "/tracez", "n", Json()},
  };
  for (const char* analytics :
       {"arrival", "next_visit", "departure", "next_place"})
    probes.push_back({Method::Get,
                      std::string("/api/users/1/analytics/") + analytics + "/%",
                      "", Json()});
  return probes;
}

TEST(TotalDecoding, MalformedPathAndQueryValuesGetFourXxAndChangeNothing) {
  for (const ValueProbe& probe : value_probes()) {
    for (const char* bad : {"abc", "-1", "99999999999999999999", ""}) {
      SeededCloud seeded;
      std::string path = probe.path;
      if (probe.query_key.empty()) path.replace(path.find('%'), 1, bad);
      net::HttpRequest req = seeded.request(probe.method, path);
      req.body = probe.body;
      if (!probe.query_key.empty()) {
        // The routes listing filters only when both ends are given.
        if (path.ends_with("/routes")) req.query = {{"from", "1"}, {"to", "1"}};
        req.query[probe.query_key] = bad;
      }
      SCOPED_TRACE(std::string(net::to_string(probe.method)) + " " + path +
                   (probe.query_key.empty() ? "" : " ?" + probe.query_key) +
                   " = '" + bad + "'");
      const std::uint64_t before = seeded.digest();
      const net::HttpResponse res = seeded.cloud.router().handle(req);
      if (*bad != '\0') {  // an empty segment matches no route at all
        EXPECT_NE(res.body.get_string("error", ""), "no route for " + path);
      }
      EXPECT_GE(res.status, 400);
      EXPECT_LT(res.status, 500);
      EXPECT_EQ(seeded.digest(), before);
    }
  }
}

// A session header that is not a decimal uint64 is refused, not wrapped:
// "-1" or 2^64 once parsed to 2^64 - 1, which passed every wipe tombstone
// on a write and, on a wipe, raised one that fenced out every later session.
TEST(TotalDecoding, MalformedSessionHeaderGetsFourHundredAndChangesNothing) {
  core::PlaceRecord record;
  record.uid = 9;
  for (const char* bad : {"-1", "abc", "18446744073709551616", ""}) {
    for (const net::Method method : {net::Method::Put, net::Method::Delete}) {
      SeededCloud seeded;
      net::HttpRequest req = seeded.request(
          method, method == net::Method::Put ? "/api/users/1/places/9"
                                             : "/api/users/1");
      if (method == net::Method::Put) req.body = core::to_json(record);
      req.headers[net::kSessionHeader] = bad;
      SCOPED_TRACE(std::string(net::to_string(method)) + " " + req.path +
                   " session '" + bad + "'");
      const std::uint64_t before = seeded.digest();
      const std::uint64_t tombstone =
          seeded.cloud.storage().tombstone_session(1);
      EXPECT_EQ(seeded.cloud.router().handle(req).status,
                net::kStatusBadRequest);
      EXPECT_EQ(seeded.digest(), before);
      EXPECT_EQ(seeded.cloud.storage().tombstone_session(1), tombstone);
    }
  }
}

// A sim-time or attempt header that is not a decimal is refused in the
// router's preamble, before the fault injector or any handler runs. Parsed
// with atoll, "abc" and "" read as 0 and "12x" as 12, so a write was applied
// at the wrong time, or rolled against the wrong attempt. The fault plan
// fails every request on day 2, so a malformed header that reached the
// injector would get its 503 instead of the 400.
TEST(TotalDecoding, MalformedSimTimeHeaderGetsFourHundredAndChangesNothing) {
  const world::CellId cell{404, 20, 202, 2000, world::Radio::Gsm2G};
  core::PlaceRecord record;
  record.uid = 9;
  record.signature = algorithms::CellSignature{{cell}};
  std::vector<algorithms::CellObservation> observations;
  for (int m = 0; m < 90; ++m)
    observations.push_back({hours(2) + minutes(m), cell});
  const struct {
    net::Method method;
    const char* path;
    Json body;
  } probes[] = {
      {net::Method::Put, "/api/users/1/places/9", core::to_json(record)},
      {net::Method::Post, "/api/places/discover",
       core::discover_request_to_json(observations, std::nullopt)},
  };
  cloud::CloudConfig faulted;
  faulted.fault_plan = net::FaultPlan::parse("outage=2d..3d");
  for (const bool with_plan : {false, true}) {
    const cloud::CloudConfig config =
        with_plan ? faulted : cloud::CloudConfig{};
    for (const auto& probe : probes) {
      const auto day_two = [&](const SeededCloud& seeded) {
        net::HttpRequest req = seeded.request(probe.method, probe.path);
        req.body = probe.body;
        req.headers[net::kSimTimeHeader] = std::to_string(days(2));
        req.headers[net::kAttemptHeader] = "3";
        return req;
      };
      {
        // Control: well-formed headers are served (and the PUT changes the
        // content digest, so the checks below can bite), or faulted by the
        // plan.
        SeededCloud seeded(true, config);
        const std::uint64_t before = seeded.digest();
        const net::HttpResponse res =
            seeded.cloud.router().handle(day_two(seeded));
        if (with_plan) {
          EXPECT_EQ(res.status, net::kStatusServiceUnavailable);
          EXPECT_EQ(seeded.digest(), before);
        } else {
          EXPECT_TRUE(res.ok());
          if (probe.method == net::Method::Put) {
            EXPECT_NE(seeded.digest(), before);
          }
        }
      }
      for (const char* header : {net::kSimTimeHeader, net::kAttemptHeader}) {
        for (const char* bad :
             {"abc", "", "-1", "12x", "18446744073709551616"}) {
          SeededCloud seeded(true, config);
          net::HttpRequest req = day_two(seeded);
          req.headers[header] = bad;
          SCOPED_TRACE(std::string(net::to_string(probe.method)) + " " +
                       probe.path + " " + header + " '" + bad +
                       "', fault plan " + (with_plan ? "on" : "off"));
          const telemetry::LabelSet refused = {
              {"method", net::to_string(probe.method)},
              {"route", "<bad-request>"},
              {"status", "400"}};
          const std::uint64_t refused_before =
              telemetry::registry().counter_value("cloud_requests_total",
                                                  refused);
          const std::uint64_t before = seeded.digest();
          EXPECT_EQ(seeded.cloud.router().handle(req).status,
                    net::kStatusBadRequest);
          EXPECT_EQ(seeded.digest(), before);
          EXPECT_EQ(telemetry::registry().counter_value(
                        "cloud_requests_total", refused),
                    refused_before + 1);
        }
      }
    }
  }
}

TEST(TotalDecoding, MalformedContactsBatchAppliesNothingSoReplayStoresAll) {
  SeededCloud seeded(/*with_data=*/false);
  const core::EncounterEntry first{5, 7, hours(9), hours(10)};
  const core::EncounterEntry second{6, 7, hours(11), hours(12)};
  Json batch = Json::object();
  batch.set("first_index", 0);
  Json bad = Json::object();
  bad.set("contact", "x");
  batch.set("encounters", Json(Json::Array{core::to_json(first), bad}));
  const std::uint64_t before = seeded.digest();
  EXPECT_EQ(seeded.send(net::Method::Post, "/api/users/1/contacts", batch)
                .status,
            net::kStatusBadRequest);
  EXPECT_EQ(seeded.digest(), before);

  // The valid replay of the same range must not be trimmed by a high-water
  // mark the rejected batch left behind.
  EXPECT_EQ(seeded
                .send(net::Method::Post, "/api/users/1/contacts",
                      core::to_json(core::EncounterBatch{0, {first, second}}))
                .status,
            net::kStatusCreated);
  EXPECT_EQ(seeded.cloud.storage().user(1).encounters.size(), 2u);
}

TEST(TotalDecoding, GarbageRouteBodyIsRejected) {
  SeededCloud seeded(/*with_data=*/false);
  const std::uint64_t before = seeded.digest();
  EXPECT_EQ(
      seeded.send(net::Method::Post, "/api/users/1/routes", Json("x")).status,
      net::kStatusBadRequest);
  EXPECT_EQ(seeded.digest(), before);
  EXPECT_EQ(seeded.cloud.storage().user(1).routes.routes().size(), 0u);
}

/// A PMS wired to `server` (a stand-in cloud) over a lossless link.
struct PmsRig {
  explicit PmsRig(const net::Router& server) {
    Rng rng(3);
    Rng world_rng = rng.fork(1);
    world = world::generate_world(world::WorldConfig{}, world_rng);
    Rng prng = rng.fork(2);
    auto participants = mobility::make_participants(*world, 1, prng);
    Rng trng = rng.fork(3);
    mobility::ScheduleConfig sc;
    sc.days = 2;
    trace.emplace(mobility::build_trace(*world, participants[0], sc, trng));
    auto device = std::make_unique<sensing::Device>(
        world, sensing::oracle_from_trace(*trace), sensing::DeviceConfig{},
        rng.fork(5));
    auto client = std::make_unique<net::RestClient>(
        &server, net::NetworkConditions{0.0, 1}, rng.fork(6));
    pms = std::make_unique<core::PmwareMobileService>(
        std::move(device), core::PmsConfig{}, std::move(client), rng.fork(7));
  }

  std::shared_ptr<const world::World> world;
  std::optional<mobility::Trace> trace;
  std::unique_ptr<core::PmwareMobileService> pms;
};

/// Registers every device as user 1 with a token valid until `expires_at`.
void add_register_route(net::Router& router, int* registrations,
                        SimTime expires_at) {
  router.add_route(net::Method::Post, "/api/register",
                   [=](const net::HttpRequest&, const net::PathParams&) {
                     ++*registrations;
                     return net::HttpResponse::json(
                         core::to_json(core::SessionGrant{
                             1, "tok", expires_at, 1}),
                         net::kStatusCreated);
                   });
}

net::Handler answer(Json body, int status) {
  return [body, status](const net::HttpRequest&, const net::PathParams&) {
    return net::HttpResponse::json(body, status);
  };
}

TEST(TotalDecoding, PmsTreatsUndecodableResponsesAsFailedExchanges) {
  net::Router server;
  int registrations = 0;
  add_register_route(server, &registrations, days(30));
  server.add_route(net::Method::Post, "/api/places/discover",
                   answer(Json("x"), net::kStatusOk));
  server.add_route(net::Method::Put, "/api/users/:id/places/:uid",
                   answer(Json("x"), net::kStatusCreated));
  for (const char* path : {"/api/users/:id/routes", "/api/users/:id/contacts"})
    server.add_route(net::Method::Post, path,
                     answer(Json::object(), net::kStatusCreated));
  server.add_route(net::Method::Put, "/api/users/:id/profiles/:day",
                   answer(Json::object(), net::kStatusCreated));

  PmsRig rig(server);
  auto& pms = rig.pms;
  ASSERT_TRUE(pms->register_with_cloud(0));
  EXPECT_NO_THROW({
    pms->run(TimeWindow{0, days(2)});
    pms->shutdown(days(2));
  });

  // Discover: every pass fell back to the local GCA.
  EXPECT_EQ(pms->stats().gca_offloads, 0u);
  EXPECT_GE(telemetry::registry().counter_value(
                "pms_gca_local_total", {{"instance", pms->instance_label()}}),
            2u);
  // Place upsert: the undecodable echo is a failed delivery, still queued.
  ASSERT_FALSE(pms->places().records().empty());
  EXPECT_GE(telemetry::registry().counter_value(
                "pms_sync_failures_total",
                {{"instance", pms->instance_label()}, {"kind", "place"}}),
            1u);
  bool upsert_pending = false;
  for (const auto& entry : pms->outbox().entries())
    upsert_pending |= entry.kind == core::SyncKind::PlaceUpsert;
  EXPECT_TRUE(upsert_pending);
}

/// The retained "sync failed" warnings of a PMS whose place upserts draw
/// `place_answer` with `status`; every other sync succeeds.
std::string place_sync_failure_logs(Json place_answer, int status) {
  net::Router server;
  int registrations = 0;
  add_register_route(server, &registrations, days(30));
  server.add_route(net::Method::Put, "/api/users/:id/places/:uid",
                   answer(std::move(place_answer), status));
  for (const char* path : {"/api/users/:id/routes", "/api/users/:id/contacts"})
    server.add_route(net::Method::Post, path,
                     answer(Json::object(), net::kStatusCreated));
  server.add_route(net::Method::Put, "/api/users/:id/profiles/:day",
                   answer(Json::object(), net::kStatusCreated));
  telemetry::logger().reset();
  PmsRig rig(server);
  EXPECT_TRUE(rig.pms->register_with_cloud(0));
  rig.pms->run(TimeWindow{0, days(2)});
  std::string logs;
  for (const auto& record : telemetry::logger().recent())
    if (record.component == "pms" &&
        record.message.find("sync failed") != std::string::npos)
      logs += record.message + "\n";
  return logs;
}

TEST(TotalDecoding, OutboxFailureLogsCarryTheStatusReceived) {
  const std::string outage = place_sync_failure_logs(
      Json::object(), net::kStatusServiceUnavailable);
  EXPECT_NE(outage.find("place sync failed (status 503)"), std::string::npos)
      << outage;
  const std::string undecodable =
      place_sync_failure_logs(Json("x"), net::kStatusCreated);
  EXPECT_NE(undecodable.find("place sync failed (status 201, malformed"),
            std::string::npos)
      << undecodable;
  EXPECT_EQ((outage + undecodable).find("status 0"), std::string::npos);
}

TEST(TotalDecoding, UndecodableGrantIsAFailedRegistration) {
  net::Router server;
  server.add_route(net::Method::Post, "/api/register",
                   answer(Json("x"), net::kStatusCreated));
  PmsRig rig(server);
  auto& pms = rig.pms;
  EXPECT_FALSE(pms->register_with_cloud(0));
  EXPECT_FALSE(pms->registered());
  // Housekeeping keeps retrying the wanted registration; none may throw.
  EXPECT_NO_THROW(pms->run(TimeWindow{0, days(2)}));
  EXPECT_FALSE(pms->registered());
}

TEST(TotalDecoding, UndecodableRefreshFallsBackToRegistration) {
  net::Router server;
  int registrations = 0;
  // The token runs out within the first day, so day 0's housekeeping
  // refreshes it — and the refresh answer is undecodable.
  add_register_route(server, &registrations, hours(12));
  server.add_route(net::Method::Post, "/api/token/refresh",
                   answer(Json("x"), net::kStatusOk));
  PmsRig rig(server);
  auto& pms = rig.pms;
  ASSERT_TRUE(pms->register_with_cloud(0));
  EXPECT_NO_THROW(pms->run(TimeWindow{0, days(1)}));
  EXPECT_EQ(pms->stats().token_refreshes, 0u);
  EXPECT_EQ(registrations, 2);
  EXPECT_TRUE(pms->registered());
}

}  // namespace
}  // namespace pmware
