// Engine-level tests: a real device over a real ground-truth trace, but no
// cloud — exercising the triggered-sensing policy and hybrid place identity.
#include "core/inference_engine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"

namespace pmware::core {
namespace {

using energy::Interface;

struct EngineHarness {
  /// `scenario` selects the seed set: 0 is the default scenario, and each
  /// other value an independent world, participant, trace and device.
  EngineHarness(int days_n, bool wifi_enabled = true,
                std::optional<Granularity> granularity = Granularity::Building,
                RouteAccuracy route_accuracy = RouteAccuracy::Off,
                std::uint64_t scenario = 0) {
    const std::uint64_t offset = 100 * scenario;
    Rng world_rng(1 + offset);
    world::WorldConfig wc;
    world = world::generate_world(wc, world_rng);
    Rng prng(2 + offset);
    participants = mobility::make_participants(*world, 2, prng);
    Rng trng(5 + offset);
    mobility::ScheduleConfig sc;
    sc.days = days_n;
    trace.emplace(mobility::build_trace(*world, participants[0], sc, trng));

    device = std::make_unique<sensing::Device>(
        world, sensing::oracle_from_trace(*trace), sensing::DeviceConfig{},
        Rng(7 + offset));
    scheduler = std::make_unique<sensing::SamplingScheduler>(&meter);
    apps = std::make_unique<ConnectedAppsModule>(&prefs);

    if (granularity) {
      PlaceAlertRequest request;
      request.app = "test";
      request.granularity = *granularity;
      request.want_new_place = true;
      request.receiver = 0;
      apps->register_place_alerts(request);
    }
    if (route_accuracy != RouteAccuracy::Off) {
      RouteTrackingRequest request;
      request.app = "test";
      request.accuracy = route_accuracy;
      apps->register_route_tracking(request);
    }

    InferenceConfig config;
    config.wifi_enabled = wifi_enabled;
    engine = std::make_unique<InferenceEngine>(
        device.get(), scheduler.get(), &store, apps.get(), config,
        Rng(9 + offset));
    engine->set_place_event_sink(
        [this](const PlaceEvent& event) { events.push_back(event); });
    engine->set_route_event_sink(
        [this](const RouteEvent& event) { route_events.push_back(event); });
    engine->attach();
  }

  void run_days(int days_n) {
    for (int day = 0; day < days_n; ++day) {
      scheduler->run(TimeWindow{start_of_day(day), start_of_day(day + 1)});
      engine->recluster(start_of_day(day + 1));
    }
  }

  std::shared_ptr<const world::World> world;
  std::vector<mobility::Participant> participants;
  std::optional<mobility::Trace> trace;
  energy::EnergyMeter meter;
  std::unique_ptr<sensing::Device> device;
  std::unique_ptr<sensing::SamplingScheduler> scheduler;
  UserPreferences prefs;
  std::unique_ptr<ConnectedAppsModule> apps;
  PlaceStore store;
  std::unique_ptr<InferenceEngine> engine;
  std::vector<PlaceEvent> events;
  std::vector<RouteEvent> route_events;
};

// Whether a route is captured, carries GPS, or gets an area in a short run
// depends on the scenario: which places the trace visits, and whether the
// engine has discovered both ends of a trip by the time it is made. The
// tests below therefore run kScenarios independent scenarios, check the
// per-run invariants on every one, and require each mechanism to fire in at
// least a quarter of them.
constexpr std::uint64_t kScenarios = 16;
constexpr int kMinScenariosFiring = 4;

TEST(InferenceEngine, DiscoversHomeAndAnchor) {
  EngineHarness h(3);
  h.run_days(3);
  h.engine->flush(start_of_day(3));
  const auto& log = h.engine->visit_log();
  ASSERT_GE(log.size(), 4u);

  // The place occupied at 3 AM (home) and at 11 AM on a weekday (anchor)
  // must appear in the log with long dwells.
  std::set<PlaceUid> night_uids, noon_uids;
  for (const auto& v : log) {
    for (int day = 0; day < 3; ++day) {
      if (v.window.contains(start_of_day(day) + hours(3)))
        night_uids.insert(v.uid);
      if (v.window.contains(start_of_day(day) + hours(11)))
        noon_uids.insert(v.uid);
    }
  }
  EXPECT_GE(night_uids.size(), 1u);
  EXPECT_GE(noon_uids.size(), 1u);
  // Home and anchor resolve to different identities.
  for (PlaceUid n : night_uids) EXPECT_EQ(noon_uids.count(n), 0u);
}

TEST(InferenceEngine, VisitLogRespectsMinDwell) {
  EngineHarness h(2);
  h.run_days(2);
  InferenceConfig config;
  for (const auto& v : h.engine->visit_log())
    EXPECT_GE(v.window.length(), config.min_visit_dwell);
}

TEST(InferenceEngine, VisitLogIsSortedAndNonOverlapping) {
  EngineHarness h(3);
  h.run_days(3);
  const auto& log = h.engine->visit_log();
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_GE(log[i].window.begin, log[i - 1].window.end - 1);
}

TEST(InferenceEngine, EnterExitEventsAlternatePerPlace) {
  EngineHarness h(2);
  h.run_days(2);
  std::optional<PlaceUid> open;
  for (const auto& ev : h.events) {
    if (ev.kind == PlaceEvent::Kind::Enter) {
      EXPECT_FALSE(open.has_value());
      open = ev.uid;
    } else if (ev.kind == PlaceEvent::Kind::Exit) {
      ASSERT_TRUE(open.has_value());
      EXPECT_EQ(*open, ev.uid);
      open.reset();
    }
  }
}

TEST(InferenceEngine, NewPlaceEventsForInternedPlaces) {
  EngineHarness h(2);
  h.run_days(2);
  std::set<PlaceUid> announced;
  for (const auto& ev : h.events)
    if (ev.kind == PlaceEvent::Kind::NewPlace) announced.insert(ev.uid);
  // Every place in the store was announced exactly once.
  EXPECT_EQ(announced.size(), h.store.size());
}

TEST(InferenceEngine, NoGpsWithoutHighAccuracyRequest) {
  EngineHarness h(1, true, Granularity::Building, RouteAccuracy::Off);
  h.run_days(1);
  EXPECT_EQ(h.meter.sample_count(Interface::Gps), 0u);
}

TEST(InferenceEngine, GpsOnlyWhileMovingInHighAccuracyMode) {
  EngineHarness h(1, true, Granularity::Building, RouteAccuracy::High);
  h.run_days(1);
  EXPECT_GT(h.meter.sample_count(Interface::Gps), 0u);
  // GPS fired only during trips, which are a small part of the day:
  // far fewer samples than continuous 30s sampling would give (2880).
  EXPECT_LT(h.meter.sample_count(Interface::Gps), 900u);
}

TEST(InferenceEngine, WifiDisabledMeansNoWifiSamples) {
  EngineHarness h(2, /*wifi_enabled=*/false);
  h.run_days(2);
  EXPECT_EQ(h.meter.sample_count(Interface::Wifi), 0u);
  // GSM-only mode still discovers places.
  EXPECT_GE(h.engine->visit_log().size(), 2u);
}

TEST(InferenceEngine, AreaGranularityAvoidsWifiAndAccel) {
  EngineHarness h(1, true, Granularity::Area);
  h.run_days(1);
  EXPECT_EQ(h.meter.sample_count(Interface::Wifi), 0u);
  EXPECT_EQ(h.meter.sample_count(Interface::Accelerometer), 0u);
  EXPECT_EQ(h.meter.sample_count(Interface::Gps), 0u);
  // GSM runs continuously regardless.
  EXPECT_EQ(h.meter.sample_count(Interface::Gsm), 1440u);
}

TEST(InferenceEngine, NoAppsMeansGsmOnly) {
  EngineHarness h(1, true, std::nullopt);
  h.run_days(1);
  EXPECT_EQ(h.meter.sample_count(Interface::Wifi), 0u);
  EXPECT_EQ(h.meter.sample_count(Interface::Accelerometer), 0u);
  EXPECT_EQ(h.meter.sample_count(Interface::Gsm), 1440u);
}

TEST(InferenceEngine, TriggeredSensingUsesFarFewerWifiScansThanContinuous) {
  EngineHarness h(1);
  h.run_days(1);
  // Continuous 1-minute WiFi would be 1440 scans; triggered sensing stays
  // well under a quarter of that.
  EXPECT_GT(h.meter.sample_count(Interface::Wifi), 10u);
  EXPECT_LT(h.meter.sample_count(Interface::Wifi), 360u);
}

TEST(InferenceEngine, GsmLogGrowsContinuously) {
  EngineHarness h(2);
  h.run_days(2);
  EXPECT_NEAR(static_cast<double>(h.engine->gsm_log().size()), 2880.0, 30.0);
  for (std::size_t i = 1; i < h.engine->gsm_log().size(); ++i)
    EXPECT_LE(h.engine->gsm_log()[i - 1].t, h.engine->gsm_log()[i].t);
}

TEST(InferenceEngine, RoutesCapturedBetweenPlaces) {
  int firing = 0;
  for (std::uint64_t scenario = 0; scenario < kScenarios; ++scenario) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    EngineHarness h(2, true, Granularity::Building, RouteAccuracy::Low,
                    scenario);
    h.run_days(2);
    for (const auto& r : h.route_events) {
      EXPECT_GE(r.window.length(), minutes(2));
      EXPECT_FALSE(r.high_accuracy);
    }
    if (h.route_events.size() >= 2 && !h.engine->routes().routes().empty())
      ++firing;
  }
  EXPECT_GE(firing, kMinScenariosFiring);
}

TEST(InferenceEngine, HighAccuracyRoutesCarryGps) {
  int firing = 0;
  for (std::uint64_t scenario = 0; scenario < kScenarios; ++scenario) {
    EngineHarness h(2, true, Granularity::Building, RouteAccuracy::High,
                    scenario);
    h.run_days(2);
    bool any_gps_route = false;
    for (const auto& canonical : h.engine->routes().routes())
      if (canonical.representative.gps.points.size() >= 2)
        any_gps_route = true;
    if (any_gps_route) ++firing;
  }
  EXPECT_GE(firing, kMinScenariosFiring);
}

TEST(InferenceEngine, ReclusterIsStableAcrossRepeats) {
  EngineHarness h(2);
  h.run_days(2);
  const std::size_t places_before = h.store.size();
  const auto log_before = h.engine->visit_log();
  // Reclustering again with no new data must not invent places or visits.
  h.engine->recluster(start_of_day(2));
  EXPECT_EQ(h.store.size(), places_before);
  EXPECT_EQ(h.engine->visit_log().size(), log_before.size());
}

TEST(InferenceEngine, AreaOfWifiPlaceIsGsmCluster) {
  // In a scenario that fires, at least one wifi place is associated with a
  // GSM-cluster area.
  int firing = 0;
  for (std::uint64_t scenario = 0; scenario < kScenarios; ++scenario) {
    EngineHarness h(3, true, Granularity::Building, RouteAccuracy::Off,
                    scenario);
    h.run_days(3);
    bool any_refined = false;
    for (const auto& [uid, record] : h.store.records()) {
      if (!std::holds_alternative<algorithms::WifiSignature>(record.signature))
        continue;
      if (h.engine->area_of(uid) != uid) any_refined = true;
    }
    if (any_refined) ++firing;
  }
  EXPECT_GE(firing, kMinScenariosFiring);
}

}  // namespace
}  // namespace pmware::core
