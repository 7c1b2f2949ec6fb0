#include "algorithms/gca.hpp"

#include <gtest/gtest.h>

#include "cache/digest.hpp"
#include "util/rng.hpp"

namespace pmware::algorithms {
namespace {

using world::CellId;

CellId cell(std::uint32_t cid) {
  return CellId{404, 10, 1, cid, world::Radio::Gsm2G};
}

/// Appends `duration/60` one-minute observations oscillating among `cells`.
void append_dwell(std::vector<CellObservation>& log, SimTime& t,
                  const std::vector<CellId>& cells, SimDuration duration,
                  Rng& rng) {
  for (SimDuration elapsed = 0; elapsed < duration; elapsed += 60) {
    log.push_back({t, cells[rng.index(cells.size())]});
    t += 60;
  }
}

/// Appends a travel chain visiting each cell once (pass-through).
void append_travel(std::vector<CellObservation>& log, SimTime& t,
                   const std::vector<CellId>& chain) {
  for (const CellId& c : chain) {
    log.push_back({t, c});
    t += 60;
  }
}

TEST(MovementGraph, CountsDwellAndTransitions) {
  MovementGraph graph;
  const GcaConfig config;
  graph.observe({0, cell(1)}, config);
  graph.observe({60, cell(1)}, config);
  graph.observe({120, cell(2)}, config);
  graph.observe({180, cell(1)}, config);
  EXPECT_EQ(graph.dwell().at(cell(1)), 120);  // [0,60)+[60,120)
  EXPECT_EQ(graph.dwell().at(cell(2)), 60);
  EXPECT_EQ(graph.edges().at(std::minmax(cell(1), cell(2))), 2);
  EXPECT_EQ(graph.transitions(cell(1)), 2);
  EXPECT_EQ(graph.transitions(cell(2)), 2);
  EXPECT_EQ(graph.node_count(), 2u);
}

TEST(MovementGraph, OscillationRequiresBounceBack) {
  MovementGraph graph;
  const GcaConfig config;
  // 1 -> 2 -> 1 within the window: one oscillation event.
  graph.observe({0, cell(1)}, config);
  graph.observe({60, cell(2)}, config);
  graph.observe({120, cell(1)}, config);
  // 1 -> 3 -> 4: travel, no oscillation.
  graph.observe({180, cell(3)}, config);
  graph.observe({240, cell(4)}, config);
  const std::pair<CellId, CellId> key{cell(1), cell(2)};
  EXPECT_EQ(graph.oscillations().at(key), 1);
  const std::pair<CellId, CellId> travel_key{cell(3), cell(4)};
  EXPECT_EQ(graph.oscillations().count(travel_key), 0u);
}

TEST(MovementGraph, BounceOutsideWindowNotCounted) {
  MovementGraph graph;
  GcaConfig config;
  config.oscillation_window = minutes(5);
  config.max_transition_gap = hours(1);
  graph.observe({0, cell(1)}, config);
  graph.observe({60, cell(2)}, config);
  // Return transition 20 minutes later: outside the oscillation window.
  graph.observe({60 + minutes(20), cell(1)}, config);
  EXPECT_EQ(graph.oscillations().count(std::minmax(cell(1), cell(2))), 0u);
}

TEST(MovementGraph, GapBreaksAdjacency) {
  MovementGraph graph;
  const GcaConfig config;  // max gap 4 min
  graph.observe({0, cell(1)}, config);
  graph.observe({minutes(30), cell(2)}, config);  // 30-minute hole
  EXPECT_TRUE(graph.edges().empty());
  EXPECT_EQ(graph.dwell().at(cell(1)), 0);
}

TEST(MovementGraph, RejectsOutOfOrder) {
  MovementGraph graph;
  const GcaConfig config;
  graph.observe({100, cell(1)}, config);
  EXPECT_THROW(graph.observe({50, cell(1)}, config), std::invalid_argument);
}

TEST(RunGca, EmptyLogYieldsNothing) {
  const GcaResult result = run_gca({});
  EXPECT_TRUE(result.places.empty());
  EXPECT_TRUE(result.visits.empty());
}

TEST(RunGca, SinglePlaceOscillationBecomesOneCluster) {
  Rng rng(1);
  std::vector<CellObservation> log;
  SimTime t = 0;
  const std::vector<CellId> home{cell(1), cell(2), cell(3)};
  append_dwell(log, t, home, hours(8), rng);
  const GcaResult result = run_gca(log);
  ASSERT_EQ(result.places.size(), 1u);
  EXPECT_EQ(result.places[0].signature.cells.size(), 3u);
  EXPECT_GE(result.places[0].total_dwell, hours(7));
  ASSERT_EQ(result.visits.size(), 1u);
  EXPECT_LE(result.visits[0].window.begin, minutes(2));
}

TEST(RunGca, TwoPlacesWithCommuteStaySeparate) {
  Rng rng(2);
  std::vector<CellObservation> log;
  SimTime t = 0;
  const std::vector<CellId> home{cell(1), cell(2)};
  const std::vector<CellId> work{cell(10), cell(11), cell(12)};
  const std::vector<CellId> commute{cell(20), cell(21), cell(22), cell(23)};
  std::vector<CellId> commute_back(commute.rbegin(), commute.rend());
  // 10 days of home -> commute -> work -> commute -> home. The commute chain
  // repeats 20 times; raw edge weights are high but there is no bouncing.
  for (int day = 0; day < 10; ++day) {
    append_dwell(log, t, home, hours(9), rng);
    append_travel(log, t, commute);
    append_dwell(log, t, work, hours(8), rng);
    append_travel(log, t, commute_back);
    append_dwell(log, t, home, hours(6), rng);
  }
  const GcaResult result = run_gca(log);
  // Exactly two multi-cell clusters; commute cells must not merge them.
  ASSERT_EQ(result.places.size(), 2u);
  std::set<CellId> all;
  for (const auto& p : result.places)
    all.insert(p.signature.cells.begin(), p.signature.cells.end());
  for (const auto& c : commute) EXPECT_EQ(all.count(c), 0u) << c.to_string();
  // Home and work cells land in different clusters.
  const auto& sig0 = result.places[0].signature.cells;
  EXPECT_NE(sig0.count(cell(1)), sig0.count(cell(10)));
}

TEST(RunGca, VisitsAlternateBetweenPlaces) {
  Rng rng(3);
  std::vector<CellObservation> log;
  SimTime t = 0;
  const std::vector<CellId> home{cell(1), cell(2)};
  const std::vector<CellId> work{cell(10), cell(11)};
  const std::vector<CellId> commute{cell(20), cell(21)};
  std::vector<CellId> back(commute.rbegin(), commute.rend());
  for (int day = 0; day < 5; ++day) {
    append_dwell(log, t, home, hours(10), rng);
    append_travel(log, t, commute);
    append_dwell(log, t, work, hours(8), rng);
    append_travel(log, t, back);
    append_dwell(log, t, home, hours(5), rng);
  }
  const GcaResult result = run_gca(log);
  ASSERT_EQ(result.places.size(), 2u);
  // 5 days x (home, work, home) minus merges at midnight: at least 10 visits.
  EXPECT_GE(result.visits.size(), 10u);
  for (std::size_t i = 1; i < result.visits.size(); ++i) {
    EXPECT_GE(result.visits[i].window.begin, result.visits[i - 1].window.end);
    EXPECT_NE(result.visits[i].place_index, result.visits[i - 1].place_index);
  }
}

TEST(RunGca, ShortPassThroughIsNotAPlace) {
  Rng rng(4);
  std::vector<CellObservation> log;
  SimTime t = 0;
  append_dwell(log, t, {cell(1), cell(2)}, hours(4), rng);
  append_travel(log, t, {cell(20), cell(21), cell(22)});
  append_dwell(log, t, {cell(10), cell(11)}, hours(4), rng);
  const GcaResult result = run_gca(log);
  for (const auto& place : result.places) {
    EXPECT_EQ(place.signature.cells.count(cell(20)), 0u);
    EXPECT_EQ(place.signature.cells.count(cell(21)), 0u);
  }
}

TEST(RunGca, SingleStableCellNeedsLongDwell) {
  // One cell with no oscillation partners qualifies only via long dwell.
  std::vector<CellObservation> shortlog;
  SimTime t = 0;
  for (; t < minutes(30); t += 60) shortlog.push_back({t, cell(5)});
  EXPECT_TRUE(run_gca(shortlog).places.empty());

  std::vector<CellObservation> longlog;
  t = 0;
  for (; t < hours(2); t += 60) longlog.push_back({t, cell(5)});
  const GcaResult result = run_gca(longlog);
  ASSERT_EQ(result.places.size(), 1u);
  EXPECT_EQ(result.places[0].signature.cells.count(cell(5)), 1u);
}

TEST(RunGca, CellToPlaceMapsEveryClusterCell) {
  Rng rng(5);
  std::vector<CellObservation> log;
  SimTime t = 0;
  append_dwell(log, t, {cell(1), cell(2), cell(3)}, hours(6), rng);
  const GcaResult result = run_gca(log);
  ASSERT_EQ(result.places.size(), 1u);
  for (const auto& c : result.places[0].signature.cells) {
    ASSERT_TRUE(result.cell_to_place.count(c));
    EXPECT_EQ(result.cell_to_place.at(c), 0u);
  }
}

TEST(CellVisitTracker, ArrivalAfterMinDwellDepartureOnExit) {
  std::map<CellId, std::size_t> mapping{{cell(1), 0}, {cell(2), 0}};
  GcaConfig config;
  config.min_visit_dwell = minutes(10);
  config.visit_gap_tolerance = minutes(6);
  CellVisitTracker tracker(mapping, config);

  std::vector<CellVisitTracker::Event> events;
  SimTime t = 0;
  for (; t <= minutes(30); t += 60) {
    auto evs = tracker.observe({t, t % 120 == 0 ? cell(1) : cell(2)});
    events.insert(events.end(), evs.begin(), evs.end());
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, CellVisitTracker::Event::Kind::Arrival);
  EXPECT_EQ(events[0].place_index, 0u);
  EXPECT_EQ(events[0].t, 0);  // backdated to the first in-cluster reading

  // Leave: unknown cells past the gap tolerance.
  std::vector<CellVisitTracker::Event> depart;
  const SimTime leave_start = t;
  for (; t <= leave_start + minutes(8); t += 60) {
    auto evs = tracker.observe({t, cell(99)});
    depart.insert(depart.end(), evs.begin(), evs.end());
  }
  ASSERT_EQ(depart.size(), 1u);
  EXPECT_EQ(depart[0].kind, CellVisitTracker::Event::Kind::Departure);
  // Departure stamped at the last in-cluster observation.
  EXPECT_LE(depart[0].t, leave_start);
}

TEST(CellVisitTracker, BriefExcursionDoesNotEndVisit) {
  std::map<CellId, std::size_t> mapping{{cell(1), 0}};
  GcaConfig config;
  config.min_visit_dwell = minutes(10);
  config.visit_gap_tolerance = minutes(6);
  CellVisitTracker tracker(mapping, config);
  int departures = 0;
  SimTime t = 0;
  for (int i = 0; i < 60; ++i, t += 60) {
    // Every 10th sample flickers to an unknown cell for one minute.
    const CellId c = (i % 10 == 9) ? cell(50) : cell(1);
    for (const auto& ev : tracker.observe({t, c}))
      if (ev.kind == CellVisitTracker::Event::Kind::Departure) ++departures;
  }
  EXPECT_EQ(departures, 0);
  EXPECT_TRUE(tracker.current_place().has_value());
}

TEST(CellVisitTracker, TransientVisitNeverAnnounced) {
  std::map<CellId, std::size_t> mapping{{cell(1), 0}};
  GcaConfig config;
  config.min_visit_dwell = minutes(10);
  CellVisitTracker tracker(mapping, config);
  std::vector<CellVisitTracker::Event> events;
  // Only 5 minutes in the cluster, then away for good.
  for (SimTime t = 0; t <= minutes(5); t += 60) {
    auto evs = tracker.observe({t, cell(1)});
    events.insert(events.end(), evs.begin(), evs.end());
  }
  for (SimTime t = minutes(6); t <= minutes(30); t += 60) {
    auto evs = tracker.observe({t, cell(99)});
    events.insert(events.end(), evs.begin(), evs.end());
  }
  auto evs = tracker.finish(minutes(30));
  events.insert(events.end(), evs.begin(), evs.end());
  EXPECT_TRUE(events.empty());
}

TEST(CellVisitTracker, FinishClosesOpenVisit) {
  std::map<CellId, std::size_t> mapping{{cell(1), 0}};
  CellVisitTracker tracker(mapping, GcaConfig{});
  for (SimTime t = 0; t <= minutes(20); t += 60) tracker.observe({t, cell(1)});
  const auto events = tracker.finish(minutes(21));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, CellVisitTracker::Event::Kind::Departure);
  EXPECT_FALSE(tracker.current_place().has_value());
}

/// Two results agree when their externally visible shape is identical:
/// clusters (cells + dwell), visit sequence, and the cell->place mapping.
void expect_same_result(const GcaResult& a, const GcaResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.places.size(), b.places.size()) << context;
  for (std::size_t i = 0; i < a.places.size(); ++i) {
    EXPECT_EQ(a.places[i].signature.cells, b.places[i].signature.cells)
        << context << " place " << i;
    EXPECT_EQ(a.places[i].total_dwell, b.places[i].total_dwell)
        << context << " place " << i;
  }
  ASSERT_EQ(a.visits.size(), b.visits.size()) << context;
  for (std::size_t i = 0; i < a.visits.size(); ++i) {
    EXPECT_EQ(a.visits[i].place_index, b.visits[i].place_index)
        << context << " visit " << i;
    EXPECT_EQ(a.visits[i].window.begin, b.visits[i].window.begin)
        << context << " visit " << i;
    EXPECT_EQ(a.visits[i].window.end, b.visits[i].window.end)
        << context << " visit " << i;
  }
  EXPECT_EQ(a.cell_to_place, b.cell_to_place) << context;
}

TEST(GcaState, IncrementalReclusterMatchesFullRebuild) {
  // A growing multi-day trace reclustered once per day — the PMS
  // housekeeping pattern. Day 4 introduces a brand-new place (gym), which
  // changes the cell->place mapping and forces the exact full-replay
  // fallback; the surrounding days extend existing places and should take
  // the incremental path.
  Rng rng(11);
  std::vector<CellObservation> log;
  SimTime t = 0;
  const std::vector<CellId> home{cell(1), cell(2)};
  const std::vector<CellId> work{cell(10), cell(11), cell(12)};
  const std::vector<CellId> gym{cell(40), cell(41)};
  const std::vector<CellId> commute{cell(20), cell(21), cell(22)};
  std::vector<CellId> back(commute.rbegin(), commute.rend());

  GcaState state;
  for (int day = 0; day < 7; ++day) {
    append_dwell(log, t, home, hours(9), rng);
    append_travel(log, t, commute);
    append_dwell(log, t, work, hours(8), rng);
    if (day >= 3) {
      append_travel(log, t, {cell(30)});
      append_dwell(log, t, gym, hours(2), rng);
    }
    append_travel(log, t, back);
    append_dwell(log, t, home, hours(4), rng);

    const GcaResult incremental = state.run(log);
    const GcaResult full = run_gca(log);
    expect_same_result(incremental, full, "day " + std::to_string(day));
  }
  EXPECT_EQ(state.passes(), 7u);
  // Most daily passes only extend known places; at least one must have
  // taken the incremental path, and the gym's first appearance must not
  // have (mapping changed).
  EXPECT_GT(state.incremental_passes(), 0u);
  EXPECT_LT(state.incremental_passes(), state.passes());
}

TEST(GcaState, RewrittenHistoryForcesFullReset) {
  Rng rng(12);
  std::vector<CellObservation> log;
  SimTime t = 0;
  append_dwell(log, t, {cell(1), cell(2)}, hours(6), rng);

  GcaState state;
  (void)state.run(log);

  // A *different* log (not an extension of the fed prefix) must be
  // detected and reclustered from scratch, matching run_gca exactly.
  Rng rng2(99);
  std::vector<CellObservation> other;
  SimTime t2 = 0;
  append_dwell(other, t2, {cell(7), cell(8)}, hours(5), rng2);
  const GcaResult incremental = state.run(other);
  const GcaResult full = run_gca(other);
  expect_same_result(incremental, full, "rewritten history");
  EXPECT_FALSE(state.last_pass_incremental());
}

TEST(GcaState, EmptyThenGrowingLogIsSafe) {
  GcaState state;
  EXPECT_TRUE(state.run({}).places.empty());
  Rng rng(13);
  std::vector<CellObservation> log;
  SimTime t = 0;
  append_dwell(log, t, {cell(1), cell(2), cell(3)}, hours(6), rng);
  expect_same_result(state.run(log), run_gca(log), "after empty pass");
}

/// Appends a stationary stretch the way a phone reports it: the serving
/// cell holds for a few minutes at a time before flipping to another of
/// `cells`, so most readings repeat the previous cell.
void append_sticky_dwell(std::vector<CellObservation>& log, SimTime& t,
                         const std::vector<CellId>& cells, SimDuration duration,
                         Rng& rng) {
  const SimTime end = t + duration;
  while (t < end) {
    const CellId c = cells[rng.index(cells.size())];
    for (int hold = 1 + static_cast<int>(rng.index(12)); hold > 0 && t < end;
         --hold, t += 60)
      log.push_back({t, c});
  }
}

void fold_result(std::uint64_t& h, const GcaResult& result) {
  cache::fold(h, result.places.size());
  for (const auto& place : result.places) {
    for (const auto& c : place.signature.cells) cache::fold(h, c.key());
    cache::fold(h, static_cast<std::uint64_t>(place.total_dwell));
  }
  cache::fold(h, result.visits.size());
  for (const auto& v : result.visits) {
    cache::fold(h, v.place_index);
    cache::fold(h, static_cast<std::uint64_t>(v.window.begin));
    cache::fold(h, static_cast<std::uint64_t>(v.window.end));
  }
  cache::fold(h, result.cell_to_place.size());
  for (const auto& [c, index] : result.cell_to_place) {
    cache::fold(h, c.key());
    cache::fold(h, index);
  }
}

TEST(GcaState, DailyPassesMatchKnownAnswer) {
  // Two weeks reclustered once a day, the cloud's discover pattern. The
  // digest pins every pass's places, visits and mapping, so any change to
  // how the graph is fed or the visits are replayed must reproduce them
  // exactly. The log carries what a run-level shortcut could get wrong:
  // a gym that first appears mid-week (a mapping change, so both full and
  // incremental passes occur), phone-off holes longer than
  // max_transition_gap, some on an unchanged cell, and excursions shorter
  // and longer than visit_gap_tolerance.
  Rng rng(26);
  const std::vector<CellId> home{cell(1), cell(2), cell(3)};
  const std::vector<CellId> work{cell(10), cell(11), cell(12)};
  const std::vector<CellId> gym{cell(40), cell(41)};
  const std::vector<CellId> commute{cell(20), cell(21), cell(22)};
  const std::vector<CellId> back(commute.rbegin(), commute.rend());
  std::vector<CellObservation> log;
  SimTime t = 0;
  GcaState state;
  std::uint64_t h = cache::kDigestBasis;
  for (int day = 0; day < 14; ++day) {
    append_sticky_dwell(log, t, home, hours(7), rng);
    log.push_back({t, log.back().cell});  // phone off, same cell after
    t += minutes(25);
    log.push_back({t, log.back().cell});
    t += 60;
    append_sticky_dwell(log, t, home, hours(1), rng);
    append_travel(log, t, commute);
    append_sticky_dwell(log, t, work, hours(3), rng);
    append_travel(log, t, {cell(99), cell(99), cell(99)});  // short excursion
    append_sticky_dwell(log, t, work, hours(2), rng);
    append_travel(log, t, std::vector<CellId>(12, cell(98)));  // lunch out
    append_sticky_dwell(log, t, work, hours(2), rng);
    append_travel(log, t, std::vector<CellId>(8, cell(200 + day)));  // errand
    append_sticky_dwell(log, t, work, hours(1), rng);
    if (day >= 5 && day % 2 == 1) {
      append_travel(log, t, {cell(30)});
      append_sticky_dwell(log, t, gym, hours(2), rng);
    }
    append_travel(log, t, back);
    t += minutes(40);  // sensing hole on the way home
    append_sticky_dwell(log, t, home, hours(4), rng);
    fold_result(h, state.run(log));
  }
  EXPECT_EQ(state.passes(), 14u);
  EXPECT_GT(state.incremental_passes(), 0u);
  EXPECT_LT(state.incremental_passes(), state.passes());
  EXPECT_EQ(h, 0x854587e0ad164c9full);
}

// --- Serving-cell runs ---------------------------------------------------
// The graph and the tracker both take a run of readings of one cell as a
// unit. These cases put the interesting event inside a run.

/// Feeds `log` one reading at a time through observe().
std::vector<CellVisitTracker::Event> observe_each(
    CellVisitTracker& tracker, const std::vector<CellObservation>& log) {
  std::vector<CellVisitTracker::Event> events;
  for (const auto& obs : log) {
    const auto evs = tracker.observe(obs);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  return events;
}

void expect_same_events(const std::vector<CellVisitTracker::Event>& a,
                        const std::vector<CellVisitTracker::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].place_index, b[i].place_index) << "event " << i;
    EXPECT_EQ(a[i].t, b[i].t) << "event " << i;
  }
}

TEST(CellVisitTracker, RunLeavesCurrentClusterPartway) {
  const std::map<CellId, std::size_t> mapping{{cell(1), 0}, {cell(5), 1}};
  GcaConfig config;
  config.min_visit_dwell = minutes(10);
  config.visit_gap_tolerance = minutes(6);
  std::vector<CellObservation> log;
  SimTime t = 0;
  append_travel(log, t, std::vector<CellId>(20, cell(1)));  // home, announced
  const SimTime last_home = t - 60;
  // One 30-minute run at place 1: its first six readings are within the
  // gap tolerance of home, the seventh leaves it.
  append_travel(log, t, std::vector<CellId>(30, cell(5)));
  const SimTime leave = last_home + minutes(7);

  CellVisitTracker by_run(mapping, config);
  std::vector<CellVisitTracker::Event> events;
  by_run.feed(log, events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, CellVisitTracker::Event::Kind::Arrival);
  EXPECT_EQ(events[1].kind, CellVisitTracker::Event::Kind::Departure);
  EXPECT_EQ(events[1].place_index, 0u);
  EXPECT_EQ(events[1].t, last_home);
  // The new visit starts at the reading that left, not at the run's first.
  EXPECT_EQ(events[2].kind, CellVisitTracker::Event::Kind::Arrival);
  EXPECT_EQ(events[2].place_index, 1u);
  EXPECT_EQ(events[2].t, leave);
  EXPECT_EQ(by_run.current_place(), std::optional<std::size_t>(1));

  CellVisitTracker by_reading(mapping, config);
  expect_same_events(events, observe_each(by_reading, log));
}

TEST(CellVisitTracker, RunToNoPlaceLeavesOnlyPastTolerance) {
  const std::map<CellId, std::size_t> mapping{{cell(1), 0}};
  GcaConfig config;
  config.visit_gap_tolerance = minutes(6);
  for (const int away : {5, 6, 7, 30}) {
    std::vector<CellObservation> log;
    SimTime t = 0;
    append_travel(log, t, std::vector<CellId>(15, cell(1)));
    append_travel(log, t, std::vector<CellId>(away, cell(99)));
    append_travel(log, t, {cell(1)});
    CellVisitTracker by_run(mapping, config);
    std::vector<CellVisitTracker::Event> events;
    by_run.feed(log, events);
    CellVisitTracker by_reading(mapping, config);
    expect_same_events(events, observe_each(by_reading, log));
    // Readings at most six minutes after the last home one keep the visit.
    const bool left = away > 6;
    EXPECT_EQ(events.size(), left ? 2u : 1u) << away << " minutes away";
  }
}

TEST(MovementGraph, GapInsideRunBreaksBounceChain) {
  const GcaConfig config;  // max gap 4 min, oscillation window 10 min
  const std::vector<CellObservation> log{
      {0, cell(1)},
      {60, cell(2)},
      {120, cell(2)},
      {120 + minutes(5), cell(2)},  // hole inside the run of cell 2
      {180 + minutes(5), cell(1)},  // within the window of 1->2, but cut
  };
  MovementGraph graph;
  graph.feed(log, config);
  EXPECT_EQ(graph.edges().at(std::minmax(cell(1), cell(2))), 2);
  EXPECT_EQ(graph.oscillations().count(std::minmax(cell(1), cell(2))), 0u);
  EXPECT_EQ(graph.dwell().at(cell(1)), 60);
  EXPECT_EQ(graph.dwell().at(cell(2)), 120);  // the hole is not dwell

  MovementGraph by_reading;
  for (const auto& obs : log) by_reading.observe(obs, config);
  EXPECT_EQ(graph.dwell(), by_reading.dwell());
  EXPECT_EQ(graph.oscillations(), by_reading.oscillations());

  // Control: the same bounce without the hole is an oscillation event.
  MovementGraph closed;
  closed.feed(std::vector<CellObservation>{
                  {0, cell(1)}, {60, cell(2)}, {120, cell(2)}, {180, cell(1)}},
              config);
  EXPECT_EQ(closed.oscillations().at(std::minmax(cell(1), cell(2))), 1);
}

TEST(MovementGraph, OutOfOrderInsideRunThrows) {
  const GcaConfig config;
  MovementGraph graph;
  const std::vector<CellObservation> log{
      {0, cell(1)}, {60, cell(1)}, {180, cell(1)}, {120, cell(1)}};
  EXPECT_THROW(graph.feed(log, config), std::invalid_argument);
  GcaState state;
  EXPECT_THROW((void)state.run(log), std::invalid_argument);
}

TEST(GcaState, RunSplitAcrossPassesMatchesUnsplit) {
  // One day of sticky readings with a hole and both kinds of excursion;
  // a first pass ends at every split point in turn, most of them inside a
  // run, and the second pass must land where one unsplit pass does.
  Rng rng(27);
  std::vector<CellObservation> log;
  SimTime t = 0;
  append_sticky_dwell(log, t, {cell(1), cell(2)}, hours(5), rng);
  t += minutes(20);
  append_sticky_dwell(log, t, {cell(1), cell(2)}, hours(3), rng);
  append_travel(log, t, {cell(20), cell(21)});
  append_sticky_dwell(log, t, {cell(10), cell(11)}, hours(2), rng);
  append_travel(log, t, std::vector<CellId>(3, cell(99)));
  append_sticky_dwell(log, t, {cell(10), cell(11)}, hours(2), rng);
  append_travel(log, t, std::vector<CellId>(9, cell(98)));
  append_sticky_dwell(log, t, {cell(10), cell(11)}, hours(2), rng);
  const GcaResult unsplit = run_gca(log);
  ASSERT_EQ(unsplit.places.size(), 2u);
  std::size_t inside_runs = 0;
  for (std::size_t split = 1; split < log.size(); split += 7) {
    inside_runs += log[split - 1].cell == log[split].cell;
    GcaState state;
    (void)state.run(std::span(log).first(split));
    expect_same_result(state.run(log), unsplit,
                       "split at " + std::to_string(split));
  }
  EXPECT_GT(inside_runs, 50u);
}

class GcaNoiseSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcaNoiseSweep, HomeWorkSeparationRobustToSeed) {
  Rng rng(GetParam());
  std::vector<CellObservation> log;
  SimTime t = 0;
  const std::vector<CellId> home{cell(1), cell(2), cell(3)};
  const std::vector<CellId> work{cell(10), cell(11)};
  const std::vector<CellId> commute{cell(20), cell(21), cell(22)};
  std::vector<CellId> back(commute.rbegin(), commute.rend());
  for (int day = 0; day < 7; ++day) {
    append_dwell(log, t, home, hours(10), rng);
    append_travel(log, t, commute);
    append_dwell(log, t, work, hours(8), rng);
    append_travel(log, t, back);
    append_dwell(log, t, home, hours(5), rng);
  }
  const GcaResult result = run_gca(log);
  EXPECT_EQ(result.places.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcaNoiseSweep,
                         ::testing::Values(1ULL, 7ULL, 13ULL, 42ULL, 1234ULL));

}  // namespace
}  // namespace pmware::algorithms
