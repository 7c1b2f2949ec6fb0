// Deployment-study harness tests (small configurations for speed; the full
// 16x14 configuration runs in bench_deployment_study).
#include "study/deployment.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "telemetry/metrics.hpp"

namespace pmware::study {
namespace {

using algorithms::DiscoveredOutcome;

StudyConfig small_config() {
  StudyConfig config;
  config.participants = 4;
  config.days = 4;
  return config;
}

TEST(Study, ProducesPlausibleAggregates) {
  DeploymentStudy study(small_config());
  const StudyResult result = study.run();
  ASSERT_EQ(result.participants.size(), 4u);
  EXPECT_GE(result.total_discovered(), 8u);
  EXPECT_GT(result.total_tagged(), 0u);
  EXPECT_LE(result.total_tagged(), result.total_discovered());
  EXPECT_LE(result.total_evaluable(), result.total_tagged());
  const std::size_t classified = result.total(DiscoveredOutcome::Correct) +
                                 result.total(DiscoveredOutcome::Merged) +
                                 result.total(DiscoveredOutcome::Divided) +
                                 result.total(DiscoveredOutcome::Spurious);
  EXPECT_EQ(classified, result.total_evaluable());
}

TEST(Study, CorrectDominates) {
  DeploymentStudy study(small_config());
  const StudyResult result = study.run();
  EXPECT_GT(result.fraction(DiscoveredOutcome::Correct), 0.5);
}

TEST(Study, PlaceAdsProduceFeedbackSkewedTowardLikes) {
  DeploymentStudy study(small_config());
  const StudyResult result = study.run();
  EXPECT_GT(result.total_likes() + result.total_dislikes(), 10u);
  EXPECT_GT(result.total_likes(), result.total_dislikes());
}

TEST(Study, PlaceMapHasLocatedEntries) {
  DeploymentStudy study(small_config());
  const StudyResult result = study.run();
  EXPECT_GE(result.place_map.size(), result.total_discovered());
  std::size_t located = 0;
  for (const auto& entry : result.place_map)
    if (entry.location) ++located;
  // The cloud geo-location service resolves cell signatures; the large
  // majority of places get an approximate position (Figure 5b).
  EXPECT_GT(static_cast<double>(located) /
                static_cast<double>(result.place_map.size()),
            0.7);
}

TEST(Study, EnergyBudgetIsTriggeredSensingShaped) {
  DeploymentStudy study(small_config());
  const StudyResult result = study.run();
  for (const auto& p : result.participants) {
    // Far better than always-on GPS (~31 h), well past 4 days.
    EXPECT_GT(p.implied_battery_hours, 100.0);
    EXPECT_GT(p.sensing_joules, 0.0);
  }
}

TEST(Study, DeterministicForSameSeed) {
  StudyConfig config = small_config();
  config.seed = 777;
  DeploymentStudy a(config);
  DeploymentStudy b(config);
  const StudyResult ra = a.run();
  const StudyResult rb = b.run();
  EXPECT_EQ(ra.total_discovered(), rb.total_discovered());
  EXPECT_EQ(ra.total_tagged(), rb.total_tagged());
  EXPECT_EQ(ra.total_likes(), rb.total_likes());
  EXPECT_EQ(ra.total(DiscoveredOutcome::Correct),
            rb.total(DiscoveredOutcome::Correct));
}

/// Fleet total of every pms_* counter family in the registry.
std::map<std::string, std::uint64_t> pms_family_totals() {
  std::map<std::string, std::uint64_t> totals;
  const auto& reg = telemetry::registry();
  for (const auto& [name, family] : reg.families())
    if (name.starts_with("pms_")) totals[name] = reg.family_total(name);
  return totals;
}

/// A study's results plus what it added to each pms_* counter family.
struct StudyRun {
  StudyResult result;
  std::map<std::string, std::uint64_t> pms_totals;

  std::uint64_t total(const std::string& family) const {
    const auto it = pms_totals.find(family);
    return it == pms_totals.end() ? 0 : it->second;
  }
};

StudyRun run_study(const StudyConfig& config) {
  const auto before = pms_family_totals();
  StudyRun run{DeploymentStudy(config).run(), pms_family_totals()};
  for (auto& [family, total] : run.pms_totals) {
    const auto it = before.find(family);
    if (it != before.end()) total -= it->second;
  }
  return run;
}

/// Byte-identical comparison of two study runs: every per-participant
/// field, the place map, the cloud storage's post-join fingerprint, and the
/// fleet totals of the PMS event and sync counters. `what` names the run
/// under test in failure output. Pass `network_counters = false` when one
/// run saw injected faults: retries, offload fallbacks, and re-sent profiles
/// legitimately change the traffic counters, while science results and
/// final cloud bytes must still match.
void expect_identical_runs(const StudyRun& run_s, const StudyRun& run_p,
                           const std::string& what,
                           bool network_counters = true) {
  SCOPED_TRACE(what);
  for (const char* family : {"pms_place_events_total", "pms_route_events_total",
                             "pms_encounters_total"})
    EXPECT_EQ(run_s.total(family), run_p.total(family)) << family;
  if (network_counters) {
    for (const char* family :
         {"pms_profile_syncs_total", "pms_token_refreshes_total",
          "pms_gca_offloads_total", "pms_gca_local_total"})
      EXPECT_EQ(run_s.total(family), run_p.total(family)) << family;
  }
  const StudyResult& rs = run_s.result;
  const StudyResult& rp = run_p.result;
  ASSERT_EQ(rs.participants.size(), rp.participants.size());
  for (std::size_t i = 0; i < rs.participants.size(); ++i) {
    const ParticipantResult& a = rs.participants[i];
    const ParticipantResult& b = rp.participants[i];
    EXPECT_EQ(a.profile.id, b.profile.id);
    EXPECT_EQ(a.places_discovered, b.places_discovered);
    EXPECT_EQ(a.places_tagged, b.places_tagged);
    EXPECT_EQ(a.places_evaluable, b.places_evaluable);
    EXPECT_EQ(a.eval.outcomes, b.eval.outcomes);
    EXPECT_EQ(a.ad_likes, b.ad_likes);
    EXPECT_EQ(a.ad_dislikes, b.ad_dislikes);
    EXPECT_EQ(a.sensing_joules, b.sensing_joules);  // bitwise, not approx
    EXPECT_EQ(a.implied_battery_hours, b.implied_battery_hours);
  }
  ASSERT_EQ(rs.place_map.size(), rp.place_map.size());
  for (std::size_t i = 0; i < rs.place_map.size(); ++i) {
    EXPECT_EQ(rs.place_map[i].participant, rp.place_map[i].participant);
    EXPECT_EQ(rs.place_map[i].uid, rp.place_map[i].uid);
    EXPECT_EQ(rs.place_map[i].label, rp.place_map[i].label);
    EXPECT_EQ(rs.place_map[i].location, rp.place_map[i].location);
  }
  // Cloud-side truth: same places, profiles, routes, and encounters ended
  // up stored, independent of which worker/shard got them there.
  EXPECT_EQ(rs.storage_stats, rp.storage_stats);
  EXPECT_EQ(rs.storage_digest, rp.storage_digest);
}

// The tentpole determinism guarantee: a parallel run is byte-identical to a
// sequential one. Everything shared is either immutable (world), locked per
// user (cloud storage shards), or forked before workers start
// (per-participant RNGs).
TEST(Study, ThreadedRunMatchesSequentialExactly) {
  StudyConfig sequential_config = small_config();
  sequential_config.threads = 1;
  StudyConfig parallel_config = small_config();
  parallel_config.threads = 4;
  const StudyRun rs = run_study(sequential_config);
  const StudyRun rp = run_study(parallel_config);
  expect_identical_runs(rs, rp, "threads=4 vs threads=1");
}

// Shard-equivalence over a full 14-day study: every (shards, threads)
// configuration must reproduce the 1-shard sequential run byte-for-byte —
// places, routes, profiles, and the storage content digest. shards=1 is
// the old fully-serialized cloud, so this pins the sharded backend to the
// pre-sharding behavior.
TEST(Study, ShardCountNeverChangesResults) {
  StudyConfig base = small_config();
  base.participants = 3;  // keeps six 14-day runs affordable
  base.days = 14;
  base.shards = 1;
  base.threads = 1;
  const StudyRun baseline = run_study(base);
  EXPECT_GT(baseline.result.storage_stats.users, 0u);
  EXPECT_GT(baseline.result.storage_stats.profiles, 0u);
  EXPECT_NE(baseline.result.storage_digest, 0u);

  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 8}) {
      if (shards == 1 && threads == 1) continue;  // the baseline itself
      StudyConfig config = base;
      config.shards = shards;
      config.threads = threads;
      const StudyRun run = run_study(config);
      expect_identical_runs(baseline, run,
                            "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads) +
                                " vs shards=1 threads=1");
    }
  }
}

// The robustness tentpole: a 14-day study that loses its cloud entirely for
// days 5..8, or suffers per-route error rates plus added latency for most
// of the study, must end byte-identical to the undisturbed run — same
// science table, same place map, same cloud content digest — once the
// store-and-forward outbox drains. Zero records lost.
TEST(Study, OutageRecoveryMatchesNoFaultRun) {
  StudyConfig base = small_config();
  base.participants = 3;
  base.days = 14;
  const StudyRun baseline = run_study(base);
  EXPECT_NE(baseline.result.storage_digest, 0u);

  const struct {
    const char* name;
    const char* plan;
  } kScenarios[] = {
      {"full outage days 5..8", "outage=5d..8d"},
      {"per-route errors + latency",
       "route=/api/users,error=0.3,from=2d,to=11d;latency=1,from=2d,to=11d"},
  };
  for (const auto& scenario : kScenarios) {
    StudyConfig faulted = base;
    faulted.fault_plan = net::FaultPlan::parse(scenario.plan);
    const StudyRun run = run_study(faulted);
    expect_identical_runs(baseline, run,
                          std::string(scenario.name) + " vs no faults",
                          /*network_counters=*/false);
    SCOPED_TRACE(scenario.name);
    // The plan actually bit...
    EXPECT_GT(run.total("pms_sync_failures_total"), 0u);
    // ...and everything drained: enqueued = delivered + evicted + dropped.
    EXPECT_EQ(run.total("pms_outbox_enqueued_total"),
              run.total("pms_outbox_delivered_total") +
                  run.total("pms_outbox_evicted_total") +
                  run.total("pms_outbox_dropped_total"));
  }
}

// Oversubscription (more workers than participants) must not change
// anything either — the pool clamps to the participant count.
TEST(Study, ThreadCountBeyondParticipantsIsClamped) {
  StudyConfig config = small_config();
  config.days = 2;
  config.threads = 64;
  const StudyResult result = DeploymentStudy(config).run();
  EXPECT_EQ(result.participants.size(), 4u);
  EXPECT_GT(result.total_discovered(), 0u);
}

TEST(Study, DifferentSeedsDiffer) {
  StudyConfig config_a = small_config();
  config_a.seed = 1;
  StudyConfig config_b = small_config();
  config_b.seed = 2;
  const StudyResult ra = DeploymentStudy(config_a).run();
  const StudyResult rb = DeploymentStudy(config_b).run();
  const bool differ = ra.total_discovered() != rb.total_discovered() ||
                      ra.total_likes() != rb.total_likes() ||
                      ra.total_tagged() != rb.total_tagged();
  EXPECT_TRUE(differ);
}

TEST(Study, GsmOnlyAblationDegradesAccuracy) {
  StudyConfig hybrid = small_config();
  hybrid.days = 5;
  StudyConfig gsm_only = hybrid;
  gsm_only.use_wifi = false;
  const StudyResult rh = DeploymentStudy(hybrid).run();
  const StudyResult rg = DeploymentStudy(gsm_only).run();
  // GSM-only merges nearby places: merged fraction must not shrink, and
  // correct fraction must not grow.
  EXPECT_GE(rg.fraction(DiscoveredOutcome::Merged) + 1e-9,
            rh.fraction(DiscoveredOutcome::Merged));
  EXPECT_LE(rg.fraction(DiscoveredOutcome::Correct),
            rh.fraction(DiscoveredOutcome::Correct) + 0.05);
}

TEST(Study, NoPlaceAdsMeansNoImpressions) {
  StudyConfig config = small_config();
  config.run_placeads = false;
  const StudyResult result = DeploymentStudy(config).run();
  EXPECT_EQ(result.total_likes() + result.total_dislikes(), 0u);
}

TEST(Study, SummaryMentionsKeyRows) {
  const StudyResult result = DeploymentStudy(small_config()).run();
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("places discovered"), std::string::npos);
  EXPECT_NE(summary.find("correct"), std::string::npos);
  EXPECT_NE(summary.find("merged"), std::string::npos);
  EXPECT_NE(summary.find("divided"), std::string::npos);
  EXPECT_NE(summary.find("like:dislike"), std::string::npos);
}

TEST(Study, SwissRegionRunsAndKeepsAccuracy) {
  StudyConfig config = small_config();
  config.world.region = world::RegionProfile::switzerland();
  const StudyResult result = DeploymentStudy(config).run();
  EXPECT_GT(result.fraction(DiscoveredOutcome::Correct), 0.5);
}

}  // namespace
}  // namespace pmware::study
