// Deployment-study harness (paper §4): N participants carry a PMWare-
// equipped device for D days; every participant runs the full middleware
// stack (PMS + cloud sync + PlaceADs + life-logging), and the harness
// reproduces the paper's evaluation table: places discovered, tagged
// fraction, correct/merged/divided split, and the PlaceADs like:dislike
// ratio.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/evaluate.hpp"
#include "apps/lifelog.hpp"
#include "apps/placeads.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/pms.hpp"
#include "mobility/schedule.hpp"
#include "telemetry/timeseries.hpp"
#include "util/arena.hpp"
#include "world/world.hpp"

namespace pmware::study {

struct StudyConfig {
  int participants = 16;
  int days = 14;
  std::uint64_t seed = 20141208;  ///< Middleware'14 started Dec 8, 2014
  world::WorldConfig world;
  mobility::ScheduleConfig schedule;
  sensing::DeviceConfig device;
  core::InferenceConfig inference;
  net::NetworkConditions network{0.01, 1};
  /// Probability a participant tags a discovered place (paper: 85/123 ≈ 70%).
  double tag_probability = 0.70;
  /// Fraction of tagged places whose diary entry lacks departure info and is
  /// therefore excluded from the accuracy evaluation (paper: 85 -> 62).
  double missing_departure_prob = 0.27;
  /// Hybrid GSM + opportunistic WiFi (the paper's deployed configuration);
  /// false = GSM-only ablation.
  bool use_wifi = true;
  bool offload_gca = true;
  /// Run PlaceADs on every device.
  bool run_placeads = true;
  /// Worker threads simulating participants concurrently (1 = sequential).
  /// Results are identical for every value: participants are independent
  /// except for the cloud instance (whose storage is sharded per user, so
  /// concurrent requests only synchronize on their own shard), and all
  /// per-participant RNGs are forked before workers start.
  int threads = 1;
  /// Cloud storage shards (CloudConfig::shards). Results are identical for
  /// every value; more shards just means less lock contention when
  /// threads > 1.
  int shards = static_cast<int>(cloud::CloudStorage::kDefaultShards);
  /// Scripted cloud-side failures (CloudConfig::fault_plan; --fault-plan in
  /// studyctl). Science results and the final cloud content digest
  /// are identical to a no-fault run once the outbox drains — that
  /// recovery-equivalence invariant is asserted in tests/test_study.cpp.
  net::FaultPlan fault_plan;
  /// Client resilience knobs, applied to every participant's RestClient.
  net::RetryPolicy retry;
  net::BreakerPolicy breaker;
  /// Per-participant store-and-forward outbox bound.
  core::OutboxConfig outbox;
  /// Device-side content-addressed caching (--cache in studyctl): the GCA
  /// offload memo (PmsConfig::cache) and the client's conditional-GET
  /// cache (ETag / If-None-Match); the cloud stamps ETags and answers 304s
  /// either way. Science results and the cloud content digest are
  /// byte-identical on/off — caching only removes work — which
  /// tests/test_cache.cpp asserts.
  bool cache = true;
  /// Sim-time series recorder settings (--no-timeseries in studyctl). The
  /// study samples the default counter/gauge families once per interval of
  /// *fleet* sim-time (completed participant-days / participants, in
  /// seconds), so a D-day study yields exactly D samples regardless of
  /// thread count or participant interleaving. Telemetry never touches
  /// science state or RNG streams, so the content digest is byte-identical
  /// on/off — the determinism guard in tests/test_alerting.cpp asserts it.
  telemetry::TimeSeriesConfig timeseries;
  /// Evaluate the default SLO alert rules at every timeseries sample
  /// (--no-alerts in studyctl). Same determinism guarantee as above.
  bool alerts = true;
  /// Streaming wave size (--wave in studyctl): participants admitted per
  /// scheduling epoch. 0 = auto (4 per worker thread, min 16). Any value
  /// yields identical results; it only bounds how many participant
  /// profiles are materialized at once.
  int wave_size = 0;
};

/// One entry of the Figure-5b place map.
struct PlaceMapEntry {
  int participant = 0;
  core::PlaceUid uid = core::kNoPlaceUid;
  std::string label;
  std::optional<geo::LatLng> location;
};

struct ParticipantResult {
  mobility::Participant profile;
  std::size_t places_discovered = 0;  ///< distinct places with logged visits
  std::size_t places_tagged = 0;
  std::size_t places_evaluable = 0;
  algorithms::DiscoveredEvaluation eval;
  std::size_t ad_likes = 0;
  std::size_t ad_dislikes = 0;
  double sensing_joules = 0;
  double implied_battery_hours = 0;
};

/// Commutatively folded aggregate of ParticipantResults — what the
/// runner keeps instead of the per-participant vector. One
/// instance serves as the whole-study total and one per archetype cohort.
struct CohortStats {
  std::uint64_t participants = 0;
  std::uint64_t places_discovered = 0;
  std::uint64_t places_tagged = 0;
  std::uint64_t places_evaluable = 0;
  /// Outcome counts of the evaluable (tagged, with-departure) split,
  /// indexed by DiscoveredOutcome.
  std::uint64_t outcomes[4] = {0, 0, 0, 0};
  std::uint64_t ad_likes = 0;
  std::uint64_t ad_dislikes = 0;
  double sensing_joules = 0;
  double battery_hours = 0;

  void fold(const ParticipantResult& r);
  std::uint64_t outcome(algorithms::DiscoveredOutcome o) const {
    return outcomes[static_cast<std::size_t>(o)];
  }
};

struct StudyResult {
  /// Per-participant detail. Populated while the population is at most
  /// DeploymentStudy::kDetailThreshold; EMPTY in larger, aggregate-only
  /// runs (the totals below carry the study numbers there).
  std::vector<ParticipantResult> participants;
  std::vector<PlaceMapEntry> place_map;
  /// Folded aggregates — always filled, so total_*()/summary() read
  /// identically whether or not per-participant detail was kept.
  CohortStats totals;
  std::map<mobility::Archetype, CohortStats> cohorts;
  /// Post-join snapshot of the cloud storage: aggregate record counts and
  /// the order-independent content digest — the determinism fingerprint
  /// that must match across thread, shard, and wave counts.
  cloud::CloudStorage::Stats storage_stats;
  std::uint64_t storage_digest = 0;

  std::size_t total_discovered() const;
  std::size_t total_tagged() const;
  std::size_t total_evaluable() const;
  std::size_t total(algorithms::DiscoveredOutcome o) const;
  double fraction(algorithms::DiscoveredOutcome o) const;
  std::size_t total_likes() const;
  std::size_t total_dislikes() const;

  /// The paper's §4 paragraph as a table.
  std::string summary() const;
};

class DeploymentStudy {
 public:
  /// Detail boundary: studies at or below this population keep
  /// per-participant results and the place map; larger ones collect
  /// aggregates only (CohortStats + storage fingerprint).
  static constexpr int kDetailThreshold = 256;

  explicit DeploymentStudy(StudyConfig config);

  /// Runs the full study (deterministic for a given config).
  ///
  /// Participants are admitted in waves: each is constructed on first
  /// touch, runs its sim-days, syncs, and retires (its cloud record is
  /// folded into the archived accumulators) before the next wave is
  /// admitted, so peak memory is O(threads + wave), not O(N).
  StudyResult run();

  const world::World& world() const { return *world_; }

  /// Completed participant-days across all workers — the study's progress
  /// axis. studyctl's --progress reporter polls this.
  std::uint64_t participant_days_done() const {
    return days_done_.load(std::memory_order_relaxed);
  }
  std::uint64_t participant_days_total() const {
    return static_cast<std::uint64_t>(config_.participants) *
           static_cast<std::uint64_t>(config_.days);
  }

 private:
  /// Simulates one participant end to end, then retires it: its cloud
  /// record is folded into the archived accumulators after the final sync.
  /// `place_map` may be null (aggregate-only collection skips the
  /// Figure-5b inventory) and `arena` may be null (heap-backed engine
  /// logs).
  ParticipantResult run_participant(const mobility::Participant& participant,
                                    cloud::CloudInstance& cloud, Rng& rng,
                                    std::vector<PlaceMapEntry>* place_map,
                                    util::Arena* arena);
  /// run()'s prologue: telemetry recorder/alert setup.
  void configure_telemetry();
  /// Called by workers after each completed participant-day: bumps the
  /// progress counter, advances fleet sim-time, and lets the recorder /
  /// alert engine sample at most once per crossed interval.
  void note_participant_day();

  StudyConfig config_;
  std::shared_ptr<const world::World> world_;
  Rng rng_;
  std::atomic<std::uint64_t> days_done_{0};
};

}  // namespace pmware::study
