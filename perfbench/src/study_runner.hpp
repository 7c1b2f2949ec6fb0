// The §4 deployment study driven from outside the middleware: the same
// world, participants, RNG forks and device lifecycle as
// study::DeploymentStudy (single-threaded, every participant kept), but
// with the benchmark timing each unit — a participant's set-up, each
// participant-day, its close-out — and each pms.run, nightly save and
// restore inside them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/gca.hpp"
#include "cloud/cloud_instance.hpp"
#include "mobility/participant.hpp"
#include "proxy.hpp"
#include "spans.hpp"
#include "study/deployment.hpp"
#include "world/world.hpp"

namespace pmware::perfbench {

/// The device lifecycle schedule of the device-churn workload: the canned
/// `studyctl --churn` plan plus a one-day cloud outage.
inline constexpr const char* kChurnPlan =
    "crash=2d..9d,crash_rate=0.2,restart_delay=2h;"
    "wipe=6d..7d,wipe_rate=0.25;join=0d..5d,join_rate=0.2;"
    "outage=3d..4d";

/// Seed of the deployment's city and cohort. The world and the 16
/// participants (homes, workplaces, archetypes) are the study's fixed
/// setting, as the paper's study had one city and one cohort; the run's
/// seed draws their fortnight: schedules, radio noise, transport loss,
/// diary tagging, the cloud's tokens. This keeps the work per
/// participant-day comparable across seeds.
inline constexpr std::uint64_t kCitySeed = 20141208;

/// Days of the device-churn study. Every event of kChurnPlan falls in days
/// 0..9, so ten days run the whole lifecycle at 70 % of the §4 length,
/// which leaves room for more identical passes in a run.
inline constexpr int kChurnDays = 10;

struct StudySpec {
  int participants = 16;
  int days = 14;
  std::uint64_t seed = kCitySeed;
  bool churn = false;
};

/// Wall time of each set-up step, ns.
struct SetupTiming {
  double world_ns = 0;
  double participants_ns = 0;
  double cloud_ns = 0;
  double total() const { return world_ns + participants_ns + cloud_ns; }
};

/// What set-up builds once and every pass reuses: the §4 configuration,
/// world, participants and the RNG streams DeploymentStudy forks from its
/// seed: world = fork(1) and participants = fork(2) of kCitySeed; cloud =
/// fork(3) and participant i = fork(1000 + i) of the run's seed. With
/// seed == kCitySeed every stream is DeploymentStudy's.
struct StudySetup {
  StudySetup(const StudySpec& spec, SetupTiming* timing);

  StudySpec spec;
  study::StudyConfig config;
  std::shared_ptr<const world::World> world;
  std::vector<mobility::Participant> participants;
  Rng cloud_rng;
  std::vector<Rng> participant_rngs;
};

/// A fresh cloud instance for one pass, built as the study builds it.
std::unique_ptr<cloud::CloudInstance> make_cloud(const StudySetup& setup);

struct PassOptions {
  Proxy* proxy = nullptr;         ///< required: phones send through it
  /// Called before every participant, outside the timed units (the
  /// calibration kernel and set-up samples run here).
  std::function<void()> between_units;
  SpanRecorder* spans = nullptr;  ///< traced pass only
  /// Keep participant 0's final GSM observation log (GCA probe input).
  bool keep_gsm_log = false;
};

/// Outbox and sync accounting folded over every incarnation of every
/// participant.
struct OutboxTotals {
  std::size_t enqueued = 0;
  std::size_t delivered = 0;
  std::size_t recovered = 0;
  std::size_t evicted = 0;
  std::size_t dropped = 0;
  std::size_t pending = 0;
};

struct PassResult {
  /// Per participant: set-up unit, one unit per day, close-out unit.
  std::vector<double> unit_ns;
  /// Per participant-day: pms.run time and the same minus the cloud time
  /// nested in it (0 on days the device did not run).
  std::vector<double> run_ns;
  std::vector<double> run_self_ns;
  std::vector<double> trace_ns;  ///< build_trace, per participant
  std::vector<double> save_ns;   ///< per nightly save, in order
  std::vector<double> checkpoint_bytes;
  std::vector<double> restore_ns;
  std::size_t restores = 0;
  std::size_t restore_failures = 0;  ///< restore of an intact checkpoint failed
  std::size_t participant_days = 0;
  std::size_t undrained = 0;  ///< participants whose outbox did not balance
  OutboxTotals outbox;
  double sensing_j = 0;
  std::uint64_t digest = 0;
  std::int64_t wall_ns = 0;
  /// Middleware counters read from telemetry::registry() after the pass.
  std::map<std::string, double> counters;
  std::vector<algorithms::CellObservation> gsm_log;
};

/// Clears the process-wide telemetry registry and tracer so every pass
/// starts from the same state.
void reset_telemetry();

/// Reads the counters the benchmark reports from telemetry::registry().
std::map<std::string, double> read_counters();

/// Runs one pass of the study against a fresh cloud behind `options.proxy`.
PassResult run_study_pass(const StudySetup& setup, const PassOptions& options);

}  // namespace pmware::perfbench
