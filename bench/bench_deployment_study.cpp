// Experiments E3 / E4 / E5 — the paper's §4 deployment study: 16
// participants, 2 weeks, PMWare + PlaceADs on every device.
//
// Paper numbers reproduced (shape, not absolute):
//   - 123 places discovered, 85 tagged (~70%)
//   - of 62 evaluable (tagged, with departure info):
//       79.03% correct, 14.52% merged, 6.45% divided
//   - PlaceADs like:dislike = 17:3
//   - Figure 5b: map of all places visited by the participants
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "algorithms/gca.hpp"
#include "study/deployment.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/process.hpp"
#include "util/logging.hpp"
#include "viz/map_render.hpp"

using namespace pmware;
using algorithms::DiscoveredOutcome;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

/// Synthetic multi-day GSM stream for the recluster microbenchmark: home
/// oscillation overnight, a commute chain, work oscillation during the day
/// — the shape that makes GCA's movement graph cluster. 1-minute cadence.
std::vector<algorithms::CellObservation> synthetic_day(int day) {
  auto cell = [](std::uint32_t cid) {
    world::CellId c;
    c.mcc = 262;
    c.mnc = 1;
    c.lac = 100;
    c.cid = cid;
    return c;
  };
  std::vector<algorithms::CellObservation> obs;
  const SimTime day_start = start_of_day(day);
  for (int m = 0; m < 24 * 60; m += 1) {
    const SimTime t = day_start + minutes(m);
    const int hour = m / 60;
    std::uint32_t cid = 0;
    if (hour < 8 || hour >= 19) {
      cid = (m % 2 == 0) ? 10 : 11;  // home pair oscillating
    } else if (hour == 8) {
      cid = 20 + static_cast<std::uint32_t>(m % 60) / 12;  // commute chain
    } else if (hour < 18) {
      cid = (m % 2 == 0) ? 30 : 31;  // work pair oscillating
    } else {
      cid = 25 - static_cast<std::uint32_t>(m % 60) / 12;  // commute home
    }
    obs.push_back({t, cell(cid)});
  }
  return obs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      telemetry::bench_json_path(argc, argv, "deployment_study");
  int fixed_threads = 0;  // 0 = sweep 1/2/4/8
  // --max-pop caps the population_sweep's largest row (default 100k; the
  // committed battery runs the full ladder, smoke runs can pass 1000).
  int max_population = 100000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0)
      fixed_threads = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--max-pop") == 0)
      max_population = std::atoi(argv[i + 1]);
  }
  set_log_level(LogLevel::Error);
  telemetry::apply_log_level_flag(argc, argv);
  study::StudyConfig config;  // 16 participants x 14 days, GSM + opp. WiFi

  // --- Thread scaling: the same study at each worker-thread count, at the
  // default shard count. The first run's results fill the tables below.
  const std::vector<int> thread_counts =
      fixed_threads > 0 ? std::vector<int>{fixed_threads}
                        : std::vector<int>{1, 2, 4, 8};
  struct ScalingEntry {
    int threads = 0;
    double wall_s = 0;
  };
  std::vector<ScalingEntry> scaling;
  study::StudyResult result;
  for (const int threads : thread_counts) {
    // Fresh registry/tracer per run so study_* counters and spans reflect
    // one study.
    telemetry::registry().reset();
    telemetry::tracer().reset();
    config.threads = threads;
    study::DeploymentStudy study_run(config);
    const auto begin = std::chrono::steady_clock::now();
    study::StudyResult run = study_run.run();
    scaling.push_back({threads, wall_seconds_since(begin)});
    if (scaling.size() == 1) result = std::move(run);
  }

  // World geometry for the Figure-5b map (same config -> same world).
  study::DeploymentStudy study(config);

  std::printf("=== Deployment study (paper S4): %d participants x %d days ===\n\n",
              config.participants, config.days);

  std::printf("%-34s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%s\n", std::string(58, '-').c_str());
  std::printf("%-34s %10s %10zu\n", "places discovered", "123",
              result.total_discovered());
  std::printf("%-34s %10s %9.1f%%\n", "tagged by participants", "~70%",
              100.0 * static_cast<double>(result.total_tagged()) /
                  static_cast<double>(result.total_discovered()));
  std::printf("%-34s %10s %10zu\n", "evaluable (tagged w/ departure)", "62",
              result.total_evaluable());
  std::printf("%-34s %10s %9.2f%%\n", "correctly discovered", "79.03%",
              100 * result.fraction(DiscoveredOutcome::Correct));
  std::printf("%-34s %10s %9.2f%%\n", "merged", "14.52%",
              100 * result.fraction(DiscoveredOutcome::Merged));
  std::printf("%-34s %10s %9.2f%%\n", "divided", "6.45%",
              100 * result.fraction(DiscoveredOutcome::Divided));

  const std::size_t impressions = result.total_likes() + result.total_dislikes();
  const double like20 =
      impressions == 0 ? 0
                       : 20.0 * static_cast<double>(result.total_likes()) /
                             static_cast<double>(impressions);
  std::printf("%-34s %10s %5.1f:%4.1f\n", "PlaceADs like:dislike", "17:3",
              like20, 20.0 - like20);

  std::printf("\n--- per participant ---\n");
  std::printf("%-16s %-14s %6s %7s %5s | %4s %4s %4s | %5s %5s | %8s\n",
              "participant", "archetype", "places", "tagged", "eval", "corr",
              "merg", "div", "likes", "disl", "battery h");
  for (const auto& p : result.participants) {
    std::printf("%-16s %-14s %6zu %7zu %5zu | %4zu %4zu %4zu | %5zu %5zu | %8.1f\n",
                p.profile.name.c_str(), to_string(p.profile.archetype),
                p.places_discovered, p.places_tagged, p.places_evaluable,
                p.eval.count(DiscoveredOutcome::Correct),
                p.eval.count(DiscoveredOutcome::Merged),
                p.eval.count(DiscoveredOutcome::Divided), p.ad_likes,
                p.ad_dislikes, p.implied_battery_hours);
  }

  // --- Figure 5b: map of discovered places across all participants.
  std::printf("\n--- Figure 5b: map of discovered places (ASCII, %zu places, "
              "'#'=multiple) ---\n",
              result.place_map.size());
  viz::MapExtent extent{study.world().config().origin,
                        study.world().config().extent_m};
  std::vector<viz::MapMarker> markers;
  std::size_t located = 0;
  for (const auto& entry : result.place_map) {
    if (!entry.location) continue;
    ++located;
    markers.push_back({*entry.location, entry.label, 'o', "#4466cc", 4});
  }
  std::printf("%s", viz::render_ascii_map(extent, markers, 60, 24).c_str());
  std::printf("  (%zu of %zu places located via the cloud geo-location API)\n",
              located, result.place_map.size());

  // Energy footprint across the fleet.
  double battery_sum = 0;
  for (const auto& p : result.participants)
    battery_sum += p.implied_battery_hours;
  std::printf("\nfleet average implied battery life: %.1f h (%.1f days) — "
              "triggered sensing, all apps shared\n",
              battery_sum / static_cast<double>(result.participants.size()),
              battery_sum / static_cast<double>(result.participants.size()) / 24);

  // --- Thread-scaling report (at the default shard count).
  std::printf("\n--- thread scaling (%zu participants, %d shards) ---\n",
              result.participants.size(), config.shards);
  std::printf("%8s %10s %10s\n", "threads", "wall s", "speedup");
  for (const auto& entry : scaling)
    std::printf("%8d %10.2f %9.2fx\n", entry.threads, entry.wall_s,
                scaling.front().wall_s / entry.wall_s);

  // --- Sequential-vs-incremental recluster cost: daily recluster passes
  // over a growing synthetic trace, full rebuild each day vs GcaState.
  const int recluster_days = 14;
  std::vector<algorithms::CellObservation> stream;
  double full_s = 0, incremental_s = 0;
  bool recluster_identical = true;
  {
    algorithms::GcaState state;
    for (int day = 0; day < recluster_days; ++day) {
      const auto day_obs = synthetic_day(day);
      stream.insert(stream.end(), day_obs.begin(), day_obs.end());
      auto begin = std::chrono::steady_clock::now();
      const algorithms::GcaResult full = algorithms::run_gca(stream);
      full_s += wall_seconds_since(begin);
      begin = std::chrono::steady_clock::now();
      const algorithms::GcaResult inc = state.run(stream);
      incremental_s += wall_seconds_since(begin);
      recluster_identical =
          recluster_identical && full.cell_to_place == inc.cell_to_place &&
          full.places.size() == inc.places.size() &&
          full.visits.size() == inc.visits.size();
    }
    std::printf("\n--- recluster cost (%d daily passes, %zu observations, "
                "identical: %s) ---\n",
                recluster_days, stream.size(),
                recluster_identical ? "yes" : "NO");
    std::printf("  full rebuild each pass: %8.1f ms\n", full_s * 1e3);
    std::printf("  incremental (GcaState): %8.1f ms (%.1fx, %zu of %zu "
                "passes incremental)\n",
                incremental_s * 1e3,
                incremental_s > 0 ? full_s / incremental_s : 0.0,
                state.incremental_passes(), state.passes());
  }

  // --- Population sweep: the study runner's scale battery. Each row
  // runs a study at the next population decade in aggregate mode and
  // records wall time, participant-day throughput, the process RSS
  // high-water mark, cloud request rate, and per-shard request heat. The
  // sim-day count per row shrinks as N grows so the ladder stays runnable
  // on a single core (throughput and memory per participant-day are
  // day-count-invariant; EXPERIMENTS.md documents the cadence).
  struct PopulationEntry {
    int participants = 0;
    int days = 0;
    double wall_s = 0;
    double pd_per_s = 0;
    std::uint64_t cloud_requests = 0;
    double cloud_req_per_s = 0;
    std::uint64_t peak_rss_bytes = 0;
    std::uint64_t storage_digest = 0;
    std::vector<std::uint64_t> shard_heat;  ///< requests per storage shard
  };
  std::vector<PopulationEntry> population_sweep;
  {
    const struct {
      int participants, days;
    } kLadder[] = {{16, 14}, {1000, 2}, {10000, 1}, {100000, 1}};
    study::StudyConfig pop_config;
    pop_config.threads = fixed_threads > 0 ? fixed_threads : 2;
    std::printf("\n--- population sweep (%d threads, %d shards) ---\n",
                pop_config.threads, pop_config.shards);
    for (const auto& rung : kLadder) {
      if (rung.participants > max_population) break;
      telemetry::registry().reset();
      telemetry::tracer().reset();
      pop_config.participants = rung.participants;
      pop_config.days = rung.days;
      std::printf("  running %d x %dd...\n", rung.participants, rung.days);
      std::fflush(stdout);
      study::DeploymentStudy study_run(pop_config);
      const auto begin = std::chrono::steady_clock::now();
      const study::StudyResult run = study_run.run();
      PopulationEntry entry;
      entry.participants = rung.participants;
      entry.days = rung.days;
      entry.wall_s = wall_seconds_since(begin);
      const double pd = static_cast<double>(rung.participants) *
                        static_cast<double>(rung.days);
      entry.pd_per_s = entry.wall_s > 0 ? pd / entry.wall_s : 0.0;
      const auto& reg = telemetry::registry();
      entry.cloud_requests = reg.family_total("cloud_requests_total");
      entry.cloud_req_per_s =
          entry.wall_s > 0
              ? static_cast<double>(entry.cloud_requests) / entry.wall_s
              : 0.0;
      entry.peak_rss_bytes = telemetry::read_process_stats().peak_rss_bytes;
      entry.storage_digest = run.storage_digest;
      for (int s = 0; s < pop_config.shards; ++s)
        entry.shard_heat.push_back(reg.counter_value(
            "cloud_shard_requests_total", {{"shard", std::to_string(s)}}));
      population_sweep.push_back(std::move(entry));
    }
    std::printf("%12s %5s %10s %10s %12s %12s %11s %20s\n", "participants",
                "days", "wall s", "pd/s", "cloud req/s", "peak rss MB",
                "shard skew", "digest");
    for (const auto& entry : population_sweep) {
      std::uint64_t heat_min = ~0ull, heat_max = 0;
      for (const std::uint64_t h : entry.shard_heat) {
        heat_min = std::min(heat_min, h);
        heat_max = std::max(heat_max, h);
      }
      const double skew =
          heat_min > 0 ? static_cast<double>(heat_max) /
                             static_cast<double>(heat_min)
                       : 0.0;
      std::printf("%12d %5d %10.1f %10.1f %12.1f %12.1f %10.2fx %20llu\n",
                  entry.participants, entry.days, entry.wall_s,
                  entry.pd_per_s, entry.cloud_req_per_s,
                  static_cast<double>(entry.peak_rss_bytes) / (1024.0 * 1024.0),
                  skew,
                  static_cast<unsigned long long>(entry.storage_digest));
    }
  }

  if (!json_path.empty()) {
    Json extra = Json::object();
    extra.set("participants", static_cast<std::uint64_t>(
                                  result.participants.size()));
    extra.set("days", config.days);
    extra.set("places_discovered",
              static_cast<std::uint64_t>(result.total_discovered()));
    extra.set("places_tagged",
              static_cast<std::uint64_t>(result.total_tagged()));
    extra.set("evaluable", static_cast<std::uint64_t>(result.total_evaluable()));
    extra.set("fraction_correct", result.fraction(DiscoveredOutcome::Correct));
    extra.set("fraction_merged", result.fraction(DiscoveredOutcome::Merged));
    extra.set("fraction_divided", result.fraction(DiscoveredOutcome::Divided));
    extra.set("ad_likes", static_cast<std::uint64_t>(result.total_likes()));
    extra.set("ad_dislikes",
              static_cast<std::uint64_t>(result.total_dislikes()));
    extra.set("fleet_avg_battery_h",
              battery_sum / static_cast<double>(result.participants.size()));
    // Fleet throughput per thread count; the process high-water marks are
    // in the "process" block write_bench_json adds.
    const double fleet_days = static_cast<double>(config.participants) *
                              static_cast<double>(config.days);
    Json scaling_arr = Json::array();
    for (const auto& entry : scaling) {
      Json e = Json::object();
      e.set("threads", entry.threads);
      e.set("wall_s", entry.wall_s);
      e.set("speedup_vs_1", scaling.front().wall_s / entry.wall_s);
      e.set("participant_days_per_s",
            entry.wall_s > 0 ? fleet_days / entry.wall_s : 0.0);
      scaling_arr.push_back(std::move(e));
    }
    extra.set("thread_scaling", std::move(scaling_arr));
    Json recluster = Json::object();
    recluster.set("passes", recluster_days);
    recluster.set("observations", static_cast<std::uint64_t>(stream.size()));
    recluster.set("full_rebuild_s", full_s);
    recluster.set("incremental_s", incremental_s);
    recluster.set("speedup",
                  incremental_s > 0 ? full_s / incremental_s : 0.0);
    recluster.set("identical", recluster_identical);
    extra.set("recluster", std::move(recluster));
    // schema_version 8: the "population_sweep" block — the study runner's
    // scale ladder (throughput, memory high-water, cloud request rate,
    // per-shard heat at each population decade).
    {
      Json pop_block = Json::object();
      Json pop_runs = Json::array();
      for (const auto& entry : population_sweep) {
        Json e = Json::object();
        e.set("participants", entry.participants);
        e.set("days", entry.days);
        e.set("wall_s", entry.wall_s);
        e.set("participant_days_per_s", entry.pd_per_s);
        e.set("cloud_requests", entry.cloud_requests);
        e.set("cloud_requests_per_s", entry.cloud_req_per_s);
        e.set("peak_rss_bytes", entry.peak_rss_bytes);
        e.set("storage_digest", entry.storage_digest);
        Json heat = Json::array();
        for (const std::uint64_t h : entry.shard_heat)
          heat.push_back(Json(h));
        e.set("shard_heat", std::move(heat));
        pop_runs.push_back(std::move(e));
      }
      pop_block.set("runs", std::move(pop_runs));
      extra.set("population_sweep", std::move(pop_block));
    }
    // Telemetry in the dump is from the population sweep's last row (the
    // last section to reset the registry), as is the "timeseries" block
    // write_bench_json embeds — the recorder ring, one point per sim-day.
    const telemetry::RunMeta meta{config.seed, thread_counts.back(),
                                  config.days};
    if (!telemetry::write_bench_json(json_path, "deployment_study",
                                     std::move(extra), meta))
      return 1;
  }
  return 0;
}
