#include "study/deployment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "energy/profile.hpp"
#include "net/fault.hpp"

#include "telemetry/alerts.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/strfmt.hpp"

namespace pmware::study {

using algorithms::DiscoveredOutcome;

DeploymentStudy::DeploymentStudy(StudyConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  Rng world_rng = rng_.fork(1);
  world_ = world::generate_world(config_.world, world_rng);
}

namespace {

/// Diary state for one discovered place.
struct TagState {
  bool tagged = false;
  bool has_departure = true;
};

/// Finds the ground-truth place whose visits overlap this discovered
/// place's logged visits the most.
std::optional<world::PlaceId> dominant_truth(
    const core::VisitLog& log, core::PlaceUid uid,
    const std::vector<mobility::Visit>& truth) {
  std::map<world::PlaceId, SimDuration> overlap;
  for (const auto& lv : log) {
    if (lv.uid != uid) continue;
    for (const auto& tv : truth) {
      const SimDuration o = lv.window.overlap_length(tv.window);
      if (o > 0) overlap[tv.place] += o;
    }
  }
  std::optional<world::PlaceId> best;
  SimDuration best_overlap = 0;
  for (const auto& [place, o] : overlap) {
    if (o > best_overlap) {
      best = place;
      best_overlap = o;
    }
  }
  return best;
}

/// End-of-day diary session: the participant looks at newly discovered
/// places in the life-logging UI and tags ~70% of them with their semantic
/// category (paper §4: "participants tagged 85 places ... nearly 70%").
void diary_session(core::PmwareMobileService& pms, const world::World& world,
                   const std::vector<mobility::Visit>& truth,
                   const StudyConfig& config, SimTime now, Rng& rng,
                   std::map<core::PlaceUid, TagState>& diary) {
  const auto& log = pms.inference().visit_log();
  for (const auto& [uid, record] : pms.places().records()) {
    if (diary.count(uid)) continue;
    // Only places the user has actually seen in the UI (has logged visits).
    const bool visited =
        std::any_of(log.begin(), log.end(),
                    [&](const core::LoggedVisit& v) { return v.uid == uid; });
    if (!visited) continue;

    TagState state;
    state.tagged = rng.bernoulli(config.tag_probability);
    if (state.tagged) {
      std::string label = "place";
      if (const auto truth_place = dominant_truth(log, uid, truth))
        label = world::to_string(world.place(*truth_place).category);
      pms.tag_place(uid, label, now);
      state.has_departure = !rng.bernoulli(config.missing_departure_prob);
    }
    diary.emplace(uid, state);
  }
}

}  // namespace

ParticipantResult DeploymentStudy::run_participant(
    const mobility::Participant& participant, cloud::CloudInstance& cloud,
    Rng& rng, std::vector<PlaceMapEntry>* place_map, util::Arena* arena) {
  telemetry::Span span(telemetry::tracer(),
                       "study.participant." + participant.name, 0);
  Rng trace_rng = rng.fork(1);
  const mobility::Trace trace =
      mobility::build_trace(*world_, participant, config_.schedule, trace_rng);
  const std::vector<mobility::Visit> truth_visits =
      trace.significant_visits(config_.inference.min_visit_dwell);

  core::PmsConfig pms_config;
  pms_config.imei = strfmt("35824005%07u", participant.id + 1);
  pms_config.email = participant.name + "@study.pmware.org";
  pms_config.inference = config_.inference;
  pms_config.inference.wifi_enabled = config_.use_wifi;
  pms_config.offload_gca = config_.offload_gca;
  pms_config.outbox = config_.outbox;
  pms_config.cache = config_.cache;
  pms_config.arena = arena;

  const net::FaultPlan& plan = config_.fault_plan;
  const bool churn = plan.has_device_rules();
  const std::int64_t join_day = churn ? plan.join_day(pms_config.imei) : 0;

  // Device lifecycle: the PMS (and the apps connected to it) live and die
  // with an incarnation. A crash destroys the stack and reboots it after
  // restart_delay from the last end-of-day checkpoint; a privacy wipe
  // destroys it, clears the checkpoint, and re-registers from nothing.
  std::unique_ptr<core::PmwareMobileService> pms;
  std::optional<apps::LifeLog> lifelog;
  std::optional<apps::PlaceAds> placeads;

  // Cross-incarnation accumulators: torn-down incarnations fold in here;
  // the final live incarnation is added at evaluation.
  double joules_acc = 0.0;
  double total_joules_acc = 0.0;  ///< sensing + baseline, for battery life
  std::size_t likes_acc = 0, dislikes_acc = 0;
  std::size_t restarts = 0;
  std::string checkpoint;  ///< serialized end-of-day state; empty = none

  // Boot one incarnation at sim-time `now`. The first boot draws RNG forks
  // 2..5 — the exact historical sequence, so no-fault runs replay the golden
  // digest bit-for-bit. Reboots draw from a disjoint salt range; Rng::fork
  // consumes parent state, so reboot forks only happen when a fault actually
  // fired, leaving the no-fault stream untouched.
  const auto boot = [&](SimTime now, bool recover) {
    const std::uint64_t base =
        restarts == 0 ? 2 : 7000 + 8 * static_cast<std::uint64_t>(restarts);
    auto device = std::make_unique<sensing::Device>(
        world_, sensing::oracle_from_trace(trace), config_.device,
        rng.fork(base + 0));
    auto client = std::make_unique<net::RestClient>(
        &cloud.router(), config_.network, rng.fork(base + 1));
    client->set_retry_policy(config_.retry);
    client->set_breaker_policy(config_.breaker);
    client->set_cache_policy({config_.cache, 64});
    pms = std::make_unique<core::PmwareMobileService>(
        std::move(device), pms_config, std::move(client), rng.fork(base + 2));
    Rng ads_rng = rng.fork(base + 3);
    lifelog.emplace();
    lifelog->connect(*pms);
    if (config_.run_placeads) {
      placeads.emplace(apps::AdInventory::default_catalogue(),
                       std::move(ads_rng));
      placeads->connect(*pms);
    }
    ++restarts;
    if (recover && !checkpoint.empty()) {
      std::istringstream in(checkpoint);
      if (pms->restore(in)) {
        pms->register_with_cloud(now);  // fresh boot epoch for the survivor
        return;
      }
      checkpoint.clear();  // torn checkpoint: fall through to cold restart
    }
    if (recover) {
      pms->cold_restart(now);  // no usable checkpoint: rebuild from cloud
      return;
    }
    pms->register_with_cloud(now);
  };

  // Tear down the current incarnation. A crash loses everything the outbox
  // had not yet synced (discard_pending accounts those as dropped); a clean
  // teardown only happens at wipe time, where pending entries die with the
  // erased account anyway.
  const auto teardown = [&](bool crashed) {
    if (!pms) return;
    if (crashed) pms->discard_pending();
    joules_acc += pms->meter().sensing_j();
    total_joules_acc += pms->meter().total_j();
    if (placeads) {
      likes_acc += placeads->likes();
      dislikes_acc += placeads->dislikes();
    }
    placeads.reset();
    lifelog.reset();
    pms.reset();
  };

  if (join_day == 0) boot(0, /*recover=*/false);

  Rng diary_rng = rng.fork(6);
  std::map<core::PlaceUid, TagState> diary;
  SimTime down_until = -1;  ///< >= 0: crashed, dark until this sim-time
  for (int day = 0; day < config_.days; ++day) {
    if (day < join_day) {  // late joiner: not enrolled yet
      note_participant_day();
      continue;
    }
    const SimTime day_begin = start_of_day(day);
    const SimTime day_end = start_of_day(day + 1);
    SimTime cursor = day_begin;
    if (!pms) {
      if (down_until >= day_end) {  // dark all day (long restart_delay)
        note_participant_day();
        continue;
      }
      cursor = std::max(day_begin, down_until);
      down_until = -1;
      boot(cursor, /*recover=*/true);
    }
    const net::DeviceFaultDecision decision =
        churn ? plan.evaluate_device(pms_config.imei, day)
              : net::DeviceFaultDecision{};
    if (decision.crash_at && *decision.crash_at >= cursor &&
        *decision.crash_at < day_end) {
      const SimTime crash_at = *decision.crash_at;
      if (crash_at > cursor) pms->run(TimeWindow{cursor, crash_at});
      teardown(/*crashed=*/true);
      const SimTime reboot_at =
          crash_at + std::max<SimDuration>(0, decision.restart_delay);
      if (reboot_at < day_end) {
        boot(reboot_at, /*recover=*/true);
        pms->run(TimeWindow{reboot_at, day_end});
      } else {
        down_until = reboot_at;  // dark across the day boundary
      }
    } else {
      pms->run(TimeWindow{cursor, day_end});
    }
    if (pms) {
      diary_session(*pms, *world_, truth_visits, config_, day_end, diary_rng,
                    diary);
      if (decision.wipe) {
        // Privacy wipe: erase the cloud account (raising the wipe tombstone
        // against outbox replays), destroy the device state, and start the
        // next incarnation from scratch under a fresh registration session.
        pms->wipe_cloud_data(day_end);
        teardown(/*crashed=*/true);
        checkpoint.clear();
        diary.clear();  // the wiped device's places (and uids) are gone
        boot(day_end, /*recover=*/false);
      } else if (churn) {
        std::ostringstream out;
        pms->save(out);
        checkpoint = out.str();
      }
    }
    note_participant_day();
  }
  if (!pms) {
    // Still dark at study end: the participant hands the device back, it
    // boots once more so the final sync and evaluation see recovered state.
    boot(start_of_day(config_.days), /*recover=*/true);
  }
  pms->shutdown(start_of_day(config_.days));
  diary_session(*pms, *world_, truth_visits, config_, start_of_day(config_.days),
                diary_rng, diary);

  // --- Evaluation (paper §4) ---
  ParticipantResult result;
  result.profile = participant;

  const auto& log = pms->inference().visit_log();
  std::set<core::PlaceUid> discovered;
  for (const auto& v : log) discovered.insert(v.uid);
  result.places_discovered = discovered.size();

  std::vector<algorithms::TruthVisit> truth;
  for (const auto& v : truth_visits) truth.push_back({v.place, v.window});
  std::vector<algorithms::ReportedVisit> reported;
  for (const auto& v : log)
    reported.push_back({static_cast<std::size_t>(v.uid), v.window});

  const algorithms::DiscoveredEvaluation full_eval =
      algorithms::evaluate_discovered(truth, reported);

  // Restrict the reported split to tagged places with departure info
  // (the paper's 123 -> 85 -> 62 attrition).
  for (const auto& [idx, outcome] : full_eval.outcomes) {
    const auto uid = static_cast<core::PlaceUid>(idx);
    const auto it = diary.find(uid);
    if (it == diary.end() || !it->second.tagged) continue;
    ++result.places_tagged;
    if (!it->second.has_departure) continue;
    ++result.places_evaluable;
    result.eval.outcomes[idx] = outcome;
  }

  result.ad_likes = likes_acc + (placeads ? placeads->likes() : 0);
  result.ad_dislikes = dislikes_acc + (placeads ? placeads->dislikes() : 0);
  result.sensing_joules = joules_acc + pms->meter().sensing_j();
  // Battery life from the energy of EVERY incarnation over the study span —
  // the final meter alone undercounts rebooted devices. A participant that
  // never drew power (a late joiner rolled past the study end) reports 0
  // rather than an infinite battery.
  const double total_j = total_joules_acc + pms->meter().total_j();
  const double power_w = total_j / static_cast<double>(days(config_.days));
  result.implied_battery_hours =
      power_w > 0
          ? energy::battery_duration_s(energy::Battery{}, power_w) / 3600.0
          : 0.0;

  auto& reg = telemetry::registry();
  reg.counter("study_places_discovered_total", {},
              "places with logged visits across all participants")
      .inc(result.places_discovered);
  reg.counter("study_places_tagged_total", {},
              "places tagged in diary sessions across all participants")
      .inc(result.places_tagged);
  reg.counter("study_ad_impressions_total", {{"reaction", "like"}},
              "PlaceADs reactions across all participants")
      .inc(result.ad_likes);
  reg.counter("study_ad_impressions_total", {{"reaction", "dislike"}},
              "PlaceADs reactions across all participants")
      .inc(result.ad_dislikes);
  reg.histogram("study_sensing_joules", {}, 0, 4000, 20,
                "per-participant sensing energy over the study, joules")
      .observe(result.sensing_joules);
  reg.histogram("study_battery_hours", {}, 0, 400, 20,
                "per-participant implied battery life, hours")
      .observe(result.implied_battery_hours);
  span.finish(start_of_day(config_.days));

  // Figure 5b inventory: every discovered place with a resolvable position.
  if (place_map != nullptr) {
    for (const core::PlaceUid uid : discovered) {
      const core::PlaceRecord* record = pms->places().get(uid);
      if (record == nullptr) continue;
      PlaceMapEntry entry;
      entry.participant = static_cast<int>(participant.id);
      entry.uid = uid;
      entry.label = record->label;
      entry.location = record->location;
      if (!entry.location)
        entry.location = cloud.geolocation().locate_signature(record->signature);
      place_map->push_back(std::move(entry));
    }
  }

  // Retirement: the participant is fully synced and evaluated — fold its
  // cloud record into the archived accumulators (digest and stats
  // invariant) so the live store only ever holds the active wave.
  if (const auto uid = pms->user_id()) cloud.storage().archive_user(*uid);
  return result;
}

void DeploymentStudy::note_participant_day() {
  telemetry::registry()
      .counter("study_participant_days_total", {},
               "completed participant-days across the fleet")
      .inc();
  // Fleet sim-time: completed participant-days scaled to seconds and
  // divided by fleet size. Monotone in completion count, so a D-day study
  // crosses exactly D interval boundaries no matter how workers interleave
  // — that is what keeps sample counts (and alert trajectories) identical
  // between sequential and parallel runs.
  const std::uint64_t done = days_done_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto fleet_t = static_cast<SimTime>(
      done * static_cast<std::uint64_t>(kSecondsPerDay) /
      static_cast<std::uint64_t>(std::max(config_.participants, 1)));
  if (telemetry::timeseries().advance(fleet_t) && config_.alerts)
    telemetry::alerts().evaluate(fleet_t);
}

void DeploymentStudy::configure_telemetry() {
  days_done_.store(0, std::memory_order_relaxed);
  auto& recorder = telemetry::timeseries();
  recorder.configure(config_.timeseries);
  if (config_.timeseries.enabled) {
    // The default dashboard: study progress, traffic, and every failure
    // family the default alert rules watch, plus the process gauges.
    recorder.track_counter("study_participant_days_total");
    recorder.track_counter("net_requests_total");
    recorder.track_counter("cloud_requests_total");
    recorder.track_counter("net_retries_total");
    recorder.track_counter("net_breaker_open_total");
    recorder.track_counter("pms_sync_failures_total");
    recorder.track_counter("pms_outbox_evicted_total");
    recorder.track_counter("cloud_slo_violations_total");
    recorder.track_counter("alerts_fired_total");
    recorder.track_gauge("process_rss_bytes");
    recorder.track_gauge("process_peak_rss_bytes");
    recorder.track_gauge("process_cpu_seconds");
  }
  telemetry::alerts().clear();
  if (config_.alerts) telemetry::alerts().install_default_rules();
}

StudyResult DeploymentStudy::run() {
  configure_telemetry();
  // Small studies keep per-participant results and the place map.
  const bool detail = config_.participants <= kDetailThreshold;

  // The rng_ draw order is fixed: fork(2) for the participant stream,
  // fork(3) for the cloud, then fork(1000 + id) in ascending id order —
  // waves are admitted in order, so no fork depends on the wave size or
  // on thread scheduling.
  Rng participants_rng = rng_.fork(2);
  mobility::ParticipantStream stream(*world_, participants_rng);

  cloud::GeoLocationService geoloc(world_->cell_location_db());
  geoloc.set_ap_db(world_->ap_location_db());
  cloud::CloudConfig cloud_config;
  cloud_config.shards = static_cast<std::size_t>(std::max(config_.shards, 1));
  cloud_config.fault_plan = config_.fault_plan;
  cloud::CloudInstance cloud(cloud_config, std::move(geoloc), rng_.fork(3));

  const int total = std::max(config_.participants, 0);
  telemetry::registry()
      .gauge("study_participants", {}, "participants in the deployment study")
      .set(static_cast<double>(total));

  const int threads = std::clamp(config_.threads, 1, std::max(total, 1));
  const int wave_size = config_.wave_size > 0
                            ? config_.wave_size
                            : std::max(threads * 4, 16);

  StudyResult result;
  if (detail) result.participants.resize(static_cast<std::size_t>(total));

  // One arena per worker slot, retained across waves: after the first
  // participant warms a slot up, the steady-state sensing loop allocates
  // without touching the heap.
  std::vector<std::unique_ptr<util::Arena>> arenas;
  arenas.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    arenas.push_back(std::make_unique<util::Arena>(std::size_t{1} << 20));

  std::exception_ptr failure;
  std::mutex failure_mu;

  std::vector<mobility::Participant> wave;
  std::vector<Rng> wave_rngs;
  std::vector<std::vector<PlaceMapEntry>> wave_maps;
  // Wave-local results, folded after the barrier in id order: float
  // accumulation (joules, battery hours) is order-sensitive, so folding in
  // completion order would make the totals depend on thread scheduling.
  std::vector<ParticipantResult> wave_results;

  for (int base = 0; base < total; base += wave_size) {
    const int n = std::min(wave_size, total - base);
    // Admission: materialize this wave's profiles and RNG forks, both in
    // ascending id order (the determinism contract).
    wave.clear();
    wave_rngs.clear();
    for (int k = 0; k < n; ++k) {
      wave.push_back(stream.next());
      wave_rngs.push_back(
          rng_.fork(1000 + static_cast<std::uint64_t>(base + k)));
    }
    wave_maps.assign(static_cast<std::size_t>(n), {});
    wave_results.assign(static_cast<std::size_t>(n), {});

    std::atomic<int> next{0};
    auto worker = [&](int slot) {
      // Aggregate mode reuses one instance label per slot, so the metrics
      // registry stays O(threads) instead of growing by O(participants).
      std::optional<telemetry::InstanceLabelScope> scope;
      if (!detail) scope.emplace(strfmt("w%d", slot));
      while (true) {
        const int k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= n) return;
        try {
          wave_results[static_cast<std::size_t>(k)] = run_participant(
              wave[static_cast<std::size_t>(k)], cloud,
              wave_rngs[static_cast<std::size_t>(k)],
              detail ? &wave_maps[static_cast<std::size_t>(k)] : nullptr,
              arenas[static_cast<std::size_t>(slot)].get());
          // The participant retired (PMS destroyed, cloud record archived):
          // recycle the slot's warm allocation footprint.
          arenas[static_cast<std::size_t>(slot)]->reset();
        } catch (...) {
          const std::scoped_lock lock(failure_mu);
          if (!failure) failure = std::current_exception();
        }
      }
    };

    if (threads <= 1 || n <= 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      const int active = std::min(threads, n);
      pool.reserve(static_cast<std::size_t>(active));
      for (int t = 0; t < active; ++t) pool.emplace_back(worker, t);
      for (std::thread& t : pool) t.join();
    }
    if (failure) std::rethrow_exception(failure);

    // Wave barrier passed: fold results and merge place-map segments in id
    // order so totals and the map are independent of completion order.
    for (int k = 0; k < n; ++k) {
      ParticipantResult& r = wave_results[static_cast<std::size_t>(k)];
      result.totals.fold(r);
      result.cohorts[r.profile.archetype].fold(r);
      if (detail) {
        result.place_map.insert(result.place_map.end(),
                                wave_maps[static_cast<std::size_t>(k)].begin(),
                                wave_maps[static_cast<std::size_t>(k)].end());
        result.participants[static_cast<std::size_t>(base + k)] = std::move(r);
      }
    }
  }

  // Every wave retired; the live store holds no users — the fingerprint is
  // the archived accumulators plus whatever a failed retirement left live.
  result.storage_stats = cloud.storage().stats();
  result.storage_digest = cloud.storage().content_digest();
  return result;
}

void CohortStats::fold(const ParticipantResult& r) {
  ++participants;
  places_discovered += r.places_discovered;
  places_tagged += r.places_tagged;
  places_evaluable += r.places_evaluable;
  for (const auto& [idx, outcome] : r.eval.outcomes)
    ++outcomes[static_cast<std::size_t>(outcome)];
  ad_likes += r.ad_likes;
  ad_dislikes += r.ad_dislikes;
  sensing_joules += r.sensing_joules;
  battery_hours += r.implied_battery_hours;
}

std::size_t StudyResult::total_discovered() const {
  return static_cast<std::size_t>(totals.places_discovered);
}

std::size_t StudyResult::total_tagged() const {
  return static_cast<std::size_t>(totals.places_tagged);
}

std::size_t StudyResult::total_evaluable() const {
  return static_cast<std::size_t>(totals.places_evaluable);
}

std::size_t StudyResult::total(DiscoveredOutcome o) const {
  return static_cast<std::size_t>(totals.outcome(o));
}

double StudyResult::fraction(DiscoveredOutcome o) const {
  const std::size_t denom = total(DiscoveredOutcome::Correct) +
                            total(DiscoveredOutcome::Merged) +
                            total(DiscoveredOutcome::Divided);
  if (denom == 0) return 0.0;
  return static_cast<double>(total(o)) / static_cast<double>(denom);
}

std::size_t StudyResult::total_likes() const {
  return static_cast<std::size_t>(totals.ad_likes);
}

std::size_t StudyResult::total_dislikes() const {
  return static_cast<std::size_t>(totals.ad_dislikes);
}

std::string StudyResult::summary() const {
  std::string out;
  out += strfmt("participants:            %llu\n",
                static_cast<unsigned long long>(totals.participants));
  out += strfmt("places discovered:       %zu\n", total_discovered());
  out += strfmt("places tagged:           %zu (%.1f%%)\n", total_tagged(),
                total_discovered() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(total_tagged()) /
                          static_cast<double>(total_discovered()));
  out += strfmt("evaluable (w/ departure): %zu\n", total_evaluable());
  out += strfmt("  correct:   %3zu (%.2f%%)\n", total(DiscoveredOutcome::Correct),
                100 * fraction(DiscoveredOutcome::Correct));
  out += strfmt("  merged:    %3zu (%.2f%%)\n", total(DiscoveredOutcome::Merged),
                100 * fraction(DiscoveredOutcome::Merged));
  out += strfmt("  divided:   %3zu (%.2f%%)\n", total(DiscoveredOutcome::Divided),
                100 * fraction(DiscoveredOutcome::Divided));
  const std::size_t impressions = total_likes() + total_dislikes();
  if (impressions > 0) {
    const double like20 = 20.0 * static_cast<double>(total_likes()) /
                          static_cast<double>(impressions);
    out += strfmt("PlaceADs impressions:    %zu, like:dislike = %.1f : %.1f\n",
                  impressions, like20, 20.0 - like20);
  }
  for (const auto& [archetype, c] : cohorts) {
    const double denom = c.participants > 0
                             ? static_cast<double>(c.participants)
                             : 1.0;
    out += strfmt(
        "cohort %-14s %llu participants, %.1f places/p, %.0f J/p, "
        "%.0f h battery\n",
        mobility::to_string(archetype),
        static_cast<unsigned long long>(c.participants),
        static_cast<double>(c.places_discovered) / denom,
        c.sensing_joules / denom, c.battery_hours / denom);
  }
  return out;
}

}  // namespace pmware::study
