#include "study_runner.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "apps/lifelog.hpp"
#include "apps/placeads.hpp"
#include "core/pms.hpp"
#include "mobility/schedule.hpp"
#include "net/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/arena.hpp"
#include "util/strfmt.hpp"

namespace pmware::perfbench {

namespace {

study::StudyConfig study_config(const StudySpec& spec) {
  study::StudyConfig config;  // the §4 defaults: GSM + WiFi, offload, caches
  config.participants = spec.participants;
  config.days = spec.days;
  config.seed = spec.seed;
  config.threads = 1;
  if (spec.churn) config.fault_plan = net::FaultPlan::parse(kChurnPlan);
  return config;
}

double elapsed_since(std::int64_t begin) {
  return static_cast<double>(now_ns() - begin);
}

/// Diary state for one discovered place.
struct TagState {
  bool tagged = false;
  bool has_departure = true;
};

/// Ground-truth place overlapping a discovered place's visits the most.
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

/// The study's nightly diary: the participant tags ~70% of newly visited
/// places with their category.
void diary_session(core::PmwareMobileService& pms, const world::World& world,
                   const std::vector<mobility::Visit>& truth,
                   const study::StudyConfig& config, SimTime now, Rng& rng,
                   std::map<core::PlaceUid, TagState>& diary) {
  const auto& log = pms.inference().visit_log();
  for (const auto& [uid, record] : pms.places().records()) {
    if (diary.count(uid)) continue;
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

void fold(OutboxTotals& into, const core::PmsStats& s, bool live) {
  into.enqueued += s.outbox_enqueued;
  into.delivered += s.outbox_delivered;
  into.recovered += s.outbox_recovered;
  into.evicted += s.outbox_evicted;
  into.dropped += s.outbox_dropped;
  // A torn-down incarnation's pending entries were counted as dropped.
  if (live) into.pending += s.outbox_pending;
}

/// Runs one participant end to end, appending its units to `out`.
void run_participant(const StudySetup& setup, std::size_t index,
                     cloud::CloudInstance& cloud, util::Arena& arena,
                     const PassOptions& options, PassResult& out) {
  const study::StudyConfig& config = setup.config;
  const mobility::Participant& participant = setup.participants[index];
  Rng rng = setup.participant_rngs[index];
  Proxy& proxy = *options.proxy;
  SpanRecorder* spans = options.spans;
  const ScopedSpan participant_span(spans, "participant " + participant.name,
                                    "study");

  std::int64_t unit_begin = now_ns();
  Rng trace_rng = rng.fork(1);
  std::optional<mobility::Trace> trace_storage;
  {
    const ScopedSpan span(spans, "mobility.build_trace", "mobility");
    const std::int64_t begin = now_ns();
    trace_storage.emplace(mobility::build_trace(*setup.world, participant,
                                                config.schedule, trace_rng));
    out.trace_ns.push_back(elapsed_since(begin));
  }
  const mobility::Trace& trace = *trace_storage;
  const std::vector<mobility::Visit> truth_visits =
      trace.significant_visits(config.inference.min_visit_dwell);

  core::PmsConfig pms_config;
  pms_config.imei = strfmt("35824005%07u", participant.id + 1);
  pms_config.email = participant.name + "@study.pmware.org";
  pms_config.inference = config.inference;
  pms_config.inference.wifi_enabled = config.use_wifi;
  pms_config.offload_gca = config.offload_gca;
  pms_config.outbox = config.outbox;
  pms_config.cache = config.cache;
  pms_config.arena = &arena;

  const net::FaultPlan& plan = config.fault_plan;
  const bool churn = plan.has_device_rules();
  const std::int64_t join_day = churn ? plan.join_day(pms_config.imei) : 0;

  std::unique_ptr<core::PmwareMobileService> pms;
  std::optional<apps::LifeLog> lifelog;
  std::optional<apps::PlaceAds> placeads;
  OutboxTotals outbox;
  std::size_t restarts = 0;
  std::string checkpoint;

  // Same RNG fork sequence as DeploymentStudy::run_participant, so a pass
  // leaves the study's cloud content digest.
  const auto boot = [&](SimTime now, bool recover) {
    const ScopedSpan span(spans, "boot", "core.pms");
    const std::uint64_t base =
        restarts == 0 ? 2 : 7000 + 8 * static_cast<std::uint64_t>(restarts);
    auto device = std::make_unique<sensing::Device>(
        setup.world, sensing::oracle_from_trace(trace), config.device,
        rng.fork(base + 0));
    auto client = std::make_unique<net::RestClient>(
        &proxy.router(), config.network, rng.fork(base + 1));
    client->set_retry_policy(config.retry);
    client->set_breaker_policy(config.breaker);
    client->set_cache_policy({config.cache, 64});
    pms = std::make_unique<core::PmwareMobileService>(
        std::move(device), pms_config, std::move(client), rng.fork(base + 2));
    Rng ads_rng = rng.fork(base + 3);
    lifelog.emplace();
    lifelog->connect(*pms);
    if (config.run_placeads) {
      placeads.emplace(apps::AdInventory::default_catalogue(),
                       std::move(ads_rng));
      placeads->connect(*pms);
    }
    ++restarts;
    if (recover && !checkpoint.empty()) {
      std::istringstream in(checkpoint);
      bool restored = false;
      {
        const ScopedSpan restore_span(spans, "restore", "core.persistence");
        const std::int64_t begin = now_ns();
        restored = pms->restore(in);
        out.restore_ns.push_back(elapsed_since(begin));
      }
      ++out.restores;
      if (restored) {
        pms->register_with_cloud(now);
        return;
      }
      // Every checkpoint here was written whole by save().
      ++out.restore_failures;
      checkpoint.clear();
    }
    if (recover) {
      pms->cold_restart(now);
      return;
    }
    pms->register_with_cloud(now);
  };

  const auto teardown = [&](bool crashed) {
    if (!pms) return;
    if (crashed) pms->discard_pending();
    fold(outbox, pms->stats(), /*live=*/false);
    out.sensing_j += pms->meter().sensing_j();
    placeads.reset();
    lifelog.reset();
    pms.reset();
  };

  // Nested cloud time is subtracted from pms.run for its self time.
  const auto timed_run = [&](TimeWindow window, double& run_ns,
                             double& self_ns) {
    const ScopedSpan span(spans, "pms.run", "core.pms");
    const std::int64_t cloud_before = proxy.handle_ns_total();
    const std::int64_t begin = now_ns();
    pms->run(window);
    const double elapsed = elapsed_since(begin);
    run_ns += elapsed;
    self_ns += elapsed - static_cast<double>(proxy.handle_ns_total() -
                                             cloud_before);
  };

  if (join_day == 0) boot(0, /*recover=*/false);
  out.unit_ns.push_back(elapsed_since(unit_begin));

  Rng diary_rng = rng.fork(6);
  std::map<core::PlaceUid, TagState> diary;
  SimTime down_until = -1;
  for (int day = 0; day < config.days; ++day) {
    unit_begin = now_ns();
    double run_ns = 0;
    double self_ns = 0;
    ++out.participant_days;
    if (day < join_day) {  // late joiner: not enrolled yet
      out.run_ns.push_back(0);
      out.run_self_ns.push_back(0);
      out.unit_ns.push_back(elapsed_since(unit_begin));
      continue;
    }
    const ScopedSpan day_span(spans, "day", "study");
    const SimTime day_begin = start_of_day(day);
    const SimTime day_end = start_of_day(day + 1);
    SimTime cursor = day_begin;
    bool dark_all_day = false;
    if (!pms) {
      if (down_until >= day_end) {
        dark_all_day = true;
      } else {
        cursor = std::max(day_begin, down_until);
        down_until = -1;
        boot(cursor, /*recover=*/true);
      }
    }
    if (!dark_all_day) {
      const net::DeviceFaultDecision decision =
          churn ? plan.evaluate_device(pms_config.imei, day)
                : net::DeviceFaultDecision{};
      if (decision.crash_at && *decision.crash_at >= cursor &&
          *decision.crash_at < day_end) {
        const SimTime crash_at = *decision.crash_at;
        if (crash_at > cursor)
          timed_run(TimeWindow{cursor, crash_at}, run_ns, self_ns);
        teardown(/*crashed=*/true);
        const SimTime reboot_at =
            crash_at + std::max<SimDuration>(0, decision.restart_delay);
        if (reboot_at < day_end) {
          boot(reboot_at, /*recover=*/true);
          timed_run(TimeWindow{reboot_at, day_end}, run_ns, self_ns);
        } else {
          down_until = reboot_at;
        }
      } else {
        timed_run(TimeWindow{cursor, day_end}, run_ns, self_ns);
      }
      if (pms) {
        {
          const ScopedSpan span(spans, "diary", "study");
          diary_session(*pms, *setup.world, truth_visits, config, day_end,
                        diary_rng, diary);
        }
        if (decision.wipe) {
          {
            const ScopedSpan span(spans, "wipe", "core.pms");
            pms->wipe_cloud_data(day_end);
          }
          teardown(/*crashed=*/true);
          checkpoint.clear();
          diary.clear();
          boot(day_end, /*recover=*/false);
        } else if (churn) {
          const ScopedSpan span(spans, "save", "core.persistence");
          const std::int64_t begin = now_ns();
          std::ostringstream saved;
          pms->save(saved);
          checkpoint = saved.str();
          out.save_ns.push_back(elapsed_since(begin));
          out.checkpoint_bytes.push_back(static_cast<double>(checkpoint.size()));
        }
      }
    }
    out.run_ns.push_back(run_ns);
    out.run_self_ns.push_back(self_ns);
    out.unit_ns.push_back(elapsed_since(unit_begin));
  }

  unit_begin = now_ns();
  if (!pms) boot(start_of_day(config.days), /*recover=*/true);
  {
    const ScopedSpan span(spans, "shutdown", "core.pms");
    pms->shutdown(start_of_day(config.days));
  }
  {
    const ScopedSpan span(spans, "diary", "study");
    diary_session(*pms, *setup.world, truth_visits, config,
                  start_of_day(config.days), diary_rng, diary);
  }
  out.sensing_j += pms->meter().sensing_j();
  fold(outbox, pms->stats(), /*live=*/true);
  if (options.keep_gsm_log && index == 0) {
    const auto& log = pms->inference().gsm_log();
    out.gsm_log.assign(log.begin(), log.end());
  }
  // Retire as the streaming runner does: the synced record moves into the
  // cloud's archived accumulators (digest-invariant).
  if (const auto uid = pms->user_id()) cloud.storage().archive_user(*uid);
  out.unit_ns.push_back(elapsed_since(unit_begin));

  // Drained: every queued item was delivered, evicted or dropped at a
  // teardown, and nothing is left pending.
  if (outbox.pending != 0 ||
      outbox.enqueued != outbox.delivered + outbox.dropped + outbox.evicted)
    ++out.undrained;
  out.outbox.enqueued += outbox.enqueued;
  out.outbox.delivered += outbox.delivered;
  out.outbox.recovered += outbox.recovered;
  out.outbox.evicted += outbox.evicted;
  out.outbox.dropped += outbox.dropped;
  out.outbox.pending += outbox.pending;
}

}  // namespace

StudySetup::StudySetup(const StudySpec& spec_in, SetupTiming* timing)
    : spec(spec_in),
      config(study_config(spec_in)),
      cloud_rng(0) {
  std::int64_t begin = now_ns();
  Rng city(kCitySeed);
  Rng world_rng = city.fork(1);
  world = world::generate_world(config.world, world_rng);
  const double world_ns = elapsed_since(begin);

  begin = now_ns();
  Rng participants_rng = city.fork(2);
  participants =
      mobility::make_participants(*world, config.participants, participants_rng);
  // DeploymentStudy draws its world and participants from forks 1 and 2 of
  // the seed; drawing them here too keeps the later forks aligned.
  Rng root(spec.seed);
  root.fork(1);
  root.fork(2);
  cloud_rng = root.fork(3);
  participant_rngs.reserve(participants.size());
  for (const auto& participant : participants)
    participant_rngs.push_back(root.fork(1000 + participant.id));
  const double participants_ns = elapsed_since(begin);

  if (timing) {
    timing->world_ns = world_ns;
    timing->participants_ns = participants_ns;
    begin = now_ns();
    const auto cloud = make_cloud(*this);
    timing->cloud_ns = elapsed_since(begin);
  }
}

std::unique_ptr<cloud::CloudInstance> make_cloud(const StudySetup& setup) {
  cloud::GeoLocationService geoloc(setup.world->cell_location_db());
  geoloc.set_ap_db(setup.world->ap_location_db());
  cloud::CloudConfig cloud_config;
  cloud_config.shards =
      static_cast<std::size_t>(std::max(setup.config.shards, 1));
  cloud_config.fault_plan = setup.config.fault_plan;
  cloud_config.cache = setup.config.cache;
  return std::make_unique<cloud::CloudInstance>(
      cloud_config, std::move(geoloc), setup.cloud_rng);
}

void reset_telemetry() {
  telemetry::registry().reset();
  telemetry::tracer().reset();
}

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  telemetry::registry().with_families(
      [&](const std::map<std::string, telemetry::MetricFamily>& families) {
        const auto label = [](const telemetry::LabelSet& labels,
                              const char* key) {
          const auto it = labels.find(key);
          return it == labels.end() ? std::string("?") : it->second;
        };
        for (const auto& [name, family] : families) {
          if (family.kind != telemetry::MetricKind::Counter) continue;
          for (const auto& [labels, counter] : family.counters) {
            const auto value = static_cast<double>(counter->value());
            if (name == "sensing_samples_total")
              out["sensing." + label(labels, "interface")] += value;
            else if (name == "cache_outcomes_total")
              out["cache." + label(labels, "cache") + "." +
                  label(labels, "outcome")] += value;
            else if (name.rfind("net_", 0) == 0)
              out[name] += value;
          }
        }
        return 0;
      });
  return out;
}

PassResult run_study_pass(const StudySetup& setup, const PassOptions& options) {
  reset_telemetry();
  PassResult out;
  Proxy& proxy = *options.proxy;
  proxy.clear();
  const std::int64_t begin = now_ns();
  std::unique_ptr<cloud::CloudInstance> cloud;
  {
    const ScopedSpan span(options.spans, "cloud.construct", "cloud");
    cloud = make_cloud(setup);
  }
  proxy.set_target(&cloud->router());
  proxy.set_spans(options.spans);
  // One arena recycled across participants, as in the streaming runner's
  // single worker slot.
  util::Arena arena(std::size_t{1} << 20);
  for (std::size_t i = 0; i < setup.participants.size(); ++i) {
    if (options.between_units) options.between_units();
    run_participant(setup, i, *cloud, arena, options, out);
    arena.reset();
  }
  out.digest = cloud->storage().content_digest();
  out.wall_ns = now_ns() - begin;
  out.counters = read_counters();
  proxy.set_target(nullptr);
  proxy.set_spans(nullptr);
  return out;
}

}  // namespace pmware::perfbench
