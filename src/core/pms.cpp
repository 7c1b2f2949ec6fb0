#include "core/pms.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <optional>
#include <ostream>

#include "cache/content_cache.hpp"
#include "core/codec.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/log.hpp"
#include "util/strfmt.hpp"

namespace pmware::core {

namespace {

constexpr const char* kPlaceEvents = "pms_place_events_total";
constexpr const char* kRouteEvents = "pms_route_events_total";
constexpr const char* kEncounters = "pms_encounters_total";
constexpr const char* kProfileSyncs = "pms_profile_syncs_total";
constexpr const char* kTokenRefreshes = "pms_token_refreshes_total";
constexpr const char* kGcaOffloads = "pms_gca_offloads_total";
constexpr const char* kGcaLocal = "pms_gca_local_total";
constexpr const char* kGcaResyncs = "pms_gca_resyncs_total";
constexpr const char* kSyncFailures = "pms_sync_failures_total";
constexpr const char* kOutboxEnqueued = "pms_outbox_enqueued_total";
constexpr const char* kOutboxDelivered = "pms_outbox_delivered_total";
constexpr const char* kOutboxRecovered = "pms_outbox_recovered_total";
constexpr const char* kOutboxEvicted = "pms_outbox_evicted_total";
constexpr const char* kOutboxDropped = "pms_outbox_dropped_total";
constexpr const char* kOutboxDepth = "pms_outbox_depth";
constexpr const char* kRestarts = "pms_restarts_total";
constexpr const char* kCheckpointBytes = "pms_checkpoint_bytes";
constexpr const char* kRestoreWall = "pms_restore_wall_us";
constexpr const char* kColdProfileDays = "pms_cold_profile_days_recovered_total";

/// Sync-failure kinds beyond the outbox's SyncKinds (direct sends).
constexpr const char* kKindLabel = "label";
constexpr const char* kKindWipe = "wipe";
/// All kind labels pms_sync_failures_total is emitted under, for
/// PmsStats::sync_failures aggregation.
constexpr const char* kFailureKinds[] = {"profile", "place", "place_delete",
                                         "route",   "encounter", "label",
                                         "wipe"};

// Digest primitives (dirty detection, offload memo keys) come from the
// cache subsystem so device and cloud derive identical values.
using cache::fnv1a;
constexpr std::uint64_t kDigestBasis = cache::kDigestBasis;

/// cache_outcomes_total series of the PMS-side GCA offload memo.
constexpr const char* kGcaCacheName = "pms_gca";

// --- Checkpoint wire format (Pms::save/restore) ---
// Two lines: a manifest {"format","version","digest"} and one body line, a
// JSON object holding the service state under a key per part (scalars,
// preferences, gsm_log, visit_log, places, ...), each value in its core/codec
// shape. "gsm_log" is the discover body's run-length form. The digest is
// fnv1a over the body line, so restore() detects a torn or bit-flipped
// checkpoint before it parses anything. restore() rejects an older version
// like any other unknown one, and the caller cold-restarts.
constexpr const char* kCheckpointFormat = "pms-checkpoint";
constexpr std::int64_t kCheckpointVersion = 4;

/// Decodes a 2xx response's body; nullopt when the request failed or the
/// body is malformed, so the caller treats the exchange as failed instead
/// of applying part of it.
template <typename Decode>
auto decode_ok(const net::HttpResponse& response, Decode decode)
    -> std::optional<decltype(decode(response.body))> {
  if (!response.ok()) return std::nullopt;
  try {
    return decode(response.body);
  } catch (const JsonError&) {
    return std::nullopt;
  }
}

/// Place upsert body: the record without its locally cached location (see
/// deliver()). Its digest is the record's sync-dirtiness mark.
Json upsert_body(PlaceRecord record) {
  record.location.reset();
  return to_json(record);
}

}  // namespace

PmwareMobileService::PmwareMobileService(
    std::unique_ptr<sensing::Device> device, PmsConfig config,
    std::unique_ptr<net::RestClient> client, Rng rng)
    : config_(std::move(config)),
      device_(std::move(device)),
      meter_(config_.power),
      scheduler_(&meter_),
      apps_(&preferences_),
      engine_(device_.get(), &scheduler_, &place_store_, &apps_,
              config_.inference, rng.fork(1)),
      client_(std::move(client)),
      instance_(telemetry::registry().next_instance_label("pms")),
      outbox_(config_.outbox) {
  place_events_counter_.emplace(kPlaceEvents,
                                telemetry::LabelSet{{"instance", instance_}},
                                "place events delivered to connected apps");
  route_events_counter_.emplace(kRouteEvents,
                                telemetry::LabelSet{{"instance", instance_}},
                                "route events delivered to connected apps");
  encounters_counter_.emplace(kEncounters,
                              telemetry::LabelSet{{"instance", instance_}},
                              "encounter events delivered to connected apps");
  outbox_enqueued_counter_.emplace(
      kOutboxEnqueued, telemetry::LabelSet{{"instance", instance_}},
      "sync work items queued in the outbox");
  outbox_evicted_counter_.emplace(
      kOutboxEvicted, telemetry::LabelSet{{"instance", instance_}},
      "outbox entries dropped to capacity (oldest first)");
  outbox_delivered_counter_.emplace(
      kOutboxDelivered, telemetry::LabelSet{{"instance", instance_}},
      "outbox work items delivered to the cloud");
  outbox_recovered_counter_.emplace(
      kOutboxRecovered, telemetry::LabelSet{{"instance", instance_}},
      "outbox items delivered after one or more failed attempts");
  engine_.set_place_event_sink([this](const PlaceEvent& event) {
    std::size_t delivered =
        apps_.deliver_place_event(event, place_store_, bus_);
    delivered += apps_.deliver_geofence(event, place_store_, bus_);
    place_events_counter_->get().inc(delivered);
  });
  engine_.set_route_event_sink([this](const RouteEvent& event) {
    route_events_counter_->get().inc(apps_.deliver_route_event(event, bus_));
  });
  engine_.set_encounter_sink([this](const EncounterEvent& event) {
    encounters_counter_->get().inc(apps_.deliver_encounter(event, bus_));
  });
  engine_.set_gca_runner(
      [this](std::span<const algorithms::CellObservation> observations) {
        return offloaded_gca(observations, scheduler_.now());
      });
  engine_.attach();
}

telemetry::Counter& PmwareMobileService::counter(const char* name,
                                                 const char* help) const {
  return telemetry::registry().counter(name, {{"instance", instance_}}, help);
}

PmsStats PmwareMobileService::stats() const {
  const auto& reg = telemetry::registry();
  const telemetry::LabelSet labels = {{"instance", instance_}};
  PmsStats stats;
  stats.place_events_delivered = reg.counter_value(kPlaceEvents, labels);
  stats.route_events_delivered = reg.counter_value(kRouteEvents, labels);
  stats.encounters_delivered = reg.counter_value(kEncounters, labels);
  stats.profile_syncs = reg.counter_value(kProfileSyncs, labels);
  stats.token_refreshes = reg.counter_value(kTokenRefreshes, labels);
  stats.gca_offloads = reg.counter_value(kGcaOffloads, labels);
  stats.gca_local_runs = reg.counter_value(kGcaLocal, labels);
  for (const char* kind : kFailureKinds)
    stats.sync_failures += reg.counter_value(
        kSyncFailures, {{"instance", instance_}, {"kind", kind}});
  stats.outbox_enqueued = reg.counter_value(kOutboxEnqueued, labels);
  stats.outbox_delivered = reg.counter_value(kOutboxDelivered, labels);
  stats.outbox_recovered = reg.counter_value(kOutboxRecovered, labels);
  stats.outbox_evicted = reg.counter_value(kOutboxEvicted, labels);
  stats.outbox_dropped = reg.counter_value(kOutboxDropped, labels);
  stats.outbox_pending = outbox_.size();
  return stats;
}

net::HttpRequest PmwareMobileService::make_request(net::Method method,
                                                   std::string path,
                                                   SimTime now) const {
  net::HttpRequest request;
  request.method = method;
  request.path = std::move(path);
  request.headers[net::kSimTimeHeader] = std::to_string(now);
  // Stamp the registration session so the cloud can fence writes from
  // incarnations that predate a privacy wipe (tombstones, DESIGN.md
  // "Failure model & recovery").
  if (boot_epoch_ > 0)
    request.headers[net::kSessionHeader] = std::to_string(boot_epoch_);
  return request;
}

bool PmwareMobileService::register_with_cloud(SimTime now) {
  if (client_ == nullptr) return false;
  // Remember that the caller wants this device registered: if this attempt
  // fails (outage at study start), housekeeping keeps retrying — the
  // /api/register endpoint is idempotent on (imei, email).
  registration_wanted_ = true;
  net::HttpRequest request = make_request(net::Method::Post, "/api/register", now);
  request.body = Json::object();
  request.body.set("imei", config_.imei);
  request.body.set("email", config_.email);
  const net::HttpResponse response = client_->send(request);
  const auto grant = decode_ok(response, session_grant_from_json);
  if (!grant) {
    telemetry::slog_warn("pms", now, "registration failed: %d%s",
                         response.status,
                         response.ok() ? " (malformed response)" : "");
    return false;
  }
  user_id_ = grant->user;
  client_->set_auth_token(grant->token);
  token_expires_ = grant->expires_at;
  // The cloud counts registrations per device; that session number is this
  // incarnation's boot epoch (qualifies outbox replay sequence numbers,
  // keys wipe tombstones).
  boot_epoch_ = grant->session.value_or(0);
  telemetry::slog_info("pms", now, "registered as user %u", *user_id_);
  return true;
}

void PmwareMobileService::maybe_refresh_token(SimTime now) {
  if (client_ == nullptr || !user_id_) return;
  // Refresh once less than six hours of validity remain.
  if (token_expires_ - now >= hours(6)) return;
  net::HttpRequest request =
      make_request(net::Method::Post, "/api/token/refresh", now);
  const net::HttpResponse response = client_->send(request);
  const auto grant = decode_ok(response, session_grant_from_json);
  if (grant) {
    client_->set_auth_token(grant->token);
    token_expires_ = grant->expires_at;
    counter(kTokenRefreshes, "successful bearer-token refreshes").inc();
  } else {
    // Expired beyond refresh (or an undecodable grant): re-register
    // (idempotent on imei/email).
    register_with_cloud(now);
  }
}

algorithms::GcaResult PmwareMobileService::offloaded_gca(
    std::span<const algorithms::CellObservation> observations, SimTime now) {
  // Rolling movement digest: the GSM log is append-only, so extend the
  // digest over just the new observations instead of re-folding the whole
  // log every pass. A shrunk log (a different stream) resets the fold —
  // the same guard GcaState applies.
  if (observations.size() < digest_fed_) {
    digest_fed_ = 0;
    digest_ = cache::kDigestBasis;
    upload_acked_ = 0;
    upload_digest_ = cache::kDigestBasis;
  }
  fold_movement(digest_, observations.subspan(digest_fed_));
  digest_fed_ = observations.size();
  const std::uint64_t graph_digest = digest_;

  // Content-addressed elision: an unchanged movement graph means an
  // identical clustering result (local, offloaded, or replayed — all equal
  // by design), so serve the remembered one without touching the wire.
  if (config_.cache && gca_memo_ && gca_memo_->first == graph_digest) {
    cache::record_outcome(kGcaCacheName, cache::CacheOutcome::LocalHit);
    return gca_memo_->second;
  }
  if (config_.offload_gca && client_ != nullptr && user_id_) {
    telemetry::Span span(telemetry::tracer(), "pms.gca_offload", now);
    // Suffix upload: ship only what the cloud has not acknowledged, plus a
    // claim about the acknowledged prefix (length + rolling digest). The
    // cloud retains the stream, verifies the claim, and answers 409 when
    // the two sides disagree about history (e.g. a response was lost after
    // the cloud applied a suffix) — then this pass re-sends everything.
    auto build_request = [&](std::size_t from, bool with_prefix) {
      net::HttpRequest request =
          make_request(net::Method::Post, "/api/places/discover", now);
      request.body = discover_request_to_json(
          observations.subspan(from),
          with_prefix ? std::optional(PrefixClaim{from, upload_digest_})
                      : std::nullopt);
      return request;
    };
    net::HttpResponse response =
        client_->send(build_request(upload_acked_, true));
    if (response.status == 409) {
      counter(kGcaResyncs,
              "GCA offloads that fell back to a full upload after the cloud "
              "rejected the suffix prefix claim")
          .inc();
      response = client_->send(build_request(0, false));
    }
    // An undecodable 200 is a failed offload: nothing is acknowledged, so
    // the next pass's prefix claim draws a 409 and a full upload re-syncs.
    auto result = decode_ok(response, gca_result_from_json);
    if (result) {
      upload_acked_ = observations.size();
      upload_digest_ = graph_digest;
      counter(kGcaOffloads, "GCA clustering passes offloaded to the cloud")
          .inc();
      // An offloaded pass records no cache outcome; device-side we only
      // remember the result.
      if (config_.cache) gca_memo_.emplace(graph_digest, *result);
      return *std::move(result);
    }
    telemetry::slog_warn("pms", now,
                         "GCA offload failed (%d%s); running locally",
                         response.status,
                         response.ok() ? ", malformed response" : "");
  }
  counter(kGcaLocal, "GCA clustering passes run on-device").inc();
  telemetry::Span span(telemetry::tracer(), "pms.gca_local", now);
  algorithms::GcaResult result = engine_.cluster_locally(observations);
  if (config_.cache) {
    // Only passes clustered on the device count as a miss or a recompute.
    cache::record_outcome(kGcaCacheName, gca_memo_
                                             ? cache::CacheOutcome::Recompute
                                             : cache::CacheOutcome::Miss);
    gca_memo_.emplace(graph_digest, result);
  }
  return result;
}

void PmwareMobileService::run(TimeWindow window) {
  telemetry::ScopedTimer run_span(telemetry::tracer(), "pms.run",
                                  [this] { return scheduler_.now(); });
  // Split at day boundaries so housekeeping runs between days.
  SimTime cursor = window.begin;
  while (cursor < window.end) {
    const SimTime day_end =
        std::min(window.end, start_of_day(day_of(cursor) + 1));
    scheduler_.run(TimeWindow{cursor, day_end});
    cursor = day_end;
    if (cursor < window.end || time_of_day(cursor) == 0)
      housekeeping(cursor);
  }
}

void PmwareMobileService::housekeeping(SimTime now) {
  // Sim time stands still during housekeeping — the span exists for its wall
  // cost and to parent the GCA offload/local spans opened underneath.
  telemetry::Span span(telemetry::tracer(), "pms.housekeeping", now);
  // A wanted-but-failed registration (outage at study start) retries here;
  // everything downstream needs the user id and token it produces.
  if (client_ != nullptr && registration_wanted_ && !user_id_)
    register_with_cloud(now);
  // Refresh credentials next: the recluster below may offload to the cloud.
  maybe_refresh_token(now);
  engine_.recluster(now);
  if (client_ != nullptr && user_id_) {
    const std::int64_t up_to = day_of(now) - (time_of_day(now) == 0 ? 1 : 0);
    enqueue_sync_work(up_to, now);
    drain_outbox(now);
  }
}

void PmwareMobileService::enqueue_sync_work(std::int64_t up_to, SimTime now) {
  // Dirty profile days. Each recluster can refine earlier days' visit logs,
  // so completed days are re-checked — but only days whose PUT body changed
  // are re-sent (the profiles come from one pass over the logs, so a
  // steady-state tick costs O(logs), not O(days * logs)). Empty days are
  // never PUT, so a cold-restarted device cannot blank the cloud's copy.
  for (const MobilityProfile& profile : day_profiles(0, up_to)) {
    if (profile.empty()) continue;
    const std::uint64_t digest = fnv1a(to_json(profile).dump());
    const auto it = synced_day_digest_.find(profile.day);
    if (it != synced_day_digest_.end() && it->second == digest) continue;
    enqueue(SyncKind::ProfileDay, static_cast<std::uint64_t>(profile.day), 0,
            now);
  }

  // Dirty place records (signatures may have shifted after recluster, the
  // user may have tagged a label). Dirtiness is the digest of the exact
  // body deliver() would PUT.
  for (const auto& [uid, record] : place_store_.records()) {
    const std::uint64_t digest = fnv1a(upsert_body(record).dump());
    const auto it = synced_place_digest_.find(uid);
    if (it != synced_place_digest_.end() && it->second == digest) continue;
    enqueue(SyncKind::PlaceUpsert, static_cast<std::uint64_t>(uid), 0, now);
  }

  // Journeys completed since the last tick; the log index doubles as the
  // replay sequence number the cloud dedups on.
  const auto& route_log = engine_.route_log();
  for (; routes_enqueued_ < route_log.size(); ++routes_enqueued_)
    enqueue(SyncKind::Route, static_cast<std::uint64_t>(routes_enqueued_), 0,
            now);

  // New social encounters, as one batch entry per drain backlog.
  const auto& encounter_log = engine_.encounter_log();
  if (encounters_enqueued_ < encounter_log.size()) {
    enqueue(SyncKind::EncounterBatch,
            static_cast<std::uint64_t>(encounters_enqueued_),
            static_cast<std::uint64_t>(encounter_log.size()), now);
    encounters_enqueued_ = encounter_log.size();
  }
}

void PmwareMobileService::enqueue(SyncKind kind, std::uint64_t key,
                                  std::uint64_t key2, SimTime now) {
  const SyncOutbox::EnqueueResult result =
      outbox_.enqueue(kind, key, key2, now, boot_epoch_);
  if (result.appended) outbox_enqueued_counter_->get().inc();
  if (result.evicted) {
    outbox_evicted_counter_->get().inc();
    // A dropped day/place re-detects as dirty next tick (its synced digest
    // was never updated); dropped routes/encounters are honest data loss.
    telemetry::slog_warn(
        "pms", now, "outbox full (%zu): evicted %s key=%llu queued at %lld",
        outbox_.config().capacity, kind_name(result.evicted->kind),
        static_cast<unsigned long long>(result.evicted->key),
        static_cast<long long>(result.evicted->enqueued_at));
  }
}

void PmwareMobileService::drain_outbox(SimTime now) {
  outbox_.drain([&](const OutboxEntry& entry) {
    int status = 0;
    switch (deliver(entry, now, status)) {
      case DeliverOutcome::Failed:
        record_sync_failure(entry.kind, status, now);
        return false;
      case DeliverOutcome::Gone:
        // The cloud tombstoned this user (privacy wipe): replaying is
        // pointless and forbidden. Drop the entry and keep draining —
        // deliberate loss, accounted as dropped rather than delivered.
        counter(kOutboxDropped,
                "outbox entries discarded (crash/wipe teardown, tombstoned "
                "user)")
            .inc();
        telemetry::slog_warn(
            "pms", now, "%s sync rejected (user wiped); dropping entry",
            kind_name(entry.kind));
        return true;
      case DeliverOutcome::Delivered:
        break;
    }
    outbox_delivered_counter_->get().inc();
    if (entry.attempts > 0) outbox_recovered_counter_->get().inc();
    return true;
  });
  telemetry::registry()
      .gauge(kOutboxDepth, {{"instance", instance_}},
             "sync work items currently queued")
      .set(static_cast<double>(outbox_.size()));
}

PmwareMobileService::DeliverOutcome PmwareMobileService::deliver(
    const OutboxEntry& entry, SimTime now, int& status) {
  // Shared verdict for plain success/failure responses; 410 Gone is the
  // cloud's permanent "this user was wiped" refusal. Every response passes
  // through here, so it also reports the status.
  const auto verdict = [&status](const net::HttpResponse& response) {
    status = response.status;
    if (response.ok()) return DeliverOutcome::Delivered;
    if (response.status == net::kStatusGone) return DeliverOutcome::Gone;
    return DeliverOutcome::Failed;
  };
  // Deliveries authenticate their *enqueue-time* session, not the current
  // boot's: an entry checkpointed before a privacy wipe replays with its old
  // session and is rejected by the cloud's wipe tombstone (410 -> dropped),
  // so restored state can never resurrect wiped data.
  const auto entry_request = [&](net::Method method, const std::string& path) {
    net::HttpRequest request = make_request(method, path, now);
    if (entry.epoch > 0)
      request.headers[net::kSessionHeader] = std::to_string(entry.epoch);
    return request;
  };
  switch (entry.kind) {
    case SyncKind::ProfileDay: {
      const auto day = static_cast<std::int64_t>(entry.key);
      const MobilityProfile profile = profile_for(day);
      if (profile.empty())
        return DeliverOutcome::Delivered;  // refined away since enqueue
      net::HttpRequest request = entry_request(
          net::Method::Put, strfmt("/api/users/%u/profiles/%lld", *user_id_,
                                   static_cast<long long>(day)));
      request.body = to_json(profile);
      const std::uint64_t digest = fnv1a(request.body.dump());
      const DeliverOutcome outcome = verdict(client_->send(request));
      if (outcome == DeliverOutcome::Failed) return outcome;
      // Honor the wipe: content the cloud refused under its pre-wipe session
      // must not be re-uploaded under the fresh one, so a 410 pins the body
      // as synced too. Only a genuinely new refinement of the day syncs
      // again.
      synced_day_digest_[day] = digest;
      if (outcome == DeliverOutcome::Gone) return outcome;
      counter(kProfileSyncs, "mobility-profile days synced to the cloud").inc();
      return DeliverOutcome::Delivered;
    }
    case SyncKind::PlaceUpsert: {
      const auto uid = static_cast<PlaceUid>(entry.key);
      const PlaceRecord* record = place_store_.get(uid);
      if (record == nullptr)
        return DeliverOutcome::Delivered;  // forgotten since enqueue
      // The body never carries the locally cached location: the cloud
      // resolves coordinates from the signature in the body on every PUT,
      // so cloud state is a pure function of the record content — a
      // replayed upsert after an outage converges to the same bytes as the
      // never-failed run (DESIGN.md "Failure model & recovery").
      net::HttpRequest request = entry_request(
          net::Method::Put, strfmt("/api/users/%u/places/%llu", *user_id_,
                                   static_cast<unsigned long long>(uid)));
      request.body = upsert_body(*record);
      const std::uint64_t digest = fnv1a(request.body.dump());
      const net::HttpResponse response = client_->send(request);
      // An undecodable echo is a failed delivery: the outbox retries it.
      const auto echo = decode_ok(response, place_echo_from_json);
      const DeliverOutcome outcome = verdict(response);
      if (outcome == DeliverOutcome::Failed ||
          (outcome == DeliverOutcome::Delivered && !echo))
        return DeliverOutcome::Failed;
      // Same wipe-honoring pin as ProfileDay.
      synced_place_digest_[uid] = digest;
      if (outcome == DeliverOutcome::Gone) return outcome;
      // Cache the echoed resolution (geofencing and the map UI need
      // positions on-device) — from every echo, so the local view follows
      // the cloud's current resolution instead of pinning the first one.
      if (echo->location) {
        if (PlaceRecord* mut = place_store_.get_mutable(uid))
          mut->location = echo->location;
      }
      return DeliverOutcome::Delivered;
    }
    case SyncKind::PlaceDelete: {
      const auto uid = static_cast<PlaceUid>(entry.key);
      const net::HttpResponse response = client_->send(entry_request(
          net::Method::Delete,
          strfmt("/api/users/%u/places/%llu", *user_id_,
                 static_cast<unsigned long long>(uid))));
      // 404 means an earlier attempt (or never-synced place) already left
      // the cloud without it: done.
      if (response.status == net::kStatusNotFound)
        return DeliverOutcome::Delivered;
      return verdict(response);
    }
    case SyncKind::Route: {
      const auto index = static_cast<std::size_t>(entry.key);
      const auto& route_log = engine_.route_log();
      if (index >= route_log.size()) return DeliverOutcome::Delivered;
      const RouteEvent& event = route_log[index];
      const auto& canonical = engine_.routes().routes();
      if (event.route_uid >= canonical.size())
        return DeliverOutcome::Delivered;  // not canonical
      const algorithms::RouteObservation& rep =
          canonical[event.route_uid].representative;
      net::HttpRequest request = entry_request(
          net::Method::Post, strfmt("/api/users/%u/routes", *user_id_));
      // Replay guard: the cloud skips sequence numbers it already applied.
      // Qualified by the boot epoch the entry was enqueued under: a
      // checkpointed entry replayed after a crash keeps its original
      // sequence number (the cloud's high-water mark dedups a pre-crash
      // delivery), while the new incarnation's fresh log indices sit in a
      // strictly higher epoch and can never be wrongly deduplicated.
      request.body = to_json(RouteUpload{
          (entry.epoch << 32) | entry.key,
          {event.from, event.to, event.window, rep.gps, rep.cells}});
      return verdict(client_->send(request));
    }
    case SyncKind::EncounterBatch: {
      const auto& encounter_log = engine_.encounter_log();
      const std::size_t first = static_cast<std::size_t>(entry.key);
      const std::size_t last =
          std::min(static_cast<std::size_t>(entry.key2), encounter_log.size());
      if (first >= last) return DeliverOutcome::Delivered;
      net::HttpRequest request = entry_request(
          net::Method::Post, strfmt("/api/users/%u/contacts", *user_id_));
      // Replay guard: the cloud trims entries below its high-water mark.
      // Epoch-qualified like route sequence numbers; same-epoch ranges are
      // contiguous, so the cloud's trim arithmetic stays exact.
      EncounterBatch batch{(entry.epoch << 32) | entry.key, {}};
      for (std::size_t i = first; i < last; ++i)
        batch.encounters.push_back(to_entry(encounter_log[i]));
      request.body = to_json(batch);
      return verdict(client_->send(request));
    }
  }
  return DeliverOutcome::Delivered;
}

void PmwareMobileService::record_sync_failure(SyncKind kind, int status,
                                              SimTime now) {
  telemetry::registry()
      .counter(kSyncFailures,
               {{"instance", instance_}, {"kind", kind_name(kind)}},
               "sync sends that failed (parked in the outbox for replay)")
      .inc();
  // A 2xx here is a response the codec could not decode.
  telemetry::slog_warn("pms", now,
                       "%s sync failed (status %d%s); outbox holds %zu",
                       kind_name(kind), status,
                       status >= 200 && status < 300 ? ", malformed response"
                                                     : "",
                       outbox_.size());
}

std::vector<MobilityProfile> PmwareMobileService::day_profiles(
    std::int64_t first, std::int64_t last) const {
  std::vector<MobilityProfile> profiles;
  for (std::int64_t i = 0; i <= last - first; ++i) {
    MobilityProfile& profile = profiles.emplace_back();
    profile.user = user_id_.value_or(0);
    profile.day = first + i;
    profile.activity = engine_.activity_for(profile.day);
  }
  // One pass over each log, binning every entry into the days it touches:
  // visits clamp to the day and must meet the dwell minimum; routes and
  // encounters contribute their unclamped windows to every day they
  // overlap. Day windows are half-open, so an event's last touched day is
  // day_of(end - 1) — except zero-length windows, which overlaps() counts
  // on their single day.
  const auto touched_days = [&](const TimeWindow& w, const auto& per_day) {
    const std::int64_t to =
        std::min(last, day_of(std::max(w.end - 1, w.begin)));
    for (std::int64_t day = std::max(first, day_of(w.begin)); day <= to; ++day)
      per_day(profiles[static_cast<std::size_t>(day - first)],
              TimeWindow{start_of_day(day), start_of_day(day + 1)});
  };
  for (const auto& visit : engine_.visit_log()) {
    touched_days(visit.window, [&](MobilityProfile& p, const TimeWindow& dw) {
      if (visit.window.overlap_length(dw) < config_.inference.min_visit_dwell)
        return;
      p.places.push_back({visit.uid, std::max(visit.window.begin, dw.begin),
                          std::min(visit.window.end, dw.end)});
    });
  }
  for (const auto& route : engine_.route_log()) {
    touched_days(route.window, [&](MobilityProfile& p, const TimeWindow& dw) {
      if (!route.window.overlaps(dw)) return;
      p.routes.push_back({route.route_uid, route.window.begin,
                          route.window.end});
    });
  }
  for (const auto& enc : engine_.encounter_log()) {
    touched_days(enc.window, [&](MobilityProfile& p, const TimeWindow& dw) {
      if (!enc.window.overlaps(dw)) return;
      p.encounters.push_back(to_entry(enc));
    });
  }
  return profiles;
}

MobilityProfile PmwareMobileService::profile_for(std::int64_t day) const {
  return std::move(day_profiles(day, day).front());
}

bool PmwareMobileService::tag_place(PlaceUid uid, const std::string& label,
                                    SimTime now) {
  if (!place_store_.set_label(uid, label)) return false;
  if (client_ != nullptr && user_id_) {
    net::HttpRequest request = make_request(
        net::Method::Post,
        strfmt("/api/users/%u/places/%llu/label", *user_id_,
               static_cast<unsigned long long>(uid)),
        now);
    request.body = Json::object();
    request.body.set("label", label);
    const net::HttpResponse response = client_->send(request);
    if (!response.ok()) {
      // No outbox entry needed: the label rides the place record, whose
      // digest just changed — the next housekeeping tick re-upserts it.
      telemetry::registry()
          .counter(kSyncFailures,
                   {{"instance", instance_}, {"kind", kKindLabel}},
                   "sync sends that failed (parked in the outbox for replay)")
          .inc();
      telemetry::slog_warn("pms", now, "label sync for place %llu failed (%d)",
                           static_cast<unsigned long long>(uid),
                           response.status);
    }
  }
  return true;
}

bool PmwareMobileService::forget_place(PlaceUid uid, SimTime now) {
  if (place_store_.get(uid) == nullptr) return false;
  place_store_.erase(uid);
  engine_.forget_place(uid);
  // A queued upsert must not resurrect the place on replay, and the stale
  // digest must not suppress a future re-discovery's upsert.
  outbox_.remove(SyncKind::PlaceUpsert, static_cast<std::uint64_t>(uid));
  synced_place_digest_.erase(uid);
  if (client_ != nullptr && user_id_) {
    const net::HttpResponse response = client_->send(make_request(
        net::Method::Delete,
        strfmt("/api/users/%u/places/%llu", *user_id_,
               static_cast<unsigned long long>(uid)),
        now));
    // 410 Gone (wiped user) is permanent: queueing a retry would just be
    // dropped again at drain time.
    if (!response.ok() && response.status != net::kStatusNotFound &&
        response.status != net::kStatusGone) {
      record_sync_failure(SyncKind::PlaceDelete, response.status, now);
      enqueue(SyncKind::PlaceDelete, static_cast<std::uint64_t>(uid), 0, now);
    }
  }
  return true;
}

bool PmwareMobileService::wipe_cloud_data(SimTime now) {
  if (client_ == nullptr || !user_id_) return false;
  const net::HttpResponse response = client_->send(
      make_request(net::Method::Delete, strfmt("/api/users/%u", *user_id_), now));
  if (!response.ok()) {
    telemetry::registry()
        .counter(kSyncFailures, {{"instance", instance_}, {"kind", kKindWipe}},
                 "sync sends that failed (parked in the outbox for replay)")
        .inc();
    telemetry::slog_warn("pms", now, "cloud wipe failed (%d)", response.status);
  }
  return response.ok();
}

void PmwareMobileService::save(std::ostream& out) const {
  // Suffix-upload state (digest_fed .. upload_digest): the cloud retained
  // this device's GSM stream, so the restored incarnation can keep shipping
  // suffixes. If the cloud saw more than the checkpoint remembers (a
  // pre-crash offload), the prefix claim fails, the next pass answers 409,
  // and a full upload re-syncs — self-healing, never silently wrong.
  const Json scalars = Json::Object{
      {"registration_wanted", registration_wanted_},
      {"next_uid", place_store_.next_uid()},
      {"routes_enqueued", static_cast<std::uint64_t>(routes_enqueued_)},
      {"encounters_enqueued", static_cast<std::uint64_t>(encounters_enqueued_)},
      {"digest_fed", static_cast<std::uint64_t>(digest_fed_)},
      {"digest", hex64(digest_)},
      {"upload_acked", static_cast<std::uint64_t>(upload_acked_)},
      {"upload_digest", hex64(upload_digest_)}};
  Json caps = Json::array();
  for (const auto& [app, cap] : preferences_.caps())
    caps.push_back(Json::Object{{"app", app},
                                {"cap", static_cast<std::int64_t>(cap)}});
  const Json preferences = Json::Object{
      {"sharing_enabled", preferences_.sharing_enabled()}, {"caps", caps}};
  Json state = Json::Object{{"scalars", scalars}, {"preferences", preferences}};
  state.set("gsm_log", observation_runs_to_json(engine_.gsm_log()));
  state.set("visit_log", array_of(engine_.visit_log()));
  state.set("places", array_of(place_store_.records(), [](const auto& kv) {
              return to_json(kv.second);
            }));
  // Day profiles are not checkpointed: they are derived from the logs
  // (profile_for).
  state.set("route_log", array_of(engine_.route_log()));
  state.set("route_store", array_of(engine_.routes().routes()));
  state.set("encounters",
            array_of(engine_.encounter_log(), [](const EncounterEvent& e) {
              return to_json(to_entry(e));
            }));
  state.set("activity", array_of(engine_.activity_log(), [](const auto& kv) {
              Json j = to_json(kv.second);
              j.set("day", kv.first);
              return j;
            }));
  state.set("outbox", outbox_.save());
  state.set("synced_days", array_of(synced_day_digest_, [](const auto& kv) {
              return Json(Json::Object{{"day", kv.first},
                                       {"digest", hex64(kv.second)}});
            }));
  state.set("synced_places", array_of(synced_place_digest_, [](const auto& kv) {
              return Json(Json::Object{{"uid", kv.first},
                                       {"digest", hex64(kv.second)}});
            }));
  const std::string body = state.dump();
  const std::string head = Json(Json::Object{{"format", kCheckpointFormat},
                                             {"version", kCheckpointVersion},
                                             {"digest", hex64(fnv1a(body))}})
                               .dump();
  out << head << '\n' << body << '\n';
  telemetry::registry()
      .histogram(kCheckpointBytes, {}, 0, 1 << 20, 64,
                 "serialized PMS checkpoint size in bytes")
      .observe(static_cast<double>(head.size() + body.size() + 2));
}

bool PmwareMobileService::restore(std::istream& in) {
  const auto wall_start = std::chrono::steady_clock::now();
  // save() ends the body with a newline. getline() would accept a body
  // whose final '\n' was torn off (the bytes are identical), so the missing
  // delimiter itself — eofbit raised mid-line — is the truncation signal.
  std::string head;
  std::string text;
  if (!std::getline(in, head) || !std::getline(in, text) || in.eof())
    return false;

  // Decode everything into temporaries; nothing below commits until all of
  // it decoded.
  InferenceEngine::LogSnapshot snapshot;
  std::vector<PlaceRecord> places;
  struct {
    bool registration_wanted = false;
    PlaceUid next_uid = 1;
    std::size_t routes_enqueued = 0;
    std::size_t encounters_enqueued = 0;
    std::size_t digest_fed = 0;
    std::uint64_t digest = kDigestBasis;
    std::size_t upload_acked = 0;
    std::uint64_t upload_digest = kDigestBasis;
  } scalars;
  bool sharing = true;
  std::vector<std::pair<std::string, Granularity>> caps;
  SyncOutbox staged_outbox(config_.outbox);
  SyncOutbox::LoadResult outbox_result;
  std::map<std::int64_t, std::uint64_t> synced_days;
  std::map<PlaceUid, std::uint64_t> synced_places;
  try {
    // A torn or bit-flipped checkpoint fails the digest before the body is
    // even parsed.
    const Json manifest = Json::parse(head);
    if (manifest.get_string("format", "") != kCheckpointFormat ||
        manifest.get_int("version", 0) != kCheckpointVersion ||
        hex64_from_json(manifest.at("digest")) != fnv1a(text))
      return false;
    const Json body = Json::parse(text);

    const Json& s = body.at("scalars");
    const auto count = [&s](const char* key, std::int64_t fallback) {
      const std::int64_t n = s.get_int(key, fallback);
      if (n < 0) throw JsonError(std::string("negative ") + key);
      return static_cast<std::size_t>(n);
    };
    scalars = {.registration_wanted = s.get_bool("registration_wanted", false),
               .next_uid = count("next_uid", 1),
               .routes_enqueued = count("routes_enqueued", 0),
               .encounters_enqueued = count("encounters_enqueued", 0),
               .digest_fed = count("digest_fed", 0),
               .digest = hex64_from_json(s.at("digest")),
               .upload_acked = count("upload_acked", 0),
               .upload_digest = hex64_from_json(s.at("upload_digest"))};
    const Json& prefs = body.at("preferences");
    sharing = prefs.get_bool("sharing_enabled", true);
    for (const auto& c : prefs.at("caps").as_array()) {
      const std::int64_t cap = c.at("cap").as_int();
      if (cap < static_cast<std::int64_t>(Granularity::Area) ||
          cap > static_cast<std::int64_t>(Granularity::Room))
        return false;
      caps.emplace_back(c.at("app").as_string(), static_cast<Granularity>(cap));
    }

    snapshot.gsm_log = observation_runs_from_json(body.at("gsm_log"));
    snapshot.visit_log =
        array_at<LoggedVisit>(body, "visit_log", logged_visit_from_json);
    places = array_at<PlaceRecord>(body, "places", place_record_from_json);
    snapshot.route_log =
        array_at<RouteEvent>(body, "route_log", route_event_from_json);
    snapshot.routes = array_at<algorithms::CanonicalRoute>(
        body, "route_store", canonical_route_from_json);
    for (const auto& e : body.at("encounters").as_array()) {
      const EncounterEntry entry = encounter_from_json(e);
      snapshot.encounter_log.push_back(
          {entry.contact, entry.place, TimeWindow{entry.start, entry.end}});
    }
    for (const auto& j : body.at("activity").as_array())
      snapshot.activity_by_day[j.at("day").as_int()] = activity_from_json(j);
    outbox_result = staged_outbox.load(body.at("outbox"));
    for (const auto& j : body.at("synced_days").as_array())
      synced_days[j.at("day").as_int()] = hex64_from_json(j.at("digest"));
    for (const auto& j : body.at("synced_places").as_array())
      synced_places[static_cast<PlaceUid>(j.at("uid").as_int())] =
          hex64_from_json(j.at("digest"));
  } catch (const JsonError&) {
    return false;
  }

  // Commit. Credentials are deliberately NOT restored: the caller must
  // re-register, which also assigns this incarnation a fresh boot epoch —
  // restored outbox entries keep the epoch they were enqueued under.
  engine_.restore_logs(std::move(snapshot));
  place_store_.restore(std::move(places), scalars.next_uid);
  preferences_.set_sharing_enabled(sharing);
  for (const auto& [app, cap] : caps) preferences_.set_app_cap(app, cap);
  outbox_ = std::move(staged_outbox);
  // Restored entries re-enter this incarnation's books so the study-level
  // balance (enqueued = delivered + evicted + dropped + pending) holds.
  if (outbox_result.loaded > 0)
    outbox_enqueued_counter_->get().inc(outbox_result.loaded);
  if (outbox_result.evicted > 0)
    outbox_evicted_counter_->get().inc(outbox_result.evicted);
  registration_wanted_ = scalars.registration_wanted;
  user_id_.reset();
  token_expires_ = 0;
  boot_epoch_ = 0;
  routes_enqueued_ = scalars.routes_enqueued;
  encounters_enqueued_ = scalars.encounters_enqueued;
  digest_fed_ = scalars.digest_fed;
  digest_ = scalars.digest;
  upload_acked_ = scalars.upload_acked;
  upload_digest_ = scalars.upload_digest;
  synced_day_digest_ = std::move(synced_days);
  synced_place_digest_ = std::move(synced_places);

  telemetry::registry()
      .counter(kRestarts, {{"instance", instance_}, {"mode", "warm"}},
               "PMS reboots by recovery mode (warm = from checkpoint, cold = "
               "rebuilt from cloud)")
      .inc();
  const double wall_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  telemetry::registry()
      .histogram(kRestoreWall, {}, 0, 100000, 64,
                 "checkpoint restore wall time in microseconds")
      .observe(wall_us);
  return true;
}

bool PmwareMobileService::cold_restart(SimTime now) {
  if (client_ == nullptr) return false;
  if (!register_with_cloud(now)) return false;
  const net::HttpResponse response = client_->send(make_request(
      net::Method::Get, strfmt("/api/users/%u/places", *user_id_), now));
  if (auto records = decode_ok(response, place_listing_from_json)) {
    // These records ARE the cloud's current content: seed the sync marks so
    // re-upserting them verbatim is skipped, and restore with uid
    // continuity so re-discovered signatures converge on their old uids.
    for (const auto& record : *records)
      synced_place_digest_[record.uid] = fnv1a(upsert_body(record).dump());
    place_store_.restore(*std::move(records), 1);
  } else {
    // The cloud's uid range is unknown (outage mid-recovery, or a listing
    // that does not decode): park this incarnation's discoveries in a
    // per-epoch uid namespace so they can never overwrite the cloud's
    // retained records.
    place_store_.restore(
        {}, std::max<PlaceUid>(1, static_cast<PlaceUid>(boot_epoch_) << 20));
  }
  // Profile days stay cloud-side: local logs are empty and empty days are
  // never re-uploaded, so the cloud's retained profiles survive untouched.
  // Count how many it kept for us.
  std::size_t recovered = 0;
  for (std::int64_t day = 0; day < day_of(now); ++day) {
    if (client_
            ->send(make_request(
                net::Method::Get,
                strfmt("/api/users/%u/profiles/%lld", *user_id_,
                       static_cast<long long>(day)),
                now))
            .ok())
      ++recovered;
  }
  if (recovered > 0)
    counter(kColdProfileDays,
            "profile days found retained on the cloud during cold restarts")
        .inc(recovered);
  telemetry::registry()
      .counter(kRestarts, {{"instance", instance_}, {"mode", "cold"}},
               "PMS reboots by recovery mode (warm = from checkpoint, cold = "
               "rebuilt from cloud)")
      .inc();
  return true;
}

std::size_t PmwareMobileService::discard_pending() {
  const std::size_t dropped = outbox_.size();
  if (dropped > 0)
    counter(kOutboxDropped,
            "outbox entries discarded (crash/wipe teardown, tombstoned user)")
        .inc(dropped);
  return dropped;
}

void PmwareMobileService::shutdown(SimTime now) {
  engine_.flush(now);
  housekeeping(now);
  if (client_ != nullptr && user_id_) {
    // The final day may be partial (housekeeping above only covered
    // completed days); queue it plus anything still parked, and drain.
    enqueue_sync_work(day_of(now), now);
    drain_outbox(now);
  }
}

}  // namespace pmware::core
