// Inference Engine (paper §2.2.2): the single sensing pipeline shared by all
// connected applications.
//
// Triggered / opportunistic sensing policy:
//  * GSM is sampled continuously (every minute) — it is nearly free because
//    the modem is connected anyway.
//  * The accelerometer runs at low rate whenever any app needs
//    building/room-level places or route tracking; its still/moving
//    transitions *trigger* the expensive interfaces.
//  * WiFi scans fire as a short burst after the user settles at a place, at
//    a modest period while moving (to catch departures), continuously only
//    for room-level requests, and opportunistically when the radio happens
//    to be on for data anyway.
//  * GPS runs only while moving and only for high-accuracy route tracking
//    (or room-level requests), never while still.
//
// Place identity is hybrid: GCA clusters of cell ids give area/building
// level places; WiFi fingerprints refine them where coverage exists. The
// engine emits Enter/Exit/NewPlace events, captures routes between stays,
// and detects social encounters via Bluetooth.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "algorithms/gca.hpp"
#include "algorithms/routes.hpp"
#include "algorithms/sensloc.hpp"
#include "core/connected_apps.hpp"
#include "core/events.hpp"
#include "core/place_store.hpp"
#include "sensing/device.hpp"
#include "sensing/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace pmware::core {

struct InferenceConfig {
  /// Master WiFi switch: false yields the GSM-only configuration used as
  /// the ablation baseline in experiment A2.
  bool wifi_enabled = true;
  SimDuration gsm_period = minutes(1);
  SimDuration accel_period = minutes(1);
  /// Continuous WiFi period for room-level requests.
  SimDuration wifi_room_period = minutes(2);
  /// WiFi period while the user is moving (departure detection) at
  /// building level.
  SimDuration wifi_moving_period = minutes(3);
  /// Settle burst after a moving->still transition: `wifi_burst_count`
  /// scans `wifi_burst_gap` apart.
  int wifi_burst_count = 5;
  SimDuration wifi_burst_gap = minutes(1);
  /// Opportunistic scans (paper: "WiFi scans are energy-efficient if WiFi is
  /// already on for data transfers"): at most one per this period, and only
  /// when the radio happens to be on.
  SimDuration wifi_opportunistic_period = minutes(10);
  double wifi_on_fraction = 0.35;
  /// GPS period while moving in high-accuracy route mode.
  SimDuration gps_route_period = seconds(30);
  /// Bluetooth period while social scanning is active.
  SimDuration bluetooth_period = minutes(5);
  /// Consecutive accel samples agreeing before a state transition commits.
  int activity_debounce = 2;
  /// Bluetooth misses before an encounter closes.
  int encounter_miss_limit = 2;
  /// Visits shorter than this never reach profiles or apps' visit history.
  SimDuration min_visit_dwell = minutes(10);
  /// GSM-visit fragments left over after WiFi stays are carved out must be
  /// at least this long to survive; shorter remnants are boundary noise
  /// (e.g. the few minutes between WiFi departure and cell-cluster exit).
  SimDuration gsm_fragment_min_dwell = minutes(45);
  algorithms::GcaConfig gca;
  algorithms::SensLocConfig sensloc;
};

/// Visit entry in the engine's authoritative log (rebuilt at recluster).
struct LoggedVisit {
  PlaceUid uid = kNoPlaceUid;
  TimeWindow window;
};

/// The engine's append-only logs, parameterized on the per-worker-slot
/// arena so the streaming study runner recycles one warm allocation
/// footprint per slot. With a null arena (the default everywhere else)
/// these behave exactly like plain vectors.
using ObsLog = std::vector<algorithms::CellObservation,
                           util::ArenaAllocator<algorithms::CellObservation>>;
using VisitLog = std::vector<LoggedVisit, util::ArenaAllocator<LoggedVisit>>;

class InferenceEngine {
 public:
  using PlaceEventSink = std::function<void(const PlaceEvent&)>;
  using RouteEventSink = std::function<void(const RouteEvent&)>;
  using EncounterSink = std::function<void(const EncounterEvent&)>;
  /// Offloadable GCA: by default runs locally; the PMS swaps in a REST call
  /// to the cloud instance (paper §2.3.1).
  using GcaRunner = std::function<algorithms::GcaResult(
      std::span<const algorithms::CellObservation>)>;
  /// Supplies positions of other participants for Bluetooth discovery.
  using PeerProvider = std::function<
      std::vector<std::pair<world::DeviceId, geo::LatLng>>(SimTime)>;

  /// `arena` (optional) backs the append-only GSM/visit logs; it must
  /// outlive the engine and is reset by the streaming runner only after
  /// the engine is destroyed.
  InferenceEngine(sensing::Device* device, sensing::SamplingScheduler* scheduler,
                  PlaceStore* store, const ConnectedAppsModule* apps,
                  InferenceConfig config, Rng rng,
                  util::Arena* arena = nullptr);

  /// Wires the scheduler callbacks and arms the baseline GSM sampling.
  /// Call once before the scheduler runs.
  void attach();

  void set_place_event_sink(PlaceEventSink sink) { place_sink_ = std::move(sink); }
  void set_route_event_sink(RouteEventSink sink) { route_sink_ = std::move(sink); }
  void set_encounter_sink(EncounterSink sink) { encounter_sink_ = std::move(sink); }
  void set_gca_runner(GcaRunner runner) { gca_runner_ = std::move(runner); }
  void set_peer_provider(PeerProvider provider) { peers_ = std::move(provider); }

  /// Day-boundary housekeeping: recluster the full GSM log (locally or via
  /// the offload runner), re-intern GSM places, rebuild the authoritative
  /// visit log, and re-arm the online tracker. Emits NewPlace events for
  /// places discovered this pass. Returns the number of new places.
  std::size_t recluster(SimTime now);

  /// One GCA pass on the device through the engine's incremental state:
  /// recluster's default when no runner is set, and the PMS's fallback
  /// when an offload fails. `observations` must extend the log of the
  /// previous pass (GcaState::run's contract; anything else rebuilds).
  algorithms::GcaResult cluster_locally(
      std::span<const algorithms::CellObservation> observations) {
    return gca_state_.run(observations);
  }

  /// Authoritative visit log (GSM visits refined by WiFi), filtered to
  /// min_visit_dwell. Valid after recluster().
  const VisitLog& visit_log() const { return visit_log_; }

  /// Completed routes (between consecutive stays).
  const std::vector<RouteEvent>& route_log() const { return route_log_; }
  const algorithms::RouteStore& routes() const { return route_store_; }

  /// Completed social encounters.
  const std::vector<EncounterEvent>& encounter_log() const {
    return encounter_log_;
  }

  /// Raw GSM observation log (what gets offloaded).
  const ObsLog& gsm_log() const { return gsm_log_; }

  /// Area-level identity of a place: its covering GSM cluster if known.
  PlaceUid area_of(PlaceUid uid) const;

  /// Accumulated physical activity for `day`, from the accelerometer stream
  /// (zero summary when the accelerometer never ran that day).
  ActivitySummary activity_for(std::int64_t day) const;

  /// Every day's activity summary (checkpointing).
  const std::map<std::int64_t, ActivitySummary>& activity_log() const {
    return activity_by_day_;
  }

  std::optional<PlaceUid> current_place() const { return emitted_uid_; }

  /// End-of-study shutdown: flushes the open WiFi visit and the open stay so
  /// the final visit reaches the log. Call once, after the last run window
  /// and before the final recluster().
  void flush(SimTime t);

  /// Privacy: drops every trace of `uid` from the visit log and identity
  /// maps. The place will be re-discovered (under a new uid) if the user
  /// keeps visiting it.
  void forget_place(PlaceUid uid);

  /// The checkpointable data products of the engine (Pms::save/restore).
  /// Everything else — online trackers, WiFi fingerprints, identity maps,
  /// GCA state — is transient and rebuilds deterministically from these at
  /// the next recluster pass.
  struct LogSnapshot {
    std::vector<algorithms::CellObservation> gsm_log;
    std::vector<LoggedVisit> visit_log;
    std::vector<RouteEvent> route_log;
    std::vector<algorithms::CanonicalRoute> routes;
    std::vector<EncounterEvent> encounter_log;
    std::map<std::int64_t, ActivitySummary> activity_by_day;
  };

  /// Replaces the engine's logs with a checkpoint's and resets all transient
  /// state (trackers, open encounters, pending route, current-place latch) —
  /// a freshly rebooted device knows its history but not where it is until
  /// sensing resumes. Call before attach()/run.
  void restore_logs(LogSnapshot snapshot);

 private:
  // Sensor callbacks.
  void on_gsm(SimTime t);
  void on_wifi(SimTime t);
  void on_gps(SimTime t);
  void on_accel(SimTime t);
  void on_bluetooth(SimTime t);

  /// Batch-dispatch adapter: runs `handler` per sample and truncates the
  /// run as soon as the handler changed the sampling schedule (observed via
  /// the scheduler's change epoch), returning the consumed count.
  std::size_t consume_run(std::span<const SimTime> run,
                          void (InferenceEngine::*handler)(SimTime));

  /// Re-evaluates aggregated app requirements and adjusts periods.
  void refresh_policy(SimTime t);
  /// Recomputes current place after any tracker update and emits events.
  void resolve_place(SimTime t);
  void emit(const PlaceEvent& event);
  void finalize_route(PlaceUid to, SimTime t);
  void handle_wifi_events(
      const std::vector<algorithms::WifiPlaceDetector::Event>& events);

  sensing::Device* device_;
  sensing::SamplingScheduler* scheduler_;
  PlaceStore* store_;
  const ConnectedAppsModule* apps_;
  InferenceConfig config_;
  Rng rng_;

  PlaceEventSink place_sink_;
  RouteEventSink route_sink_;
  EncounterSink encounter_sink_;
  GcaRunner gca_runner_;
  PeerProvider peers_;

  // --- GSM / GCA state ---
  ObsLog gsm_log_;
  /// Persistent incremental clustering state for every pass clustered on
  /// the device (cluster_locally); gsm_log_ is append-only, which is
  /// exactly the contract GcaState::run needs.
  algorithms::GcaState gca_state_;
  std::optional<algorithms::CellVisitTracker> cell_tracker_;
  std::map<std::size_t, PlaceUid> cluster_to_uid_;  ///< cluster idx -> uid
  std::optional<PlaceUid> gsm_uid_;

  // --- hot-loop scratch & pre-resolved telemetry handles ---
  sensing::GsmReading gsm_scratch_;
  sensing::WifiScan wifi_scratch_;
  telemetry::CounterHandle events_enter_;
  telemetry::CounterHandle events_exit_;
  telemetry::CounterHandle events_new_place_;

  // --- WiFi state ---
  algorithms::WifiPlaceDetector wifi_detector_;
  std::map<std::size_t, PlaceUid> wifi_to_uid_;  ///< detector idx -> uid
  std::optional<PlaceUid> wifi_uid_;
  SimTime last_wifi_scan_ = -1;
  SimTime last_opportunistic_ = -1;

  // --- activity state ---
  mobility::Activity activity_ = mobility::Activity::Still;
  mobility::Activity candidate_activity_ = mobility::Activity::Still;
  int candidate_streak_ = 0;
  SimTime last_accel_t_ = -1;
  std::map<std::int64_t, ActivitySummary> activity_by_day_;

  // --- emitted place / visit log ---
  std::optional<PlaceUid> emitted_uid_;
  SimTime emitted_since_ = 0;
  VisitLog visit_log_;

  // --- route capture ---
  struct PendingRoute {
    PlaceUid from = kNoPlaceUid;
    SimTime start = 0;
    algorithms::CellRoute cells;
    algorithms::GpsRoute gps;
    bool high_accuracy = false;
  };
  std::optional<PendingRoute> pending_route_;
  algorithms::RouteStore route_store_;
  std::vector<RouteEvent> route_log_;

  // --- social state ---
  struct OpenEncounter {
    SimTime start = 0;
    SimTime last_seen = 0;
    int misses = 0;
  };
  std::map<world::DeviceId, OpenEncounter> open_encounters_;
  std::vector<EncounterEvent> encounter_log_;

  /// WiFi visits associated with GSM clusters: wifi uid -> area uid.
  std::map<PlaceUid, PlaceUid> wifi_area_;
};

}  // namespace pmware::core
