// GCA: GSM-based place discovery by clustering Cell IDs (paper §2.2.2,
// algorithm from the authors' PlaceMap work [26]).
//
// A phone's serving cell changes even while the user is stationary — network
// load, signal fading, and 2G/3G handoff cause the "oscillating effect".
// GCA models it with an undirected weighted *movement graph*: nodes are cell
// ids, an edge counts how often the serving cell flipped directly between
// two cells. While dwelling at a place the same few cells flip back and
// forth many times (heavy edges); while travelling each transition happens
// once or twice (light edges). Clustering keeps only strong edges, and each
// resulting component of cells is a place signature.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/signature.hpp"
#include "telemetry/metrics.hpp"
#include "util/simtime.hpp"
#include "world/ids.hpp"

namespace pmware::algorithms {

struct GcaConfig {
  /// Readings farther apart than this are not treated as adjacent (sensing
  /// gaps, device off).
  SimDuration max_transition_gap = minutes(4);
  /// An edge joins a cluster only after at least this many *oscillation
  /// events*: A->B immediately followed by B->A within oscillation_window.
  /// Raw transition counts cannot be used — a daily commute repeats the same
  /// A->B->C chain every day and would weld travel chains into the home and
  /// work clusters; only a bounce back-and-forth is evidence of stationary
  /// oscillation.
  int min_edge_weight = 3;
  /// Maximum delay for the return transition of an oscillation event.
  SimDuration oscillation_window = minutes(10);
  /// Cells dwelt on for at least this long can seed a single-cell cluster
  /// even without strong edges (quiet areas with one dominant tower).
  SimDuration min_single_cell_dwell = hours(1);
  /// Minimum accumulated dwell for a cluster to become a place.
  SimDuration min_cluster_dwell = minutes(20);
  /// Minimum stay for a visit to be reported (prior work: 10 min).
  SimDuration min_visit_dwell = minutes(10);
  /// A visit survives excursions/no-cluster gaps up to this long.
  SimDuration visit_gap_tolerance = minutes(6);
};

/// One timestamped serving-cell observation.
struct CellObservation {
  SimTime t = 0;
  world::CellId cell;
};

/// The undirected weighted movement graph.
class MovementGraph {
 public:
  /// Feeds the next observations (must be time-ordered; throws
  /// std::invalid_argument otherwise). Uses `config.max_transition_gap` and
  /// `config.oscillation_window`. Works one serving-cell run at a time: only
  /// a run's first reading can be a transition, so the rest of the run adds
  /// its short gaps to the cell's dwell in one step and a long gap breaks
  /// the bounce chain.
  void feed(std::span<const CellObservation> observations,
            const GcaConfig& config);
  /// Feeds one observation (a run of length one).
  void observe(const CellObservation& obs, const GcaConfig& config) {
    feed({&obs, 1}, config);
  }

  const std::map<world::CellId, SimDuration>& dwell() const { return dwell_; }
  /// Raw transition counts per unordered cell pair.
  const std::map<std::pair<world::CellId, world::CellId>, int>& edges() const {
    return edges_;
  }
  /// Oscillation-event counts per unordered cell pair (A->B->A bounces).
  const std::map<std::pair<world::CellId, world::CellId>, int>& oscillations()
      const {
    return oscillations_;
  }
  /// Total transitions touching `cell` (its weighted degree).
  int transitions(const world::CellId& cell) const;
  std::size_t node_count() const { return dwell_.size(); }

 private:
  struct Transition {
    world::CellId from;
    world::CellId to;
    SimTime t = 0;
  };

  void feed_run(std::span<const CellObservation> run, const GcaConfig& config);

  std::optional<CellObservation> last_;
  std::optional<Transition> last_transition_;
  std::map<world::CellId, SimDuration> dwell_;
  std::map<std::pair<world::CellId, world::CellId>, int> edges_;
  std::map<std::pair<world::CellId, world::CellId>, int> oscillations_;
  std::map<world::CellId, int> transitions_;
};

/// A cluster of oscillating cells = one discovered place.
struct CellCluster {
  CellSignature signature;
  SimDuration total_dwell = 0;
};

/// A stay at a discovered place, as reconstructed from the cell stream.
struct DiscoveredVisit {
  std::size_t place_index = 0;  ///< index into GcaResult::places
  TimeWindow window;
};

struct GcaResult {
  std::vector<CellCluster> places;
  std::vector<DiscoveredVisit> visits;
  /// Mapping from each clustered cell to its place index.
  std::map<world::CellId, std::size_t> cell_to_place;
};

/// Batch GCA over a time-ordered observation log. This is the computation
/// the mobile service offloads to the cloud instance (paper §2.3.1).
GcaResult run_gca(std::span<const CellObservation> observations,
                  const GcaConfig& config = {});

/// Incremental visit tracker: once signatures exist (e.g. from an offloaded
/// GCA run), the mobile service tracks arrivals/departures online without
/// re-clustering (paper §2.3.1: "after discovery of place signatures, mobile
/// service can track user's visit in those places").
class CellVisitTracker {
 public:
  CellVisitTracker(std::map<world::CellId, std::size_t> cell_to_place,
                   const GcaConfig& config = {});

  struct Event {
    enum class Kind { Arrival, Departure } kind;
    std::size_t place_index;
    SimTime t;
  };

  /// Feeds one observation; returns zero or more arrival/departure events.
  std::vector<Event> observe(const CellObservation& obs);

  /// Feeds time-ordered observations and appends their events to `out`,
  /// exactly as observe() on each in turn would. The cluster is constant
  /// within a serving-cell run, so a run costs at most three steps: its
  /// first reading, the first reading past `visit_gap_tolerance` when the
  /// run leaves the current visit, and its last reading.
  void feed(std::span<const CellObservation> observations,
            std::vector<Event>& out);

  /// Flushes any open visit at end of stream.
  std::vector<Event> finish(SimTime t);

  /// The departure finish(t) would emit, leaving the visit open.
  std::optional<Event> pending_departure(SimTime t) const;

  /// Place currently occupied, if any.
  std::optional<std::size_t> current_place() const { return current_; }

  const std::map<world::CellId, std::size_t>& cell_to_place() const {
    return cell_to_place_;
  }

 private:
  void feed_run(std::span<const CellObservation> run, std::vector<Event>& out);
  /// The one state transition: a reading at `t` whose cell belongs to
  /// `cluster` (nullopt: no place).
  void step(SimTime t, std::optional<std::size_t> cluster,
            std::vector<Event>& out);

  std::map<world::CellId, std::size_t> cell_to_place_;
  GcaConfig config_;
  std::optional<std::size_t> current_;
  SimTime start_ = 0;
  SimTime last_in_ = 0;
  bool announced_ = false;
};

/// Incremental GCA: persistent clustering state across recluster passes.
///
/// The engine's GSM log is append-only, so each pass only needs to feed the
/// *new suffix* into the movement graph instead of replaying the whole
/// history (the graph is an online structure already). Clustering the graph
/// is cheap — it is bounded by the number of distinct cells, not by trace
/// length. Visit reconstruction is also continued incrementally when the
/// cell→place mapping is unchanged since the last pass; when clustering
/// shifts the mapping (new place discovered, clusters merged) the tracker
/// falls back to an exact full replay, so every pass returns byte-identical
/// results to a from-scratch run_gca() over the same log. Both the feed and
/// the replay cost O(serving-cell runs) in map work, not O(observations).
///
/// Not thread-safe; each owner (inference engine, per-user cloud state)
/// keeps its own instance.
class GcaState {
 public:
  explicit GcaState(GcaConfig config = {});

  /// Reclusters over `observations`, which must extend the log seen by the
  /// previous run() call (append-only). A shrunk or rewritten log is
  /// detected and triggers an exact full rebuild.
  GcaResult run(std::span<const CellObservation> observations);

  std::size_t passes() const { return passes_; }
  /// Passes that reused graph + visit state (no full replay).
  std::size_t incremental_passes() const { return incremental_passes_; }
  bool last_pass_incremental() const { return last_incremental_; }

 private:
  void reset_state();

  GcaConfig config_;
  MovementGraph graph_;
  std::size_t fed_ = 0;      ///< observations already in the graph
  SimTime last_fed_t_ = 0;   ///< timestamp of the last fed observation
  /// Replays the log against the previous pass's cell→place mapping; it
  /// continues incrementally only while that mapping is unchanged.
  std::optional<CellVisitTracker> tracker_;
  /// Arrival/departure events accumulated by the persistent tracker.
  std::vector<CellVisitTracker::Event> events_;
  std::size_t passes_ = 0;
  std::size_t incremental_passes_ = 0;
  bool last_incremental_ = false;
  telemetry::CounterHandle incremental_total_{
      "core_recluster_incremental_total", {},
      "recluster passes that reused graph and visit state"};
};

}  // namespace pmware::algorithms
