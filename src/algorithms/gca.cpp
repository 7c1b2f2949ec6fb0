#include "algorithms/gca.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pmware::algorithms {

namespace {

/// Calls `fn` on each maximal stretch of consecutive readings of one cell.
template <typename Fn>
void for_each_run(std::span<const CellObservation> observations, Fn&& fn) {
  for (auto it = observations.begin(); it != observations.end();) {
    const auto end = std::find_if(
        it + 1, observations.end(),
        [&](const CellObservation& o) { return o.cell != it->cell; });
    fn(std::span<const CellObservation>(it, end));
    it = end;
  }
}

}  // namespace

void MovementGraph::feed(std::span<const CellObservation> observations,
                         const GcaConfig& config) {
  for_each_run(observations, [&](std::span<const CellObservation> run) {
    feed_run(run, config);
  });
}

void MovementGraph::feed_run(std::span<const CellObservation> run,
                             const GcaConfig& config) {
  const CellObservation& obs = run.front();
  if (last_ && obs.t < last_->t)
    throw std::invalid_argument("MovementGraph: observations out of order");
  // The rest of the run never changes cell: each short gap is dwell on it,
  // and a long one only breaks the bounce chain.
  SimDuration run_dwell = 0;
  bool run_gap = false;
  for (std::size_t i = 1; i < run.size(); ++i) {
    const SimDuration dt = run[i].t - run[i - 1].t;
    if (dt < 0)
      throw std::invalid_argument("MovementGraph: observations out of order");
    if (dt <= config.max_transition_gap)
      run_dwell += dt;
    else
      run_gap = true;
  }

  if (last_) {
    const SimDuration dt = obs.t - last_->t;
    if (dt <= config.max_transition_gap) {
      // Dwell accrues to the cell we were on during [last_.t, obs.t).
      dwell_[last_->cell] += dt;
      if (last_->cell != obs.cell) {
        // Note: value pair, not std::minmax (which returns dangling-prone
        // reference pairs).
        const std::pair<world::CellId, world::CellId> key =
            last_->cell < obs.cell ? std::pair{last_->cell, obs.cell}
                                   : std::pair{obs.cell, last_->cell};
        ++edges_[key];
        ++transitions_[last_->cell];
        ++transitions_[obs.cell];

        // Oscillation event: this transition bounces straight back along
        // the previous one (A->B then B->A within the window).
        if (last_transition_ && last_transition_->from == obs.cell &&
            last_transition_->to == last_->cell &&
            obs.t - last_transition_->t <= config.oscillation_window) {
          ++oscillations_[key];
        }
        last_transition_ = Transition{last_->cell, obs.cell, obs.t};
      }
    } else {
      last_transition_.reset();  // gap breaks the bounce chain
    }
  }
  dwell_[obs.cell] += run_dwell;
  if (run_gap) last_transition_.reset();
  last_ = run.back();
}

int MovementGraph::transitions(const world::CellId& cell) const {
  const auto it = transitions_.find(cell);
  return it == transitions_.end() ? 0 : it->second;
}

namespace {

/// Union-find over cell ids.
class DisjointSets {
 public:
  world::CellId find(const world::CellId& c) {
    auto it = parent_.find(c);
    if (it == parent_.end()) {
      parent_[c] = c;
      return c;
    }
    if (it->second == c) return c;
    const world::CellId root = find(it->second);
    parent_[c] = root;
    return root;
  }

  void unite(const world::CellId& a, const world::CellId& b) {
    const world::CellId ra = find(a);
    const world::CellId rb = find(b);
    if (!(ra == rb)) parent_[rb] = ra;
  }

 private:
  std::map<world::CellId, world::CellId> parent_;
};

/// Clusters the current movement graph into places. Shared by the batch
/// entry point and GcaState so both produce identical clusterings.
void cluster_graph(const MovementGraph& graph, const GcaConfig& config,
                   GcaResult& result) {
  // Keep only edges with enough oscillation evidence and union their
  // endpoints. Raw transition counts are deliberately ignored here: repeated
  // commutes inflate them without the user ever dwelling.
  DisjointSets sets;
  for (const auto& [edge, bounces] : graph.oscillations()) {
    if (bounces < config.min_edge_weight) continue;
    sets.unite(edge.first, edge.second);
  }

  // Group cells by root; compute cluster dwell.
  std::map<world::CellId, std::vector<world::CellId>> groups;
  for (const auto& [cell, dwell] : graph.dwell())
    groups[sets.find(cell)].push_back(cell);

  for (const auto& [root, cells] : groups) {
    SimDuration total = 0;
    for (const auto& c : cells) total += graph.dwell().at(c);
    const bool multi = cells.size() > 1;
    // Single cells qualify only with a long dominant dwell; multi-cell
    // clusters (real oscillation groups) need min_cluster_dwell.
    if (multi ? total < config.min_cluster_dwell
              : total < config.min_single_cell_dwell)
      continue;
    CellCluster cluster;
    cluster.signature.cells.insert(cells.begin(), cells.end());
    cluster.total_dwell = total;
    const std::size_t index = result.places.size();
    for (const auto& c : cells) result.cell_to_place[c] = index;
    result.places.push_back(std::move(cluster));
  }
}

/// Pairs arrival/departure events, then the closing departure if any, into
/// closed visit windows.
void pair_events_into_visits(
    std::span<const CellVisitTracker::Event> events,
    const std::optional<CellVisitTracker::Event>& closing, GcaResult& result) {
  std::optional<std::pair<std::size_t, SimTime>> open;
  const auto pair = [&](const CellVisitTracker::Event& ev) {
    if (ev.kind == CellVisitTracker::Event::Kind::Arrival) {
      open = {ev.place_index, ev.t};
    } else if (open && open->first == ev.place_index) {
      result.visits.push_back({ev.place_index, TimeWindow{open->second, ev.t}});
      open.reset();
    }
  };
  for (const auto& ev : events) pair(ev);
  if (closing) pair(*closing);
}

}  // namespace

GcaResult run_gca(std::span<const CellObservation> observations,
                  const GcaConfig& config) {
  // A fresh state runs exactly one full pass; GcaState is the single
  // implementation of the algorithm, so batch and incremental cannot drift.
  GcaState state(config);
  return state.run(observations);
}

GcaState::GcaState(GcaConfig config) : config_(config) {}

void GcaState::reset_state() {
  graph_ = MovementGraph{};
  fed_ = 0;
  last_fed_t_ = 0;
  tracker_.reset();
  events_.clear();
}

GcaResult GcaState::run(std::span<const CellObservation> observations) {
  ++passes_;
  last_incremental_ = false;
  const SimTime end_t = observations.empty() ? last_fed_t_
                                             : observations.back().t;

  // The log must be append-only for the graph suffix feed to be exact; a
  // shrunk log or a rewritten prefix (detected via the last fed timestamp)
  // means this is a different stream — start over.
  if (observations.size() < fed_ ||
      (fed_ > 0 && observations[fed_ - 1].t != last_fed_t_))
    reset_state();

  const std::size_t prev_fed = fed_;
  {
    telemetry::Span span(telemetry::tracer(), "gca.feed", end_t);
    graph_.feed(observations.subspan(prev_fed), config_);
    span.finish(end_t);
  }
  fed_ = observations.size();
  if (fed_ > 0) last_fed_t_ = observations[fed_ - 1].t;

  GcaResult result;
  cluster_graph(graph_, config_, result);

  // Continue the visit tracker incrementally only while the cell→place
  // mapping is stable; otherwise replay the whole stream against the new
  // mapping (exact fallback).
  const bool incremental =
      tracker_.has_value() && result.cell_to_place == tracker_->cell_to_place();
  {
    telemetry::Span span(telemetry::tracer(),
                         incremental ? "gca.replay_incremental"
                                     : "gca.replay_full",
                         end_t);
    if (!incremental) {
      tracker_.emplace(result.cell_to_place, config_);
      events_.clear();
    }
    tracker_->feed(observations.subspan(incremental ? prev_fed : 0), events_);
    span.finish(end_t);
  }
  if (incremental) {
    last_incremental_ = true;
    ++incremental_passes_;
    incremental_total_.inc();
  }

  // Batch semantics close the still-open visit at the last timestamp; the
  // persistent tracker keeps the visit open for the next pass.
  std::optional<CellVisitTracker::Event> closing;
  if (!observations.empty())
    closing = tracker_->pending_departure(observations.back().t);
  pair_events_into_visits(events_, closing, result);
  return result;
}

CellVisitTracker::CellVisitTracker(
    std::map<world::CellId, std::size_t> cell_to_place, const GcaConfig& config)
    : cell_to_place_(std::move(cell_to_place)), config_(config) {}

std::vector<CellVisitTracker::Event> CellVisitTracker::observe(
    const CellObservation& obs) {
  std::vector<Event> events;
  feed({&obs, 1}, events);
  return events;
}

void CellVisitTracker::feed(std::span<const CellObservation> observations,
                            std::vector<Event>& out) {
  for_each_run(observations, [&](std::span<const CellObservation> run) {
    feed_run(run, out);
  });
}

void CellVisitTracker::feed_run(std::span<const CellObservation> run,
                                std::vector<Event>& out) {
  std::optional<std::size_t> cluster;
  if (const auto it = cell_to_place_.find(run.front().cell);
      it != cell_to_place_.end())
    cluster = it->second;

  step(run.front().t, cluster, out);
  auto rest = run.subspan(1);
  if (rest.empty()) return;
  if (current_ != cluster) {
    // An excursion from the current visit: every reading within the gap
    // tolerance of last_in_ is a no-op, and the first one past it leaves.
    const auto leave = std::partition_point(
        rest.begin(), rest.end(), [&](const CellObservation& o) {
          return o.t - last_in_ <= config_.visit_gap_tolerance;
        });
    if (leave == rest.end()) return;
    step(leave->t, cluster, out);
    rest = {leave + 1, rest.end()};
    if (rest.empty()) return;
  }
  // Now inside `cluster`'s visit (or outside every place): only the last
  // reading matters — it moves last_in_ and announces a due arrival, which
  // is stamped with the visit's start either way.
  step(rest.back().t, cluster, out);
}

void CellVisitTracker::step(SimTime t, std::optional<std::size_t> cluster,
                            std::vector<Event>& out) {
  if (current_) {
    if (cluster == current_) {
      last_in_ = t;
      if (!announced_ && t - start_ >= config_.min_visit_dwell) {
        announced_ = true;
        out.push_back({Event::Kind::Arrival, *current_, start_});
      }
    } else if (t - last_in_ > config_.visit_gap_tolerance) {
      if (announced_)
        out.push_back({Event::Kind::Departure, *current_, last_in_});
      current_ = cluster;
      start_ = last_in_ = t;
      announced_ = false;
    }
    // else: brief excursion outside the cluster; keep the visit open.
  } else if (cluster) {
    current_ = cluster;
    start_ = last_in_ = t;
    announced_ = false;
  }
}

std::optional<CellVisitTracker::Event> CellVisitTracker::pending_departure(
    SimTime t) const {
  if (!current_ || !announced_) return std::nullopt;
  return Event{Event::Kind::Departure, *current_, std::max(last_in_, t)};
}

std::vector<CellVisitTracker::Event> CellVisitTracker::finish(SimTime t) {
  std::vector<Event> events;
  if (const auto departure = pending_departure(t)) events.push_back(*departure);
  current_.reset();
  announced_ = false;
  return events;
}

}  // namespace pmware::algorithms
