#include "sensing/device.hpp"

#include <algorithm>

namespace pmware::sensing {

PositionOracle oracle_from_trace(const mobility::Trace& trace) {
  PositionOracle oracle;
  oracle.position = [&trace](SimTime t) { return trace.position_at(t); };
  oracle.activity = [&trace](SimTime t) { return trace.activity_at(t); };
  oracle.indoors = [&trace](SimTime t) { return trace.place_at(t).has_value(); };
  return oracle;
}

Device::Device(std::shared_ptr<const world::World> world, PositionOracle oracle,
               DeviceConfig config, Rng rng)
    : world_(std::move(world)),
      oracle_(std::move(oracle)),
      config_(config),
      rng_(rng) {}

const std::vector<world::HeardCell>& Device::cell_env(const geo::LatLng& pos) {
  ++env_queries_;
  if (cell_env_pos_ && *cell_env_pos_ == pos) {
    ++env_hits_;
    return cell_env_;
  }
  world_->hearable_cells_into(pos, cell_env_, config_.fading_sigma_db * 2);
  cell_env_pos_ = pos;
  return cell_env_;
}

const std::vector<world::HeardAp>& Device::ap_env(const geo::LatLng& pos) {
  ++env_queries_;
  if (ap_env_pos_ && *ap_env_pos_ == pos) {
    ++env_hits_;
    return ap_env_;
  }
  world_->visible_aps_into(pos, ap_env_, 4.0);
  ap_env_pos_ = pos;
  return ap_env_;
}

GsmReading Device::read_gsm(SimTime t) {
  GsmReading reading;
  read_gsm_into(t, reading);
  return reading;
}

void Device::read_gsm_into(SimTime t, GsmReading& reading) {
  const geo::LatLng pos = oracle_.position(t);
  const std::vector<world::HeardCell>& heard = cell_env(pos);

  reading.t = t;
  reading.serving = world::CellId{};
  reading.serving_rssi_dbm = 0;
  reading.neighbors.clear();
  if (heard.empty()) {
    // Dead zone: report the last serving cell (phones hold on to it).
    if (last_serving_) {
      reading.serving = *last_serving_;
      reading.serving_rssi_dbm = -110;
    }
    return;
  }

  // Occasional preferred-RAT flip models 2G<->3G handoff (load balancing,
  // data-session start/stop) — one driver of the oscillating effect.
  if (rng_.bernoulli(config_.rat_switch_prob))
    preferred_rat_ = preferred_rat_ == world::Radio::Gsm2G
                         ? world::Radio::Umts3G
                         : world::Radio::Gsm2G;

  // Add per-sample fading and pick the strongest cell in the preferred RAT;
  // fall back to any RAT when the preferred layer is silent. The fading
  // normals are drawn in heard order, which the memoized environment
  // preserves.
  faded_.clear();
  for (const auto& h : heard)
    faded_.push_back({h.cell, h.rssi_dbm + rng_.normal(0, config_.fading_sigma_db)});

  auto best_in = [&](std::optional<world::Radio> rat) -> const Candidate* {
    const Candidate* best = nullptr;
    for (const auto& c : faded_) {
      if (rat && c.cell.radio != *rat) continue;
      if (c.rssi < world::kCellDetectionDbm) continue;
      if (!best || c.rssi > best->rssi) best = &c;
    }
    return best;
  };

  const Candidate* best = best_in(preferred_rat_);
  if (best == nullptr) best = best_in(std::nullopt);
  if (best == nullptr) {
    if (last_serving_) {
      reading.serving = *last_serving_;
      reading.serving_rssi_dbm = -110;
    }
    return;
  }

  // Reselection hysteresis: keep the previous serving cell unless the
  // challenger is clearly stronger (and the RAT did not just switch).
  bool keep_previous = false;
  if (last_serving_ && last_serving_->radio == best->cell.radio &&
      *last_serving_ != best->cell) {
    for (const auto& c : faded_) {
      if (c.cell == *last_serving_ &&
          c.rssi + config_.reselect_hysteresis_db >= best->rssi &&
          c.rssi >= world::kCellDetectionDbm) {
        reading.serving = c.cell;
        reading.serving_rssi_dbm = c.rssi;
        keep_previous = true;
        break;
      }
    }
  }
  if (!keep_previous) {
    reading.serving = best->cell;
    reading.serving_rssi_dbm = best->rssi;
  }
  last_serving_ = reading.serving;
  last_serving_rssi_ = reading.serving_rssi_dbm;

  // Neighbor list: strongest other cells, any RAT. Only the strongest
  // max_neighbors + 1 candidates can ever be emitted (the +1 absorbs the
  // serving cell), so a partial selection replaces the full sort; if any
  // element of that prefix is below the detection threshold, everything
  // beyond the prefix is too, so the scan below never needs the rest
  // ordered.
  const auto sorted_end =
      faded_.begin() +
      static_cast<std::ptrdiff_t>(
          std::min(faded_.size(),
                   static_cast<std::size_t>(config_.max_neighbors) + 1));
  std::partial_sort(
      faded_.begin(), sorted_end, faded_.end(),
      [](const Candidate& a, const Candidate& b) { return a.rssi > b.rssi; });
  for (auto it = faded_.begin(); it != sorted_end; ++it) {
    const auto& c = *it;
    if (c.cell == reading.serving) continue;
    if (c.rssi < world::kCellDetectionDbm) continue;
    reading.neighbors.push_back(c.cell);
    if (static_cast<int>(reading.neighbors.size()) >= config_.max_neighbors)
      break;
  }
}

WifiScan Device::scan_wifi(SimTime t) {
  WifiScan scan;
  scan_wifi_into(t, scan);
  return scan;
}

void Device::scan_wifi_into(SimTime t, WifiScan& scan) {
  const geo::LatLng pos = oracle_.position(t);
  scan.t = t;
  scan.aps.clear();
  for (const auto& ap : ap_env(pos)) {
    if (rng_.bernoulli(config_.wifi_miss_prob)) continue;
    const double rssi = ap.rssi_dbm + rng_.normal(0, 2.0);
    if (rssi < world::kWifiDetectionDbm) continue;
    scan.aps.push_back({ap.bssid, rssi});
  }
}

GpsFix Device::read_gps(SimTime t) {
  const geo::LatLng pos = oracle_.position(t);
  const bool indoors = oracle_.indoors(t);
  GpsFix fix;
  fix.t = t;
  const double valid_prob = indoors ? config_.gps_indoor_valid_prob
                                    : config_.gps_outdoor_valid_prob;
  if (!rng_.bernoulli(valid_prob)) return fix;  // no fix
  const double sigma =
      indoors ? config_.gps_indoor_sigma_m : config_.gps_outdoor_sigma_m;
  fix.valid = true;
  fix.position = geo::destination(pos, rng_.uniform(0, 360),
                                  std::abs(rng_.normal(0, sigma)));
  fix.accuracy_m = sigma;
  return fix;
}

AccelReading Device::read_accel(SimTime t) {
  const mobility::Activity truth = oracle_.activity(t);
  AccelReading reading;
  reading.t = t;
  reading.activity = truth;
  if (rng_.bernoulli(config_.activity_error_prob)) {
    // Misclassify into a uniformly-chosen other state.
    const mobility::Activity all[3] = {mobility::Activity::Still,
                                       mobility::Activity::Walking,
                                       mobility::Activity::Vehicle};
    mobility::Activity wrong = truth;
    while (wrong == truth) wrong = all[rng_.index(3)];
    reading.activity = wrong;
  }
  return reading;
}

BluetoothScan Device::scan_bluetooth(
    SimTime t, std::span<const std::pair<world::DeviceId, geo::LatLng>> others) {
  const geo::LatLng pos = oracle_.position(t);
  BluetoothScan scan;
  scan.t = t;
  for (const auto& [id, other_pos] : others) {
    if (geo::distance_m(pos, other_pos) > config_.bluetooth_range_m) continue;
    if (rng_.bernoulli(config_.bluetooth_miss_prob)) continue;
    scan.nearby.push_back(id);
  }
  return scan;
}

}  // namespace pmware::sensing
