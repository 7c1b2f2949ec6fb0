// Simulated handset: turns the ground-truth position of a participant into
// the noisy sensor readings a real phone would produce.
//
// The GSM model deliberately reproduces the "oscillating effect" of paper
// §2.2.2: the serving cell changes while the user is stationary, due to
// per-sample fading, load-dependent reselection, and 2G<->3G handoff. GCA's
// movement graph exists to absorb exactly this noise.
//
// Hot-path structure: the deterministic part of the radio environment —
// which towers/APs are hearable at a position and their pre-fading RSSI —
// is a pure function of the position, and participants dwell at places for
// most of the day, so the device memoizes it keyed on the exact position
// and only re-runs the spatial query + path-loss + sort when the position
// changes. The stochastic part (per-sample fading, missed beacons) is drawn
// per sample from the device RNG, in the order the environment lists the
// towers/APs — the order the memo preserves — so a memo hit reads exactly
// what a fresh query would. The *_into entry points refill caller-owned
// readings and reuse internal scratch buffers: after warmup the per-sample
// loop performs no heap allocations.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "sensing/readings.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace pmware::sensing {

struct DeviceConfig {
  double fading_sigma_db = 3.0;       ///< per-sample RSSI noise
  double reselect_hysteresis_db = 2.0;///< challenger must beat serving by this
  double rat_switch_prob = 0.06;      ///< chance a read flips preferred 2G/3G
  int max_neighbors = 6;
  double wifi_miss_prob = 0.10;       ///< per-AP missed-beacon probability
  double gps_outdoor_valid_prob = 0.97;
  double gps_indoor_valid_prob = 0.55;
  double gps_outdoor_sigma_m = 8.0;
  double gps_indoor_sigma_m = 25.0;
  double activity_error_prob = 0.05;  ///< accelerometer misclassification
  double bluetooth_range_m = 12.0;
  double bluetooth_miss_prob = 0.15;
};

/// Ground-truth oracle the device samples: where the participant is and what
/// they are doing. Implemented by mobility::Trace in production use.
struct PositionOracle {
  std::function<geo::LatLng(SimTime)> position;
  std::function<mobility::Activity(SimTime)> activity;
  /// Whether the participant is inside a building (degrades GPS).
  std::function<bool(SimTime)> indoors;
};

/// Builds a PositionOracle backed by a ground-truth trace.
PositionOracle oracle_from_trace(const mobility::Trace& trace);

class Device {
 public:
  Device(std::shared_ptr<const world::World> world, PositionOracle oracle,
         DeviceConfig config, Rng rng);

  /// Reads modem state. Stateful: reselection hysteresis and the preferred
  /// radio-access technology persist between reads.
  GsmReading read_gsm(SimTime t);

  /// Allocation-free read_gsm: refills `out` (including its neighbor list)
  /// in place, reusing its capacity across calls.
  void read_gsm_into(SimTime t, GsmReading& out);

  /// Runs an active WiFi scan.
  WifiScan scan_wifi(SimTime t);

  /// Allocation-free scan_wifi: refills `out` in place.
  void scan_wifi_into(SimTime t, WifiScan& out);

  /// Attempts a GPS fix.
  GpsFix read_gps(SimTime t);

  /// Samples the activity detector.
  AccelReading read_accel(SimTime t);

  /// Bluetooth discovery against the supplied positions of other devices.
  BluetoothScan scan_bluetooth(
      SimTime t,
      std::span<const std::pair<world::DeviceId, geo::LatLng>> others);

  /// Position-memo effectiveness: queries answered from the memoized
  /// environment vs. total. CachedDeviceFixture asserts a high hit rate on
  /// dwell-dominated traces.
  std::uint64_t env_queries() const { return env_queries_; }
  std::uint64_t env_hits() const { return env_hits_; }

 private:
  /// Hearable cells at `pos`, memoized on exact position equality.
  const std::vector<world::HeardCell>& cell_env(const geo::LatLng& pos);
  /// Visible APs at `pos`, memoized on exact position equality.
  const std::vector<world::HeardAp>& ap_env(const geo::LatLng& pos);

  std::shared_ptr<const world::World> world_;
  PositionOracle oracle_;
  DeviceConfig config_;
  Rng rng_;
  world::Radio preferred_rat_ = world::Radio::Gsm2G;
  std::optional<world::CellId> last_serving_;
  double last_serving_rssi_ = -999;

  // Position-keyed radio-environment caches + stats. The key is the exact
  // position: traces return a constant anchor while dwelling, so equality
  // (not proximity) is the right invalidation rule.
  std::optional<geo::LatLng> cell_env_pos_;
  std::vector<world::HeardCell> cell_env_;
  std::optional<geo::LatLng> ap_env_pos_;
  std::vector<world::HeardAp> ap_env_;
  std::uint64_t env_queries_ = 0;
  std::uint64_t env_hits_ = 0;

  // Per-sample scratch, reused across reads (zero-alloc hot loop).
  struct Candidate {
    world::CellId cell;
    double rssi;
  };
  std::vector<Candidate> faded_;
};

}  // namespace pmware::sensing
