// SchedulerPerf battery: equivalence guarantees behind the run-oriented
// scheduler and the device's world-environment memo.
//
//  * Fuzz: randomized storms of set_period / request_once issued from
//    callbacks must dispatch identically on the retired heap scheduler
//    (ReferenceScheduler, the oracle) and on SamplingScheduler's batch
//    consumers — same (interface, time) log, same metered joules (bitwise).
//  * Device: readings over a dwell-trip-dwell oracle match a recorded
//    known answer, and the position memo actually hits on dwell-dominated
//    oracles.
//  * Study: a threaded deployment study equals the sequential one — this
//    file carries the SchedulerPerf label so the ci.sh tsan leg races the
//    batched hot loop across 8 workers.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cache/digest.hpp"
#include "sensing/device.hpp"
#include "sensing/scheduler.hpp"
#include "scheduler_reference.hpp"
#include "study/deployment.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace pmware::sensing {
namespace {

using energy::Interface;

using DispatchLog = std::vector<std::pair<int, SimTime>>;

constexpr int kInterfaces = static_cast<int>(energy::kInterfaceCount);

/// set_period anchored at the sample time `t`. During batch dispatch
/// SamplingScheduler's clock only advances per run, so the time is passed
/// explicitly; the reference's clock is already at `t`.
template <typename Sched>
void set_period_at(Sched& s, Interface i, std::optional<SimDuration> p,
                   SimTime t) {
  if constexpr (std::is_same_v<Sched, SamplingScheduler>) {
    s.set_period(i, p, t);
  } else {
    s.set_period(i, p);
  }
}

/// One randomized schedule mutation, drawn from `rng`. Every driver below
/// calls this with the same per-dispatch RNG stream, so equivalent
/// schedulers make identical mutations; any divergence shows up as a
/// dispatch-log mismatch. Returns true if it mutated the schedule (batch
/// consumers must then truncate their run).
template <typename Sched>
bool maybe_mutate(Sched& s, Rng& rng, SimTime t) {
  if (rng.index(12) != 0) return false;
  static constexpr SimDuration kPeriods[] = {30, 60, 90, 120, 300, 600};
  switch (rng.index(3)) {
    case 0: {
      // Re-arm a random non-GSM interface (GSM stays on so the storm never
      // dies out).
      const auto i = static_cast<Interface>(1 + rng.index(kInterfaces - 1));
      const SimDuration p = kPeriods[rng.index(std::size(kPeriods))];
      set_period_at(s, i, p, t);
      break;
    }
    case 1: {
      const auto i = static_cast<Interface>(1 + rng.index(kInterfaces - 1));
      set_period_at(s, i, std::nullopt, t);
      break;
    }
    default: {
      // One-shot at or after the current sample — including exactly at `t`
      // and colliding with future periodic fire times, which exercises the
      // equal-timestamp ordering contract.
      const auto i = static_cast<Interface>(rng.index(kInterfaces));
      s.request_once(i, t + static_cast<SimTime>(rng.index(5)) * 150);
      break;
    }
  }
  return true;
}

template <typename Sched>
void run_windows(Sched& s) {
  s.set_period(Interface::Gsm, 60);
  s.set_period(Interface::Accelerometer, 90);
  for (SimTime w = 0; w < 4; ++w)
    s.run(TimeWindow{w * hours(1), (w + 1) * hours(1)});
}

/// Storm through the reference scheduler's per-sample callbacks.
std::pair<DispatchLog, double> storm_reference(std::uint64_t seed) {
  energy::EnergyMeter meter;
  ReferenceScheduler s(&meter);
  Rng rng(seed);
  DispatchLog log;
  for (int i = 0; i < kInterfaces; ++i) {
    s.set_callback(static_cast<Interface>(i), [&s, &rng, &log, i](SimTime t) {
      log.push_back({i, t});
      maybe_mutate(s, rng, t);
    });
  }
  run_windows(s);
  return {log, meter.total_j()};
}

/// The same storm through batch consumers following the truncation
/// contract: stop consuming right after a mutating sample, anchor schedule
/// changes at the sample time.
std::pair<DispatchLog, double> storm_batched(std::uint64_t seed) {
  energy::EnergyMeter meter;
  SamplingScheduler s(&meter);
  Rng rng(seed);
  DispatchLog log;
  for (int i = 0; i < kInterfaces; ++i) {
    s.set_batch_callback(
        static_cast<Interface>(i),
        [&s, &rng, &log, i](std::span<const SimTime> run) {
          std::size_t consumed = 0;
          for (const SimTime t : run) {
            log.push_back({i, t});
            ++consumed;
            if (maybe_mutate(s, rng, t)) break;
          }
          return consumed;
        });
  }
  run_windows(s);
  return {log, meter.total_j()};
}

TEST(SchedulerPerf, FuzzBatchedMatchesReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto reference = storm_reference(seed);
    const auto batched = storm_batched(seed);
    ASSERT_EQ(reference.first, batched.first);
    EXPECT_EQ(reference.second, batched.second);  // joules, bitwise
  }
}

TEST(SchedulerPerf, EqualTimestampOrderIsPeriodicThenOneShots) {
  // At one tick: periodic interfaces in ascending index, then one-shots in
  // request order — on both schedulers.
  const auto drive = [](auto&& s) {
    DispatchLog log;
    for (int i = 0; i < kInterfaces; ++i) {
      const auto interface = static_cast<Interface>(i);
      if constexpr (std::is_same_v<std::decay_t<decltype(s)>,
                                   SamplingScheduler>) {
        s.set_batch_callback(interface,
                             [&log, i](std::span<const SimTime> run) {
                               for (const SimTime t : run)
                                 log.push_back({i, t});
                               return run.size();
                             });
      } else {
        s.set_callback(interface,
                       [&log, i](SimTime t) { log.push_back({i, t}); });
      }
    }
    // Both periodic interfaces and both one-shots collide at t=120.
    s.set_period(Interface::Bluetooth, 120);  // index 4
    s.set_period(Interface::Wifi, 60);        // index 1
    s.request_once(Interface::Gps, 120);      // index 2, requested first
    s.request_once(Interface::Accelerometer, 120);  // index 3, second
    s.run(TimeWindow{0, 121});
    return log;
  };
  energy::EnergyMeter m1, m2;
  ReferenceScheduler ref(&m1);
  SamplingScheduler batched(&m2);
  const DispatchLog expected{{1, 0},   {4, 0},   {1, 60},  {1, 120},
                             {4, 120}, {2, 120}, {3, 120}};
  EXPECT_EQ(drive(ref), expected);
  EXPECT_EQ(drive(batched), expected);
}

// --- Device world-environment memo ---

class CachedDeviceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    world::WorldConfig config;
    Rng rng(1);
    world_ = world::generate_world(config, rng);
  }

  /// Dwell-trip-dwell oracle: anchored at place 0, a midday excursion to
  /// place 1 with a position that changes every sample in between.
  PositionOracle commuting_oracle() const {
    const geo::LatLng home = world_->place(0).center;
    const geo::LatLng work = world_->place(1).center;
    PositionOracle oracle;
    oracle.position = [home, work](SimTime t) {
      if (t < hours(3)) return home;
      if (t < hours(3) + minutes(30)) {  // in transit, moves every sample
        const double f = static_cast<double>(t - hours(3)) / minutes(30);
        return geo::LatLng{home.lat + (work.lat - home.lat) * f,
                           home.lng + (work.lng - home.lng) * f};
      }
      return work;
    };
    oracle.activity = [](SimTime) { return mobility::Activity::Still; };
    oracle.indoors = [](SimTime) { return true; };
    return oracle;
  }

  Device make_device() const {
    return Device(world_, commuting_oracle(), DeviceConfig{}, Rng(42));
  }

  std::shared_ptr<const world::World> world_;
};

/// CommutingReadingsMatchKnownAnswer's digest.
constexpr std::uint64_t kCommutingReadingsDigest = 3370598071571515586ull;

/// Feeds the eight little-endian bytes of `v` through FNV-1a.
void fnv_word(std::uint64_t& h, std::uint64_t v) {
  char bytes[8];
  for (char& byte : bytes) {
    byte = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  h = cache::fnv1a(std::string_view(bytes, sizeof bytes), h);
}

// Six hours of one-minute GSM reads plus a WiFi scan every five minutes,
// folded reading by reading. The memo never changes a reading or an RNG
// draw: when the position memo became unconditional, both the memoized and
// the fresh-query device produced this test's answer (re-recorded since,
// when the fading sampler changed).
TEST_F(CachedDeviceFixture, CommutingReadingsMatchKnownAnswer) {
  Device device = make_device();
  std::uint64_t h = cache::kDigestBasis;
  for (SimTime t = 0; t < hours(6); t += 60) {
    const GsmReading gsm = device.read_gsm(t);
    fnv_word(h, static_cast<std::uint64_t>(gsm.t));
    fnv_word(h, gsm.serving.key());
    fnv_word(h, std::bit_cast<std::uint64_t>(gsm.serving_rssi_dbm));
    fnv_word(h, gsm.neighbors.size());
    for (const world::CellId& cell : gsm.neighbors) fnv_word(h, cell.key());
    if (t % minutes(5) == 0) {
      const WifiScan scan = device.scan_wifi(t);
      fnv_word(h, scan.aps.size());
      for (const WifiObservation& ap : scan.aps) {
        fnv_word(h, ap.bssid);
        fnv_word(h, std::bit_cast<std::uint64_t>(ap.rssi_dbm));
      }
    }
  }
  EXPECT_EQ(h, kCommutingReadingsDigest);
}

TEST_F(CachedDeviceFixture, CacheHitsDominateOnDwellHeavyTraces) {
  Device device = make_device();
  for (SimTime t = 0; t < hours(6); t += 60) device.read_gsm(t);
  ASSERT_GT(device.env_queries(), 0u);
  const double hit_rate = static_cast<double>(device.env_hits()) /
                          static_cast<double>(device.env_queries());
  // 5.5 of 6 hours are dwells at a constant anchor position.
  EXPECT_GT(hit_rate, 0.85);
}

}  // namespace
}  // namespace pmware::sensing

namespace pmware::study {
namespace {

// Threaded batched hot loop vs sequential: same digests. Runs under tsan in
// the ci.sh SchedulerPerf leg.
TEST(SchedulerPerf, ThreadedStudyDigestMatchesSequential) {
  StudyConfig base;
  base.participants = 4;
  base.days = 3;
  StudyConfig threaded = base;
  threaded.threads = 8;
  const StudyResult rs = DeploymentStudy(base).run();
  const StudyResult rt = DeploymentStudy(threaded).run();
  EXPECT_EQ(rs.storage_digest, rt.storage_digest);
  ASSERT_EQ(rs.participants.size(), rt.participants.size());
  for (std::size_t i = 0; i < rs.participants.size(); ++i) {
    EXPECT_EQ(rs.participants[i].sensing_joules,
              rt.participants[i].sensing_joules);
    EXPECT_EQ(rs.participants[i].places_discovered,
              rt.participants[i].places_discovered);
  }
}

}  // namespace
}  // namespace pmware::study
