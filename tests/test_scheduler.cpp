#include "sensing/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <vector>

#include "telemetry/metrics.hpp"

namespace pmware::sensing {
namespace {

using energy::Interface;

/// Installs `on_sample` as a consumer that takes one sample per run: the
/// scheduler re-plans after every sample, so now() is the sample's time.
void on_each(SamplingScheduler& s, Interface i,
             std::function<void(SimTime)> on_sample) {
  s.set_batch_callback(
      i, [f = std::move(on_sample)](std::span<const SimTime> run) {
        f(run[0]);
        return std::size_t{1};
      });
}

TEST(Scheduler, PeriodicCadence) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<SimTime> fired;
  on_each(scheduler, Interface::Gsm,
          [&fired](SimTime t) { fired.push_back(t); });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  // Fires at 0, 60, ..., 540 (not at the exclusive end).
  ASSERT_EQ(fired.size(), 10u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], static_cast<SimTime>(i) * 60);
}

TEST(Scheduler, MeterChargedPerSampleAndBaseline) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  scheduler.set_period(Interface::Wifi, 120);  // no consumer installed
  scheduler.run(TimeWindow{0, minutes(10)});
  EXPECT_EQ(meter.sample_count(Interface::Wifi), 5u);
  EXPECT_DOUBLE_EQ(meter.baseline_j(),
                   meter.profile().base_power_w * minutes(10));
}

TEST(Scheduler, NullMeterIsAllowed) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each(scheduler, Interface::Gsm, [&fired](SimTime) { ++fired; });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(5)});
  EXPECT_EQ(fired, 5);
}

TEST(Scheduler, DisabledInterfaceNeverFires) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each(scheduler, Interface::Gps, [&fired](SimTime) { ++fired; });
  scheduler.run(TimeWindow{0, hours(1)});
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, PolicyGaugesAreScopedPerDeviceInstance) {
  // Two devices with different policies must not clobber each other's
  // sensing_period_seconds / sensing_duty_cycle series (the old unlabeled
  // gauges raced last-writer-wins across the fleet).
  SamplingScheduler a(nullptr);
  SamplingScheduler b(nullptr);
  a.set_period(Interface::Gsm, 60);
  b.set_period(Interface::Gsm, 300);
  auto& reg = telemetry::registry();
  const telemetry::LabelSet la{{"instance", a.instance_label()},
                               {"interface", "gsm"}};
  const telemetry::LabelSet lb{{"instance", b.instance_label()},
                               {"interface", "gsm"}};
  const telemetry::Gauge* ga = reg.find_gauge("sensing_period_seconds", la);
  const telemetry::Gauge* gb = reg.find_gauge("sensing_period_seconds", lb);
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);
  EXPECT_DOUBLE_EQ(ga->value(), 60.0);
  EXPECT_DOUBLE_EQ(gb->value(), 300.0);
  const telemetry::Gauge* da = reg.find_gauge("sensing_duty_cycle", la);
  ASSERT_NE(da, nullptr);
  EXPECT_DOUBLE_EQ(da->value(), 1.0 / 60.0);
}

TEST(Scheduler, SetPeriodRejectsNonPositive) {
  SamplingScheduler scheduler(nullptr);
  EXPECT_THROW(scheduler.set_period(Interface::Gsm, 0), std::invalid_argument);
  EXPECT_THROW(scheduler.set_period(Interface::Gsm, -5), std::invalid_argument);
  EXPECT_NO_THROW(scheduler.set_period(Interface::Gsm, std::nullopt));
}

TEST(Scheduler, CallbackCanChangePeriodMidRun) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each(scheduler, Interface::Gsm, [&](SimTime t) {
    fired.push_back(t);
    if (t == 120) scheduler.set_period(Interface::Gsm, 300);
  });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(20)});
  // 0,60,120 at 1-minute cadence, then every 5 minutes: 420, 720, 1020.
  const std::vector<SimTime> expected{0, 60, 120, 420, 720, 1020};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, CallbackCanDisableItself) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each(scheduler, Interface::Accelerometer, [&](SimTime) {
    if (++fired == 3) scheduler.set_period(Interface::Accelerometer, std::nullopt);
  });
  scheduler.set_period(Interface::Accelerometer, 60);
  scheduler.run(TimeWindow{0, hours(1)});
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, OneShotFiresOnce) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<SimTime> fired;
  on_each(scheduler, Interface::Wifi,
          [&fired](SimTime t) { fired.push_back(t); });
  scheduler.request_once(Interface::Wifi, 90);
  scheduler.run(TimeWindow{0, minutes(10)});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 90);
  EXPECT_EQ(meter.sample_count(Interface::Wifi), 1u);
}

TEST(Scheduler, OneShotsFromCallbacksDispatch) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> wifi_fired;
  on_each(scheduler, Interface::Wifi,
          [&wifi_fired](SimTime t) { wifi_fired.push_back(t); });
  on_each(scheduler, Interface::Gsm, [&scheduler](SimTime t) {
    if (t == 120) {
      // Trigger a burst: now and +60s.
      scheduler.request_once(Interface::Wifi, t);
      scheduler.request_once(Interface::Wifi, t + 60);
    }
  });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  const std::vector<SimTime> expected{120, 180};
  EXPECT_EQ(wifi_fired, expected);
}

TEST(Scheduler, OneShotBeyondWindowDoesNotFire) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each(scheduler, Interface::Gps, [&fired](SimTime) { ++fired; });
  scheduler.request_once(Interface::Gps, hours(2));
  scheduler.run(TimeWindow{0, hours(1)});
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, OneShotInPastFiresImmediately) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each(scheduler, Interface::Gps,
          [&fired](SimTime t) { fired.push_back(t); });
  on_each(scheduler, Interface::Gsm, [&scheduler](SimTime t) {
    if (t == 300) scheduler.request_once(Interface::Gps, 100);  // in the past
  });
  scheduler.set_period(Interface::Gsm, 300);
  scheduler.run(TimeWindow{0, minutes(11)});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 300);  // clamped to "now"
}

TEST(Scheduler, MultipleInterfacesInterleaveInTimeOrder) {
  SamplingScheduler scheduler(nullptr);
  std::vector<std::pair<int, SimTime>> events;
  on_each(scheduler, Interface::Gsm,
          [&](SimTime t) { events.push_back({0, t}); });
  on_each(scheduler, Interface::Accelerometer,
          [&](SimTime t) { events.push_back({1, t}); });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.set_period(Interface::Accelerometer, 90);
  scheduler.run(TimeWindow{0, minutes(6)});
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].second, events[i].second);
  // GSM fires 6 times (0..300), accel 4 times (0, 90, 180, 270).
  int gsm = 0, accel = 0;
  for (const auto& [kind, t] : events) (kind == 0 ? gsm : accel)++;
  EXPECT_EQ(gsm, 6);
  EXPECT_EQ(accel, 4);
}

TEST(Scheduler, RunAdvancesNow) {
  SamplingScheduler scheduler(nullptr);
  scheduler.run(TimeWindow{0, 100});
  EXPECT_EQ(scheduler.now(), 100);
  scheduler.run(TimeWindow{100, 200});
  EXPECT_EQ(scheduler.now(), 200);
}

TEST(Scheduler, ConsecutiveWindowsKeepCadence) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each(scheduler, Interface::Gsm,
          [&fired](SimTime t) { fired.push_back(t); });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, 150});
  scheduler.run(TimeWindow{150, 300});
  // Window restarts re-arm at the window start: 0,60,120 then 150,210,270.
  const std::vector<SimTime> expected{0, 60, 120, 150, 210, 270};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, OneShotCarriesOverToNextWindow) {
  // A one-shot requested at/after the current window's end stays queued and
  // fires in the next run() window (the study runs day-sized windows).
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each(scheduler, Interface::Wifi,
          [&fired](SimTime t) { fired.push_back(t); });
  on_each(scheduler, Interface::Gsm, [&scheduler](SimTime t) {
    if (t == 60) {
      scheduler.request_once(Interface::Wifi, 300);  // == window.end
      scheduler.request_once(Interface::Wifi, 410);  // beyond window.end
    }
  });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, 300});
  EXPECT_TRUE(fired.empty());
  scheduler.set_period(Interface::Gsm, std::nullopt);
  scheduler.run(TimeWindow{300, 600});
  const std::vector<SimTime> expected{300, 410};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, BatchCallbackReceivesRuns) {
  // With no competing interfaces or one-shots, a periodic interface's whole
  // window arrives as one run of consecutive fire times.
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<std::vector<SimTime>> runs;
  scheduler.set_batch_callback(
      Interface::Gsm, [&runs](std::span<const SimTime> run) {
        runs.emplace_back(run.begin(), run.end());
        return run.size();
      });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].size(), 10u);
  for (std::size_t i = 0; i < runs[0].size(); ++i)
    EXPECT_EQ(runs[0][i], static_cast<SimTime>(i) * 60);
  EXPECT_EQ(meter.sample_count(Interface::Gsm), 10u);
}

TEST(Scheduler, BatchConsumerTruncationMatchesPerSampleSemantics) {
  // The batch consumer changes its own period mid-run: it stops consuming
  // after the triggering sample and passes the explicit time, and the fire
  // times match the one-sample-per-run consumer exactly (see
  // Scheduler.CallbackCanChangePeriodMidRun).
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  scheduler.set_batch_callback(
      Interface::Gsm, [&](std::span<const SimTime> run) {
        std::size_t consumed = 0;
        for (const SimTime t : run) {
          fired.push_back(t);
          ++consumed;
          if (t == 120) {
            scheduler.set_period(Interface::Gsm, 300, /*from=*/t);
            break;
          }
        }
        return consumed;
      });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(20)});
  const std::vector<SimTime> expected{0, 60, 120, 420, 720, 1020};
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace pmware::sensing
