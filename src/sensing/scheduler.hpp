// Sampling scheduler: the device's single sensing loop.
//
// Exactly one scheduler runs per device — this is the architectural point of
// PMWare (paper §2.2): N connected applications share one sensing pipeline
// instead of N redundant ones. The inference engine adjusts periods and
// requests one-shot samples; every sample is charged to the energy meter.
//
// The event loop is run-oriented: periodic interfaces live in small
// fixed-size next-due arrays (finding the earliest of kInterfaceCount
// entries is a handful of compares — cheaper than any heap or timing wheel
// at this fan-in), and for the earliest interface the scheduler computes the
// *run* of consecutive fire times up to the next foreign event (another
// interface, a one-shot, or the window end) and hands the whole run to that
// interface's batch callback — the only way samples leave the scheduler.
// An interface with a period but no callback consumes every run whole: its
// samples are metered and counted, nothing else (energy-only simulations).
// Only one-shots still go through a min-heap, because their arrival order is
// data-dependent. Schedule changes are tracked with per-interface
// generation counters plus a global change epoch: a set_period/request_once
// from inside a run truncates it — the batch consumer stops consuming, the
// scheduler re-plans from the last consumed sample — so adaptive sensing
// sees the same fire times as a loop that re-plans after every sample
// (fuzz-verified against ReferenceScheduler, the retired heap
// implementation kept as the test oracle under tests/).
//
// Determinism contract: dispatch is time-ordered; at equal times periodic
// interfaces fire before one-shots, periodic in ascending interface index,
// one-shots in (interface index, request order). Batching never reorders
// samples, so RNG draw order — and therefore every study digest — is fixed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "energy/meter.hpp"
#include "telemetry/metrics.hpp"
#include "util/simtime.hpp"

namespace pmware::sensing {

class SamplingScheduler {
 public:
  /// Batch handler: receives a run of fire times for one interface (always
  /// non-empty, strictly increasing, one period apart) and returns how many
  /// it consumed, in order, from the front. Consuming fewer than the full
  /// run tells the scheduler the sampling schedule changed mid-run (the
  /// consumer called set_period/request_once); the scheduler re-plans the
  /// remainder. Contract for in-run schedule changes: stop consuming right
  /// after the sample that made the change, and pass explicit times —
  /// set_period(i, p, /*from=*/t) and request_once(i, /*at>=*/t) — because
  /// now() only advances at run granularity during batch dispatch.
  using BatchCallback = std::function<std::size_t(std::span<const SimTime>)>;

  /// Longest run handed to a batch callback in one call; bounds the reusable
  /// dispatch buffer.
  static constexpr std::size_t kMaxRunLength = 256;

  explicit SamplingScheduler(energy::EnergyMeter* meter);

  /// Sets the periodic sampling interval for an interface; nullopt disables
  /// periodic sampling. Takes effect from `from` when given, otherwise from
  /// the current simulation time. Batch consumers changing the schedule
  /// mid-run must pass the triggering sample's time as `from`.
  void set_period(energy::Interface interface, std::optional<SimDuration> period,
                  std::optional<SimTime> from = std::nullopt);

  std::optional<SimDuration> period(energy::Interface interface) const {
    return periods_[static_cast<std::size_t>(interface)];
  }

  /// Installs the run-oriented handler for `interface`. One-shots arrive as
  /// runs of length 1. Without one, the interface's runs are consumed whole.
  void set_batch_callback(energy::Interface interface, BatchCallback cb);

  /// Requests a single extra sample at time `at` (>= now); used for
  /// triggered sensing (e.g. "scan WiFi now, movement started").
  void request_once(energy::Interface interface, SimTime at);

  /// Runs the loop over [window.begin, window.end), dispatching samples in
  /// time order and charging the meter (samples + baseline). Callbacks may
  /// call set_period/request_once to adapt sensing while running.
  ///
  /// Dispatch order at equal times: periodic interfaces first (ascending
  /// interface index), then one-shots in (interface index, request order).
  void run(TimeWindow window);

  SimTime now() const { return now_; }

  /// Bumped by every set_period/request_once. Batch consumers compare it
  /// around each sample to detect that they changed the schedule and must
  /// stop consuming the current run.
  std::uint64_t change_epoch() const { return change_epoch_; }

  /// Value of this scheduler's "instance" metric label, e.g. "dev3" —
  /// isolates the per-device policy gauges.
  const std::string& instance_label() const { return instance_; }

 private:
  /// Pending one-shot request. `seq` is the FIFO ticket breaking ties among
  /// equal-time requests for the same interface.
  struct OneShot {
    SimTime at = 0;
    std::size_t index = 0;  ///< interface index
    std::uint64_t seq = 0;
  };
  struct ShotLater {
    bool operator()(const OneShot& a, const OneShot& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.index != b.index) return a.index > b.index;
      return a.seq > b.seq;
    }
  };

  /// Dispatches the run of interface `index` starting at `t0`, bounded by
  /// the earliest foreign event (`horizon`, exclusive).
  void dispatch_periodic_run(std::size_t index, SimTime t0, SimTime horizon);
  /// Dispatches the snapshot of one-shots due at <= t (all at time t), each
  /// as a run of one.
  void dispatch_due_one_shots(SimTime t);

  energy::EnergyMeter* meter_;
  std::string instance_;  ///< registry label isolating this device's gauges
  std::array<std::optional<SimDuration>, energy::kInterfaceCount> periods_{};
  std::array<std::optional<SimTime>, energy::kInterfaceCount> next_due_{};
  std::array<std::uint64_t, energy::kInterfaceCount> generation_{};
  std::array<BatchCallback, energy::kInterfaceCount> batch_callbacks_{};
  std::priority_queue<OneShot, std::vector<OneShot>, ShotLater> shots_;
  std::uint64_t one_shot_seq_ = 0;
  std::uint64_t change_epoch_ = 0;
  SimTime now_ = 0;

  // Reusable hot-loop buffers: the run handed to batch callbacks and the
  // snapshot of due one-shots. Sized once, never reallocated per sample.
  std::vector<SimTime> run_buffer_;
  std::vector<OneShot> due_shots_;

  // Wall time spent inside consumer callbacks this window, per interface.
  // run() folds each accumulator into one "scheduler.sampling.<interface>"
  // child span per window (Tracer::record_span), so flame folds separate the
  // sampling work the scheduler *drives* from the dispatch machinery itself
  // (scheduler.run self time) without a per-run span blowing the tracer cap.
  std::array<std::int64_t, energy::kInterfaceCount> callback_ns_{};

  // Pre-resolved per-interface sample/one-shot counters: the hot loop does
  // one relaxed atomic add per dispatch instead of a LabelSet build + a
  // locked registry lookup per sample.
  std::array<telemetry::CounterHandle, energy::kInterfaceCount> samples_total_;
  std::array<telemetry::CounterHandle, energy::kInterfaceCount> one_shots_total_;
};

}  // namespace pmware::sensing
