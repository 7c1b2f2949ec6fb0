// PMWare end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload paper-study|sync-replay|device-churn
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Single-threaded. A run sets up the workload several times (setup_s), runs
// one untimed counting pass (byte and work counts; for sync-replay, the
// capture of the request stream), then repeats identical timed passes for
// --seconds with the calibration kernel interleaved, and with --trace 1 one
// more traced pass plus the per-layer probes. The last stdout line is the
// result object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The line before it carries the raw values, C_run and sample
// counts of every timed metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/gca.hpp"
#include "calibration.hpp"
#include "estimator.hpp"
#include "mobility/schedule.hpp"
#include "proxy.hpp"
#include "replay.hpp"
#include "sensing/device.hpp"
#include "spans.hpp"
#include "study_runner.hpp"
#include "telemetry/process.hpp"

namespace pb = pmware::perfbench;
using namespace pmware;

namespace {

constexpr std::uint64_t kDefaultSeed = 20141208;
/// Timed passes per run at least, so every unit has a median of three.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 400;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0) return false;
    } else if (arg == "--trace") {
      args.trace = std::atoi(value);
      if (args.trace != 0 && args.trace != 1) return false;
    } else {
      return false;
    }
  }
  return args.workload == "paper-study" || args.workload == "sync-replay" ||
         args.workload == "device-churn";
}

/// Ordered name -> (value, unit) list, printed as a JSON object.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof buf, "%.10g",
                    std::isfinite(e.value) ? e.value : 0.0);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness checks, counted against the operations they cover.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, std::size_t operations, const char* what) {
    attempted += operations;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }
  /// `failures` out of `operations` failed.
  void count(std::size_t failures, std::size_t operations, const char* what) {
    attempted += operations;
    failed += failures;
    if (failures)
      std::fprintf(stderr, "perfbench: %zu of %zu failed: %s\n", failures,
                   operations, what);
  }
};

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Per-request times of one pass, read from the proxy's log.
std::vector<double> handle_times(const std::vector<pb::Exchange>& exchanges) {
  std::vector<double> out;
  out.reserve(exchanges.size());
  for (const pb::Exchange& e : exchanges)
    out.push_back(static_cast<double>(e.handle_ns));
  return out;
}

/// Percentile over unit times when at least ten samples lie beyond it, else
/// 0 (not reportable).
double reportable_percentile(const std::vector<double>& v, double q) {
  return pb::percentile_reportable(v.size(), q) ? pb::percentile(v, q) : 0.0;
}

std::vector<double> nonzero(const std::vector<double>& v) {
  std::vector<double> out;
  for (const double x : v)
    if (x > 0) out.push_back(x);
  return out;
}

/// Per-layer probes: direct calls on benchmark-owned objects.
struct Probes {
  double gsm_read_ns = 0;
  double wifi_scan_ns = 0;
  double gca_pass_ns = 0;
};

Probes run_probes(const pb::StudySetup& setup,
                  const std::vector<algorithms::CellObservation>& gsm_log,
                  pb::Calibrator& calibrator) {
  constexpr int kReps = 5;
  Probes probes;
  const mobility::Participant& participant = setup.participants.front();
  Rng participant_rng = setup.participant_rngs.front();
  Rng trace_rng = participant_rng.fork(1);
  const mobility::Trace trace = mobility::build_trace(
      *setup.world, participant, setup.config.schedule, trace_rng);

  // GSM reads once a minute and WiFi scans every ten minutes over the
  // participant's first day, on a device following the real trace.
  std::vector<double> gsm, wifi;
  for (int rep = 0; rep < kReps; ++rep) {
    calibrator.sample();
    sensing::Device device(setup.world, sensing::oracle_from_trace(trace),
                           setup.config.device, Rng(setup.spec.seed + rep));
    sensing::GsmReading reading;
    std::int64_t begin = pb::now_ns();
    int reads = 0;
    for (SimTime t = 0; t < kSecondsPerDay; t += 60, ++reads)
      device.read_gsm_into(t, reading);
    gsm.push_back(static_cast<double>(pb::now_ns() - begin) / reads);
    sensing::WifiScan scan;
    begin = pb::now_ns();
    int scans = 0;
    for (SimTime t = 0; t < kSecondsPerDay; t += 600, ++scans)
      device.scan_wifi_into(t, scan);
    wifi.push_back(static_cast<double>(pb::now_ns() - begin) / scans);
  }
  probes.gsm_read_ns = pb::median(gsm);
  probes.wifi_scan_ns = pb::median(wifi);

  // GcaState::run fed the participant's GSM log one day at a time, as the
  // nightly recluster sees it.
  if (!gsm_log.empty()) {
    pb::UnitTimes passes;
    for (int rep = 0; rep < kReps; ++rep) {
      calibrator.sample();
      algorithms::GcaState state(setup.config.inference.gca);
      std::vector<double> per_day;
      for (int day = 0; day < setup.spec.days; ++day) {
        const auto end = std::partition_point(
            gsm_log.begin(), gsm_log.end(),
            [&](const algorithms::CellObservation& o) {
              return o.t < start_of_day(day + 1);
            });
        const std::int64_t begin = pb::now_ns();
        const algorithms::GcaResult result =
            state.run({gsm_log.data(),
                       static_cast<std::size_t>(end - gsm_log.begin())});
        per_day.push_back(static_cast<double>(pb::now_ns() - begin));
        (void)result;
      }
      passes.add_pass(per_day);
    }
    probes.gca_pass_ns = passes.total() / setup.spec.days;
  }
  return probes;
}

/// Byte and request counts of one pass, from a counting proxy log.
struct WireCounts {
  double requests = 0;
  double request_bytes = 0;
  double response_bytes = 0;
  double route_count[pb::kRouteCount] = {};
  double route_request_bytes[pb::kRouteCount] = {};
  double route_response_bytes[pb::kRouteCount] = {};
};

WireCounts wire_counts(const std::vector<pb::Exchange>& exchanges) {
  WireCounts c;
  for (const pb::Exchange& e : exchanges) {
    const auto r = static_cast<std::size_t>(e.route);
    c.requests += 1;
    c.request_bytes += static_cast<double>(e.request_bytes);
    c.response_bytes += static_cast<double>(e.response_bytes);
    c.route_count[r] += 1;
    c.route_request_bytes[r] += static_cast<double>(e.request_bytes);
    c.route_response_bytes[r] += static_cast<double>(e.response_bytes);
  }
  return c;
}

double counter(const std::map<std::string, double>& counters,
               const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

int run(const Args& args) {
  const bool replay = args.workload == "sync-replay";
  pb::StudySpec spec;
  spec.seed = args.seed;
  spec.churn = args.workload == "device-churn";
  if (spec.churn) spec.days = pb::kChurnDays;
  Checks checks;
  pb::Calibrator calibrator;

  // --- Set-up: city, participants and cloud construction. Besides the
  // set-up proper, one fresh set-up is timed (and discarded) wherever the
  // kernel runs, so set-up samples are spread over the whole run.
  std::vector<double> setup_ns, world_ns;
  const auto record_setup = [&](const pb::SetupTiming& timing) {
    setup_ns.push_back(timing.total());
    world_ns.push_back(timing.world_ns);
  };
  const auto between_units = [&] {
    calibrator.sample();
    pb::SetupTiming timing;
    const pb::StudySetup fresh(spec, &timing);
    record_setup(timing);
  };
  calibrator.sample();
  pb::SetupTiming setup_timing;
  const auto setup = std::make_unique<pb::StudySetup>(spec, &setup_timing);
  record_setup(setup_timing);
  const double pd = static_cast<double>(spec.participants) * spec.days;

  // --- Counting pass: untimed; byte counts, work counts, and for
  // sync-replay the capture of the request stream.
  pb::Proxy proxy;
  std::vector<pb::CapturedRequest> stream;
  proxy.set_counting(true);
  if (replay) proxy.set_capture(&stream);
  pb::PassOptions counting_options;
  counting_options.proxy = &proxy;
  counting_options.keep_gsm_log = true;
  const pb::PassResult counted = pb::run_study_pass(*setup, counting_options);
  const std::vector<pb::Exchange> counted_exchanges = proxy.exchanges();
  proxy.set_counting(false);
  proxy.set_capture(nullptr);
  checks.count(counted.undrained, spec.participants, "outbox drained");
  checks.count(counted.restore_failures, counted.restores,
               "restore of an intact checkpoint");

  // --- Timed passes.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(args.seconds));
  const auto more = [&](std::size_t passes) {
    return passes < kMinPasses ||
           (passes < kMaxPasses && std::chrono::steady_clock::now() < deadline);
  };
  pb::UnitTimes units;       // studies: participant units; replay: sends
  pb::UnitTimes requests;    // per-request latency
  pb::UnitTimes handles;     // replay: the cloud handle() inside each send
  pb::UnitTimes runs, run_self, traces, saves, restores;
  pb::UnitTimes send_self;   // replay: send minus handle
  std::vector<pb::Exchange> exchanges;           // last timed pass
  WireCounts wire = wire_counts(counted_exchanges);
  std::map<std::string, double> counters = counted.counters;
  double untraced_raw_total = 0;

  if (!replay) {
    pb::PassOptions options;
    options.proxy = &proxy;
    options.between_units = between_units;
    while (more(units.passes())) {
      const pb::PassResult pass = pb::run_study_pass(*setup, options);
      checks.expect(pass.digest == counted.digest, pass.participant_days,
                    "pass digest equals the counting pass's");
      checks.count(pass.undrained, spec.participants, "outbox drained");
      checks.count(pass.restore_failures, pass.restores,
                   "restore of an intact checkpoint");
      bool repeated = units.add_pass(pass.unit_ns);
      repeated &= requests.add_pass(handle_times(proxy.exchanges()));
      repeated &= runs.add_pass(pass.run_ns);
      repeated &= run_self.add_pass(pass.run_self_ns);
      repeated &= traces.add_pass(pass.trace_ns);
      repeated &= saves.add_pass(pass.save_ns);
      repeated &= restores.add_pass(pass.restore_ns);
      checks.expect(repeated, 1, "units repeat exactly across passes");
      exchanges = proxy.exchanges();
    }
    untraced_raw_total = units.total();
  } else {
    // Warm-up replay with body checks; its wire counts are the replay's.
    const pb::ReplayResult warm = pb::run_replay_pass(
        *setup, stream, proxy, {}, nullptr, /*counting=*/true);
    checks.count(warm.status_mismatches, stream.size(),
                 "replayed status equals the captured one");
    checks.count(warm.body_mismatches, stream.size(),
                 "replayed body equals the captured one");
    checks.expect(warm.digest == counted.digest, 1,
                  "replay digest equals the live pass's");
    wire = wire_counts(warm.exchanges);
    counters = warm.counters;
    while (more(units.passes())) {
      const pb::ReplayResult pass = pb::run_replay_pass(
          *setup, stream, proxy, between_units, nullptr, /*counting=*/false);
      checks.count(pass.status_mismatches, stream.size(),
                   "replayed status equals the captured one");
      checks.expect(pass.digest == counted.digest, 1,
                    "replay digest equals the live pass's");
      std::vector<double> self(pass.send_ns.size());
      for (std::size_t i = 0; i < self.size(); ++i)
        self[i] = pass.send_ns[i] - pass.handle_ns[i];
      bool repeated = units.add_pass(pass.send_ns);
      repeated &= requests.add_pass(pass.send_ns);
      repeated &= handles.add_pass(pass.handle_ns);
      repeated &= send_self.add_pass(self);
      checks.expect(repeated, 1, "requests repeat exactly across passes");
      exchanges = pass.exchanges;
    }
    untraced_raw_total = units.total();
  }

  const double c_ref = pb::kCalibrationRefMs;
  double c_run = calibrator.c_run();
  const auto cal = [&](double raw) { return pb::calibrated(raw, c_ref, c_run); };

  // --- Traced pass and probes (per-layer metrics only).
  pb::SpanRecorder spans;
  double traced_wall_ns = 0;
  double traced_work_ns = 0;  // participants (studies) or sends (replay)
  std::optional<Probes> probes;
  if (args.trace == 1) {
    if (!replay) {
      pb::PassOptions options;
      options.proxy = &proxy;
      options.spans = &spans;
      const pb::PassResult pass = pb::run_study_pass(*setup, options);
      checks.expect(pass.digest == counted.digest, pass.participant_days,
                    "traced pass digest equals the untraced passes'");
      traced_wall_ns = static_cast<double>(pass.wall_ns);
      for (const pb::SpanRecord& r : spans.records())
        if (r.parent == pb::SpanRecord::kNoParent &&
            r.name.rfind("participant", 0) == 0)
          traced_work_ns += static_cast<double>(r.end_ns - r.start_ns);
    } else {
      const pb::ReplayResult pass = pb::run_replay_pass(
          *setup, stream, proxy, {}, &spans, /*counting=*/false);
      checks.count(pass.status_mismatches, stream.size(),
                   "traced replay status equals the captured one");
      checks.expect(pass.digest == counted.digest, 1,
                    "traced replay digest equals the live pass's");
      traced_wall_ns = static_cast<double>(pass.wall_ns);
      traced_work_ns = sum(pass.send_ns);
    }
    probes = run_probes(*setup, counted.gsm_log, calibrator);
    c_run = calibrator.c_run();
  }

  // --- End-to-end estimates (calibrated, and raw beside them).
  const double passes = static_cast<double>(units.passes());
  const double n_requests = static_cast<double>(requests.units());
  const double raw_setup_s = pb::median(setup_ns) / 1e9;
  const double raw_pass_s = untraced_raw_total / 1e9;
  // A replay pass stands for the participant-days whose traffic it carries.
  const double raw_pd_per_s = pd / raw_pass_s;
  const double raw_req_per_s = n_requests / raw_pass_s;
  const std::vector<double> latency = requests.unit_medians();
  const double raw_p50_us = pb::percentile(latency, 0.50) / 1e3;
  const double raw_p99_us = reportable_percentile(latency, 0.99) / 1e3;
  checks.expect(pb::percentile_reportable(latency.size(), 0.99), 1,
                "enough requests for a p99");
  const double peak_rss_mb =
      static_cast<double>(telemetry::read_process_stats().peak_rss_bytes) /
      (1024.0 * 1024.0);

  Metrics detail;
  detail.add("c_run_ms", c_run, "ms");
  detail.add("c_ref_ms", c_ref, "ms");
  detail.add("calibration_samples",
             static_cast<double>(calibrator.samples().size()), "count");
  detail.add("passes", passes, "count");
  detail.add("setup_samples", static_cast<double>(setup_ns.size()), "count");
  detail.add("unit_samples", static_cast<double>(units.units()), "count");
  detail.add("request_samples", n_requests, "count");
  detail.add("raw.setup_s", raw_setup_s, "s");
  detail.add("raw.pd_per_s", raw_pd_per_s, "pd/s");
  detail.add("raw.req_per_s", raw_req_per_s, "1/s");
  detail.add("raw.req_p50_us", raw_p50_us, "us");
  detail.add("raw.req_p99_us", raw_p99_us, "us");
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"detail\": %s}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              detail.json().c_str());

  Metrics m;
  if (args.trace == 0) {
    m.add("setup_s", cal(raw_setup_s), "s");
    m.add("pd_per_s", raw_pd_per_s * c_run / c_ref, "pd/s");
    m.add("req_per_s", raw_req_per_s * c_run / c_ref, "1/s");
    m.add("req_p50_us", cal(raw_p50_us), "us");
    m.add("req_p99_us", cal(raw_p99_us), "us");
    m.add("upload_kb_per_pd", wire.request_bytes / 1024.0 / pd, "KiB");
    m.add("download_kb_per_pd", wire.response_bytes / 1024.0 / pd, "KiB");
    m.add("req_per_pd", wire.requests / pd, "count");
    m.add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    const auto ms = [&](double raw_ns) { return cal(raw_ns) / 1e6; };
    const auto us = [&](double raw_ns) { return cal(raw_ns) / 1e3; };
    m.add("world.generate_ms", ms(pb::median(world_ns)), "ms");
    m.add("mobility.trace_ms", ms(pb::median(traces.unit_medians())), "ms");
    const std::vector<double> days = nonzero(runs.unit_medians());
    m.add("core.pms.day_ms_p50", ms(pb::percentile(days, 0.5)), "ms");
    m.add("core.pms.day_ms_p90", ms(reportable_percentile(days, 0.9)), "ms");
    m.add("core.pms.self_ms_per_pd", ms(run_self.total()) / pd, "ms");
    for (const char* iface : {"gsm", "wifi", "gps", "accel"})
      m.add(std::string("sensing.") + iface + "_per_pd",
            counter(counted.counters, std::string("sensing.") + iface) / pd,
            "count");
    m.add("sensing.j_per_pd", counted.sensing_j / pd, "J");
    m.add("sensing.gsm_read_us", us(probes->gsm_read_ns), "us");
    m.add("sensing.wifi_scan_us", us(probes->wifi_scan_ns), "us");
    m.add("algorithms.gca_pass_ms", ms(probes->gca_pass_ns), "ms");

    m.add("net.send_self_us_p50", us(pb::percentile(send_self.unit_medians(), 0.5)),
          "us");
    const double sent = counter(counters, "net_requests_total");
    m.add("net.retries_per_req",
          sent > 0 ? counter(counters, "net_retries_total") / sent : 0.0,
          "ratio");
    m.add("net.breaker_opens", counter(counters, "net_breaker_open_total"),
          "count");
    m.add("net.fast_fails", counter(counters, "net_breaker_fast_fail_total"),
          "count");

    // Per route: requests, calibrated handle time and bytes per pass.
    double route_ns[pb::kRouteCount] = {};
    const std::vector<double> handle =
        replay ? handles.unit_medians() : latency;
    for (std::size_t i = 0; i < handle.size() && i < exchanges.size(); ++i)
      route_ns[static_cast<std::size_t>(exchanges[i].route)] += handle[i];
    for (std::size_t r = 0; r < pb::kRouteCount; ++r) {
      const std::string stem =
          std::string("cloud.") + pb::route_name(static_cast<pb::Route>(r));
      m.add(stem + ".count", wire.route_count[r], "count");
      m.add(stem + ".ms", ms(route_ns[r]), "ms");
      m.add(stem + ".req_kb", wire.route_request_bytes[r] / 1024.0, "KiB");
      m.add(stem + ".resp_kb", wire.route_response_bytes[r] / 1024.0, "KiB");
    }

    const std::vector<double> save_times = saves.unit_medians();
    m.add("core.persistence.save_ms_p50", ms(pb::percentile(save_times, 0.5)),
          "ms");
    m.add("core.persistence.save_ms_p90",
          ms(reportable_percentile(save_times, 0.9)), "ms");
    m.add("core.persistence.checkpoint_kb_p50",
          pb::percentile(counted.checkpoint_bytes, 0.5) / 1024.0, "KiB");
    m.add("core.persistence.checkpoint_kb_per_pd",
          sum(counted.checkpoint_bytes) / 1024.0 / pd, "KiB");
    const std::vector<double> restore_times = restores.unit_medians();
    m.add("core.persistence.restore_ms_mean",
          restore_times.empty()
              ? 0.0
              : ms(sum(restore_times)) / static_cast<double>(restore_times.size()),
          "ms");
    m.add("core.persistence.restores", static_cast<double>(counted.restores),
          "count");

    m.add("core.outbox.enqueued_per_pd",
          static_cast<double>(counted.outbox.enqueued) / pd, "count");
    m.add("core.outbox.recovered", static_cast<double>(counted.outbox.recovered),
          "count");
    m.add("core.outbox.dropped", static_cast<double>(counted.outbox.dropped),
          "count");
    m.add("core.outbox.pending_at_end",
          static_cast<double>(counted.outbox.pending), "count");

    for (const char* cache :
         {"pms_gca", "cloud_gca", "net_conditional", "cloud_analytics"}) {
      const std::string stem = std::string("cache.") + cache + ".";
      double total = 0;
      for (const char* outcome : {"local_hit", "cloud_hit", "recompute", "miss"})
        total += counter(counters, stem + outcome);
      const double hits = counter(counters, stem + "local_hit") +
                          counter(counters, stem + "cloud_hit");
      m.add(std::string("cache.") + cache + ".hit_ratio",
            total > 0 ? hits / total : 0.0, "ratio");
    }

    const std::vector<double>& samples = calibrator.samples();
    m.add("host.calib_ms_p50", c_run, "ms");
    m.add("host.calib_ms_iqr_pct",
          100.0 * (pb::quantile(samples, 0.75) - pb::quantile(samples, 0.25)) /
              c_run,
          "%");
    m.add("raw.setup_s", raw_setup_s, "s");
    m.add("raw.pd_per_s", raw_pd_per_s, "pd/s");
    m.add("raw.req_per_s", raw_req_per_s, "1/s");
    m.add("raw.req_p50_us", raw_p50_us, "us");
    m.add("raw.req_p99_us", raw_p99_us, "us");
    m.add("samples.passes", passes, "count");
    m.add("samples.units", static_cast<double>(units.units()), "count");
    m.add("samples.requests", n_requests, "count");
    m.add("samples.setup", static_cast<double>(setup_ns.size()), "count");
    m.add("samples.calibration",
          static_cast<double>(calibrator.samples().size()), "count");

    // Traced pass: self time per layer as a share of the pass's wall time.
    const std::map<std::string, double> self = spans.self_ns_by_layer();
    for (const char* layer :
         {"study", "mobility", "core.pms", "core.persistence", "net", "cloud"}) {
      const auto it = self.find(layer);
      m.add(std::string("trace.") + layer + ".self_pct",
            it == self.end() ? 0.0 : 100.0 * it->second / traced_wall_ns, "%");
    }
    m.add("trace.coverage_pct", 100.0 * spans.root_ns() / traced_wall_ns, "%");
    m.add("trace.spans", static_cast<double>(spans.records().size()), "count");
    m.add("bench.trace_overhead_pct",
          100.0 * (traced_work_ns - untraced_raw_total) / untraced_raw_total,
          "%");
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed, m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper-study|sync-replay|device-churn "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
