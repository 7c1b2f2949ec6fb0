// Microbenchmarks (google-benchmark) for the hot paths of the middleware:
// GCA clustering throughput, Tanimoto matching, the JSON wire format, REST
// routing, the world's spatial queries, and the sensing dispatch loop
// (with allocation and registry-lookup instrumentation). These bound the
// cost of the cloud's offloaded computations and of each on-device sensing
// tick.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "algorithms/gca.hpp"
#include "algorithms/signature.hpp"
#include "core/codec.hpp"
#include "energy/meter.hpp"
#include "net/router.hpp"
#include "sensing/device.hpp"
#include "sensing/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

// Counting allocator: every global operator new in this binary bumps a
// relaxed counter, so benches can assert "zero heap allocations per sample"
// as a measured fact instead of a code-review claim.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pmware;
using world::CellId;

CellId cell(std::uint32_t cid) {
  return CellId{404, 10, 1, cid, world::Radio::Gsm2G};
}

/// Synthetic day pattern: home oscillation, commute chain, work oscillation.
/// Each serving cell holds for 1..`max_hold` one-minute readings; a phone
/// holds one for several minutes (~250 runs a day); 1 draws a fresh cell
/// for every reading.
std::vector<algorithms::CellObservation> make_log(int days_n, Rng& rng,
                                                  std::size_t max_hold = 1) {
  std::vector<algorithms::CellObservation> log;
  SimTime t = 0;
  auto dwell = [&](std::initializer_list<std::uint32_t> cells, SimDuration d) {
    std::vector<std::uint32_t> v(cells);
    for (SimDuration e = 0; e < d;) {
      const CellId c = cell(v[rng.index(v.size())]);
      const std::size_t hold = max_hold > 1 ? 1 + rng.index(max_hold) : 1;
      for (std::size_t i = 0; i < hold && e < d; ++i, e += 60, t += 60)
        log.push_back({t, c});
    }
  };
  auto travel = [&](std::initializer_list<std::uint32_t> chain) {
    for (std::uint32_t c : chain) {
      log.push_back({t, cell(c)});
      t += 60;
    }
  };
  for (int day = 0; day < days_n; ++day) {
    dwell({1, 2, 3}, hours(9));
    travel({20, 21, 22, 23});
    dwell({10, 11}, hours(8));
    travel({23, 22, 21, 20});
    dwell({1, 2, 3}, hours(6));
  }
  return log;
}

void BM_RunGca(benchmark::State& state) {
  Rng rng(1);
  const auto log = make_log(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::run_gca(log));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_RunGca)->Arg(1)->Arg(7)->Arg(14)->Unit(benchmark::kMillisecond);

/// The cloud's discover pattern: one GcaState reclustered after each of 14
/// days over the growing log, most passes incremental. Readings hold their
/// cell for up to 12 minutes, as a phone's serving cell does.
void BM_GcaStateDaily(benchmark::State& state) {
  Rng rng(1);
  const auto log = make_log(14, rng, 12);
  const std::size_t per_day = log.size() / 14;
  for (auto _ : state) {
    algorithms::GcaState gca;
    for (std::size_t day = 1; day <= 14; ++day)
      benchmark::DoNotOptimize(gca.run(std::span(log).first(day * per_day)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 14);
}
BENCHMARK(BM_GcaStateDaily)->Unit(benchmark::kMillisecond);

void BM_Tanimoto(benchmark::State& state) {
  Rng rng(2);
  std::set<world::Bssid> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.insert(static_cast<world::Bssid>(rng.uniform_int(0, 1 << 20)));
    b.insert(static_cast<world::Bssid>(rng.uniform_int(0, 1 << 20)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::tanimoto(a, b));
  }
}
BENCHMARK(BM_Tanimoto)->Arg(4)->Arg(32)->Arg(256);

void BM_JsonProfileRoundTrip(benchmark::State& state) {
  core::MobilityProfile profile;
  profile.user = 1;
  profile.day = 3;
  for (int i = 0; i < 12; ++i)
    profile.places.push_back({static_cast<core::PlaceUid>(i + 1),
                              hours(i), hours(i) + minutes(45)});
  for (auto _ : state) {
    const std::string wire = core::to_json(profile).dump();
    benchmark::DoNotOptimize(core::profile_from_json(Json::parse(wire)));
  }
}
BENCHMARK(BM_JsonProfileRoundTrip);

void BM_RouterDispatch(benchmark::State& state) {
  net::Router router;
  for (int i = 0; i < 20; ++i) {
    router.add_route(net::Method::Get,
                     "/api/resource" + std::to_string(i) + "/:id",
                     [](const net::HttpRequest&, const net::PathParams&) {
                       return net::HttpResponse::json(Json::object());
                     });
  }
  net::HttpRequest request;
  request.method = net::Method::Get;
  request.path = "/api/resource19/42";
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.handle(request));
  }
}
BENCHMARK(BM_RouterDispatch);

void BM_WorldHearableCells(benchmark::State& state) {
  Rng rng(3);
  world::WorldConfig config;
  const auto world = world::generate_world(config, rng);
  const geo::LatLng pos = world->place(5).center;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world->hearable_cells(pos));
  }
}
BENCHMARK(BM_WorldHearableCells);

void BM_WorldVisibleAps(benchmark::State& state) {
  Rng rng(3);
  world::WorldConfig config;
  const auto world = world::generate_world(config, rng);
  const geo::LatLng pos = world->place(5).center;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world->visible_aps(pos));
  }
}
BENCHMARK(BM_WorldVisibleAps);

// --- Sensing dispatch: the batched scheduler's hot loop ---

/// One simulated day at the study's default cadence (GSM + accelerometer at
/// 60 s).
void drive_day(sensing::SamplingScheduler& s, SimTime day) {
  const SimTime begin = day * hours(24);
  s.run(TimeWindow{begin, begin + hours(24)});
}

void BM_SchedulerDispatchBatched(benchmark::State& state) {
  telemetry::registry().reset();
  energy::EnergyMeter meter;
  sensing::SamplingScheduler s(&meter);
  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < energy::kInterfaceCount; ++i) {
    s.set_batch_callback(static_cast<energy::Interface>(i),
                         [&samples](std::span<const SimTime> run) {
                           samples += run.size();
                           return run.size();
                         });
  }
  s.set_period(energy::Interface::Gsm, 60);
  s.set_period(energy::Interface::Accelerometer, 60);

  // Warmup: size scratch buffers, resolve counters, and settle the global
  // tracer's record vector past its next doubling (run() folds a constant
  // few scheduler.sampling.* records per window; the equality assertion
  // below must not catch a capacity growth reallocation).
  telemetry::tracer().reset();
  SimTime day = 0;
  for (int i = 0; i < 8; ++i) drive_day(s, day++);

  // Zero-per-sample proof: heap allocations over a dispatch window must not
  // scale with the sample count — a 1-day and a 2-day window must allocate
  // the same (window-constant) amount, and the registry must never be hit.
  const auto allocs_over = [&](int n_days) {
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    const SimTime begin = day * hours(24);
    s.run(TimeWindow{begin, begin + n_days * hours(24)});
    day += n_days;
    return g_heap_allocs.load(std::memory_order_relaxed) - a0;
  };
  const std::uint64_t lookups_before = telemetry::registry().lookup_count();
  const std::uint64_t allocs_one_day = allocs_over(1);
  const std::uint64_t allocs_two_days = allocs_over(2);
  const std::uint64_t hot_lookups =
      telemetry::registry().lookup_count() - lookups_before;
  if (allocs_two_days != allocs_one_day)
    state.SkipWithError("per-sample heap allocations detected in hot loop");
  if (hot_lookups != 0)
    state.SkipWithError("per-sample telemetry registry lookups detected");

  std::uint64_t hot_samples = 0;
  std::uint64_t hot_allocs = 0;
  for (auto _ : state) {
    const std::uint64_t s0 = samples;
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    drive_day(s, day++);
    hot_samples += samples - s0;
    hot_allocs += g_heap_allocs.load(std::memory_order_relaxed) - a0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hot_samples));
  state.counters["allocs_per_sample"] = benchmark::Counter(
      static_cast<double>(hot_allocs) / static_cast<double>(hot_samples));
  state.counters["registry_lookups_per_sample"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_SchedulerDispatchBatched)->Unit(benchmark::kMillisecond);

// --- Radio fading: one normal draw per heard cell per GSM read ---

/// Rng::normal with a run-time sigma, as read_gsm_into calls it; reports
/// ns per draw.
void BM_RngNormal(benchmark::State& state) {
  Rng rng(20141208);
  const double sigma = static_cast<double>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0, sigma));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngNormal)->Arg(4);

// --- Device sampling: position-keyed world-environment memo ---

/// read_gsm_into on a dwelling participant; asserts a zero-alloc steady
/// state.
void BM_DeviceReadGsm(benchmark::State& state) {
  Rng world_rng(3);
  world::WorldConfig world_config;
  const auto world = world::generate_world(world_config, world_rng);
  const geo::LatLng home = world->place(5).center;
  sensing::PositionOracle oracle;
  oracle.position = [home](SimTime) { return home; };
  oracle.activity = [](SimTime) { return mobility::Activity::Still; };
  oracle.indoors = [](SimTime) { return true; };
  sensing::Device device(world, oracle, sensing::DeviceConfig{}, Rng(7));

  sensing::GsmReading scratch;
  SimTime t = 0;
  for (int k = 0; k < 16; ++k) device.read_gsm_into(t += 60, scratch);

  std::uint64_t hot_allocs = 0;
  for (auto _ : state) {
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    device.read_gsm_into(t += 60, scratch);
    hot_allocs += g_heap_allocs.load(std::memory_order_relaxed) - a0;
    benchmark::DoNotOptimize(scratch);
  }
  if (hot_allocs != 0)
    state.SkipWithError("read_gsm_into allocated in steady state");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_sample"] =
      benchmark::Counter(static_cast<double>(hot_allocs) /
                         static_cast<double>(state.iterations()));
  state.counters["env_hit_rate"] = benchmark::Counter(
      device.env_queries() == 0
          ? 0.0
          : static_cast<double>(device.env_hits()) /
                static_cast<double>(device.env_queries()));
}
BENCHMARK(BM_DeviceReadGsm);

// --- Telemetry recording: pre-resolved handles vs registry lookups ---

/// One striped-counter inc through a pre-resolved reference — the steady
/// state of every MetricHandle call site.
void BM_CounterIncHandle(benchmark::State& state) {
  telemetry::registry().reset();
  telemetry::Counter& c =
      telemetry::registry().counter("bench_handle_total", {}, "bench");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncHandle);

/// The pre-handle idiom: name + labels looked up in the registry map (under
/// the registry mutex, building label strings) on every inc.
void BM_CounterIncRegistryLookup(benchmark::State& state) {
  telemetry::registry().reset();
  for (auto _ : state) {
    telemetry::registry()
        .counter("bench_lookup_total", {{"instance", "b0"}}, "bench")
        .inc();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncRegistryLookup);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::registry().reset();
  telemetry::HistogramMetric& h = telemetry::registry().histogram(
      "bench_observe", {}, 0, 4096, 16, "bench");
  double x = 0;
  for (auto _ : state) h.observe(x += 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

// --- --assert-telemetry-budget: the ci.sh gate ------------------------------
//
// Hand-rolled (not google-benchmark) so it can return a process exit code:
// 8 threads hammer the same fleet-shared instruments and the gate asserts
// (a) totals are exact — no lost increments under contention, (b) the
// pre-resolved handle path beats the per-op registry-lookup path, and
// (c) absolute ns/op budgets with ~10x headroom over measured values, so
// the gate catches regressions (a mutex on the inc path, a lookup snuck
// into a handle) without flaking on a loaded CI container.

/// Wall ns/op of `op(thread_index, op_index)` across kThreads * ops_per_thread
/// calls, all threads released together.
template <typename Op>
double threaded_ns_per_op(int threads, std::uint64_t ops_per_thread, Op op) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&go, &op, t, ops_per_thread] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) op(t, i);
    });
  }
  const auto begin = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  return static_cast<double>(wall) /
         static_cast<double>(static_cast<std::uint64_t>(threads) *
                             ops_per_thread);
}

int run_telemetry_budget_selfcheck() {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOps = 100000;
  // Container-safe budgets: measured cold-cache debug-build numbers are
  // well under a tenth of these.
  constexpr double kCounterBudgetNs = 1000;
  constexpr double kObserveBudgetNs = 5000;
  auto& reg = telemetry::registry();
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  std::printf("telemetry budget selfcheck: %d threads x %llu ops\n", kThreads,
              static_cast<unsigned long long>(kOps));

  reg.reset();
  telemetry::Counter& shared =
      reg.counter("budget_handle_total", {}, "selfcheck");
  const double handle_ns = threaded_ns_per_op(
      kThreads, kOps, [&shared](int, std::uint64_t) { shared.inc(); });
  std::printf("  counter inc, pre-resolved handle: %8.1f ns/op\n", handle_ns);
  check(shared.value() == static_cast<std::uint64_t>(kThreads) * kOps,
        "striped counter total exact under 8-thread contention");

  const double lookup_ns =
      threaded_ns_per_op(kThreads, kOps, [&reg](int, std::uint64_t) {
        reg.counter("budget_lookup_total", {{"instance", "b0"}}, "selfcheck")
            .inc();
      });
  std::printf("  counter inc, registry lookup:     %8.1f ns/op\n", lookup_ns);

  telemetry::HistogramMetric& hist =
      reg.histogram("budget_observe", {}, 0, 4096, 16, "selfcheck");
  const double observe_ns = threaded_ns_per_op(
      kThreads, kOps, [&hist](int t, std::uint64_t i) {
        hist.observe(static_cast<double>((i + static_cast<std::uint64_t>(t)) %
                                         4096));
      });
  std::printf("  histogram observe, sharded:       %8.1f ns/op\n", observe_ns);
  const auto snap = hist.snapshot();
  check(snap.stats.count() == static_cast<std::uint64_t>(kThreads) * kOps &&
            snap.buckets.total() == snap.stats.count(),
        "histogram shards merge coherently (bucket total == stats count)");

  check(handle_ns < lookup_ns,
        "lock-free handle path faster than locked registry-lookup path");
  check(handle_ns <= kCounterBudgetNs, "counter-inc within ns/op budget");
  check(observe_ns <= kObserveBudgetNs,
        "histogram-observe within ns/op budget");

  std::printf("telemetry budget selfcheck: %s\n",
              failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-telemetry-budget") == 0)
      return run_telemetry_budget_selfcheck();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
