// Exporters: render the metrics registry (and tracer) for machines.
//
//  * Prometheus text — what the cloud instance serves on GET /metrics.
//  * JSON (util/json.hpp) — what benches dump with --json, producing the
//    BENCH_*.json trajectory files; parses back via Json::parse.
//  * Flame folds and slowest-trace trees — what /tracez serves and the
//    deployment-study bench embeds per simulated day.
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace pmware::telemetry {

/// Prometheus exposition text: "# HELP"/"# TYPE" headers per family, one
/// "name{label=\"v\"} value" line per series; histograms expand into
/// cumulative _bucket{le=...} lines plus _sum and _count. Label values and
/// help text are escaped per the exposition format.
std::string to_prometheus(const MetricsRegistry& reg);

/// {"metrics": {name: {"kind":..., "help":..., "series":[{"labels":{...},
/// "value"|"count"/"sum"/"buckets":...}]}}}
Json to_json(const MetricsRegistry& reg);

/// Finished spans as a JSON array (start order, parents before children),
/// each with its trace_id so consumers can regroup causal trees.
Json spans_to_json(const Tracer& tracer);

/// Folded flame stacks grouped by simulated day of each span's sim_begin:
/// [{"day": D, "stacks": {"root;child;leaf": self_wall_us, ...}}, ...].
/// Self wall time is the span's wall cost minus its children's, clamped at
/// zero — the classic folded-stack format, renderable by any flamegraph
/// tool. Takes a snapshot (records or snapshot()) so callers pick their
/// synchronization.
Json flame_by_day(const std::vector<SpanRecord>& spans);

/// The N slowest traces (by root-span wall time), each as
/// {"trace_id", "root", "wall_us", "sim_begin", "sim_duration_s",
///  "span_count", "spans": [...]}. At most `max_spans_per_trace` spans are
/// embedded per trace (record order, parents first); "spans_truncated" is
/// set when the cap bites. Serves GET /tracez.
Json slowest_traces_json(const std::vector<SpanRecord>& spans, std::size_t n,
                         std::size_t max_spans_per_trace = 200);

/// Human-readable post-run digest for examples and studyctl: span/trace
/// totals, the slowest trace, SLO violation count, and log-ring occupancy.
std::string diagnostics_summary(const Tracer& tracer,
                                const MetricsRegistry& reg);

// --- bench --json support -------------------------------------------------

/// Current layout of the BENCH_*.json documents ("schema_version"). History:
/// 1 = PR 1/2 (bench/results/metrics/spans), 2 = adds schema_version, the
/// "run" metadata block, per-day "flame" folds, and span trace_ids, 3 =
/// adds the deployment-study "shard_sweep" block (per-configuration
/// contention telemetry from the sharded cloud storage), 4 = adds the
/// deployment-study "fault_sweep" block (recovery-equivalence digests and
/// sync-reliability counters under scripted cloud fault plans), 5 = adds
/// the deployment-study "cache_sweep" block (cache-on vs cache-off digests,
/// request/recluster collapse, hit taxonomy, and the conditional-transfer
/// microbenchmarks), 6 = adds the deployment-study "scheduler_sweep" block
/// (run-generation dispatch microbench and before/after scheduler.run
/// flame self-time), 7 = adds the "timeseries" block (per-sim-interval
/// counter deltas and gauge values from the sim-time series recorder), the
/// "process" block (RSS / peak RSS / CPU sampled at export), and the
/// pmware_build_info gauge in "metrics", 8 = adds the deployment-study
/// "population_sweep" block (streaming-runner scale ladder: wall time,
/// participant-days/sec, peak RSS, cloud request rate, and per-shard
/// request heat at N = 16 / 1k / 10k / 100k), 9 = adds the
/// deployment-study "chaos_sweep" block (device-lifecycle chaos: crash/
/// restart injection, privacy wipes, and late joins, with determinism
/// digests per shards x threads x cache x runner shape, wipe-tombstone
/// counters, and checkpoint-size / restore-latency distributions), 10 =
/// drops the deployment-study shard_sweep, fault_sweep, cache_sweep,
/// scheduler_sweep, chaos_sweep, and throughput blocks (ctest asserts what
/// they checked) and moves participant-days/sec into "thread_scaling".
inline constexpr int kBenchSchemaVersion = 10;

/// Reproducibility metadata embedded in every BENCH_*.json, so the perf
/// trajectory stays comparable across PRs. Zero fields mean "not
/// applicable" for the bench and are still emitted.
struct RunMeta {
  std::uint64_t seed = 0;
  int threads = 0;
  int sim_days = 0;
};

/// `git describe --always --dirty` of the working tree, or "" when git (or
/// the repo) is unavailable.
std::string git_describe();

/// Registers the pmware_build_info gauge (value 1; labels: version,
/// git_describe, compiler, sanitizer) in `reg` if absent, so every
/// /metrics scrape and bench JSON self-identifies the build. Idempotent;
/// called by the cloud's /metrics handler and write_bench_json. Survives
/// reset() by re-registering on the next scrape.
void ensure_build_info(MetricsRegistry& reg);

/// Parses "--json [path]" out of argv. Returns the explicit path, the
/// default "BENCH_<bench_name>.json" when --json is given bare, or "" when
/// the flag is absent.
std::string bench_json_path(int argc, char** argv,
                            const std::string& bench_name);

/// Writes {"schema_version": ..., "bench": name, "run": {...}, "results":
/// extra, "metrics": ..., "timeseries": {...}, "process": {...},
/// "spans": [...], "flame": [...]} from the process-wide
/// registry/tracer/recorder to `path`. Returns false (with a log line)
/// on I/O failure.
bool write_bench_json(const std::string& path, const std::string& bench_name,
                      Json extra = Json::object(), RunMeta meta = {});

}  // namespace pmware::telemetry
