#!/usr/bin/env bash
# Tier-1 verification, five legs: a plain build (plus the ScienceBands
# 8-seed §4 bands, a test-name stability check, the golden study digest
# gates, a deployment-bench smoke run, the perfbench selftest, and the
# telemetry ns/op budget gate), a warnings-as-errors build, an
# address+UB-sanitized one, a
# thread-sanitized build that runs the Sharding-labeled tests (the
# telemetry registry/tracer hammer, the sharded-cloud hammer, the
# router/cloud suites, and the parallel deployment study) together with
# the SchedulerPerf battery (the batched sensing hot loop raced across 8
# workers), the Concurrency battery (striped counters / sharded histograms
# / metric handles), and the Alerting battery (recorder + alert engine),
# and a chaos leg that re-runs the Robustness-labeled fault/outbox/breaker
# tests under asan together with Caching, Alerting, and the Population
# study-runner battery.
# The golden-digest gate runs studyctl once against
# tests/golden/study_digest.txt, then once under the pinned device-chaos
# plan (crash/restart injection, privacy wipes, late joins) against
# tests/golden/study_digest_crash.txt. ctest checks both goldens too
# (Population.GoldenStudyReproducesKnownAnswer,
# Lifecycle.CrashedStudyIsDeterministicAcrossShapes).
# Usage: ./ci.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")"

run_suite() {
  local build_dir="$1"
  # Extra ctest selection args, e.g. "-L Sharding" (label) or "-R Foo"
  # (name regex); empty runs everything.
  local test_selector="$2"
  shift 2
  echo "=== configure + build: ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ctest: ${build_dir} ==="
  (cd "${build_dir}" &&
   ctest --output-on-failure -j "$(nproc)" ${test_selector})
}

run_suite build "" "$@"

# Test-name stability: ctest names each parameterized case after gtest's
# print of its parameter, and for a plain struct that is a byte dump — so a
# parameter struct with uninitialised padding renames its cases from run to
# run (ASLR moves the garbage). List every test binary twice; any
# difference fails.
echo "=== test-name stability ==="
for test_bin in build/tests/test_*; do
  [[ -f "${test_bin}" && -x "${test_bin}" ]] || continue
  if ! diff <("${test_bin}" --gtest_list_tests) \
            <("${test_bin}" --gtest_list_tests); then
    echo "test names of ${test_bin} differ between two listings" >&2
    exit 1
  fi
done
echo "test names stable"

# Golden-digest gate: the deployment study must stay byte-identical to the
# digest captured at the pre-change baseline and committed with each
# hot-path PR (tests/golden/study_digest.txt). Catches any perf change that
# quietly reorders RNG draws or drops samples. Runs with --progress and the
# timeseries recorder + alert engine at defaults (fully on), so the gate
# also proves telemetry never perturbs the study.
echo "=== golden study digest (telemetry fully enabled) ==="
golden_digest="$(cat tests/golden/study_digest.txt)"
actual_digest="$(./build/examples/studyctl --participants 4 --days 3 \
    --threads 2 --shards 4 --progress --report build/study_report.json \
    2>/dev/null |
  sed -n 's/^cloud content digest: //p')"
if [[ "${actual_digest}" != "${golden_digest}" ]]; then
  echo "golden digest mismatch: got '${actual_digest}'," \
       "expected '${golden_digest}'" >&2
  exit 1
fi
echo "study digest ${actual_digest} matches golden"

# Crashed-study golden gate: the same study under a pinned device-lifecycle
# chaos plan (mid-day crashes with checkpoint/restore recovery, end-of-day
# privacy wipes, late joins) must also stay byte-identical — crash/restart
# scheduling rides the same deterministic RNG contract as the healthy path.
echo "=== golden study digest (device chaos plan) ==="
crash_plan="crash=0d..2d,crash_rate=0.5,restart_delay=2h;wipe=1d..2d,wipe_rate=0.5;join=0d..2d,join_rate=0.5"
crash_golden="$(cat tests/golden/study_digest_crash.txt)"
actual_digest="$(./build/examples/studyctl --participants 4 --days 3 \
    --threads 2 --shards 4 --fault-plan "${crash_plan}" \
    --report build/study_report_crash.json 2>/dev/null |
  sed -n 's/^cloud content digest: //p')"
if [[ "${actual_digest}" != "${crash_golden}" ]]; then
  echo "crashed-study digest mismatch: got '${actual_digest}'," \
       "expected '${crash_golden}'" >&2
  exit 1
fi
echo "crashed-study digest ${actual_digest} matches golden"

# Deployment-bench smoke run: the bench only measures (ctest asserts its
# results), so this just keeps it running end to end — a crash or a
# non-zero exit fails CI.
echo "=== deployment bench smoke run ==="
./build/bench/bench_deployment_study --threads 1 --max-pop 16 >/dev/null

# Benchmark self-check: perfbench mirrors the study loop by hand (its own
# proxy and runner over the middleware in src/), so it must keep agreeing
# with DeploymentStudy's digest, with and without churn, after any change
# to the RNG or the study. Builds into .bench_build/ on first use.
echo "=== perfbench selftest ==="
python3 perfbench/run.py --selftest

# Telemetry budget gate: 8 threads hammer the metric hot paths; asserts
# exact totals, the lock-free handle path beating the registry-lookup path,
# and absolute ns/op ceilings (see bench_micro_algorithms.cpp).
echo "=== telemetry ns/op budget ==="
./build/bench/bench_micro_algorithms --assert-telemetry-budget

# -Wall -Wextra are always on; this build promotes them to errors so new
# warnings fail CI instead of scrolling by.
# The ScienceBands label (the 8-seed §4 study, ~15-30 s of CPU on 4
# threads) runs in the plain leg only: its bands judge the science, which
# neither -Werror nor a sanitizer changes.
run_suite build-werror "-LE ScienceBands" -DPMWARE_WERROR=ON "$@"
run_suite build-asan "-LE ScienceBands" -DPMWARE_SANITIZE="address;undefined" "$@"
# tsan cannot combine with asan; a third build runs just the tests that
# exercise threads (everything else is single-threaded by design). The
# Caching label rides along: conditional transfer is concurrent (the
# client cache's mutex, and the sharded request path it revalidates
# against). SchedulerPerf races the batched dispatch loop and the device
# env cache under tsan.
# Concurrency races the striped-counter / sharded-histogram / handle hot
# paths; Alerting races the recorder + engine through the parallel study's
# determinism guard. Population races the streaming wave scheduler's
# workers against the shared fold state and slot arenas. Lifecycle races
# the crashed-study determinism battery (checkpoint/restore and churn
# across shards x threads x cache).
run_suite build-tsan "-L Sharding|Caching|SchedulerPerf|Concurrency|Alerting|Population|Lifecycle" -DPMWARE_SANITIZE="thread" "$@"
# Chaos leg: the fault-injection / outbox / circuit-breaker battery again
# under asan+ubsan, isolated so failures point straight at the recovery
# machinery, plus the cache battery (conditional transfer under faults,
# digest invalidation) and the alerting battery (rule evaluation over the
# failure counters those faults drive). Reuses the sanitized build above.
# Population rides along so the bounded-memory guarantee is asserted under
# asan (every engine-log allocation routed through the slot arenas).
# Lifecycle runs the checkpoint/restore corruption battery and the
# crash/wipe/churn study under asan, where a half-applied restore or a
# stale pointer across a PMS teardown/reboot would trip immediately.
echo "=== ctest: build-asan chaos (-L Robustness|Caching|Alerting|Population|Lifecycle) ==="
(cd build-asan && ctest --output-on-failure -j "$(nproc)" -L "Robustness|Caching|Alerting|Population|Lifecycle")

echo "ci.sh: all five suites passed"
