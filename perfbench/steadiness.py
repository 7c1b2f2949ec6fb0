#!/usr/bin/env python3
"""Measures the benchmark's own steadiness and records a baseline.

    python3 perfbench/steadiness.py --sets 2 --runs 10 \
        --json perfbench/results/steadiness.json \
        --markdown perfbench/results/steadiness.md

For every workload in BENCHMARK.json it makes `--sets` sets of `--runs`
runs (at BENCHMARK.json's run_seconds unless --seconds is given), each
run with another seed, and reports per end-to-end metric the
median and quartiles of each set, calibrated and raw side by side, the
spread (interquartile range as a share of the median) and the shift of the
second set's median against the first's, in the direction that is worse.
A metric is steady when its spread stays below a third of its bound and the
shift within the bound (setup_s is exempt from the spread rule). Exits 1 if
any metric is not steady or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Timed end-to-end metrics whose raw value the detail line carries.
RAW = {"setup_s", "pd_per_s", "req_per_s", "req_p50_us", "req_p99_us"}


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d failed" % (workload, seed))
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect result" % (workload, seed))
    return result, detail


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_shift(first, second, better):
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--json", required=True)
    parser.add_argument("--markdown")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    record = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                result, detail = run_once(workload, seed, seconds)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    if name in RAW:
                        values.setdefault("raw." + name, []).append(
                            detail["raw." + name]["value"])
                values.setdefault("c_run_ms", []).append(
                    detail["c_run_ms"]["value"])
                print("%s set %d seed %d: %s" % (
                    workload, s + 1, seed,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in result["metrics"].items())),
                    flush=True)
            sets.append({k: summary(v) for k, v in values.items()})
        verdicts = {}
        for name, m in metrics.items():
            spreads = [st[name]["spread"] for st in sets]
            shift = (worse_shift(sets[0][name]["median"],
                                 sets[1][name]["median"], m["better"])
                     if len(sets) > 1 else 0.0)
            ok = shift <= m["bound"] and (
                name == "setup_s" or max(spreads) < m["bound"] / 3)
            steady &= ok
            verdicts[name] = {"bound": m["bound"], "spreads": spreads,
                              "worse_shift": shift, "steady": ok}
        record["workloads"][workload] = {"sets": sets, "verdicts": verdicts}

    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if args.markdown:
        write_markdown(args.markdown, record, metrics)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


def write_markdown(path, record, metrics):
    out = ["| workload | metric | set | median | q1 | q3 | spread | raw median | raw spread | bound | worse shift | steady |",
           "|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for workload, w in record["workloads"].items():
        for name in metrics:
            v = w["verdicts"][name]
            for i, st in enumerate(w["sets"]):
                s = st[name]
                raw = st.get("raw." + name)
                out.append("| %s | %s | %d | %.5g | %.5g | %.5g | %.1f %% | %s | %s | %.2f | %s | %s |" % (
                    workload, name, i + 1, s["median"], s["q1"], s["q3"],
                    100 * s["spread"],
                    "%.5g" % raw["median"] if raw else "",
                    "%.1f %%" % (100 * raw["spread"]) if raw else "",
                    v["bound"], "%.1f %%" % (100 * v["worse_shift"]) if i else "",
                    ("yes" if v["steady"] else "NO") if i else ""))
        for i, st in enumerate(w["sets"]):
            c = st["c_run_ms"]
            out.append("| %s | C_run (ms) | %d | %.4g | %.4g | %.4g | %.1f %% | | | | | |" % (
                workload, i + 1, c["median"], c["q1"], c["q3"], 100 * c["spread"]))
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


if __name__ == "__main__":
    sys.exit(main())
