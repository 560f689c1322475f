#!/usr/bin/env python3
"""Request-level benchmark of the compression-aware advisor.

Builds the harness (perfbench/CMakeLists.txt, which compiles the repository's
library from source) into .bench_build/perfbench, runs one workload and prints
every metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload tpch-warm --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 25

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
the untraced binary and then the traced one (spans, allocation counts, layer
replays) and reports the per-layer metrics; trace.overhead_pct compares the
two runs' median latency. --workload all runs every workload both ways and
reports both metric sets.
Exits non-zero when a request fails its check against the serial reference
or a reference cannot be reproduced.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ["tpch-warm", "scale-cold", "service-mixed"]

# name -> unit, in report order. Mirrors BENCHMARK.json.
END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "requests_per_s": "1/s",
    "improvement_pct": "%",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "advisor.candidates_ms": "ms",
    "advisor.estimation_ms": "ms",
    "advisor.selection_ms": "ms",
    "advisor.merging_ms": "ms",
    "advisor.enumeration_ms": "ms",
    "advisor.candidates": "count",
    "advisor.whatif_calls": "count",
    "engine.render_ms": "ms",
    "optimizer.costs_computed": "count",
    "optimizer.costs_cached": "count",
    "optimizer.cache_hit_ratio": "ratio",
    "optimizer.cost_us": "us",
    "estimator.sampled": "count",
    "estimator.deduced": "count",
    "estimator.cost_pages": "pages",
    "estimator.chosen_f": "fraction",
    "estimator.cache_hits": "count",
    "estimator.cache_misses": "count",
    "estimator.cache_hit_ratio": "ratio",
    "estimator.cache_entries": "count",
    "estimator.cache_bytes": "bytes",
    "estimator.cache_evictions": "count",
    "stats.rows_scanned": "count",
    "stats.samples": "count",
    "stats.sample_ms": "ms",
    "compress.measure_ns_per_row.none": "ns",
    "compress.measure_ns_per_row.row": "ns",
    "compress.measure_ns_per_row.page": "ns",
    "compress.measure_ns_per_row.global_dict": "ns",
    "compress.measure_ns_per_row.rle": "ns",
    "compress.measure_ns_per_row.bitmap": "ns",
    "service.queue_ms.p50": "ms",
    "service.run_ms.p50": "ms",
    "service.retries": "count",
    "service.rejected": "count",
    "service.degraded": "count",
    "alloc.per_request": "count",
    "check.report_counter_mismatches": "count",
    "trace.overhead_pct": "%",
    "trace.request_ms": "ms",
    "trace.request_self_ms": "ms",
}
# Printed for the reader, not part of the JSON result.
INFO = {
    "failed_frac": "fraction",
    "latency_ms.samples": "count",
    "setup.reps": "count",
    "check.report_counter_mismatches": "count",
}

# Each workload's runs must end within 180 s; the build is outside this
# budget.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds both harness binaries; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the library sources (CMakeLists.txt, src/) are not "
            "next to perfbench/")
        return None
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_plain", "perfbench_traced"])
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("perfbench: build failed, see " + out.name)
                return None
    return {name: os.path.join(BUILD, name)
            for name in ("perfbench_plain", "perfbench_traced")}


def run_binary(binary, workload, seed, seconds, deadline, spans=None):
    """Runs one harness binary; returns its parsed JSON result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()),
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % os.path.basename(binary))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s exited %d without a result"
            % (os.path.basename(binary), proc.returncode))
        return None
    for err in result["errors"]:
        log("perfbench: %s: %s" % (workload, err))
    result["ok"] = proc.returncode == 0 and result["correct"]
    return result


def pick(workload, label, values, wanted):
    """Prints and returns {name: (value, unit)} for the wanted metrics."""
    missing = [name for name in wanted if name not in values]
    if missing:
        log("perfbench: %s: missing metrics %s" % (workload, missing))
        return None
    for name, unit in wanted.items():
        print("%-14s %-8s %-40s %.6g %s" % (workload, label, name,
                                             values[name], unit))
    return {name: (values[name], unit) for name, unit in wanted.items()}


def run_workload(binaries, workload, seed, seconds, trace, deadline):
    """Runs the untraced binary and, with trace, the traced one.

    Returns (ok, attempted, failed, end_to_end, per_layer) with metric dicts
    {name: (value, unit)} (per_layer None without trace), or None when a run
    produced no result.
    """
    plain = run_binary(binaries["perfbench_plain"], workload, seed, seconds,
                       deadline)
    if plain is None:
        return None
    runs = [plain]
    if trace:
        spans_dir = os.path.join(BUILD, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))
        traced = run_binary(binaries["perfbench_traced"], workload, seed,
                            seconds, deadline, spans)
        if traced is None:
            return None
        runs.append(traced)
        base = plain["metrics"]["latency_ms.p50"]
        traced["metrics"]["trace.overhead_pct"] = (
            100.0 * (traced["metrics"]["latency_ms.p50"] / base - 1.0))
    for run in runs:
        label = "traced" if run["traced"] else "untraced"
        for name, unit in INFO.items():
            if name in run["metrics"] and not (run["traced"]
                                               and name in PER_LAYER):
                print("%-14s %-8s %-40s %.6g %s" % (
                    workload, label, name, run["metrics"][name], unit))
    end_to_end = pick(workload, "untraced", plain["metrics"], END_TO_END)
    per_layer = (pick(workload, "traced", runs[1]["metrics"], PER_LAYER)
                 if trace else None)
    if end_to_end is None or (trace and per_layer is None):
        return None
    return (all(r["ok"] for r in runs), sum(r["attempted"] for r in runs),
            sum(r["failed"] for r in runs), end_to_end, per_layer)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binaries = build()
    if binaries is None:
        return 2
    workloads = [args.workload]
    trace = args.trace
    if args.workload == "all":
        workloads, trace = WORKLOADS, 1

    ok, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_BUDGET_S
        result = run_workload(binaries, workload, args.seed, args.seconds,
                              trace, deadline)
        if result is None:
            return 1
        ok = ok and result[0]
        attempted += result[1]
        failed += result[2]
        if args.workload == "all":
            chosen = dict(result[3], **result[4])
            prefix = workload + "/"
        else:
            chosen = result[4] if trace else result[3]
            prefix = ""
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
