#!/usr/bin/env python3
"""The repository benchmark: exhaustive checks and the hierarchy grid.

Builds perfbench (perfbench/CMakeLists.txt) from the checkout's sources in
.bench_build/, runs one workload, checks every verdict against hand-pinned
answers, and prints its metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload explore-plain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

--trace 0 repeats the workload in a fresh process per repetition until
--seconds have passed and reports the median of each end-to-end metric.
--trace 1 runs one untraced repetition plus one traced process and reports
the per-layer metrics. See perfbench/README.md for every metric's definition.

Exit status: 0 when every verdict matched; 1 on a verdict error (the result
is still printed, with "correct": false); 2 when the benchmark cannot build or
run at all (nothing is printed on standard output).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("explore-plain", "explore-symmetric", "hierarchy-grid")
EXPLORE = ("explore-plain", "explore-symmetric")

# End-to-end metrics (--trace 0): name -> unit. Every workload reports all.
END_TO_END = {
    "verdict_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rss_bytes_per_state": "B",
    "setup_s": "s",
    "slowest_predicate_s": "s",
}

# Per-layer metrics (--trace 1): name -> unit. A layer the workload never
# enters reports 0 (the grid never enters rc/check/engine; the explore
# workloads never run the grid's hierarchy/typesys passes).
PER_LAYER = {
    "rc.build_s": "s",
    "check.probe_s": "s",
    "check.probe_states": "count",
    "check.probe_waste": "ratio",
    "check.explore_s": "s",
    "engine.busy_s": "s",
    "engine.wait_s": "s",
    "engine.steal_s": "s",
    "engine.steals": "count",
    "engine.busy_share": "ratio",
    "engine.cas_retries": "count",
    "engine.migration_stripes": "count",
    "engine.rehashes": "count",
    "engine.avg_batch": "count",
    "engine.t1_states_per_s": "1/s",
    "engine.speedup": "ratio",
    "engine.expand.step_ns": "ns",
    "engine.expand.enumerate_ns": "ns",
    "engine.node_store.encode_ns": "ns",
    "engine.node_store.canonicalize_ns": "ns",
    "engine.node_store.decode_ns": "ns",
    "engine.node_store.intern_hit_ns": "ns",
    "engine.node_store.intern_miss_ns": "ns",
    "engine.node_store.intern_share": "ratio",
    "engine.node_store.hit_rate": "ratio",
    "engine.node_store.avg_probe": "count",
    "engine.node_store.max_probe": "count",
    "engine.replay_ns_per_transition": "ns",
    "engine.replay_wall_s": "s",
    "engine.replay_overhead_s": "s",
    "engine.replay_unattributed_s": "s",
    "engine.node_store.value_bytes_per_state": "B",
    "engine.node_store.unaccounted_mb": "MB",
    "hierarchy.discerning_s": "s",
    "hierarchy.recording_s": "s",
    "hierarchy.negative_s": "s",
    "hierarchy.n6_s": "s",
    "hierarchy.assignment_checks": "count",
    "hierarchy.check_assignment_ns": "ns",
    "typesys.cache_build_s": "s",
    "typesys.discovered_states": "count",
    "obs.trace_overhead_s": "s",
}

SEED_NOTE = {
    "explore-plain": "deterministic exhaustive check: the seed is recorded, "
                     "it does not vary the inputs",
    "explore-symmetric": "deterministic exhaustive check: the seed is recorded, "
                         "it does not vary the inputs",
    "hierarchy-grid": "the seed shuffles the order of the 150 predicate calls",
}

# Measuring (everything after the build) must end within this many seconds;
# each perfbench process is killed when it would run past it.
MEASURE_BUDGET_S = 170
# Set-up lasts well under a millisecond, and its speed shifts with the
# machine's state from one second to the next. So before every repetition
# this many short `setup` processes each report the median of 25 set-ups,
# and setup_s is the median of all of them, spread over the whole run.
SETUPS_PER_REP = 3
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    """The benchmark could not build or run; no result is printed."""


def worker_threads():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "check", "check.hpp")):
        raise BenchError("no rcons sources next to perfbench/ (src/ is missing)")
    jobs = str(worker_threads())
    steps = [
        ["cmake", "-B", BUILD_DIR, "-S", BENCH_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


_deadline = None


def run_binary(args):
    """Runs perfbench once in a fresh process; returns its JSON result."""
    remaining = max(1.0, _deadline - time.monotonic())
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=remaining)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def rep(workload, seed, threads):
    return run_binary(["rep", workload, "--seed", str(seed), "--threads", str(threads)])


def context(workload, seed, threads, reps):
    return {
        "workload": workload,
        "seed": seed,
        "seed_effect": SEED_NOTE[workload],
        "nproc": reps[0]["nproc"],
        "threads": threads,
        "compiler": reps[0]["compiler"],
        "build_type": reps[0]["build_type"],
        "repetitions": len(reps),
    }


def measure_untraced(workload, seed, seconds, threads):
    setups = []
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        for _ in range(SETUPS_PER_REP):
            setups.append(run_binary(["setup", workload, "--threads", str(threads)]))
        reps.append(rep(workload, seed, threads))
    metrics = {name: statistics.median(r[name] for r in reps)
               for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    failed = int(sum(r["verdict_errors"] for r in reps))
    attempted = int(sum(r["attempted"] for r in reps))
    details = {"context": context(workload, seed, threads, reps), "repetitions": reps,
               "setups": setups}
    return metrics, END_TO_END, attempted, failed, details


def span_totals(trace_path):
    """Sums Chrome trace span durations (seconds) by name."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    totals = {}
    for e in events:
        if e.get("ph") == "X":
            totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1e6
    return totals


def measure_traced(workload, seed, threads):
    untraced = rep(workload, seed, threads)
    trace_path = os.path.join(BUILD_DIR, "trace-%s-%d.json" % (workload, seed))
    traced = run_binary(["traced", workload, "--seed", str(seed), "--threads",
                         str(threads), "--trace-out", trace_path])
    m = {name: traced.get(name, 0.0) for name in PER_LAYER}
    m["obs.trace_overhead_s"] = traced["traced_verdict_s"] - untraced["verdict_s"]
    failed = int(untraced["verdict_errors"] + traced["verdict_errors"])
    checks = {}
    if workload in EXPLORE:
        spans = span_totals(trace_path)
        busy = spans.get("expand_batch", 0.0)
        steal = spans.get("steal", 0.0)
        explore = spans.get("explore", 0.0)
        m["check.probe_s"] = spans.get("probe", 0.0)
        m["check.explore_s"] = explore
        m["engine.busy_s"] = busy
        m["engine.steal_s"] = steal
        m["engine.wait_s"] = spans.get("worker", 0.0) - busy - steal
        m["engine.busy_share"] = busy / (traced["threads_used"] * explore)
        m["engine.replay_overhead_s"] = traced["engine.replay_wall_s"] - traced["engine.t1_s"]
        m["engine.node_store.unaccounted_mb"] = (
            untraced["rss_growth_bytes"] - untraced["store_value_bytes"]) / MIB
        # The replay's phases tile its loop: what they leave unexplained must
        # stay within the overhead the replay adds over the engine's t=1 run.
        checks = {
            "trace_valid": traced["trace_valid"] == 1,
            "trace_events_dropped": traced["trace_events_dropped"] == 0,
            "replay_accounts_for_wall": (abs(m["engine.replay_unattributed_s"])
                                         <= max(m["engine.replay_overhead_s"], 0.0)),
        }
        failed += sum(1 for ok in checks.values() if not ok)
    attempted = int(untraced["attempted"] + traced["attempted"])
    details = {"context": context(workload, seed, threads, [untraced]),
               "untraced": untraced, "traced": traced, "checks": checks}
    return m, PER_LAYER, attempted, failed, details


def report(workload, metrics, units, failed, details):
    print("# context " + json.dumps(details["context"], sort_keys=True))
    for name, unit in units.items():
        print("%-18s %-42s %.6g %s" % (workload, name, metrics[name], unit))
    print("%-18s %-42s %d %s" % (workload, "verdict_errors", failed, "count"))
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
        workload, details["context"]["seed"], 1 if units is PER_LAYER else 0))
    with open(path, "w") as f:
        json.dump(details, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    global _deadline
    threads = worker_threads()
    try:
        build()
        _deadline = time.monotonic() + MEASURE_BUDGET_S
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {}
        attempted = failed = 0
        for workload in workloads:
            if args.trace:
                measured = measure_traced(workload, args.seed, threads)
            else:
                measured = measure_untraced(workload, args.seed, args.seconds, threads)
            metrics, units, a, f, details = measured
            report(workload, metrics, units, f, details)
            attempted += a
            failed += f
            prefix = workload + "." if args.workload == "all" else ""
            for name, unit in units.items():
                combined[prefix + name] = {"value": metrics[name], "unit": unit}
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
