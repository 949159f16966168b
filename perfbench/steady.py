#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

    python3 perfbench/steady.py [--runs K] [--sets M] [--seconds S]
                                [--workloads a,b] [--seed0 N]

Runs every workload K times (seeds N, N+1, ...) through perfbench/run.py
with --trace 0, in M sets.  For every end-to-end metric it prints the
spread of each set (the interquartile range of its K values, as
statistics.quantiles(values, n=4) gives it, over their median) against
the metric's bound from BENCHMARK.json, and the drift of each later
set's median from the first set's.  It also asserts, from each run's
provenance record, that a full major GC preceded every op and that no
metric came from a timed sample shorter than a millisecond.

Exits 1 when a spread or a drift exceeds its bound, when an invariant
fails, or when a run is incorrect; 0 otherwise.  The spread of setup_s
is printed but not enforced: set-up is short, and only its drift
between sets is judged.  Run from the root of a source checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_SAMPLE_S = 1e-3


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d: run failed (status %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--verbose", action="store_true", help="print every run's metrics")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    bad = []
    for name in names:
        medians = {}
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.seed0 + i
                prov, res = run_once(name, seed, seconds)
                inv = prov["invariants"]
                if not res["correct"] or res["failed"]:
                    bad.append("%s seed %d: incorrect run %s" % (name, seed, prov["failures"]))
                if inv["timed_samples_after_full_major"] != inv["timed_samples"]:
                    bad.append("%s seed %d: %d of %d timed samples ran without a full major GC first"
                               % (name, seed, inv["timed_samples"] - inv["timed_samples_after_full_major"],
                                  inv["timed_samples"]))
                if inv["shortest_sample_s"] < MIN_SAMPLE_S:
                    bad.append("%s seed %d: a metric came from a %.2e s sample"
                               % (name, seed, inv["shortest_sample_s"]))
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
                if args.verbose:
                    print("  %s seed %d: %s ops=%d" % (name, seed, "  ".join(
                        "%s=%.6g" % (m["name"], res["metrics"][m["name"]]["value"]) for m in metrics),
                        prov["ops"]), flush=True)
            for m in metrics:
                v = values[m["name"]]
                sp, med = spread(v)
                line = "%-15s set %d %-15s median %-12.6g spread %6.2f%% bound %5.1f%%" % (
                    name, s + 1, m["name"], med, 100 * sp, 100 * m["bound"])
                if m["name"] != "setup_s" and sp > m["bound"]:
                    bad.append("%s %s: spread %.2f%% over bound" % (name, m["name"], 100 * sp))
                    line += "  OVER"
                if s == 0:
                    medians[m["name"]] = med
                else:
                    first = medians[m["name"]]
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    line += "  drift %+.2f%%" % (100 * worse)
                    if worse > m["bound"]:
                        bad.append("%s %s: set %d median worse by %.2f%%" % (name, m["name"], s + 1, 100 * worse))
                        line += "  OVER"
                print(line, flush=True)
    for b in bad:
        print("FAIL " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
