#!/usr/bin/env python3
"""Compare two source trees across code layouts with perfbench.

    python3 tools/layout_sweep.py --base REV|DIR --change REV|DIR
        [--workloads fig3-lan,tree-warm] [--layouts 3] [--pairs 4]
        [--seconds 8] [--seed 1000] [--layout-seed 7]

A change that moves code moves every later function in the binary, and
that alone can shift a perfbench metric by several per cent.  One build
per side cannot tell such a shift from a real gain.  This tool builds
both sides under several layouts and compares them layout by layout:

  1. It copies the base and the change into two temporary directories.
     A git revision is exported with `git archive`; a directory (`.` is
     the working tree) is copied without `_build/` and `.git/`.
  2. For each layout it draws a distinct pad size of 50-300 lines from
     --layout-seed and puts the same dead, never-called function of
     that size first in `lib/sim/varint.ml` of both copies (declared in
     `varint.mli`, so it is linked).  Varint is the first simulator
     module linked, so the pad shifts every later module.
  3. It runs `perfbench/run.py` in alternating pairs: per layout and
     workload, --pairs pairs, the side that runs first alternating, on
     seeds --seed, --seed + 1, ...
  4. Per workload and end-to-end metric it reports each layout's
     medians, the change/base ratio and the pairs the change won, then
     the median and quartiles of the ratio across layouts, and the
     base's own spread across layouts: its per-layout medians divided
     by their median.

A gain is real only if every layout's ratio is on the better side and
the median ratio lies outside the base's own layout spread.  perfbench
is only run, never changed, and the copies are removed on exit.  Exit status: 0 when every run was correct
with no failed op, 1 otherwise, 2 on bad arguments or a failed copy.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

VARINT_ML = os.path.join("lib", "sim", "varint.ml")
VARINT_MLI = os.path.join("lib", "sim", "varint.mli")
PAD_MIN, PAD_MAX = 50, 300


def die(msg):
    print("layout_sweep: " + msg, file=sys.stderr)
    sys.exit(2)


def export(source, dest, repo):
    """Copy a git revision or a directory into [dest]."""
    if os.path.isdir(source):
        src = os.path.abspath(source)
        ignore = shutil.ignore_patterns("_build", ".git", "__pycache__")
        shutil.copytree(src, dest, ignore=ignore, dirs_exist_ok=True)
        return
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", repo, "archive", "--format=tar", source],
        capture_output=True)
    if archive.returncode != 0:
        die("cannot export %r: %s" % (source, archive.stderr.decode().strip()))
    untar = subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout)
    if untar.returncode != 0:
        die("cannot unpack %r" % source)


def pad_ml(lines):
    """A dead function of [lines] lines of integer arithmetic."""
    body = ["let layout_pad x =", "  let a = x in"]
    for i in range(lines - 3):
        body.append("  let a = (a * %d) lxor %d in" % (2 * i + 3, 7919 * (i + 1)))
    body.append("  a")
    return "\n".join(body) + "\n\n"


PAD_MLI = "\nval layout_pad : int -> int\n(** Dead code placed by tools/layout_sweep.py; never called. *)\n"


def set_layout(tree, originals, lines):
    ml, mli = originals
    with open(os.path.join(tree, VARINT_ML), "w") as f:
        f.write(pad_ml(lines) + ml)
    with open(os.path.join(tree, VARINT_MLI), "w") as f:
        f.write(mli + PAD_MLI)


def run_perfbench(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": 1, "attempted": 0, "metrics": {},
                "error": "exit %d: %s" % (proc.returncode, tail)}
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def directions(tree):
    """metric name -> True when higher is better, from BENCHMARK.json."""
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {"requests_per_s": True, "setup_s": False, "peak_heap_mb": False}


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return "%.1fk" % (v / 1000.0)
    if abs(v) >= 1:
        return "%.3f" % v
    return "%.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision or directory")
    ap.add_argument("--change", required=True, help="git revision or directory")
    ap.add_argument("--workloads", default="tree-warm")
    ap.add_argument("--layouts", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1000, help="first perfbench seed")
    ap.add_argument("--layout-seed", type=int, default=7, help="seeds the pad sizes")
    args = ap.parse_args()
    if args.layouts < 1 or args.pairs < 1 or args.seconds <= 0:
        die("--layouts and --pairs must be at least 1, --seconds positive")
    workloads = [w for w in args.workloads.split(",") if w]
    repo = os.getcwd()
    rng = random.Random(args.layout_seed)
    if args.layouts > PAD_MAX - PAD_MIN + 1:
        die("at most %d layouts" % (PAD_MAX - PAD_MIN + 1))
    pads = rng.sample(range(PAD_MIN, PAD_MAX + 1), args.layouts)

    work = tempfile.mkdtemp(prefix="layout_sweep.")
    try:
        ok = sweep(args, workloads, pads, work, repo)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(0 if ok else 1)


def sweep(args, workloads, pads, work, repo):
    """Build, run and report; True when every run was correct."""
    trees = {"base": os.path.join(work, "base"), "change": os.path.join(work, "change")}
    export(args.base, trees["base"], repo)
    export(args.change, trees["change"], repo)
    originals = {}
    for side, tree in trees.items():
        try:
            with open(os.path.join(tree, VARINT_ML)) as f:
                ml = f.read()
            with open(os.path.join(tree, VARINT_MLI)) as f:
                mli = f.read()
        except OSError as e:
            die("%s has no %s: %s" % (side, VARINT_ML, e))
        originals[side] = (ml, mli)
    better = directions(trees["change"])

    # runs[workload][layout] = list of (base result, change result)
    runs = {w: [[] for _ in pads] for w in workloads}
    ok = True
    seed = args.seed
    for k, lines in enumerate(pads):
        for side, tree in trees.items():
            set_layout(tree, originals[side], lines)
        for w in workloads:
            for i in range(args.pairs):
                order = ["base", "change"] if (k + i) % 2 == 0 else ["change", "base"]
                res = {}
                for side in order:
                    res[side] = run_perfbench(trees[side], w, seed, args.seconds)
                    r = res[side]
                    if not r.get("correct") or r.get("failed", 0) > 0:
                        ok = False
                        print("layout %d %s %s seed %d: incorrect run %s" %
                              (k, w, side, seed, r.get("error", "")), file=sys.stderr)
                runs[w][k].append((res["base"], res["change"]))
                print("layout %d (pad %d) %s seed %d, base/change: %s" % (
                    k, lines, w, seed, " ".join(
                        "%s %s/%s" % (m, fmt(res["base"]["metrics"].get(m, {}).get("value", 0)),
                                      fmt(res["change"]["metrics"].get(m, {}).get("value", 0)))
                        for m in better)), file=sys.stderr)
                seed += 1

    print("layouts: pads %s lines, %d pair(s) of %ds runs per layout" % (
        pads, args.pairs, args.seconds))
    for w in workloads:
        for metric, higher in better.items():
            per_layout = []
            for k in range(len(pads)):
                pairs = [(b["metrics"][metric]["value"], c["metrics"][metric]["value"])
                         for b, c in runs[w][k]
                         if metric in b.get("metrics", {}) and metric in c.get("metrics", {})]
                if not pairs:
                    continue
                bm = statistics.median(p[0] for p in pairs)
                cm = statistics.median(p[1] for p in pairs)
                wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
                per_layout.append({"pad": pads[k], "base": bm, "change": cm,
                                   "ratio": cm / bm if bm else float("nan"),
                                   "wins": wins, "pairs": len(pairs)})
            if not per_layout:
                continue
            ratios = [p["ratio"] for p in per_layout]
            rq1, rmed, rq3 = quartiles(ratios)
            bases = [p["base"] for p in per_layout]
            bmed = statistics.median(bases)
            spread = [b / bmed for b in bases]
            sq1, _, sq3 = quartiles(spread)
            on_better_side = all((r > 1) if higher else (r < 1) for r in ratios)
            outside = (rmed > max(spread)) if higher else (rmed < min(spread))
            print("\n%s %s (%s is better)" % (w, metric, "higher" if higher else "lower"))
            for p in per_layout:
                print("  pad %3d: base %s change %s ratio %.4f wins %d/%d" % (
                    p["pad"], fmt(p["base"]), fmt(p["change"]), p["ratio"], p["wins"],
                    p["pairs"]))
            print("  ratio across layouts: median %.4f [q1 %.4f, q3 %.4f]" % (rmed, rq1, rq3))
            print("  base's own layout spread: %.4f-%.4f [q1 %.4f, q3 %.4f]" % (
                min(spread), max(spread), sq1, sq3))
            print("  every layout better: %s; median outside base spread: %s" % (
                "yes" if on_better_side else "no", "yes" if outside else "no"))
    return ok


if __name__ == "__main__":
    main()
