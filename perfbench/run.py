#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/perfbench.exe
from source with dune (the first build compiles the simulator libraries
and can take minutes), then runs it and forwards its output.  The last
stdout line is the result object {correct, attempted, failed, metrics};
the line before it is the provenance record.  Build logs go to stderr.

Exit status: 0 on a completed run, 2 on bad arguments or a checkout
without the simulator sources, 3 when the build fails, 4 when the run
fails or times out.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("fig3-lan", "fig5-replay", "tree-warm", "flood-overload")
# A first build plus a run must end within 900 s; a run within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_sha256():
    """Digest of every source file the benchmark binary is built from."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                if f == "dune" or f.endswith((".ml", ".mli", ".txt")):
                    files.append(os.path.join(dirpath, f))
    for path in files:
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_rev():
    if shutil.which("git") is None:
        return "unknown (git not installed)"
    env = dict(os.environ)
    # Never report the revision of an enclosing repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "none (not a git checkout)"
    return out.stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail(2, "run from the root of a source checkout (dune-project, lib/ "
                "and perfbench/ are required)")
    if shutil.which("dune") is None:
        fail(2, "dune is not installed")

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep every build artefact in the checkout
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail(3, "build failed")

    events_dir = os.path.join("_build", "perfbench-events")
    os.makedirs(events_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events_dir
    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "run timed out")
    if run.returncode != 0:
        fail(4, "run exited with status %d" % run.returncode)
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{\"correct\""):
        fail(4, "run printed no result")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
