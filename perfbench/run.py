#!/usr/bin/env python3
"""Build and run conrat's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a conrat source tree.  The script builds
perfbench/bench.exe with dune, runs it once, and passes its standard
output through.  The last line is the result object: correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1).  The line before it is the
provenance manifest.  Each run also writes both, plus the spans of a
traced run, to .perfbench-out/.  --tiny selects the self-test sizes.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["por_sleep", "por_dedup", "por_faults", "mc_paper"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance in
    trees that carry no git metadata."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".ml", ".mli", "dune", "dune-project")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    # Only this tree's own .git: a parent directory's repository would
    # name the wrong commit.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    for need in ["dune-project", "lib"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no conrat source tree at %s (missing %s)" % (ROOT, need))

    # --root pins dune to this tree instead of any enclosing project;
    # with the shared cache off, the build writes only under _build/.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", build.returncode)

    cmd = [os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest(),
           "--nproc", str(len(os.sched_getaffinity(0)))]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    if run.returncode != 0:
        fail("benchmark exited with %d" % run.returncode, run.returncode)


if __name__ == "__main__":
    main()
