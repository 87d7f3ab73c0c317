#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few seconds in all).

    python3 perfbench/selftest.py

Runs every workload through run.py with --tiny (fallback_n2_d28,
binary_ratifier_n4_f2 plus binary_ratifier_rec_n2_f1, E3 Quick), once
untraced and once traced, and mc_paper at a second seed.  Checks that
the result line parses as JSON with exactly the contract's keys, that
no operation failed, and that every metric BENCHMARK.json names is
emitted with its unit.  Also checks the counts that must be zero or
non-zero on each workload.  Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit("%s trace %d: exit %d\n%s" % (workload, trace,
                                                out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    manifest = json.loads(lines[-2])["manifest"]
    result = json.loads(lines[-1])
    return manifest, result


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # por_sleep stays runnable though BENCHMARK.json does not list it
    names = ["por_sleep", "por_dedup", "por_faults", "mc_paper"]
    runs = [(w, 1, t) for w in names for t in (0, 1)] + [("mc_paper", 2, 0)]
    for workload, seed, trace in runs:
        manifest, r = run(workload, seed, trace)
        tag = "%s seed %d trace %d" % (workload, seed, trace)
        check(set(r) == {"correct", "attempted", "failed", "metrics"},
              tag + ": result keys " + str(sorted(r)))
        check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
              tag + ": correct=%s attempted=%s failed=%s"
              % (r["correct"], r["attempted"], r["failed"]))
        check(manifest["workload"] == workload and manifest["seed"] == seed,
              tag + ": manifest")
        want = spec["per_layer"] if trace else spec["end_to_end"]
        got = r["metrics"]
        check(set(got) == {m["name"] for m in want},
              tag + ": metric names differ from BENCHMARK.json: %s"
              % sorted(set(got) ^ {m["name"] for m in want}))
        for m in want:
            check(got[m["name"]]["unit"] == m["unit"],
                  tag + ": unit of " + m["name"])
            check(isinstance(got[m["name"]]["value"], (int, float)),
                  tag + ": value of " + m["name"])
        if trace == 0:
            for m in want:
                check(got[m["name"]]["value"] > 0, tag + ": %s is 0" % m["name"])
        else:
            v = {k: x["value"] for k, x in got.items()}
            hashes = v["machine.state_hash.calls"]
            if workload == "por_dedup":
                check(hashes > 0, tag + ": no state_hash calls")
            else:
                check(hashes == 0, tag + ": state_hash calls")
            if workload == "mc_paper":
                check(v["machine.snapshot.calls"] == 0, tag + ": snapshots")
                check(v["engine.trial.calls"] > 0, tag + ": no trials")
            else:
                check(v["checks.check.calls"] > 0, tag + ": no leaf checks")
            if workload == "por_faults":
                check(v["machine.crash.calls"] > 0 and v["machine.recover.calls"] > 0,
                      tag + ": no crashes or recoveries")
        print("ok  " + tag)
    print("selftest passed")


if __name__ == "__main__":
    main()
