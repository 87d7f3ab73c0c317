#!/usr/bin/env python3
"""Compare the search counts of a fresh `conrat check --json` report with
the committed BENCH_VERIFY.json.

    python3 bench/verify_counts.py [--partial NAME]... FRESH.json BENCH_VERIFY.json

Every row of FRESH must report exhausted and have a jobs=1 row of the
same name in the committed file, with equal executions, complete,
truncated, pruned and steps.  A config named with --partial may stop
early (a wall-clock budget cut it); its row is compared only when it
did exhaust.  Exits 1 and names each failing row otherwise.  Wall
clock and telemetry are not compared.
"""
import argparse
import json
import sys

FIELDS = ("executions", "complete", "truncated", "pruned", "steps")


def main(fresh_path, committed_path, partial):
    with open(fresh_path) as f:
        fresh = json.load(f)["results"]
    with open(committed_path) as f:
        committed = {}
        for row in json.load(f)["results"]:
            if row.get("jobs", 1) == 1:
                committed.setdefault(row["name"], row)
    errors = []
    compared = 0
    for row in fresh:
        name = row["name"]
        if not row["exhausted"]:
            if name not in partial:
                errors.append(f"{name}: not exhausted "
                              f"({row['executions']} executions)")
            continue
        want = committed.get(name)
        if want is None:
            errors.append(f"{name}: no jobs=1 row in {committed_path}")
            continue
        compared += 1
        for field in FIELDS:
            if row[field] != want[field]:
                errors.append(
                    f"{name}: {field} {row[field]} != committed {want[field]}")
    for e in errors:
        print(f"verify_counts: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"verify_counts: {compared} exhausted configs match "
          f"{committed_path}" + "".join(
              f"; {r['name']} stopped early"
              for r in fresh if not r["exhausted"]))
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage=__doc__.splitlines()[3].strip())
    ap.add_argument("--partial", action="append", default=[])
    ap.add_argument("fresh")
    ap.add_argument("committed")
    args = ap.parse_args()
    sys.exit(main(args.fresh, args.committed, set(args.partial)))
