#!/usr/bin/env python3
"""Compare the search counts of a fresh `conrat check --json` report with
the committed BENCH_VERIFY.json.

    python3 bench/verify_counts.py FRESH.json BENCH_VERIFY.json

Every row of FRESH must have a jobs=1 row of the same name in the
committed file, with equal executions, complete, truncated, pruned and
steps.  Exits 1 and names each differing field otherwise.  Wall clock
and telemetry are not compared.
"""
import json
import sys

FIELDS = ("executions", "complete", "truncated", "pruned", "steps")


def main(fresh_path, committed_path):
    with open(fresh_path) as f:
        fresh = json.load(f)["results"]
    with open(committed_path) as f:
        committed = {}
        for row in json.load(f)["results"]:
            if row.get("jobs", 1) == 1:
                committed.setdefault(row["name"], row)
    errors = []
    for row in fresh:
        name = row["name"]
        want = committed.get(name)
        if want is None:
            errors.append(f"{name}: no jobs=1 row in {committed_path}")
            continue
        for field in FIELDS:
            if row[field] != want[field]:
                errors.append(
                    f"{name}: {field} {row[field]} != committed {want[field]}")
    for e in errors:
        print(f"verify_counts: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"verify_counts: {len(fresh)} configs match {committed_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
