#!/usr/bin/env python3
"""Compare the search counts of a fresh `conrat check --json` report with
the committed BENCH_VERIFY.json.

    python3 bench/verify_counts.py [--partial NAME]... FRESH.json BENCH_VERIFY.json
    python3 bench/verify_counts.py --expect EXPLORED/PRUNED/STEPS FRESH.json

Every row of FRESH must report exhausted and have a jobs=1 row of the
same name in the committed file, with equal executions, complete,
truncated, pruned and steps.  A config named with --partial may stop
early (a wall-clock budget cut it); its row is compared only when it
did exhaust.  With --expect, FRESH holds one search whose executions,
pruned and steps must equal the three given numbers (a search with a
--faults override, which has no BENCH_VERIFY.json row).  Exits 1 and
names each failing row otherwise.  Wall clock and telemetry are not
compared.
"""
import argparse
import json
import sys

FIELDS = ("executions", "complete", "truncated", "pruned", "steps")


def expect(fresh_path, counts):
    want = dict(zip(("executions", "pruned", "steps"),
                    (int(c) for c in counts.split("/"))))
    with open(fresh_path) as f:
        rows = json.load(f)["results"]
    errors = [] if len(rows) == 1 else [f"{len(rows)} rows, expected 1"]
    for row in rows:
        if not row["exhausted"]:
            errors.append(f"{row['name']}: not exhausted")
        errors += [f"{row['name']}: {k} {row[k]} != expected {v}"
                   for k, v in want.items() if row[k] != v]
    for e in errors:
        print(f"verify_counts: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"verify_counts: {rows[0]['name']} matches {counts}")
    return 0


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
        usage="\n       ".join(l.strip() for l in __doc__.splitlines()[3:5]))
    ap.add_argument("--partial", action="append", default=[])
    ap.add_argument("--expect", metavar="EXPLORED/PRUNED/STEPS")
    ap.add_argument("fresh")
    ap.add_argument("committed", nargs="?")
    args = ap.parse_args()
    if (args.expect is None) == (args.committed is None):
        ap.error("give exactly one of COMMITTED and --expect")
    if args.expect is not None:
        sys.exit(expect(args.fresh, args.expect))
    sys.exit(main(args.fresh, args.committed, set(args.partial)))
