# Developer / CI entry points.  `make check` is what CI runs.

DUNE ?= dune

.PHONY: all build test smoke verify fault-verify par-verify perf-verify bench-gates check bench clean

all: build

# The root dune-workspace pins the release profile: dune's dev profile
# compiles every module -opaque, which turns each cross-module call on
# the hot path into a closure call that is never inlined.  A build that
# lost the workspace (or ran --profile dev) leaves Machine's .cmx with
# no inlining information, printed by ocamlobjinfo as a bare `_`.
MACHINE_CMX = _build/default/lib/sim/.conrat_sim.objs/native/conrat_sim__Machine.cmx

build:
	$(DUNE) build @all
	@info=$$(ocamlobjinfo $(MACHINE_CMX)) || exit 1; \
	if printf '%s\n' "$$info" | sed -n '/^Clambda approximation:/{n;p;}' | grep -qx ' *_'; then \
	  echo "build: $(MACHINE_CMX) was compiled -opaque (no inlining information); build with the root dune-workspace's release profile"; exit 1; \
	fi

test:
	$(DUNE) runtest

# End-to-end smoke of the plan/engine/report pipeline.  First the lock
# on the Monte-Carlo outputs: every quick experiment on the calling
# domain alone (--jobs 1) and on a 2-domain pool, with JSON written to
# a temporary directory (never over the committed files), and each
# BENCH_E<k>.json must equal the committed one apart from its
# "elapsed_seconds" and "jobs" fields.  A 20 000-trial sweep's JSON
# must be byte-identical at --jobs 1 and --jobs 2 (and finish in
# seconds: the engine's seed fold is O(T log T)).  So must a weak-
# register sweep (the Monte-Carlo stale-read path, which no experiment
# runs), whose trial, agreement and violation counts are pinned: 300,
# 177 and 123 for the bounded protocol at n = 2.  Then every
# JSON-emitting subcommand writing to stdout ('-'), which must parse as
# one clean JSON document; the fleet trace must also hold at least one
# shard span, every span closed, and a crash-recovery sweep must count
# at least one crash per recovery (every recovered process crashed
# first) and some recovery.
SMOKE_MASK = sed -E 's/"elapsed_seconds": *[-+.eE0-9]+/"elapsed_seconds": _/; s/"jobs": *[0-9]+/"jobs": _/'
smoke:
	$(DUNE) build bin/conrat_cli.exe
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for j in 1 2; do \
	  (cd "$$tmp" && $(CONRAT) experiment --quick all --jobs $$j --json >/dev/null) && \
	  for k in 1 2 3 4 5 6 7 8 9 10; do \
	    f=BENCH_E$$k.json; \
	    $(SMOKE_MASK) "$$tmp/$$f" > "$$tmp/$$f.fresh" && \
	    $(SMOKE_MASK) "$$f" > "$$tmp/$$f.committed" && \
	    diff -u "$$tmp/$$f.committed" "$$tmp/$$f.fresh" \
	      || { echo "smoke: $$f at --jobs $$j differs from the committed results"; exit 1; }; \
	  done && echo "smoke: BENCH_E1..E10.json at --jobs $$j match the committed results" \
	  || exit 1; \
	  $(CONRAT) sweep -n 8 -t 20000 --jobs $$j --json "$$tmp/sweep-j$$j.json" >/dev/null \
	    || exit 1; \
	done && \
	cmp "$$tmp/sweep-j1.json" "$$tmp/sweep-j2.json" \
	  && echo "smoke: sweep -t 20000 JSON identical at --jobs 1 and 2" && \
	for j in 1 2; do \
	  $(CONRAT) sweep -p bounded -n 2 --faults weak -t 300 --jobs $$j --json \
	    "$$tmp/weak-j$$j.json" >/dev/null || exit 1; \
	done && \
	cmp "$$tmp/weak-j1.json" "$$tmp/weak-j2.json" && \
	python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); \
	    got = (d["trials_completed"], d["agreements"], len(d["violations"])); \
	    sys.exit(0 if got == (300, 177, 123) \
	             else "smoke: sweep --faults weak: trials/agreements/violations %s, pinned (300, 177, 123)" % (got,))' \
	  "$$tmp/weak-j1.json" \
	  && echo "smoke: sweep --faults weak JSON identical at --jobs 1 and 2, 300/177/123 as pinned"
	$(DUNE) exec bin/conrat_cli.exe -- sweep -t 2 --json - | python3 -m json.tool >/dev/null
	$(DUNE) exec bin/conrat_cli.exe -- sweep -n 8 -t 200 --faults crash:f=1,recover --json - \
	  | python3 -c 'import json, sys; d = json.load(sys.stdin); \
	      c, r = d["crash_total"], d["recover_total"]; \
	      sys.exit(0 if c >= r > 0 \
	               else "smoke: sweep --faults recover: crash_total %d, recover_total %d" % (c, r))'
	$(DUNE) exec bin/conrat_cli.exe -- check binary_ratifier_n2 --jobs 2 --trace - \
	  | python3 -c 'import json, sys; \
	      ph = [e["ph"] for e in json.load(sys.stdin)["traceEvents"]]; \
	      b = ph.count("B"); \
	      sys.exit(0 if b >= 1 and b == ph.count("E") \
	               else "smoke: check --trace: %d B vs %d E events" % (b, ph.count("E")))'
	$(DUNE) exec bin/conrat_cli.exe -- run --obs - | python3 -m json.tool >/dev/null
	$(DUNE) exec bin/conrat_cli.exe -- trace composite_n2 --out - \
	  | python3 -m json.tool >/dev/null
	$(DUNE) exec bin/conrat_cli.exe -- check binary_ratifier_n2 --json - \
	  | python3 -m json.tool >/dev/null
	@echo "smoke: sweep, check --trace, run, trace and check JSON on stdout parse"

# Exhaustive safety verification of every registered checker config
# under the POR engine, within a wall-clock budget (seconds).  Every
# config but the depth-40 fallback bound exhausts well inside it.  That
# one (about two minutes alone) runs last, after the rest of the
# registry, takes what the budget leaves and stops cleanly.  Every
# other config must report exhausted, with executions/complete/
# truncated/pruned/steps equal to its committed BENCH_VERIFY.json row
# (bench/verify_counts.py), so a budget that cuts one fails here.  On
# violation the CLI exits 1 and leaves <name>.counterexample.sexp in
# VERIFY_DIR for CI to upload.
VERIFY_BUDGET ?= 120
VERIFY_DIR ?= .
VERIFY_LAST = fallback_n2_d40
CONRAT = $(CURDIR)/_build/default/bin/conrat_cli.exe
# Shell fragment: sets $$order to every registered checker config with
# VERIFY_LAST moved to the end.
VERIFY_ORDER = names=$$($(CONRAT) list | sed -n 's/^checkers: *//p' | tr -d ','); \
	test -n "$$names" || { echo "$@: no checker configs listed"; exit 1; }; \
	order="$$(for c in $$names; do [ "$$c" = $(VERIFY_LAST) ] || echo "$$c"; done) $(VERIFY_LAST)"
verify:
	$(DUNE) build bin/conrat_cli.exe
	@$(VERIFY_ORDER); \
	$(CONRAT) check $$order --budget $(VERIFY_BUDGET) --artifact-dir $(VERIFY_DIR) \
	  --no-telemetry --json .verify.json; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
	  python3 bench/verify_counts.py --partial $(VERIFY_LAST) \
	    .verify.json BENCH_VERIFY.json; status=$$?; \
	fi; \
	rm -f .verify.json; exit $$status

# Crash-closed exhaustive verification (DESIGN.md §10): the *_fN
# checker configs enumerate every schedule x coin outcome x placement
# of up to f crash-stops and must exhaust cleanly; the expected-fail
# fault demos (a crash-unsafe ratifier variant, the shipped ratifier
# on weakened registers, a recovery-unsafe ratifier) must fail and
# leave counterexample artifacts in FAULT_VERIFY_DIR for CI to upload,
# and `check --replay` of each artifact just written must exit 0.  The
# exhausting configs' executions/complete/truncated/pruned/steps must
# also equal their rows in the committed BENCH_VERIFY.json, so drift in
# a fault config's counts fails here.  Last, the two searches of the
# por_faults benchmark workload (perfbench/README.md), each run with its
# --faults override, must reproduce that workload's explored/pruned/
# steps counts (about 4 s together).
FAULT_VERIFY_DIR ?= .
FAULT_DEMOS = ratifier_await_ack binary_ratifier_n2_weak binary_ratifier_n3_rec
POR_FAULTS = "binary_ratifier_n5 crash:f=1 457284/4836928/7373906" \
	"binary_ratifier_rec_n3_f1 crash:f=2,recover 398081/883643/3776077"
fault-verify:
	$(DUNE) exec bin/conrat_cli.exe -- check \
	  binary_ratifier_n2_f1 binary_ratifier_n3_f1 binary_ratifier_n3_f2 \
	  binary_ratifier_accept_n3_f2 conciliator_n2_f1 \
	  binary_ratifier_rec_n2_f1 binary_ratifier_rec_n3_f1 \
	  --artifact-dir $(FAULT_VERIFY_DIR) --json .fault-verify.json
	@python3 bench/verify_counts.py .fault-verify.json BENCH_VERIFY.json; \
	  status=$$?; rm -f .fault-verify.json; exit $$status
	@for d in $(FAULT_DEMOS); do \
	  a=$(FAULT_VERIFY_DIR)/$$d.counterexample.sexp; rm -f "$$a"; \
	  if $(DUNE) exec bin/conrat_cli.exe -- check $$d \
	      --artifact-dir $(FAULT_VERIFY_DIR) >/dev/null 2>&1; \
	  then echo "fault-verify: $$d unexpectedly passed"; exit 1; fi; \
	  echo "fault-verify: $$d caught (expected)"; \
	  $(DUNE) exec bin/conrat_cli.exe -- check --replay "$$a" \
	    || { echo "fault-verify: $$d's counterexample does not replay"; exit 1; }; \
	done
	@for row in $(POR_FAULTS); do \
	  set -- $$row; \
	  $(CONRAT) check $$1 --faults $$2 --no-telemetry --json .fault-verify.json \
	    && python3 bench/verify_counts.py --expect $$3 .fault-verify.json; \
	  status=$$?; rm -f .fault-verify.json; [ $$status -eq 0 ] || exit $$status; \
	done

# Parallel determinism gate: the differential suite (every registry
# config at --jobs N vs sequential, dedup on/off, DPOR cross-checks,
# steal/resume bit-identity, hash soundness), then two end-to-end CLI
# smokes: POR on fallback_n2_d28, and --cross on binary_ratifier_n3_f2
# (the sequential naive oracle next to a POR side the fleet runs at
# --jobs 2).  The same config explored sequentially and at --jobs 2
# must produce byte-identical JSON reports once wall clock and the jobs
# field are masked.
PAR_MASK = sed -E 's/"jobs":[0-9]+/"jobs":_/; s/"wall_clock_seconds":[0-9.]+/"wall_clock_seconds":_/'
par-verify:
	$(DUNE) exec test/test_parallel.exe
	$(DUNE) build bin/conrat_cli.exe
	@for smoke in "fallback_n2_d28" "--cross binary_ratifier_n3_f2"; do \
	  for j in 1 2; do \
	    $(CURDIR)/_build/default/bin/conrat_cli.exe check $$smoke --jobs $$j \
	      --no-telemetry --json .par-verify-j$$j.json || exit 1; \
	    $(PAR_MASK) .par-verify-j$$j.json > .par-verify-j$$j.norm; \
	  done; \
	  diff -u .par-verify-j1.norm .par-verify-j2.norm \
	    && echo "par-verify: check $$smoke --jobs 2 report bit-identical to sequential" \
	    || exit 1; \
	done; \
	rm -f .par-verify-j1.json .par-verify-j2.json .par-verify-j1.norm .par-verify-j2.norm

# Exploration-speed benchmark: the same configs under the same budget,
# but also emitting BENCH_VERIFY.json (schema v1: executions explored,
# machine steps, wall-clock per config) so exploration-speed
# regressions show up in the bench trajectory.  CI uploads the JSON.
# Under a budget the depth-40 fallback bound runs last, as in verify,
# so it cannot starve the configs after it in registry order.  The
# committed BENCH_VERIFY.json was produced with no budget
# (PERF_VERIFY_BUDGET=0 = unlimited, registry order), which exhausts
# every config including the depth-40 one (~5 min total).
PERF_VERIFY_BUDGET ?= 120
PERF_VERIFY_JSON ?= BENCH_VERIFY.json
perf-verify:
	$(DUNE) build bin/conrat_cli.exe
ifeq ($(PERF_VERIFY_BUDGET),0)
	$(CONRAT) check all --no-telemetry --json $(PERF_VERIFY_JSON)
else
	@$(VERIFY_ORDER); \
	$(CONRAT) check $$order --no-telemetry --budget $(PERF_VERIFY_BUDGET) \
	  --json $(PERF_VERIFY_JSON)
endif
	@test -s $(PERF_VERIFY_JSON) && echo "perf-verify: $(PERF_VERIFY_JSON) written"

# Every committed performance gate — what CI runs after the
# correctness stages: exploration speed (perf-verify), then the table
# of timed arms and budgets in bench/gates.ml (sink, fault-plane and
# telemetry overheads, VM-vs-tree and jobs-2 floors).  Writes
# BENCH_GATES.json (committed; CI uploads the fresh one).
bench-gates: perf-verify
	$(DUNE) exec bench/gates.exe
	@test -s BENCH_GATES.json && echo "bench-gates: BENCH_GATES.json written"

check: build test smoke verify

# The paper-claim experiments (quick sweeps).
bench:
	$(DUNE) exec bin/conrat_cli.exe -- experiment --quick all

clean:
	$(DUNE) clean
