# Developer / CI entry points.  `make check` is what CI runs.

DUNE ?= dune

.PHONY: all build test smoke verify fault-verify par-verify perf-verify obs-bench telemetry-bench perf-step bench-gates check bench clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

# End-to-end smoke of the plan/engine/report pipeline.  First the lock
# on the Monte-Carlo outputs: every quick experiment on a 2-domain pool,
# with JSON written to a temporary directory (never over the committed
# files), and each BENCH_E<k>.json must equal the committed one apart
# from its "elapsed_seconds" and "jobs" fields.  Then every
# JSON-emitting subcommand writing to stdout ('-'), which must parse as
# one clean JSON document.
SMOKE_MASK = sed -E 's/"elapsed_seconds": *[-+.eE0-9]+/"elapsed_seconds": _/; s/"jobs": *[0-9]+/"jobs": _/'
smoke:
	$(DUNE) build bin/conrat_cli.exe
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	(cd "$$tmp" && $(CURDIR)/_build/default/bin/conrat_cli.exe \
	   experiment --quick all --jobs 2 --json >/dev/null) && \
	for k in 1 2 3 4 5 6 7 8 9 10; do \
	  f=BENCH_E$$k.json; \
	  $(SMOKE_MASK) "$$tmp/$$f" > "$$tmp/$$f.fresh" && \
	  $(SMOKE_MASK) "$$f" > "$$tmp/$$f.committed" && \
	  diff -u "$$tmp/$$f.committed" "$$tmp/$$f.fresh" \
	    || { echo "smoke: $$f differs from the committed results"; exit 1; }; \
	done && echo "smoke: BENCH_E1..E10.json match the committed results"
	$(DUNE) exec bin/conrat_cli.exe -- sweep -t 2 --json - | python3 -m json.tool >/dev/null
	$(DUNE) exec bin/conrat_cli.exe -- telemetry binary_ratifier_n2 --out - \
	  | python3 -m json.tool >/dev/null
	@echo "smoke: sweep and telemetry JSON on stdout parse"

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
verify:
	$(DUNE) build bin/conrat_cli.exe
	@names=$$($(CONRAT) list | sed -n 's/^checkers: *//p' | tr -d ','); \
	test -n "$$names" || { echo "verify: no checker configs listed"; exit 1; }; \
	$(CONRAT) check \
	  $$(for c in $$names; do [ "$$c" = $(VERIFY_LAST) ] || echo "$$c"; done) \
	  $(VERIFY_LAST) --budget $(VERIFY_BUDGET) --artifact-dir $(VERIFY_DIR) \
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
# on weakened registers) must exit 1 and leave replayable
# counterexample artifacts in FAULT_VERIFY_DIR for CI to upload.  The
# exhausting configs' executions/complete/truncated/pruned/steps must
# also equal their rows in the committed BENCH_VERIFY.json, so drift in
# a fault config's counts fails here.
FAULT_VERIFY_DIR ?= .
fault-verify:
	$(DUNE) exec bin/conrat_cli.exe -- check \
	  binary_ratifier_n2_f1 binary_ratifier_n3_f1 binary_ratifier_n3_f2 \
	  binary_ratifier_accept_n3_f2 conciliator_n2_f1 \
	  binary_ratifier_rec_n2_f1 binary_ratifier_rec_n3_f1 \
	  --artifact-dir $(FAULT_VERIFY_DIR) --json .fault-verify.json
	@python3 bench/verify_counts.py .fault-verify.json BENCH_VERIFY.json; \
	  status=$$?; rm -f .fault-verify.json; exit $$status
	@if $(DUNE) exec bin/conrat_cli.exe -- check ratifier_await_ack \
	    --artifact-dir $(FAULT_VERIFY_DIR) >/dev/null 2>&1; \
	then echo "fault-verify: ratifier_await_ack unexpectedly passed"; exit 1; \
	else echo "fault-verify: ratifier_await_ack caught (expected)"; fi
	@if $(DUNE) exec bin/conrat_cli.exe -- check binary_ratifier_n2_weak \
	    --artifact-dir $(FAULT_VERIFY_DIR) >/dev/null 2>&1; \
	then echo "fault-verify: binary_ratifier_n2_weak unexpectedly passed"; exit 1; \
	else echo "fault-verify: binary_ratifier_n2_weak caught (expected)"; fi
	@if $(DUNE) exec bin/conrat_cli.exe -- check binary_ratifier_n3_rec \
	    --artifact-dir $(FAULT_VERIFY_DIR) >/dev/null 2>&1; \
	then echo "fault-verify: binary_ratifier_n3_rec unexpectedly passed"; exit 1; \
	else echo "fault-verify: binary_ratifier_n3_rec caught (expected)"; fi

# Parallel determinism gate: the differential suite (every registry
# config at --jobs N vs sequential, dedup on/off, DPOR cross-checks,
# steal/resume bit-identity, hash soundness), then an end-to-end CLI
# smoke — the same config explored sequentially and at --jobs 2 must
# produce byte-identical JSON reports once wall clock and the jobs
# field are masked.
par-verify:
	$(DUNE) exec test/test_parallel.exe
	$(DUNE) exec bin/conrat_cli.exe -- check fallback_n2_d28 \
	  --no-telemetry --json .par-verify-seq.json
	$(DUNE) exec bin/conrat_cli.exe -- check fallback_n2_d28 --jobs 2 \
	  --no-telemetry --json .par-verify-j2.json
	@sed -E 's/"jobs":[0-9]+/"jobs":_/; s/"wall_clock_seconds":[0-9.]+/"wall_clock_seconds":_/' \
	  .par-verify-seq.json > .par-verify-seq.norm
	@sed -E 's/"jobs":[0-9]+/"jobs":_/; s/"wall_clock_seconds":[0-9.]+/"wall_clock_seconds":_/' \
	  .par-verify-j2.json > .par-verify-j2.norm
	@diff -u .par-verify-seq.norm .par-verify-j2.norm \
	  && echo "par-verify: --jobs 2 report bit-identical to sequential"
	@rm -f .par-verify-seq.json .par-verify-j2.json \
	  .par-verify-seq.norm .par-verify-j2.norm

# Exploration-speed benchmark: the same configs under the same budget,
# but also emitting BENCH_VERIFY.json (schema v1: executions explored,
# machine steps, wall-clock per config) so exploration-speed
# regressions show up in the bench trajectory.  CI uploads the JSON.
# The committed BENCH_VERIFY.json was produced with no budget
# (PERF_VERIFY_BUDGET=0 = unlimited), which exhausts every config
# including the depth-40 fallback bound (~5 min total).
#
# The second step is the fault-plane regression guard (same discipline
# as obs-bench): POR-explore the failure-free fallback_n2_d28 with the
# fault plane disabled vs engaged-but-inert, interleaved best-of-5,
# and fail if the toggled bookkeeping costs more than FAULT_MAX_PCT
# percent.  Writes BENCH_FAULT.json (committed; CI uploads the fresh
# one).
#
# The third step is the parallel-scaling gate: fallback_n2_d34 at
# jobs 1/2/4 through Parallel.explore_por, enforcing bit-identical
# merged statistics, gating the jobs=2 speedup at PAR_MIN_SPEEDUP on
# multi-core hosts (reported but not gated on single-core runners),
# writing BENCH_PAR.json and splicing the per-jobs scaling rows into
# $(PERF_VERIFY_JSON).
PERF_VERIFY_BUDGET ?= 120
PERF_VERIFY_JSON ?= BENCH_VERIFY.json
FAULT_MAX_PCT ?= 3.0
PAR_MIN_SPEEDUP ?= 1.6
perf-verify:
ifeq ($(PERF_VERIFY_BUDGET),0)
	$(DUNE) exec bin/conrat_cli.exe -- check all --no-telemetry \
	  --json $(PERF_VERIFY_JSON)
else
	$(DUNE) exec bin/conrat_cli.exe -- check all --no-telemetry \
	  --budget $(PERF_VERIFY_BUDGET) --json $(PERF_VERIFY_JSON)
endif
	@test -s $(PERF_VERIFY_JSON) && echo "perf-verify: $(PERF_VERIFY_JSON) written"
	$(DUNE) exec bench/fault_overhead.exe -- --max-overhead-pct $(FAULT_MAX_PCT)
	@test -s BENCH_FAULT.json && echo "perf-verify: BENCH_FAULT.json written"
	$(DUNE) exec bench/par_scaling.exe -- \
	  --min-speedup $(PAR_MIN_SPEEDUP) --splice $(PERF_VERIFY_JSON)
	@test -s BENCH_PAR.json && echo "perf-verify: BENCH_PAR.json written"

# Observability-overhead gate: POR-explore fallback_n2_d28 with no
# sink vs a null sink, best-of-5, and fail if the disabled-sink hot
# path costs more than OBS_MAX_PCT percent.  Writes BENCH_OBS.json
# (committed; CI uploads the fresh one).  The budget is 9% against
# the VM engine, not the original 3%: the tap's absolute cost
# (~10ns/event, one indirect call) has not moved, but the VM halved
# the per-step denominator; re-measured at 0.5-6.8% across runs after
# the telemetry plane landed — see bench/obs_overhead.ml for the
# arithmetic.
OBS_MAX_PCT ?= 9.0
obs-bench:
	$(DUNE) exec bench/obs_overhead.exe -- --max-overhead-pct $(OBS_MAX_PCT)
	@test -s BENCH_OBS.json && echo "obs-bench: BENCH_OBS.json written"

# Telemetry-probe overhead gate: POR-explore fallback_n2_d28 with no
# probe vs a counters-only Telemetry registry (what `check --json` now
# pays), interleaved best-of-5, and fail if the counters cost more
# than TELEMETRY_MAX_PCT percent.  Coverage mode (per-leaf depth and
# stage histograms) is timed informationally in the same run.  Writes
# BENCH_TELEMETRY.json (committed; CI uploads the fresh one).
TELEMETRY_MAX_PCT ?= 3.0
telemetry-bench:
	$(DUNE) exec bench/telemetry_overhead.exe -- \
	  --max-overhead-pct $(TELEMETRY_MAX_PCT)
	@test -s BENCH_TELEMETRY.json && echo "telemetry-bench: BENCH_TELEMETRY.json written"

# Step-rate regression gate: the identical POR search under the tree
# interpreter vs the compiled VM (the only variable is the program
# engine behind the Machine façade), interleaved best-of-STEP_REPS,
# failing when the VM's steps/s advantage drops below STEP_MIN_SPEEDUP.
# Writes BENCH_STEP.json (committed; CI uploads the fresh one).  See
# bench/step_rate.ml for why the floor sits under the ~1.6x
# engine-isolated ratio rather than the ~2.4x end-to-end win over the
# pre-VM commit recorded in EXPERIMENTS.md.
STEP_REPS ?= 5
STEP_MIN_SPEEDUP ?= 1.4
perf-step:
	$(DUNE) exec bench/step_rate.exe -- \
	  --reps $(STEP_REPS) --min-speedup $(STEP_MIN_SPEEDUP)
	@test -s BENCH_STEP.json && echo "perf-step: BENCH_STEP.json written"

# Every committed performance gate in one target — what CI runs after
# the correctness stages: exploration speed (BENCH_VERIFY.json) +
# fault-plane overhead (BENCH_FAULT.json) + parallel scaling
# (BENCH_PAR.json), observability overhead (BENCH_OBS.json), the
# telemetry-probe overhead (BENCH_TELEMETRY.json), and the VM
# step-rate floor (BENCH_STEP.json).
bench-gates: perf-verify obs-bench telemetry-bench perf-step

check: build test smoke verify

# The paper-claim experiments (quick sweeps), then the Bechamel
# micro-benchmarks of the simulator's building blocks.
bench:
	$(DUNE) exec bin/conrat_cli.exe -- experiment --quick all
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
