(** The report layer: structured (JSON) rendering of a plan's merged
    results, written as [BENCH_E<k>.json] so every future perf PR has a
    machine-readable baseline.  The schema is documented in README
    ("Machine-readable results") and versioned by [schema_version]. *)

val schema_version : int
(** 2 since the observability PR: result objects may carry a
    ["stage_work"] map (stage → total / max-individual work) when the
    spec enabled stage collection.  v1 documents are a strict subset. *)

val info : ('a, unit, string, unit) format4 -> 'a
(** [info fmt …] prints one human-facing status line to stderr and
    flushes.  Every progress/timing message in the harness and CLI
    routes through this, keeping stdout reserved for machine-readable
    output ([--json -]). *)

val json_of_run :
  experiment:string ->
  mode:string ->
  jobs:int ->
  elapsed:float ->
  Plan.t ->
  (string * Engine.aggregate) list ->
  string
(** The full JSON document for one experiment run: run metadata
    (experiment, mode, jobs, elapsed wall-clock seconds, total trials)
    plus one result object per spec — spec parameters, trial counts,
    agreement rate, register space, probe totals, total/individual
    work summaries and the (seed, reason) safety failures. *)

val bench_file : string -> string
(** [bench_file "E1"] = ["BENCH_E1.json"]. *)
