(** The paper-claim reproduction suite.

    The paper has no measured tables (it is a theory paper), so the
    quantities to regenerate are its quantitative theorems.  Each
    experiment below measures one claim on the simulator and prints a
    paper-vs-measured table; DESIGN.md §5 is the index and
    EXPERIMENTS.md records representative output.

    Every experiment is expressed declaratively: {!build} turns a name
    into a {!Plan.t} (the trial grid as data — no experiment owns a
    seed loop) plus a render function over the merged
    {!Engine.aggregate}s.  {!run} executes the plan via
    {!Engine.run_plan} on its domain pool, prints the tables, and can
    additionally hand the structured results ({!Report}) to a writer
    for [BENCH_E<k>.json].

    - E1  Theorem 7: the impatient conciliator's agreement probability,
          individual-work cap and total-work bound.
    - E2  §6.2/Theorem 10: ratifier space and work for every quorum
          construction, against the closed forms.
    - E3  Headline: binary consensus, O(log n) individual and O(n)
          total expected work.
    - E4  Headline: m-valued consensus, O(n log m) total work.
    - E5  Prior art: impatient vs constant-rate Θ(1/n) first mover vs
          CIL racing.
    - E6  Attiya-Censor shape: geometric decay of the termination tail.
    - E7  §2.1: conciliator agreement probability per adversary class.
    - E8  §4.1.1: the fast path on agreeing inputs.
    - E9  Theorem 6 vs Theorem 7: shared-coin conciliators vs
          probabilistic-write conciliators, plus the impatience-schedule
          ablation.
    - E10 Theorem 5: bounded construction — fallback rate vs (1-δ)^k
          and cost parity with the unbounded object. *)

type mode =
  | Quick  (** small sweeps, ~seconds; used by tests *)
  | Full   (** the sweeps EXPERIMENTS.md records, ~minutes *)

val mode_name : mode -> string

val all_names : string list
(** ["E1"; …; "E10"]. *)

val build :
  ?mode:mode -> string -> Plan.t * ((string * Engine.aggregate) list -> unit)
(** The experiment's plan and table renderer.  Raises [Not_found] for
    unknown names. *)

val run :
  ?mode:mode -> ?jobs:int -> ?json:(string -> string -> unit) -> ?progress:bool ->
  string -> unit
(** Run one experiment by name and print its tables to stdout.  [jobs]
    (default 1) sizes the engine's domain pool ([0] = all cores);
    stdout is byte-identical for every [jobs] value — elapsed
    wall-clock time and the jobs used are reported on stderr (via
    {!Report.info}).  [json], when given, is handed the file name
    [BENCH_<name>.json] and its document ({!Report.json_of_run}) to
    write.  [progress] (default false) shows a rate-limited per-trial
    progress line on stderr.  Raises [Not_found] for unknown names. *)

val delta_bound : float
(** Theorem 7's agreement probability, re-exported for the bench. *)
