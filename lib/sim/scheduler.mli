(** The Monte Carlo interleaving engine — a driver over {!Machine}.

    [run] builds a machine with one {!Program.t} per process, then
    repeatedly asks the adversary which pending operation to apply and
    steps the machine until every process returns.  This is a direct
    implementation of the model in §2 of the paper: an execution is
    constructed by repeatedly applying pending operations, with the
    choice made by an adversary function of the partial execution.
    Bodies are {!Program.t} values, the same ones the exhaustive
    explorers run.

    Asynchrony, crashes and wait-freedom: an adversary that stops
    scheduling a process forever is indistinguishable from crashing it,
    so crash failures need no separate mechanism; wait-freedom of a
    protocol shows up as every {e scheduled} process finishing
    regardless of what the others do. *)

type 'r result = {
  outputs : 'r option array;
    (** per-process return values; [None] = still running at the cap *)
  metrics : Metrics.t;    (** work accounting for the execution *)
  steps : int;            (** operations executed (= [Metrics.total]) *)
  completed : bool;       (** no process still runnable before [max_steps] *)
  crashed : bool array;   (** which pids a fault plan left crash-stopped *)
  crashes : int;
    (** crash-stop events a fault plan injected, including those of
        pids that later recovered ({!Machine.crashes}) *)
  recoveries : int;       (** recovery events a fault plan injected *)
  plan_ignored : int;
    (** fault-plan overrides that were invalid (crash of a non-enabled
        pid, stale delivery on a non-weak read, recovery of a pid that
        is not down) and degraded to a plain step — surfaced by the CLI
        as [sweep --json]'s [plan_overrides_ignored] field *)
  trace : Trace.t option; (** recorded when [~record:true] *)
  registers : int;        (** registers allocated at the end *)
}

exception Collect_disallowed
(** Raised when a protocol performs a collect but the run was not
    started with [~cheap_collect:true] (= {!Machine.Collect_disallowed}). *)

exception Stuck of string
(** Raised on internal scheduling errors (e.g. a finished process
    scheduled) — indicates a bug, not a protocol property
    (= {!Machine.Stuck}). *)

val run :
  ?engine:Machine.engine ->
  ?max_steps:int ->
  ?record:bool ->
  ?cheap_collect:bool ->
  ?faults:Fault.plan ->
  ?sink:Sink.t ->
  n:int ->
  adversary:Adversary.t ->
  rng:Rng.t ->
  memory:Memory.t ->
  (pid:int -> rng:Rng.t -> 'r Program.t) ->
  'r result
(** [run ~n ~adversary ~rng ~memory body] executes the program
    [body ~pid ~rng] for each [pid] in [0..n-1] under the given
    adversary.  [rng] seeds three independent stream families:
    per-process local coins (passed to [body]), per-process
    probabilistic-write coins (resolved by the machine at execution
    time, invisible to the adversary), and the adversary's own
    randomness.  [max_steps] (default [10_000_000]) bounds the
    execution so that tests can detect non-termination; a capped run
    has [completed = false].  [sink] receives structured observability
    events (see {!Sink}); omitting it costs one branch per step.

    [faults] installs a fault-injection plan (see {!Fault.plan} and the
    combinators in [Conrat_faults]): after the adversary's choice is
    validated, the plan may crash-stop an enabled process or deliver
    the chosen process's pending read stale (honoured only on
    registers marked weak).  The plan's randomness is split from [rng]
    {e after} the historical streams, so runs without a plan are
    bit-identical to earlier versions, and a given seed produces the
    same fault placements on every replay.

    [engine] selects the program engine (default the tree interpreter;
    see {!Machine.engine}).  A Monte Carlo run is straight-line: it
    never revisits a program state, so the VM's interning would only
    add a cold compile to every step and keep the whole code store
    live until the run ends, while the tree interpreter applies each
    continuation once and drops it.  Continuations execute exactly once
    in tree order under either engine, so results are identical,
    including for bodies drawing local randomness; the VM stays the
    explorers' engine ({!Machine.create}'s default) and is this
    scheduler's differential oracle. *)
