(** Named checker configurations: the registry behind [conrat check].

    A config pins everything an exhaustive run needs — protocol factory,
    process count, inputs, depth bound, model flags, and which of the §3
    safety properties to check on every leaf.  [run] explores it with
    the {!Por} engine and, on violation, shrinks the witness with
    {!Shrink} and freezes it into an {!Artifact}.  [cross_check] runs
    the same config under both the naive enumerator and POR and compares
    their complete-execution outcome sets — the empirical soundness
    check required of every reduced exploration. *)

type property =
  | Weak_consensus
      (** validity + coherence, plus acceptance on complete executions *)
  | Valid_coherent
      (** validity + coherence only (conciliators: agreement is
          probabilistic, not universal) *)
  | Deciders_agree
      (** validity + coherence + agreement of output values (consensus
          protocols where every output decides) *)

type t = {
  name : string;
  doc : string;
  factory : Conrat_objects.Deciding.factory;
  n : int;
  inputs : int array;            (** length [n] *)
  property : property;
  max_depth : int;
  max_runs : int;                (** per-engine execution budget *)
  cheap_collect : bool;
  faults : Conrat_sim.Fault.model;
    (** fault closure for this config.  With [crashes > 0] the
        exploration covers every placement of up to that many
        crash-stops and the completion-conditional acceptance clause
        switches to {!Conrat_sim.Spec.acceptance_survivors} (crashed
        processes are excused; everything else is checked verbatim).
        With [weak_reads] every register is weakened and each read
        forks fresh/stale. *)
}

val all : t list
(** Every config expected to pass, in increasing cost order; includes
    the POR-only bounds (binary ratifier n=4 and n=5, fallback depths
    34 and 40) and the crash-closed configs (binary ratifier f ≤ 2 at
    n ≤ 4, conciliator f = 1). *)

val demos : t list
(** Expected-failure demos — runnable by name, excluded from {!all}:
    the §7 unstaked fallback test double, the crash-unsafe await-ack
    helper (fails survivor acceptance at f = 1), and the binary
    ratifier on weak registers (fails coherence). *)

val extended : t list
(** Extended-frontier configs — sound, but too large for {!all}'s CI
    budget; runnable by name with [--jobs]/[--dedup] (currently the
    depth-46 racing fallback). *)

val names : string list
val demo_names : string list
val extended_names : string list
val find : string -> t option

val check_of :
  t -> n:int -> complete:bool ->
  (bool * int) option array -> (unit, string) result

val setup_of :
  t -> n:int -> unit ->
  Conrat_sim.Memory.t * (pid:int -> (bool * int) Conrat_sim.Program.t)

val target_of : t -> (bool * int) Shrink.target

type failure = {
  reason : string;          (** checker message on the original witness *)
  stats : Por.stats;        (** exploration counts up to the violation *)
  artifact : Artifact.t;    (** shrunk, replayable *)
  shrink_replays : int;     (** executions spent shrinking *)
}

type outcome = (Por.stats, failure) result

val run :
  ?engine:Conrat_sim.Machine.engine ->
  ?stop:(unit -> bool) ->
  ?max_runs:int ->
  ?heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  ?resume:Checkpoint.counts ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.counts -> unit) ->
  ?jobs:int ->
  ?dedup:bool ->
  ?telemetry:Conrat_obs.Telemetry.t ->
  t -> outcome
(** Explores the config through {!Parallel.explore_por}, which at
    [jobs <= 1] is {!Por.explore} with [heartbeat], the
    checkpointing triple and [telemetry] (domain row [0]) passed
    straight through (the heartbeat fires per leaf; rate limiting is
    the callback's business).  The config's [faults] model is applied
    to the exploration, the property, the shrinker and the recorded
    artifact.  [engine] selects the program engine (default the
    compiled VM); results, checkpoints and artifacts are identical
    under either.

    [jobs > 1] runs the fleet — same statistics, outcome set and
    failure artifacts for exhaustive runs; checkpointing is
    unsupported there, the heartbeat switches to fleet-wide totals,
    worker [w] bumps telemetry row [w] and every stolen shard leaves a
    {!section-"obs"}[Telemetry.shard] record.  [dedup] enables duplicate-state
    suppression (VM engine only; see {!Por.explore}).  A parallel
    failure is shrunk and frozen exactly like a sequential one — the
    shard's path is a root path.  Shrinking replays after a violation
    are {e not} counted in [telemetry] — it covers the search itself. *)

val replay :
  ?engine:Conrat_sim.Machine.engine ->
  t -> Artifact.t -> (unit, string) result
(** Replay an artifact under this config's factory and property (the
    artifact's own [n]/[inputs]/bounds are used).  [Error _] means the
    violation reproduced.  Raises [Invalid_argument] if the artifact
    does not {!fits} the config. *)

val fits : t -> Artifact.t -> (unit, string) result
(** Whether an artifact can be replayed against this config: its [n]
    lies in [1..config.n], its [inputs] are the config's first [n]
    inputs, and its [max_depth] is not negative.  [Error] names the
    offending field. *)

type cross = {
  naive : Naive.stats;
  por : Por.stats;
  outcomes_agree : bool;    (** complete-execution outcome sets equal *)
  outcome_count : int;      (** distinct complete outcomes (naive) *)
  engines_agree : bool;
    (** the POR search repeated under the {e other} program engine gave
        bit-identical statistics and the identical outcome set — the VM
        vs tree differential *)
}

val cross_check :
  ?engine:Conrat_sim.Machine.engine ->
  ?stop:(unit -> bool) ->
  ?max_runs:int ->
  ?naive_heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  ?por_heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  ?jobs:int ->
  t -> (cross, string) result
(** [Error _] if either algorithm found a property violation.  The two
    heartbeats report the respective algorithm's progress.  Besides the
    naive-vs-POR comparison, the POR search is repeated under the other
    program engine ([engine] names the primary; default [`Vm]) and the
    results compared — so one cross-check validates both the reduction
    and the compiler.  The naive sweep always runs sequentially, so the
    oracle shares no fleet with the search it checks; [jobs > 1] runs
    only the primary POR sweep under {!Parallel} (its statistics are
    [jobs]-invariant for exhaustive runs, so the differential is
    unaffected), and the oracle-engine sweep stays sequential. *)
