(** The naive (unreduced) enumerator, by re-execution.

    Enumerates every path of the branch tree in lexicographic order by
    running {!Conrat_sim.Explore.run_path} from a fresh [setup ()] for
    each path and computing the successor with
    {!Conrat_sim.Explore.next_path_from} — the original exploration strategy,
    kept as the small independent oracle next to {!Por}, which
    backtracks statefully over one {!Conrat_sim.Machine}.  It costs a
    full prefix re-execution per path, but demands nothing of the
    protocol beyond what [run_path] does (in particular, [setup] being
    callable many times rather than programs being replay-pure), and it
    walks the unreduced tree: {!Checks.cross_check} and the test suite
    compare its complete-execution outcome set with {!Por}'s on every
    small configuration. *)

type stats = {
  complete : int;    (** complete executions explored *)
  truncated : int;   (** paths cut off at [max_depth] *)
  exhausted : bool;  (** the whole tree fit within [max_runs] *)
  steps : int;       (** machine transitions executed across all runs *)
}

val explore :
  ?engine:Conrat_sim.Machine.engine ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?cheap_collect:bool ->
  ?faults:Conrat_sim.Fault.model ->
  ?stop:(unit -> bool) ->
  ?probe:Conrat_obs.Telemetry.probe ->
  ?heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  ?resume:Checkpoint.counts ->
  ?path_floor:int ->
  ?cut:int * (int list -> unit) ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.counts -> unit) ->
  n:int ->
  setup:(unit -> Conrat_sim.Memory.t * (pid:int -> 'r Conrat_sim.Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  unit ->
  (stats, string * stats) result
(** [explore ~n ~setup ~check ()] runs every path; [check] is called at
    the end of each one and the first [Error] aborts the search.
    [stop] is polled before each run; returning [true] ends the search
    early with [exhausted = false].  [heartbeat] fires once per path
    with running totals in {!Por.explore}'s shape ([pruned] is always
    [0]: this enumerator prunes nothing; [depth] = that path's length);
    rate limiting is the callback's business.  [faults] closes the enumerated tree
    under crash-stops and weak-register stale reads (see
    {!Conrat_sim.Explore.run_path}).  [on_checkpoint]/[resume] follow
    {!Por.explore}'s convention — the saved path is the next uncounted
    leaf, and a resumed run's statistics are bit-identical to an
    uninterrupted one ([Checkpoint.counts.pruned] is always [0] here).
    A [resume] path the tree does not take (the first run's recorded
    choices do not start with it) is [Invalid_argument], as in
    {!Por.explore}.
    Defaults: [max_depth = 200], [max_runs = 2_000_000],
    [checkpoint_every = 100_000].  [engine] selects the program engine
    for each re-execution (default the compiled VM); leaf order and
    statistics are identical under either.

    [probe] feeds the telemetry plane with exit-time leaf/step deltas
    against the [resume] baseline and checkpoint-save counts (see
    {!Por.explore}); a coverage-equipped probe also records every leaf
    in POR's convention (depth = the path's step count, stage = each
    process's {!Conrat_sim.Machine.stage} at the leaf).

    [~path_floor:l] (requires [resume]) pins the first [l] branch
    entries: successor computation uses
    {!Conrat_sim.Explore.next_path_from}, so positions below [l] are
    never bumped and the enumeration covers exactly the subtree under
    the resume path's length-[l] prefix — the parallel driver's shard
    unit (see {!Parallel}).

    [~cut:(lvl, emit)] is the shard generator's mode, as in
    {!Por.explore} and set only by {!Frontier.generate}: a path that
    reaches branch position [lvl] (has more than [lvl] branch points)
    is not counted; its length-[lvl] prefix is [emit]ted, in
    enumeration order, and the subtree under that prefix is skipped.
    The counted leaves are the residue, so residue plus the emitted
    subtrees' statistics equal the full search's.  Excludes [resume]
    and [on_checkpoint]. *)
