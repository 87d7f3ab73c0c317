(** The naive (unreduced) enumerator, by re-execution.

    Enumerates every path of the branch tree in lexicographic order by
    running {!Conrat_sim.Explore.run_path} from a fresh [setup ()] for
    each path and computing the successor with
    {!Conrat_sim.Explore.next_path} — the original exploration
    strategy, kept as the small independent oracle next to {!Por},
    which backtracks statefully over one {!Conrat_sim.Machine}.  It
    costs a full prefix re-execution per path, but demands nothing of
    the protocol beyond what [run_path] does (in particular, [setup]
    being callable many times rather than programs being replay-pure),
    and it walks the unreduced tree: {!Checks.cross_check} and the test
    suite compare its complete-execution outcome set with {!Por}'s on
    every small configuration.

    It shares none of {!Por}'s plumbing: it runs on one domain, and has
    no checkpoints, shards or telemetry — the oracle stays as small as
    the loop below. *)

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
  ?heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
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
    rate limiting is the callback's business.  [faults] closes the
    enumerated tree under crash-stops and weak-register stale reads
    (see {!Conrat_sim.Explore.run_path}).
    Defaults: [max_depth = 200], [max_runs = 2_000_000].  [engine]
    selects the program engine for each re-execution (default the
    compiled VM); leaf order and statistics are identical under
    either. *)
