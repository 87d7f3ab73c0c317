(** Exhaustive execution exploration — a miniature model checker.

    While {!Scheduler.run} samples one execution per seed, [explore]
    enumerates {e every} execution of a protocol on a small instance:
    every interleaving the adversary could choose, and both outcomes of
    every probabilistic write with probability strictly between 0
    and 1.  Safety properties checked over this tree are therefore
    {e proved} for that instance, not merely tested.

    Both entry points are drivers over {!Machine}.  [run_path] executes
    one deterministically-chosen path (the replay core used by
    counterexample artifacts and the shrinker).  [explore] walks the
    whole tree {e statefully}: programs are copyable values, so each
    branch point snapshots the machine once and backtracking restores
    it in O(|memory| + n) — no re-execution of path prefixes.  The
    historical re-execution enumerator survives as
    [Conrat_verify.Naive], which visits the same leaves in the same
    order (the cross-check suite relies on that).  The sleep-set
    partial-order-reduced explorer is [Conrat_verify.Por].

    This only covers protocols whose randomness consists entirely of
    probabilistic writes (true for the ratifier, which is deterministic,
    for the impatient conciliator, and for the bounded-space fallback);
    local-coin draws inside protocol code are not branched, so protocols
    using {!Rng} directly get only the schedule explored.  Protocol
    programs must also be replay-pure (see {!Program}): [setup] is
    called once and continuations are re-entered when backtracking.

    Executions can be unbounded (an adversary can livelock a conciliator
    with vanishing probability), so paths are cut off at [max_depth] and
    the [check] callback is told whether the execution was complete;
    safety properties are prefix-closed and should be checked on
    truncated executions too. *)

type stats = {
  complete : int;       (** complete executions explored *)
  truncated : int;      (** paths cut off at [max_depth] *)
  exhausted : bool;     (** the whole tree fit within [max_runs] *)
  steps : int;          (** machine transitions applied in total *)
}

type 'r run = {
  outputs : 'r option array;      (** per-process results; [None] = unfinished *)
  completed : bool;               (** no process still runnable within [max_depth] *)
  crashed : bool array;           (** which pids crash-stopped on this path *)
  branches : (int * int) list;    (** (chosen, arity) at each branch point met *)
  trace : Trace.t option;         (** present iff [record] was set *)
  steps : int;                    (** operations executed on this path *)
}

val coin_of_op : memory:Memory.t -> Op.any -> [ `Det of bool | `Coin | `Weak ]
(** The explorer's branching convention for a pending operation:
    probabilistic writes with [0 < p < 1] branch on the coin ([`Coin],
    choice 0 = landed); reads on registers marked weak branch on
    freshness ([`Weak], choice 0 = fresh, choice 1 = stale); degenerate
    probabilities and other deterministic operations have a forced
    coin.  Shared with the POR engine so both classify identically. *)

val run_path :
  ?engine:Machine.engine ->
  ?record:bool ->
  ?max_depth:int ->
  ?cheap_collect:bool ->
  ?faults:Fault.model ->
  ?sink:Sink.t ->
  n:int ->
  setup:(unit -> Memory.t * (pid:int -> 'r Program.t)) ->
  int list ->
  'r run
(** [run_path ~n ~setup path] deterministically executes the single
    path described by [path]: each element resolves one branch point in
    order — an index into the ascending-pid enabled array at scheduling
    points with ≥ 2 enabled processes, and [0] (landed) / [1] (missed)
    at probabilistic writes with [0 < p < 1] (respectively [0] (fresh)
    / [1] (stale) at weak-register reads).  Choices beyond the end
    of [path] default to 0, and out-of-range choices clamp to 0, so any
    integer list is a valid schedule for any protocol — the basis for
    replayable counterexample artifacts and delta-debugging shrinks.
    Scheduling points with a single enabled process consume no path
    element and are not recorded in [branches].

    When [faults] carries a crash budget f > 0, every scheduling point
    over enabled set [en] has [2·|en|] choices while budget remains:
    indices below [|en|] step the corresponding process, the rest
    crash-stop it (so the all-zeros path remains the failure-free
    canonical execution, and such points always consume a path element
    even with one enabled process).  When it additionally carries a
    recovery budget r > 0, a third band of [m] recovery choices follows
    while that budget remains, one per currently crash-stopped pid in
    ascending order; and when every live process has finished but
    crashed pids remain recoverable, the point becomes a stop-or-recover
    node of arity [1 + m] whose choice 0 ends the execution — keeping
    the all-zeros path canonical and recovery-free trees bit-identical
    to their crash-only form.  [faults.weak_reads] itself has no
    effect here — weakness lives in the registers the setup marked via
    {!Memory.mark_weak} / {!Memory.weaken_all}. *)

val next_path : (int * int) list -> int list option
(** The lexicographically next unexplored path after the given
    [branches] record, or [None] when every branch point has tried its
    last alternative.  With {!run_path} this reconstitutes the
    historical re-execution enumerator (see [Conrat_verify.Naive]). *)

val next_path_from : lo:int -> (int * int) list -> int list option
(** Like {!next_path}, but branch points at positions [< lo] (from the
    root) are pinned and never bumped: the enumeration covers exactly
    the subtree sharing the record's first [lo] choices and returns
    [None] when that subtree is exhausted.  [next_path] is
    [next_path_from ~lo:0].  This is the unit of sharded naive
    enumeration (see [Conrat_verify.Parallel]). *)

val explore :
  ?engine:Machine.engine ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?cheap_collect:bool ->
  ?faults:Fault.model ->
  ?stop:(unit -> bool) ->
  ?sink:Sink.t ->
  ?heartbeat:(runs:int -> steps:int -> depth:int -> unit) ->
  n:int ->
  setup:(unit -> Memory.t * (pid:int -> 'r Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  unit ->
  (stats, string * stats) result
(** [explore ~n ~setup ~check ()] enumerates executions depth-first,
    statefully: [setup] is called {e once}; the machine is snapshotted
    at branch points and restored when backtracking.  [check] is called
    at the end of every path; the first [Error] aborts the search and
    is returned together with the statistics so far.  At a
    [complete = true] leaf a [None] output means exactly that the
    process crash-stopped (possible only with a crash budget); at a
    truncated leaf it may also mean "still running".  [stop] is polled
    at every leaf; returning [true] ends the search early with
    [exhausted = false] (used for wall-clock budgets).  [sink]
    receives per-transition observability events; [heartbeat] is
    called once per leaf with the running totals ([depth] is the leaf's
    own path length) — rate limiting is the callback's business.
    [faults] widens scheduling points with crash (and, with a recovery
    budget, recover) choices exactly as in {!run_path}, keeping the two
    engines' path encodings aligned.
    [engine] selects the program engine (default the compiled VM); the
    leaf order, statistics and outcome sequence are identical under
    either.  Defaults: [max_depth = 200], [max_runs = 2_000_000],
    [faults = Fault.none]. *)
