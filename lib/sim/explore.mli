(** The branch tree of exhaustive exploration, one path at a time.

    While {!Scheduler.run} samples one execution per seed, exhaustive
    exploration enumerates {e every} execution of a protocol on a small
    instance: every interleaving the adversary could choose, and both
    outcomes of every probabilistic write with probability strictly
    between 0 and 1.  Safety properties checked over this tree are
    therefore {e proved} for that instance, not merely tested.

    This module fixes the tree's path encoding and replays single paths
    over {!Machine}.  [run_path] executes one deterministically-chosen
    path (the replay core used by counterexample artifacts and the
    shrinker), and [next_path] computes its lexicographic successor.
    Two enumerators walk the tree: [Conrat_verify.Naive] re-executes
    every path from the root with these two functions (the small
    independent oracle), and [Conrat_verify.Por] walks it statefully,
    snapshotting the machine at branch points and restoring it to
    backtrack, with sleep-set (and optionally source-set) partial-order
    reduction; that walk needs protocol programs to be replay-pure (see
    {!Program}): [setup] is called once and continuations are
    re-entered when backtracking.

    This only covers protocols whose randomness consists entirely of
    probabilistic writes (true for the ratifier, which is deterministic,
    for the impatient conciliator, and for the bounded-space fallback);
    local-coin draws inside protocol code are not branched, so protocols
    using {!Rng} directly get only the schedule explored.

    Executions can be unbounded (an adversary can livelock a conciliator
    with vanishing probability), so paths are cut off at [max_depth] and
    checkers are told whether the execution was complete; safety
    properties are prefix-closed and should be checked on truncated
    executions too. *)

type 'r run = {
  outputs : 'r option array;      (** per-process results; [None] = unfinished *)
  completed : bool;               (** no process still runnable within [max_depth] *)
  crashed : bool array;           (** which pids crash-stopped on this path *)
  stages : string option array;   (** each pid's {!Machine.stage} at the end *)
  branches : (int * int) list;    (** (chosen, arity) at each branch point met *)
  trace : Trace.t option;         (** present iff [record] was set *)
  steps : int;                    (** operations executed on this path *)
}

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
    [branches] record, or [None] when the tree is exhausted.  With
    {!run_path} this is the re-execution enumerator (see
    [Conrat_verify.Naive]). *)
