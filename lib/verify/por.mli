(** The partial-order-reduced exhaustive explorer (sleep sets).

    Explores the same branch tree as {!Naive.explore} — every adversary
    schedule and both outcomes of every probabilistic write — but
    prunes interleavings that only permute {!Independence.independent}
    operations of an already-explored execution, using Godefroid-style
    {e sleep sets}: after a scheduling choice [t] at state [s] is fully
    explored, [t] enters [s]'s sleep set; descending via a transition
    filters the sleep set down to the entries that commute with it, and
    a sleeping process is never scheduled.  A path whose every enabled
    process is asleep is abandoned ([pruned]) — it can only revisit
    Mazurkiewicz traces the search has already covered.

    Sleep sets need no lookahead into future operations, which matters
    here: operations are revealed dynamically as each {!Conrat_sim.Program}
    unfolds, so nontrivial {e persistent} sets (which must account for
    operations a process has not yet performed) cannot be computed
    soundly.  Sleep sets only ever skip redundant interleavings.

    The search is {e stateful}: one {!Conrat_sim.Machine} advances
    through the tree in place, branch points snapshot it once (into a
    pool with one slot per frame-stack level), and trying a sibling or
    the other coin outcome restores the snapshot in O(writes undone +
    n) under the VM's memory journal (O(|memory| + n) under the tree
    engine) instead of re-executing the path prefix; the programs must be
    replay-pure (see {!Conrat_sim.Program}).  {!explore} and
    {!explore_source} are two entry points onto this one depth-first
    kernel.

    Guarantees: every {e complete} execution of the unreduced tree is
    Mazurkiewicz-equivalent to a complete execution this search visits,
    and equivalent executions give every process the identical local
    history — so the set of complete-execution outcomes (and any
    outcome-based safety violation on them) is preserved exactly, while
    the number of executions is strictly smaller whenever any two
    independent operations were ever co-enabled.  For depth-{e truncated}
    paths the cut prefix is representative-dependent: a violation
    visible only in a truncated prefix of one particular interleaving
    may be checked under a different (equivalent) interleaving whose
    prefix at the cut differs.  Complete-execution coverage is
    unaffected; when exact truncated-prefix coverage matters, use
    {!Naive.explore} (the [conrat check --naive] engine) or raise
    [max_depth].

    With a {!Conrat_sim.Fault} budget, every scheduling state also
    offers crash-stop candidates (after the step candidates, matching
    {!Conrat_sim.Explore.run_path}'s path layout), so the reduced tree
    is closed under up to [faults.crashes] crashes placed anywhere.
    A crash touches no register and is therefore independent of every
    transition of another process — crash placements commute freely
    with concurrent steps, which is where most of the reduction over
    the naive crash-closed tree comes from.  A recovery budget appends
    recover candidates for the currently crashed pids (and the
    stop-or-recover node when no process is live — see
    {!Conrat_sim.Explore.run_path}); a recovery wipes the volatile
    registers its pid last wrote, so it is conservatively dependent on
    every operation but still commutes with crashes and with other
    pids' recoveries ({!Independence.independent_actions}).  Weak
    registers add a fresh/stale fork to each of their reads, handled
    exactly like a probabilistic-write coin.  Sleep sets pack into one
    immediate int as 3-bit per-pid lanes, so both engines require
    [n <= 20].

    Most leaves of a crash-closed search are crash children whose every
    candidate is already asleep.  A crash writes no register, so
    {!explore} can tell such a child from its parent's sleep set alone
    (when no recovery budget remains and the child is not at the depth
    bound) and counts it as a pruned leaf without running the crash:
    the statistics, checkpoints, heartbeats and coverage read exactly as
    if the crash had run. *)

type stats = {
  complete : int;    (** complete executions checked *)
  truncated : int;   (** paths cut off at [max_depth] and checked *)
  pruned : int;      (** paths abandoned sleep-blocked or as duplicate
                         states, without a check *)
  dedup_hits : int;  (** of [pruned], how many were duplicate-state
                         hits (always 0 without [~dedup:true]) *)
  exhausted : bool;  (** the whole reduced tree fit within [max_runs] *)
  steps : int;       (** transitions of the explored tree in total,
                         backtracked branches included — among them the
                         crash edge into every crash child counted
                         without running the crash (see {!explore}) *)
}

val explored : stats -> int
(** [complete + truncated] — the executions actually run to a checked
    leaf.  Compare against {!Naive.explore}'s same sum to measure the
    reduction. *)

val explore :
  ?engine:Conrat_sim.Machine.engine ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?cheap_collect:bool ->
  ?faults:Conrat_sim.Fault.model ->
  ?stop:(unit -> bool) ->
  ?sink:Conrat_sim.Sink.t ->
  ?probe:Conrat_obs.Telemetry.probe ->
  ?heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  ?resume:Checkpoint.counts ->
  ?subtree_prefix:int ->
  ?cut:int * (int list -> unit) ->
  ?dedup:bool ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.counts -> unit) ->
  n:int ->
  setup:(unit -> Conrat_sim.Memory.t * (pid:int -> 'r Conrat_sim.Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  unit ->
  (stats, string * int list * stats) result
(** Same contract as {!Naive.explore} with two differences: [max_runs]
    counts pruned paths too (each reaches a leaf), and a [check]
    failure additionally returns the failing branch path, in
    {!Conrat_sim.Explore.run_path}'s encoding, ready for
    {!Shrink.minimize} and {!Artifact} replay.  One more caveat born of
    the leaf rate: the outputs array passed to [check] is a single
    buffer reused across every leaf — copy it to retain it beyond the
    call.  [sink] observes every
    machine transition (including snapshot/restore backtracking).  It
    sees no
    [on_crash] for a crash child counted without running the crash, and
    no [on_restore] after such a child or after the stop
    pseudo-candidate: neither moves the machine.
    [heartbeat] fires once per leaf (pruned leaves included) with
    running totals — rate limiting is the callback's business.

    [probe] feeds the search telemetry plane
    ({!section-"obs"}[Telemetry]): dedup hit/miss/intersection and
    table-peak counters, snapshot-pool allocation/refresh/high-water,
    checkpoint saves, and — on the way out, as deltas against the
    [resume] baseline so shard contributions sum to sequential totals —
    leaf and step counts.  The per-branch-point counters (snapshots,
    refreshes, dedup outcomes) accumulate in plain locals and flush to
    the probe's atomic cells every 4096 leaves and at exit, so live
    fleet reads lag by a bounded window while the probe-attached hot
    path stays within the [counters] gate's budget.  When the probe
    carries a {!section-"obs"}[Coverage.t], every counted leaf also
    lands in the depth-profile and stage-signature histograms (per-leaf
    cost; the counters alone are branch-only when disabled — see
    [bench/gates.ml]).

    [faults] closes the tree under crash-stops and weak-register reads
    (default {!Conrat_sim.Fault.none}; registers must additionally be
    marked weak on the [setup]-returned memory for stale forks to
    appear).

    Checkpointing: when [on_checkpoint] is given it receives the DFS
    frontier — the path to the {e current, not yet counted} leaf plus
    the counts strictly before it — every [checkpoint_every] leaves
    (default [100_000]) and once more when the search stops on [stop]
    or [max_runs].  Passing that value back as [resume] (with the same
    config, engine and budgets) fast-forwards to the saved leaf without
    re-counting and continues; the completed search's statistics and
    outcome sequence are bit-identical to an uninterrupted run.  A
    [resume] value inconsistent with the config raises
    [Invalid_argument].

    [engine] selects the program engine behind the machine (default the
    compiled VM, {!Conrat_sim.Machine.engine}); the traversal order,
    pruning decisions, statistics, checkpoints and outcome sequence are
    identical under either engine, so a checkpoint saved under one can
    be resumed under the other.

    {2 Sharding}

    [~subtree_prefix:l] with [~resume] pins the first [l] entries of the
    resume path: the search replays them as the only candidate at each
    of the first [l] branch points (validating against the config,
    rebuilding sleep sets along the corridor) and explores {e no
    siblings} there — only the subtree below the pinned prefix.  Step
    and count accounting is rebased so that the reported [stats] cover
    exactly that subtree, the pinned transitions of the cut node's own
    choice included once.  A resume path {e longer} than
    [subtree_prefix] additionally fast-forwards within the subtree as a
    normal checkpoint resume, so an interrupted shard continues
    bit-identically.

    [~cut:(lvl, emit)] turns the search into a {e shard generator}: at
    the first branch point of each path whose frame nesting is at least
    [lvl], the search calls [emit] once per sleep-surviving candidate
    with the path selecting it (in exploration order) and backs out
    without descending.  Leaves reached before any such branch point —
    the generator {e residue} — are explored and counted normally.  The
    emitted paths, each run under [~resume:{path; zeros}]
    [~subtree_prefix:(List.length path)], partition the remaining tree:
    residue stats plus the per-shard stats sum to exactly the
    unsharded totals, and concatenating per-shard outcome sequences in
    emission order replays the sequential outcome sequence.  [cut] is
    exclusive with [resume], [dedup] and checkpointing.

    {2 Duplicate detection}

    [~dedup:true] (VM engine only — raises [Invalid_argument] under the
    tree engine, see {!Conrat_sim.Machine.supports_state_hash}) prunes a
    branch point whose machine state was already visited at the same
    depth and crash budget with a sleep set no larger than the current
    one; such a node can only re-derive already-covered executions.
    Hits are counted in [pruned] and [dedup_hits].  Keys are two
    independent hashes of 62 significant bits each; a collision would
    need both to collide simultaneously (probability ~2⁻¹²⁴ per
    pair).  Complete-execution
    {e outcome sets} are preserved ([test/test_parallel.ml] verifies
    this differentially); per-leaf sequences and counts are generally
    smaller than without dedup.  Exclusive with checkpointing and with
    mid-subtree resume (a fresh shard — [List.length resume.path =
    subtree_prefix] with zero counts — is fine; the visited table is
    per-call and is not serialized). *)

val explore_source :
  ?engine:Conrat_sim.Machine.engine ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?cheap_collect:bool ->
  ?faults:Conrat_sim.Fault.model ->
  ?stop:(unit -> bool) ->
  ?sink:Conrat_sim.Sink.t ->
  ?probe:Conrat_obs.Telemetry.probe ->
  ?heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  n:int ->
  setup:(unit -> Conrat_sim.Memory.t * (pid:int -> 'r Conrat_sim.Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  unit ->
  (stats, string * int list * stats) result
(** Dynamic partial-order reduction in the source-set style, run by the
    same depth-first kernel and on the same sleep sets as {!explore}:
    each branch point starts with a minimal backtracking set (its first
    awake candidate plus every crash, recover and stop candidate) and
    grows it only when an executed transition is found to race with a
    later one — candidates never requested are never explored.  The
    next sibling is the lowest-index requested candidate not asleep.
    Leaves cut before completion (depth-truncated or sleep-blocked) scan
    every still-pending operation for races so truncation cannot hide a
    dependency; crash children are therefore always run, never counted
    from the parent's sleep set as {!explore} does.

    Preserves the complete-execution outcome set exactly, like
    {!explore}; {!explored} counts and per-leaf sequences are generally
    {e smaller} and are not comparable leaf-for-leaf.  A [check]
    failure still returns a replayable {!Conrat_sim.Explore.run_path}
    path.  [probe] counts detected races ([dpor_races]) and
    backtrack-set candidates added ([dpor_backtracks]) besides the
    leaf, step and snapshot-pool counters, and fills its coverage like
    {!explore}.  No checkpointing, sharding or dedup: this mode is the
    reduction oracle the differential suite cross-checks {!explore} and
    {!Naive.explore} against ([conrat check --dpor]). *)
