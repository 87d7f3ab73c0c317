(** The single small-step transition façade.

    A machine holds the complete state of one execution: the per-process
    program state, the shared {!Memory.t}, and the step count.
    One transition = a scheduling choice (which enabled process moves)
    × a coin choice (did a probabilistic write land).  Every execution
    engine in the repo — the Monte Carlo {!Scheduler}, the single-path
    replay {!Explore.run_path}, and the naive and POR explorers in
    [Conrat_verify] — is a driver over this module, so the
    operation-application semantics lives in exactly one place.

    Two interchangeable program engines sit behind the façade: the
    default [`Vm] compiles each program once into flat instruction code
    (see {!Code} / {!Vm}) and steps through integer dispatch tables
    with zero per-step allocation; [`Tree] is the historical direct
    interpreter over {!Program.t} values, kept as the
    differential-testing oracle.  Both produce identical traces, sink
    events, metrics, leaf orders and outcome sets.

    A machine state can be {!snapshot}ed and later {!restore}d; under
    the VM a snapshot is [n] integers plus an O(1) memory delta mark,
    so backtracking costs O(changes undone) rather than O(|memory| +
    n).  [restore] also rolls back registers allocated since the
    snapshot (see {!Memory.restore_backup}).

    Under the VM the state that {!step_forced}, {!snapshot_into} and
    {!restore} store into is pointer-free: program counters, crash
    bits, memory cells (⊥ as the sentinel {!Memory.bot}) and the undo
    journals are immediate integers, copied with typed loops rather
    than [Array.blit].  OCaml's write barrier ([caml_modify]) runs on
    every store of a pointer-typed value into the major heap, and the
    explorers make these stores millions of times, so a search
    step/snapshot/restore cycle neither allocates nor pays the barrier.
    The pointer fields that remain (pending descriptors, the enabled
    set, a pooled snapshot's enabled set) are stored only when they
    change, and [restore] re-derives a pid's pending descriptor only
    when its pc or crash bit moved. *)

exception Collect_disallowed
(** Raised when a program performs a collect but the machine was not
    created with [~cheap_collect:true]. *)

exception Stuck of string
(** Raised when a finished process is scheduled — an engine bug, not a
    protocol property. *)

type engine = [ `Vm | `Tree ]
(** The program engine driving a machine: the compiled flat-instruction
    VM (default) or the tree-walking oracle interpreter. *)

type 'r t

val create :
  ?engine:engine ->
  ?cheap_collect:bool ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?sink:Sink.t ->
  n:int ->
  memory:Memory.t ->
  (pid:int -> 'r Program.t) ->
  'r t
(** [create ~n ~memory body] builds the initial state with [body ~pid]
    as each process's program.  Bodies are evaluated in pid order (any
    pure prefix, including register allocation, runs here).  When
    [metrics] / [trace] are given, every transition is recorded into
    them.  When [sink] is given, every transition, decision, snapshot
    and restore is reported to it; without one the instrumentation
    costs a single branch per transition.  [engine] selects the program
    engine (default [`Vm]). *)

val engine : 'r t -> engine
(** Which program engine this machine runs on. *)

val enabled : 'r t -> int array
(** Enabled pids, ascending.  The returned array is the machine's own
    and is never changed in place: a decide, crash or recovery replaces
    it (by table lookup up to n = 10, above that by dropping or
    inserting the one pid that moved), so an array read before a
    transition keeps its contents. *)

val unsafe_pending : 'r t -> Op.any option array
(** The live per-pid pending-operation descriptors (shared, not a
    copy) — the adversary view's [pending] field. *)

val pending_op : 'r t -> int -> Op.any option

val stage : 'r t -> int -> string option
(** The innermost {!Program.label} stage [pid] is currently executing
    in, if any — maintained as labels are peeled off advancing
    programs, and rolled back by {!restore}. *)

val steps : 'r t -> int
(** Transitions applied on the current path (restored by {!restore}). *)

val total_steps : 'r t -> int
(** Transitions ever applied, including along backtracked branches —
    the explorer's work measure.  Not affected by {!restore}. *)

val running : 'r t -> bool
val outputs : 'r t -> 'r option array

val outputs_into : 'r t -> 'r option array -> unit
(** Fill a caller-owned buffer of length [n] with the current outputs —
    the explorers' per-leaf path, which reuses one buffer across
    millions of leaves instead of allocating {!outputs} each time.
    Raises [Invalid_argument] on a length mismatch. *)

val crashes : 'r t -> int
(** Number of crash events so far on the current path (restored by
    {!restore}).  Not decremented by {!recover} — it counts events
    against the crash budget, not currently-down processes. *)

val recovers : 'r t -> int
(** Number of recovery events so far on the current path (restored by
    {!restore}). *)

val is_crashed : 'r t -> int -> bool

val crashed_pids : 'r t -> int array
(** The currently crash-stopped pids, ascending — the candidate set for
    a recovery choice, shared by every explorer so all enumerate
    recover candidates identically.  Like {!enabled} it is served
    from the table of interned pid sets, so for [n <= 10] the call
    allocates nothing (beyond, it builds a fresh array); the array must
    not be mutated. *)

val coin_class : 'r t -> int -> int
(** Branching class of [pid]'s pending operation, as a nonallocating
    int: 0 = forced miss, 1 = forced landed, 2 = coin ([0 < p < 1],
    choice 0 = landed), 3 = weak-register read (choice 0 = fresh).
    Plain writes are forced landed; atomic reads and collects forced
    miss.  Cached per pc under the VM engine ({!Code.coin_class}).
    Raises {!Stuck} on a finished process under the tree engine. *)

val supports_state_hash : 'r t -> bool
(** Whether {!hash_into} is available — true exactly for the VM
    engine, whose interned program counters give each program state a
    canonical encoding.  Tree program states are closures and have
    none; that engine exists as the differential oracle, not for
    hashed exploration. *)

val code_size : 'r t -> int
(** Instructions the VM's code store has interned so far (see
    {!Code.size}): the size behind its heap share, which grows with
    every protocol edge a search crosses.  0 under the tree engine. *)

val hash_into : 'r t -> int array -> unit
(** [hash_into t h] writes two independent 62-bit hashes of the
    machine's semantic state into [h.(0)] and [h.(1)]: the pc file,
    the memory (cells plus weak-register stale shadows, see
    {!Memory.hash_fold}) and the crashed set.  Machines of one
    exploration in semantically equal states — equal pending
    operations, outputs, memory views and crash status for every
    process — hash equal; step counters are work measures, not state,
    and do not participate.  The explorers' duplicate-detection key
    ([Conrat_verify.Por] dedup), computed into a caller-owned
    buffer of length 2, so a probe allocates nothing.  Raises
    [Invalid_argument] under the tree engine; gate on
    {!supports_state_hash}. *)

val state_hash : 'r t -> int * int
(** The pair {!hash_into} computes, in a fresh buffer.  The search
    calls {!hash_into} on one reused buffer; this form serves
    [perfbench]'s replay. *)

val step_forced : 'r t -> pid:int -> landed:bool -> unit
(** Apply [pid]'s pending operation with the coin outcome already
    decided.  For reads, [landed = true] delivers the stale (pre-write)
    value of a weak register — callers must only do this on registers
    marked weak (see {!Memory.mark_weak}); pass [false] for an atomic
    read.  For other deterministic operations [landed] is ignored for
    the memory effect but recorded in the trace; pass [Op.is_write]. *)

val crash : 'r t -> pid:int -> unit
(** Crash-stop [pid]: it permanently leaves the enabled set without
    executing its pending operation; its writes so far remain visible.
    Counts as one step; records a crash trace event and fires the
    sink's [on_crash].  Raises {!Stuck} if [pid] already finished or
    crashed.  Undone by {!restore} like any other transition. *)

val recover : 'r t -> pid:int -> unit
(** Restart a crashed [pid]: its volatile registers — those it last
    wrote and did not {!Memory.mark_persistent} — are wiped back to ⊥
    ({!Memory.wipe_volatile}; requires {!Memory.track_writers} to have
    been engaged at setup), its program state re-enters the protocol's
    recover continuation (or the main root when the protocol declared
    none — see {!Program.Recoverable}), and it rejoins the enabled set.
    Counts as one step; records a [(step pid recover)] trace event and
    fires the sink's [on_recover].  Raises {!Stuck} unless [pid] is
    currently crashed.  Undone by {!restore} like any other
    transition. *)

val step_random : 'r t -> pid:int -> coin:Rng.t -> unit
(** Apply [pid]'s pending operation, drawing the coin for a
    probabilistic write from [coin] (one [Rng.bernoulli] draw per
    probabilistic write, matching the scheduler's historical stream
    layout). *)

type 'r snapshot

val snapshot : 'r t -> 'r snapshot
(** Capture the machine state.  Under the VM engine this is [n]
    program-counter integers plus an O(1) memory journal mark; under
    the tree engine it is the historical O(|memory| + n) copy of the
    program, pending and stage arrays. *)

val snapshot_into : 'r t -> 'r snapshot -> unit
(** Refresh an existing snapshot of this machine in place —
    semantically {!snapshot} (including the sink event), minus the
    allocations.  The explorers pool one snapshot per DFS nesting
    level and refresh it when a sibling branch point reuses the level;
    the refreshed snapshot obeys the same LIFO discipline as a fresh
    one.  Raises [Invalid_argument] if the snapshot came from the
    other engine. *)

val restore : 'r t -> 'r snapshot -> unit
(** Return the machine to a snapshotted state.  The snapshot must have
    been taken on this machine, and restores must follow the
    explorers' LIFO discipline (see {!Memory.restore_backup}) — which
    depth-first snapshot-and-backtrack search satisfies by
    construction. *)
