(** The protocol compiler: {!Program} trees interned into flat,
    integer-indexed instruction code for the register-file VM.

    Compilation is lazy and memoizing: an instruction is created the
    first time an execution steps through a (state, observation) edge —
    invoking the continuation exactly once — and every later traversal
    of that edge resolves through precomputed integer tables with zero
    heap allocation.  Program counters form a forest (one tree per
    process, one incoming edge per pc), so straight-line runs invoke
    continuations exactly as the tree interpreter does, and memo hits
    occur only when a backtracking explorer revisits a state, where the
    replay-purity contract of {!Program} makes the cached unfolding
    exact.

    Continuations may lazily allocate registers (the paper's unbounded
    constructions do); an interned successor records the store length
    it was unfolded at and the initial contents of what it allocated,
    so memo hits replay the allocations and traversals at a different
    store length intern a separate successor capturing the right
    addresses.  Continuations must not otherwise read or write the
    store except through performed operations — the same contract the
    backtracking tree explorer already imposes.

    Layout: one growable array with one record per pc, holding its
    side data (pending descriptor, branching class, stage label,
    allocation record) and its operation with operands and successor
    slots; growth copies that one array.  A read's successors sit in
    one table of (observation, successor) pairs, ⊥ included, whose size
    follows the number of distinct observations, never their values.
    Equal pending operations share one descriptor.  A write,
    probabilistic write or detecting write drops its continuation once
    every successor it can produce is interned and allocated nothing,
    since such an edge never unfolds again; reads, collects and edges
    whose successor allocates keep theirs. *)

exception Collect_disallowed
(** Raised when a program performs a collect without the cheap-collect
    model enabled (re-exported as [Machine.Collect_disallowed]). *)

type 'r t
(** A code store: one record per interned pc (pending-op descriptor,
    branching class, stage label, operation with its successor slots or
    result), growing as new edges are interned. *)

val compile : memory:Memory.t -> n:int -> (pid:int -> 'r Program.t) -> 'r t
(** Intern each process's entry point.  Bodies are evaluated in pid
    order, running any pure prefix (including register allocation),
    exactly like the tree interpreter's [Machine.create]. *)

val peel : string option -> 'r Program.t -> string option * 'r Program.t
(** [peel stage p] strips {!Program.Label}s off the front of [p]: the
    innermost label's stage (or [stage] when there is none) and the
    program under them.  The root peel of both program engines. *)

val root : 'r t -> int -> int
(** Entry pc of a process. *)

val rec_root : 'r t -> int -> int
(** Re-entry pc for a recovering process: the recover continuation the
    protocol declared via {!Program.Recoverable}, or the main root
    (restart from the top) when it declared none.  Like roots, re-entry
    pcs record no allocations, so they are valid at any store
    length. *)

val pending : 'r t -> int -> Op.any option
(** The pending-operation descriptor at a pc — allocated once per
    distinct operation and shared by every pc pending it, wrapping an
    [Op.t] value equal bit for bit to the protocol's, so serialized
    traces are bit-identical to the tree engine's.  [None] at halts. *)

val stage : 'r t -> int -> string option
(** Absolute stage label at a pc (innermost {!Program.label} peeled on
    the way here, or inherited — a pc encodes the full local history,
    so the tree interpreter's sticky per-process stage is a per-pc
    constant). *)

val result : 'r t -> int -> 'r option
(** [Some r] exactly at halt pcs. *)

val classify : Memory.t -> Op.any -> int
(** Branching class of an operation on this store, as a nonallocating
    int: 0 = forced miss (atomic reads, collects, [p <= 0]), 1 = forced
    landed (plain writes, [p >= 1]), 2 = coin ([0 < p < 1], choice 0 =
    landed), 3 = read of a register marked weak (choice 0 = fresh).
    The one classifier behind both engines' [Machine.coin_class]. *)

val coin_class : 'r t -> int -> int
(** {!classify} of the pc's operation, cached when the pc was
    interned. *)

val size : 'r t -> int
(** Number of instructions interned so far. *)

val step : 'r t -> cheap_collect:bool -> pc:int -> landed:bool -> int
(** Execute the instruction at [pc] with the coin outcome already
    decided (for reads, [landed = true] delivers the stale value of a
    weak register), applying its memory effect and returning the
    successor pc — dispatching through the memo tables, interning on a
    miss.  Raises [Invalid_argument] at a halt pc and
    {!Collect_disallowed} on a collect without [cheap_collect]. *)

val last_observed : 'r t -> int
(** What the most recent {!step}'s read observed, as the raw cell
    ({!Memory.cell}: {!Memory.bot} for ⊥ and after other operations) —
    an immediate, so recording it per step neither allocates nor pays
    the write barrier. *)
