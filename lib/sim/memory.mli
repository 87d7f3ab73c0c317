(** The shared store of atomic multi-writer multi-reader registers.

    Registers hold either [None] (the paper's ⊥ / "empty") or [Some v]
    for an arbitrary integer [v].  The store grows on demand so that
    protocols such as the unbounded construction of §4.1.1 can allocate
    fresh conciliator/ratifier instances lazily as processes reach them.

    Reads and writes here are raw accessors used by the scheduler; they
    do {e not} count as protocol operations by themselves — accounting
    happens when the scheduler applies an {!Op.t}.

    {b Representation.}  The store is pointer-free: cells, stale-read
    shadows and the undo journal are [int array]s, with ⊥ encoded as
    the sentinel {!bot} ([min_int]).  OCaml stores an immediate integer
    into an [int array] without its write barrier, so a write, a backup
    and a restore — millions per exhaustive search — neither allocate
    nor call [caml_modify]; an [int option] cell would box [Some v] on
    every write and pay the barrier on every store into the major-heap
    arrays.  {!read} and {!read_stale} build the option
    at the API edge (the tree engine, adversary views, continuations),
    and {!cell}/{!stale_cell} give the raw encoding to the VM.  The
    sentinel itself cannot be stored: {!write} and {!alloc} raise on
    it. *)

type loc = int
(** A register address. *)

type t

val create : unit -> t
(** An empty store. *)

val bot : int
(** The raw encoding of ⊥ returned by {!cell} and {!stale_cell}:
    [min_int], which no register may hold. *)

val alloc : ?init:int -> t -> loc
(** [alloc t] allocates a fresh register initialised to ⊥ (or to
    [Some init] when [~init] is given) and returns its address.  Raises
    [Invalid_argument] when [init] is {!bot}. *)

val alloc_n : ?init:int -> t -> int -> loc array
(** [alloc_n t k] allocates [k] fresh consecutive registers. *)

val read : t -> loc -> int option
(** Current contents.  Raises [Invalid_argument] on an unallocated
    address. *)

val read_stale : t -> loc -> int option
(** The register's contents before its most recent write — the value a
    {e regular} (non-atomic) register may legally return to a read that
    overlaps that write.  Equals {!read} on a register never written
    since allocation.  The shadow is maintained only for registers
    marked weak (the only ones on which drivers deliver stale reads);
    on an atomic register this returns the contents as of the register
    becoming weak, i.e. its initial contents if it never does. *)

val cell : t -> loc -> int
(** {!read} without the option: the value, or {!bot} for ⊥.  Allocates
    nothing. *)

val stale_cell : t -> loc -> int
(** {!read_stale} without the option, like {!cell}. *)

val decode : int -> int option
(** The contents a raw cell stands for: [None] for {!bot}, else
    [Some c]. *)

val write : t -> loc -> int -> unit
(** Overwrite a register with [Some v].  Raises [Invalid_argument] when
    [v] is {!bot}, the ⊥ sentinel. *)

val mark_weak : t -> loc -> unit
(** Mark one register as regular (non-atomic): fault-aware drivers may
    deliver {!read_stale} results on it. *)

val is_weak : t -> loc -> bool
(** Whether stale reads may be delivered on this register. *)

val weaken_all : t -> unit
(** Mark every currently-allocated register weak, and make weakness the
    default for registers allocated later on this store. *)

val engage_shadow : t -> unit
(** Bench/test hook: force the weak-register conditionals onto their
    deepest disabled-path evaluation (every write tests its register's
    weakness) without weakening any register, so observable behaviour
    stays exactly the atomic model.  The "engaged but inert" arm of the
    fault-plane overhead gate, as {!Sink.null} is to the observability
    gate. *)

(** {1 Crash-recovery plane: persistence and ownership}

    A recovery (see {!Fault.model}[.recoveries]) wipes the registers
    the crashed process {e last wrote}, except those marked persistent.
    Ownership is tracked dynamically — the machine stashes the acting
    pid with {!set_actor} before each operation — and only while
    {!track_writers} is engaged, so recovery-free runs pay one
    predictable branch per write and hash identically to a build
    without the plane. *)

val mark_persistent : t -> loc -> unit
(** Mark one register as surviving its writer's crash (configuration,
    set at allocation/setup time like {!mark_weak}; registers default
    to volatile). *)

val track_writers : t -> unit
(** Engage last-writer tracking.  Required before {!wipe_volatile};
    engaged by drivers whose fault model has a recovery budget, and by
    the overhead bench's engaged-but-inert arm.  Never disengages. *)

val tracking : t -> bool

val set_actor : t -> int -> unit
(** Record the pid about to perform the next operation(s); consulted by
    {!write} when tracking to attribute ownership. *)

val wipe_volatile : t -> pid:int -> unit
(** The crash-recovery wipe: revert every volatile register last
    written by [pid] to never-written (⊥, no owner).  Wipes go through
    the same undo journal as writes, so backtracking over a recovery
    restores the pre-wipe state exactly.  Raises [Invalid_argument] if
    tracking is not engaged. *)

val size : t -> int
(** Number of registers allocated so far — the protocol's space
    complexity in registers. *)

type backup
(** Full-fidelity state capture for explorer backtracking, as a pure
    delta mark: the journal length and the store length, so taking one
    is O(1) and restoring costs O(writes undone) instead of
    O(|memory|).  The first backup on a store permanently enables the
    undo journal: every later write or wipe pushes one entry holding
    the register's overwritten contents, its overwritten writer (under
    {!track_writers}) and, on a weak register, its overwritten
    previous-value shadow, so ownership and {!read_stale} replay
    identically after backtracking.  Stores that never back up — the
    Monte Carlo scheduler's — never journal. *)

val backup : t -> backup

val backup_into : t -> backup -> unit
(** Refresh an existing backup to capture the current state — the
    explorers' pooled-snapshot path, which avoids allocating a backup
    per branch point.  The refreshed backup is subject to the same LIFO
    discipline as a fresh one. *)

val restore_backup : t -> backup -> unit
(** Overwrite the store with the state captured by the backup.
    Registers allocated since the backup are deallocated ([size] shrinks
    back).  Backups must be restored in the explorers' LIFO discipline
    (most recent first, each possibly several times); restoring one
    invalidates every backup taken after it. *)

val mix1 : int -> int -> int
val mix2 : int -> int -> int
(** The two 62-bit hash folds behind {!hash_fold}, exposed so the other
    state-bearing layers ({!Vm}, [Machine]) extend the same pair of
    accumulators: [mixK h v] absorbs [v] into accumulator [h]. *)

val hash_fold : t -> int array -> unit
(** [hash_fold t h] folds the store's semantic state — live cell
    contents plus, on weak registers, the stale-read shadow, plus,
    under {!track_writers}, per-register ownership (it decides what a
    future recovery wipes) — into the two independent 62-bit
    accumulators [h.(0)] and [h.(1)], in place: a caller-owned buffer,
    so the fold allocates nothing.  Two stores of
    one exploration that are semantically equal (same {!size}, same
    {!read} and {!read_stale} views) fold equally; journals and pooled
    bookkeeping are excluded, so equality of state reached by different
    paths still agrees.  The explorers' duplicate-detection primitive
    (see [Conrat_verify.Por] dedup). *)
