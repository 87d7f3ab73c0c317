(** The register-file VM execution engine.

    One value holds a process's worth of program counters into a
    {!Code} store compiled from the protocol bodies at creation time.
    A step is [Code.step] plus one integer store; a snapshot is a copy
    of [n] integers (memory state is snapshotted separately, as a
    delta mark — see {!Memory.backup}).  Drive it through [Machine]
    rather than directly: the façade owns step counting, crash state,
    the enabled set and instrumentation, identically for both
    engines. *)

type 'r t

val create :
  ?cheap_collect:bool ->
  n:int ->
  memory:Memory.t ->
  (pid:int -> 'r Program.t) ->
  'r t
(** Compile the bodies (evaluated in pid order, running pure prefixes
    exactly like the tree interpreter) and place every pc at its
    root. *)

val exec : 'r t -> pid:int -> landed:bool -> int
(** Execute [pid]'s pending operation with the coin outcome already
    decided, advancing its pc.  Returns what a read observed as a raw
    cell ({!Memory.cell}; {!Memory.bot} for ⊥ and for other
    operations), for trace recording: an immediate, so the
    no-instrumentation path allocates nothing. *)

val reenter : 'r t -> pid:int -> unit
(** Crash-recovery re-entry: place [pid]'s pc at its recover
    continuation ({!Code.rec_root}) — the recovery analogue of
    [create]'s root placement.  Driven by [Machine.recover]. *)

val pending : 'r t -> int -> Op.any option
(** [pid]'s pending-operation descriptor (shared, interned once). *)

val stage : 'r t -> int -> string option
val result : 'r t -> int -> 'r option

val coin_class : 'r t -> int -> int
(** Cached branching class of [pid]'s pending operation (see
    {!Code.coin_class}). *)

val code_size : 'r t -> int
(** Instructions interned in the code store so far ({!Code.size}). *)

val hash_fold : 'r t -> int array -> unit
(** Fold the pc file into the two duplicate-detection accumulators
    [h.(0)] and [h.(1)], in place (see {!Memory.hash_fold}): pcs are
    interned per continuation, so equal pc files mean equal program
    states. *)

type snapshot = int array

val snapshot : 'r t -> snapshot

val snapshot_into : 'r t -> snapshot -> unit
(** Refresh a snapshot of this VM in place (same [n]) — the pooled
    no-allocation path. *)

val restore_pid : 'r t -> snapshot -> int -> bool
(** Restore one pid's pc from a snapshot; [true] iff it changed, so the
    façade re-derives pending descriptors only for the pids that
    moved. *)
