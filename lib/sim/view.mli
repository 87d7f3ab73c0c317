(** Adversary views of the execution state.

    The strength of an adversary is defined by what it can observe when
    choosing the next process to move (§2.1).  We enforce each class's
    restriction {e by construction}: an adversary of a given class is
    built from a choice function whose argument type is the projection
    of the full view that the class is allowed to see.  It is therefore
    a type error, not merely a convention, for an oblivious adversary to
    inspect register contents.

    The restricted views are abstract, zero-copy projections: each is
    the live {!full} view behind an abstract type, and the only way in
    is the accessors listed for that class.  Projecting costs nothing
    and an accessor reads the scheduler's own state in place, so a
    choice allocates nothing the adversary does not allocate itself.

    {!Scheduler.run} builds one {!full} record per trial and mutates it
    in place between choices ([step], [enabled], the reader index), so
    a view — full or restricted — is valid only during the call it was
    passed to: an adversary or fault plan that keeps it sees later
    states, not the one it chose in.

    One deliberate deviation, documented here and tested: every view
    includes the set of {e enabled} processes (those that have not yet
    returned), because a scheduler must not stall on a halted process.
    This is the standard convention — a fixed-order oblivious schedule
    simply skips halted processes. *)

type full = {
  mutable step : int;             (** operations executed so far *)
  n : int;                        (** number of processes *)
  mutable enabled : int array;    (** pids still running, ascending *)
  pending : Op.any option array;  (** pending op per pid; [None] = halted *)
  reading : bool array;
    (** per pid: the pending operation is a read or a collect *)
  mutable readers : int;          (** how many [reading] flags are set *)
  memory : Memory.t;              (** the shared store (adaptive only) *)
  op_counts : Metrics.counts;     (** per-pid work so far (read-only) *)
}
(** The scheduler's own state, read in place.  [reading] and [readers]
    are the reader index: {!Scheduler.run} refreshes them for the one
    pid each transition moves, so they always agree with [pending]
    without a per-step scan.  Every field belongs to the scheduler;
    adversaries and fault plans only read it. *)

type oblivious
(** What an oblivious adversary sees: nothing but time and liveness. *)

type value_oblivious
(** Value-oblivious (§2.1, used by Aumann etc.): sees operation types
    and target locations, but neither register contents nor the values
    of pending writes. *)

type location_oblivious
(** Location-oblivious (§2.1, the class that justifies probabilistic
    writes): sees memory contents and pending write values, but cannot
    tell which register a pending write targets. *)

val to_oblivious : full -> oblivious
val to_value_oblivious : full -> value_oblivious
val to_location_oblivious : full -> location_oblivious

(** {1 Oblivious accessors} *)

val ob_step : oblivious -> int
val ob_n : oblivious -> int

val ob_enabled : oblivious -> int array
(** Pids still running, ascending.  The scheduler's own array: read it,
    do not mutate it. *)

(** {1 Value-oblivious accessors}

    The per-pid accessors describe [pid]'s pending operation and raise
    [Invalid_argument] when [pid] has none (it halted or crashed);
    every pid in {!vo_enabled} has one. *)

val vo_step : value_oblivious -> int
val vo_n : value_oblivious -> int
val vo_enabled : value_oblivious -> int array
val vo_kind : value_oblivious -> int -> Op.kind

val vo_readers : value_oblivious -> int
(** How many enabled pids have a pending read or collect, in O(1): the
    count {!vo_kind} would give by scanning {!vo_enabled}. *)

val vo_is_reader : value_oblivious -> int -> bool
(** Whether [pid]'s pending operation is a read or a collect — one
    flag load.  Unlike {!vo_kind} it is total: [false] for a pid with
    no pending operation. *)

val vo_loc : value_oblivious -> int -> Memory.loc

val vo_prob : value_oblivious -> int -> float
(** The probability that the pending operation takes effect: the write
    probability of a probabilistic write, [1.0] for every other
    operation. *)

val vo_op_count : value_oblivious -> int -> int
(** Operations [pid] has executed so far. *)

(** {1 Location-oblivious accessors}

    Per-pid accessors follow the {!vo_kind} convention. *)

val lo_step : location_oblivious -> int
val lo_n : location_oblivious -> int
val lo_enabled : location_oblivious -> int array
val lo_kind : location_oblivious -> int -> Op.kind

val lo_value : location_oblivious -> int -> int
(** The value [pid]'s pending write carries.  Raises [Invalid_argument]
    when the pending operation is not a write (see {!lo_kind}). *)

val lo_prob : location_oblivious -> int -> float
(** As {!vo_prob}. *)

val lo_registers : location_oblivious -> int
(** Registers allocated so far. *)

val lo_cell : location_oblivious -> int -> int option
(** Current contents of register [i], [0 <= i < lo_registers v];
    [None] = ⊥. *)

val lo_empty : location_oblivious -> int -> bool
val lo_holds : location_oblivious -> int -> int -> bool
(** [lo_empty v i] is [lo_cell v i = None] and [lo_holds v i x] is
    [lo_cell v i = Some x], read off the raw cell ({!Memory.cell}) so
    the location-oblivious adversaries' per-step memory scans allocate
    nothing. *)

val lo_op_count : location_oblivious -> int -> int
