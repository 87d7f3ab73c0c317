(** Adversary schedulers.

    An adversary is, per §2, a function from partial executions to
    process ids.  Here it is a named factory: [fresh] is called once per
    execution and returns a stateful choice function.  The smart
    constructors below build adversaries of each strength class from a
    choice function over the class's restricted {!View}; this makes the
    information restriction a type-level guarantee.

    If an adversary returns a pid that is not enabled, the scheduler
    falls back to the next enabled pid at or after it (cyclically) —
    this is how fixed-order oblivious schedules "skip" halted
    processes. *)

type t = {
  name : string;
  fresh : n:int -> Rng.t -> (View.full -> int);
}

(** {1 Smart constructors per strength class} *)

val adaptive : string -> (n:int -> Rng.t -> (View.full -> int)) -> t
(** A strong adversary: sees everything, including register contents
    and pending write values and locations. *)

val oblivious : string -> (n:int -> Rng.t -> (View.oblivious -> int)) -> t
val value_oblivious : string -> (n:int -> Rng.t -> (View.value_oblivious -> int)) -> t
val location_oblivious : string -> (n:int -> Rng.t -> (View.location_oblivious -> int)) -> t

(** {1 The standard zoo}

    Each of these is used by the test suite and the experiment harness;
    E7 runs the conciliator against all of them. *)

val round_robin : t
(** Oblivious: p0, p1, …, p(n-1), p0, … skipping halted processes. *)

val random_uniform : t
(** Oblivious: schedules a uniformly random enabled process each step
    (randomness independent of the protocol's coins). *)

val fixed_permutation : ?perm:int array -> unit -> t
(** Oblivious: repeats a fixed (by default randomly drawn) permutation
    of the processes forever. *)

val write_stalker : t
(** Value-oblivious: delays every pending write as long as some process
    has a pending read — the classic attack on vote-style protocols,
    which stockpiles pending writes and releases them together. *)

val overwrite_attacker : t
(** Location-oblivious: tries to break first-mover conciliators.  It
    prefers scheduling processes whose pending probabilistic write
    carries a value different from some value already present in
    memory, choosing among those the one with the highest write
    probability (the most "impatient" process). *)

val adaptive_overwriter : t
(** Adaptive (stronger than the model the conciliator is designed for;
    used to show what the location-oblivious restriction buys).  After
    any register becomes non-⊥ it always schedules the conflicting
    pending writer with the highest success probability, and starves
    processes about to read agreement. *)

val noisy : ?jitter:float -> unit -> t
(** The noisy scheduler of [5] (§4.2): each process has a planned
    schedule of evenly spaced steps, perturbed by random per-step jitter
    that accumulates over time; at every point the process with the
    smallest perturbed virtual time moves.  [jitter] is the standard
    scale of the per-step exponential noise (default 0.3). *)

val priority : ?priorities:int array -> unit -> t
(** Priority-based scheduling as in [27] (§4.2): each process has a
    fixed distinct priority and the highest-priority enabled process
    always moves.  Default priorities: pid order (p(n-1) highest). *)

val all_weak : unit -> t list
(** The adversaries consensus must survive in the probabilistic-write
    model: [round_robin], [random_uniform], [fixed_permutation],
    [write_stalker], [overwrite_attacker]. *)

val next_enabled_from : int array -> int -> int -> int
(** [next_enabled_from enabled n start] is the first enabled pid at or
    cyclically after [start] (taken mod [n]; [start >= 0]) — the
    fallback rule the scheduler applies when an adversary names a
    halted process.  [enabled] must be non-empty and ascending, as
    views give it.  Allocation-free.  Exposed for the scheduler and
    for tests. *)

val by_name : string -> t
(** Look up an adversary by its [name]; raises [Not_found] for unknown
    names.  Recognised names: round_robin, random_uniform,
    fixed_permutation, write_stalker, overwrite_attacker,
    adaptive_overwriter, noisy, priority. *)
