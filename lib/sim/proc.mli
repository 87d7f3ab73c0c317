(** The direct-style API protocol code is written against.

    Protocol implementations (conciliators, ratifiers, baselines) call
    these functions as if they were ordinary shared-memory accesses; each
    call performs an effect that suspends the calling process until the
    adversary schedules it.  This keeps algorithm code within a few
    lines of the paper's pseudocode — compare
    {!Conrat_core.Conciliator.impatient_first_mover} with Procedure
    ImpatientFirstMoverConciliator in §5.2.

    Calling any of these outside of {!Scheduler.run_direct} raises
    [Effect.Unhandled]. *)

type _ Effect.t += Step : 'a Op.t -> 'a Effect.t

val read : Memory.loc -> int option
(** Atomic read; ⊥ is [None]. One unit of work. *)

val write : Memory.loc -> int -> unit
(** Atomic write. One unit of work. *)

val prob_write : Memory.loc -> int -> p:float -> unit
(** Probabilistic write: lands with probability [p]; the caller learns
    nothing about the outcome.  One unit of work either way. *)

val prob_write_detect : Memory.loc -> int -> p:float -> bool
(** Probabilistic write that reports whether it landed (paper footnote
    2).  One unit of work. *)

val collect : Memory.loc -> int -> int option array
(** Read [len] consecutive registers in one unit of work.  Only legal
    when the scheduler runs with [~cheap_collect:true]. *)

val exec : 'r Program.t -> 'r
(** Run a defunctionalized {!Program.t} in direct style: each of its
    operations is performed as an effect, exactly as the [read]/[write]
    calls above.  This is the bridge that lets direct-style code (the
    [examples/], {!Scheduler.run_direct} bodies) call protocols that
    are now written as programs — and the hinge of the equivalence
    test: a program run natively by {!Machine} and the same program run
    through [exec] under the effects adapter must produce identical
    traces. *)
