(** Defunctionalized protocol programs: the one way protocol code runs.

    A ['r t] is a protocol's remaining computation, reified as a value:
    either it has returned ([Done r]), or it is about to perform a
    shared-memory operation and continue with the result
    ([Step (op, k)]).  This states the model of §2 directly: a process
    is its pending operation, and the adversary picks which pending
    operation is applied next.  The continuation [k] is an ordinary
    OCaml closure, so a program state can be stored, duplicated, and
    resumed any number of times.  This is what lets the exhaustive
    explorers ([Conrat_verify.Por], [Conrat_verify.Naive]) snapshot a
    state and backtrack to it instead of re-executing the whole path
    prefix from scratch, and the same value drives the Monte Carlo
    {!Scheduler}.

    Protocols written against this interface must be {e replay-pure}:
    all mutable protocol state must live in shared {!Memory} (reached
    through operations) or in loop parameters threaded through the
    continuations.  A continuation may be invoked more than once (once
    per branch the explorer takes below it), so closures must not
    capture mutable references that persist across [Step] boundaries.
    Refs created and consumed {e between} two operations are fine.

    Protocol code reads close to the paper's pseudocode with the
    binding operators: [let* v = read r in ...] — compare
    [Conrat_core.Conciliator.impatient_first_mover] with Procedure
    ImpatientFirstMoverConciliator in §5.2. *)

type 'r t =
  | Done of 'r
  | Step : 'a Op.t * ('a -> 'r t) -> 'r t
  | Label of string * 'r t
      (** A stage marker: behaves exactly like the wrapped program, but
          tells the machine that the process is entering the named
          protocol stage.  Purely observational — labels produce no
          transition, cannot be scheduled against, and are invisible to
          adversaries and explorers.  {!Compose} emits one per composed
          stage; the {!Sink} receives the innermost enclosing label with
          every operation event. *)
  | Recoverable of { main : 'r t; recover : 'r t }
      (** A crash-recovery declaration, valid only at a program's root
          (possibly under labels): execution proceeds through [main],
          and a process restarted after a crash re-enters at [recover]
          instead (typically a persistent-register re-validation that
          falls through to the main logic).  Programs without the
          declaration restart at their main root — from the top, with
          all volatile registers wiped.  Everywhere except the engines'
          recovery machinery the node is transparent: [bind] distributes
          into both branches (keeping the declaration at the root), and
          {!pending}/{!is_done}/{!result} see [main]. *)

val return : 'r -> 'r t
(** A program that immediately returns. *)

val bind : 'a t -> ('a -> 'b t) -> 'b t
(** Sequencing: run the first program, feed its result to the second. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
(** Binding operator for [bind]. *)

val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
(** Binding operator for [map]. *)

val perform : 'a Op.t -> 'a t
(** A single operation. *)

val read : Memory.loc -> int option t
val write : Memory.loc -> int -> unit t
val prob_write : Memory.loc -> int -> p:Op.prob -> unit t
val prob_write_detect : Memory.loc -> int -> p:Op.prob -> bool t
val collect : Memory.loc -> int -> int option array t

val label : string -> 'r t -> 'r t
(** [label s p] marks [p] as (the start of) stage [s].  Labels are part
    of the program value, so labelled programs stay replay-pure. *)

val recoverable : recover:'r t -> 'r t -> 'r t
(** [recoverable ~recover main] declares a recover continuation on
    [main] (see {!Recoverable}).  Use at the protocol's root only. *)

val pending : 'r t -> Op.any option
(** The operation the program is blocked on, if any (looks through
    labels). *)

val is_done : 'r t -> bool

val result : 'r t -> 'r option

val iter_list : ('a -> unit t) -> 'a list -> unit t
val iter_array : ('a -> unit t) -> 'a array -> unit t

val exists_array : ('a -> bool t) -> 'a array -> bool t
(** Short-circuiting, like [Array.exists]: stops performing operations
    at the first element for which [f] yields [true]. *)

val map_array : ('a -> 'b t) -> 'a array -> 'b array t
(** Runs [f] on each element left to right, collecting results. *)
