(** Work accounting, following the paper's definitions exactly:
    total work is the number of operations in the execution, individual
    work the maximum number of operations by any single process.  Local
    computation and local coin flips are excluded (they never reach the
    scheduler). *)

type t

val create : n:int -> t

val record : t -> pid:int -> Op.kind -> unit
(** Called by the scheduler once per executed operation. *)

val total : t -> int
(** Total work of the execution so far. *)

val individual : t -> int
(** Individual work: [max_p] (operations by process [p]). *)

val per_process : t -> int array
(** A copy of the per-process operation counts. *)

type counts
(** A read-only view of the live per-process counter array.  It is the
    scheduler's own array behind an abstract type: reads see the
    current counts with no O(n) copy per step, and mutation is a type
    error rather than a convention.  (This replaces the former
    [unsafe_counts], which leaked the mutable array itself.) *)

val counts : t -> counts
(** The live read-only counter view, shared with the scheduler — used
    to build adversary views. *)

val count : counts -> int -> int
(** [count c pid] is the number of operations executed by [pid]. *)

val counts_length : counts -> int

val counts_to_array : counts -> int array
(** A fresh mutable copy; mutating it cannot affect the scheduler. *)

val counts_of_array : int array -> counts
(** A read-only view of a copy of [a] (for tests and hand-built
    views). *)

val ops_of : t -> pid:int -> int
(** Operations executed by one process. *)

val reads : t -> int
val writes : t -> int
val prob_writes : t -> int
val collects : t -> int
