(** Input-vector generators for consensus experiments.

    A workload assigns each of the [n] processes an input in [0, m).
    The interesting workloads for agreement experiments are the
    contended ones — with identical inputs, validity forces the answer
    and the fast path decides immediately (that is E8's point). *)

type t = {
  wname : string;
  generate : n:int -> m:int -> Conrat_sim.Rng.t -> int array;
}

val all_same : t
(** Everyone gets value 0 — the fast-path workload. *)

val split_half : t
(** The adversarial binary workload: processes [0 .. n/2-1] get 0, the
    rest get 1 (values mod m for m > 2). Maximum initial disagreement
    between two camps. *)

val alternating : t
(** Input [pid mod m]: interleaved camps, so neighbouring scheduler
    slots conflict. *)

val uniform : t
(** Independent uniform draws from [0, m). *)

val zipf : ?s:float -> unit -> t
(** Zipf-distributed values (exponent [s], default 1.2): a few popular
    values and a long tail, the realistic "mostly agree already"
    regime. *)

val by_name : string -> t
(** Recognised names: all_same, split_half, alternating, uniform,
    zipf.  Raises [Not_found] otherwise. *)
