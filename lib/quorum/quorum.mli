(** Write/read quorum systems for the deterministic ratifier (§6).

    A quorum system for [m] values over a pool of [k] registers assigns
    each value [v] a write quorum [W v] and a read quorum [R v] such
    that (Theorem 8's hypothesis):

    - [W v ∩ R v = ∅], and
    - [W v' ∩ R v ≠ ∅] whenever [v' ≠ v]

    i.e. [W v' ∩ R v = ∅] iff [v' = v].  A process announces its value
    by writing every register in [W v]; a process checking value [v]
    reads every register in [R v] and sees a conflict iff some register
    is set — any conflicting announcement must have set one. *)

type t = {
  name : string;
  m : int;          (** number of values the system distinguishes *)
  pool : int;       (** number of announcement registers *)
  write_quorum : int -> int array;
    (** [write_quorum v] for [0 ≤ v < m]: sorted register indices. *)
  read_quorum : int -> int array;
    (** [read_quorum v]: sorted register indices. *)
}

val binary : t
(** §6.2(1): [m = 2], two registers, [W v = {v}], [R v = {1 - v}].
    Yields the 3-register, ≤ 4-operation binary ratifier. *)

val bollobas_optimal : m:int -> t
(** §6.2(2): the least pool [k] with [C(k, ⌊k/2⌋) ≥ m]; value [v] maps
    to the [v]-th ⌊k/2⌋-subset (combinadic), [R v] its complement.
    Space-optimal by Bollobás's theorem: [k = ⌈lg m⌉ + Θ(log log m)]. *)

val bitvector : m:int -> t
(** §6.2(3): pool of [2⌈lg m⌉] registers arranged as pairs
    [(i, 0), (i, 1)]; value [v] writes register [(i, bit i of v)] for
    every bit position [i], and reads the complement.  Slightly more
    registers than {!bollobas_optimal} but a simpler encoding. *)

val singleton : m:int -> t
(** §6.2(4): one register per value, [W v = {v}], [R v] = everything
    else.  Write quorums of size 1 and read quorums of size [m - 1];
    only sensible in the cheap-collect model, where the ratifier reads
    [R v] in a single collect operation. *)

val valid : t -> bool
(** Checks the Theorem 8 condition ([W v' ∩ R v = ∅ ⇔ v' = v]) for all
    pairs by brute force.  Used by tests; [O(m² k)]. *)

val max_write_size : t -> int
val max_read_size : t -> int
