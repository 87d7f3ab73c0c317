(** The visited-state table behind {!Por.explore}'s [~dedup]: a map from
    a state's hash pair [(h1, h2)] to the sleep-set mask the state was
    first visited with.

    Open addressing with linear probing over three flat [int array]s
    (keys [h1], keys [h2], masks), so an entry costs three words and no
    allocation, and lookups compare immediate ints.  The capacity is a
    power of two that doubles once the load passes 0.75.  An empty slot
    holds [-1] in the [h1] array, which is why keys need [h1 >= 0];
    {!Conrat_sim.Memory.mix1} hashes are masked with [max_int], so they
    are.  The home slot of a key is taken from the {e high} bits of
    [h1]: the low bits of an FNV-style multiply depend only on the low
    bits of its inputs, so indexing by them clusters.

    The arrays live on the OCaml heap, so heap statistics cover them. *)

type t

val create : int -> t
(** [create n] is an empty table with room for at least [n] slots
    (rounded up to a power of two, at least 1). *)

val count : t -> int
(** Entries stored. *)

type outcome =
  | Added     (** absent: now stored with the visit's mask *)
  | Covered   (** present, and the visit's mask covers the stored one *)
  | Narrowed  (** present but not covered: the stored mask is narrowed
                  to the intersection *)

val visit : t -> int -> int -> int -> outcome
(** [visit t h1 h2 z] records a visit of the state keyed [(h1, h2)]
    with sleep mask [z], by Godefroid's rule for sleep sets with state
    caching: a revisit whose mask is a superset of the stored one is
    [Covered] (it can only re-explore what the first visit did); any
    other revisit narrows the stored mask to [stored land z].  Grows
    the table once the load passes 0.75.  Raises [Invalid_argument] if
    [h1 < 0]. *)

val find : t -> int -> int -> int option
(** The mask stored for [(h1, h2)], if any. *)
