(** The visited-state table behind {!Por.explore}'s [~dedup]: a map from
    a state's hash pair [(h1, h2)] to the sleep-set mask the state was
    first visited with.

    Extendible hashing over fixed-size pages.  A directory of
    [2{^gd}] entries is indexed by the top [gd] bits of [h1]; each page
    is one [int array] of 4096 interleaved slots ([h1], [h2], mask), so
    an entry costs three words and no allocation, and lookups compare
    immediate ints.  Inside a page, probing is linear from a home slot
    taken from the [h1] bits just below the page's local depth (the
    prefix its keys share): the low bits of an FNV-style multiply
    depend only on the low bits of its inputs, so indexing by them
    clusters.  An empty slot holds [-1] as its [h1], which is why keys
    need [h1 >= 0]; {!Conrat_sim.Memory.mix1} hashes are masked with
    [max_int], so they are.

    A page past load 0.75 splits on its next prefix bit: one new page
    is allocated, and the old one is rebuilt into one reused scratch
    page that takes its place, so growth never abandons an array the
    size of the table — only the directory, a word per entry,
    doubles.  A page whose keys all agree on that bit, or whose local
    depth has reached a cap, doubles its own slots instead, so keys
    sharing a long prefix cannot drive the directory up.  A table that
    is never visited allocates no page.

    The pages live on the OCaml heap, so heap statistics cover them. *)

type t

val create : unit -> t
(** An empty table; its first page is allocated by the first {!visit}. *)

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
    other revisit narrows the stored mask to [stored land z].  Splits
    or grows the key's page once its load passes 0.75.  Raises
    [Invalid_argument] if [h1 < 0]. *)

val find : t -> int -> int -> int option
(** The mask stored for [(h1, h2)], if any.  Raises [Invalid_argument]
    if [h1 < 0]. *)
