(** Coverage signatures: what the search {e saw}, as opposed to how
    hard it worked ({!Telemetry}'s counters).

    Three per-config artifacts that answer "what did the search
    cover" from the [check --json] report alone: a {e depth profile}
    (leaf count per path depth, split by complete / truncated /
    pruned), {e stage signatures} (how many complete or truncated
    executions ended with each tuple of per-process
    {!Conrat_sim.Program.label} stages — the interleaving-class
    fingerprint of the explored tree), and
    {e dedup-saturation curves} (visited-table size as a function of
    leaves, one sawtooth curve per worker, showing when duplicate
    detection stops paying).

    One instance is single-writer — each explorer worker owns one — and
    instances {!merge} commutatively, so the fleet signature does not
    depend on shard placement.  Collecting a signature allocates
    nothing once labels are interned: a signature is per-process 6-bit
    stage ids packed into one int. *)

type t

type kind = [ `Complete | `Truncated | `Pruned ]

val create : unit -> t

val leaf :
  t -> kind:kind -> depth:int -> n:int -> stage:(int -> string option) -> unit
(** Record one leaf: [depth] lands in the kind's depth histogram and —
    for complete/truncated leaves of configs with [n <= 10] — the
    per-process stages ([stage pid], [None] rendered as ["-"]) are
    packed into a signature and counted. *)

val saturate : t -> leaves:int -> table:int -> unit
(** Append a dedup-saturation sample (cumulative leaves, visited-table
    size) to this worker's current curve. *)

val merge : t -> t -> unit
(** [merge a b] folds [b] into [a] ([b]'s live curve is sealed; [b] is
    otherwise unchanged).  Commutative and associative up to the
    canonical {!to_json} rendering. *)

val to_json : t -> string
(** Canonical [{"schema_version":3, "depth_profile":…,
    "stage_signatures":…, "dedup_saturation":…}] block: depth arrays
    trimmed, signatures sorted, curves sorted — a function of the
    contents, not of interning or merge order. *)

val equal : t -> t -> bool
(** Content equality, via the canonical rendering. *)

val signatures : t -> int
(** Distinct stage signatures seen. *)

val leaves : t -> int
(** Total leaves recorded across the depth profiles. *)
