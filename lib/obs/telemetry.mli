(** The search telemetry plane: an allocation-free counters registry
    for the explorers.

    Counters form a fixed set registered by name; the registry holds
    one row per worker domain, a plain [int array] with a single
    writer, and a {e probe} is one such row handed to one explorer —
    bumping a counter is one ordinary increment.  An explorer given no
    probe counts into a private row of its own, so a run with a probe
    costs what a run without one does (the [counters] gate in
    [bench/gates.ml], recorded in [BENCH_GATES.json]).

    Aggregation is explicit: {!snapshot_of_domain} reads one row,
    {!totals} merges rows in domain index order — which {!Parallel}
    aligns with shard-emission (DFS) order — so fleet totals of the
    executions/steps-class counters are [--jobs]-invariant (asserted in
    [test/test_parallel.ml]).  Snapshots form a monoid under {!merge}
    with {!empty} as identity: [Sum] counters add, [Max] gauges max. *)

type kind =
  | Sum  (** additive across domains and runs (work done) *)
  | Max  (** high-water gauge (peak occupancy) *)

type counter = private int
(** A registered counter id. *)

(** {2 The registered counters} *)

(* steps = machine transitions (VM steps) applied; steals = shards
   stolen from the pool; shards_done = stolen shards fully explored;
   shards_generated (Max) = frontier size of the kept generation pass;
   frontier_passes = deepening passes the shard generator ran;
   dedup_hits = duplicate-state prunes (subset rule); dedup_misses =
   fresh visited-table entries; dedup_intersections = revisits
   re-explored with a narrowed sleep set; dedup_table_peak (Max) =
   visited-table entries; snapshots = fresh machine snapshots
   allocated; snapshot_refreshes = pool slots refreshed in place;
   snapshot_pool_high (Max) = deepest pool slot used; dpor_races =
   races the DPOR oracle detected; dpor_backtracks = backtrack-set
   candidates added; checkpoints = checkpoint frontiers saved;
   recovers = crash-recovery events applied; code_pcs (Max) =
   instructions the VM's code store interned, read once at POR search
   exit (0 under the tree engine).  The naive enumerator carries no
   probe.
   Ids are positions in this process only: every JSON document keys
   counters by name, so a counter can be added or deleted anywhere. *)

val leaves_complete : counter
val leaves_truncated : counter
val leaves_pruned : counter
val steps : counter
val steals : counter
val shards_done : counter
val shards_generated : counter
val frontier_passes : counter
val dedup_hits : counter
val dedup_misses : counter
val dedup_intersections : counter
val dedup_table_peak : counter
val snapshots : counter
val snapshot_refreshes : counter
val snapshot_pool_high : counter
val dpor_races : counter
val dpor_backtracks : counter
val checkpoints : counter
val recovers : counter
val code_pcs : counter

val ncounters : int
val name : counter -> string
val kind : counter -> kind

(** {2 Probes} *)

type probe
(** One domain's counter row (plus its {!Coverage.t} when enabled).
    Single-writer: exactly one explorer bumps a probe at a time, and
    nothing but {!live} reads it while that explorer runs. *)

val bump : probe -> counter -> unit
val add : probe -> counter -> int -> unit
val peak : probe -> counter -> int -> unit
(** Raise a [Max] gauge to [v] if below it. *)

val count : probe -> counter -> int
(** The probe's current value of one counter, for its writer. *)

val coverage : probe -> Coverage.t option

val fresh_probe : ?coverage:bool -> unit -> probe
(** A free-standing probe, not backed by any registry row — for shard
    generator passes, where only the {e last} deepening pass's counts
    may survive ({!absorb} the winner, drop the rest). *)

(** {2 The registry} *)

type t

val create : ?coverage:bool -> domains:int -> unit -> t
(** [domains] rows of zeroed cells.  [coverage] equips each probe with
    a {!Coverage.t} (default off — coverage collection does per-leaf
    work and is priced separately from the counters; see
    EXPERIMENTS.md). *)

val domains : t -> int

val created : t -> float
(** The wall clock ([Unix.gettimeofday]) at {!create}: the origin of
    every shard's [start]. *)

val coverage_on : t -> bool

val probe : t -> domain:int -> probe
(** The (memoized) probe backed by [domain]'s row. *)

val absorb : t -> domain:int -> probe -> unit
(** Fold a {!fresh_probe}'s cells into [domain]'s row ([Sum] adds,
    [Max] maxes) and its coverage into the registry accumulator. *)

type shard = {
  shard : int;    (** frontier index (DFS emission order) *)
  domain : int;   (** worker that explored it *)
  prefix : int;   (** shard path prefix depth *)
  leaves : int;   (** leaves in the shard subtree *)
  steps : int;    (** rebased VM steps (sums to the sequential total) *)
  start : float;  (** seconds from {!create} to the steal *)
  seconds : float;  (** wall clock the worker spent on it *)
}

val record_shard : t -> shard -> unit
val shards : t -> shard list
(** In shard (DFS emission) order. *)

val finalize : t -> unit
(** Merge every probe's coverage into the registry accumulator.  Call
    once, after the fleet has joined; idempotent. *)

val merged_coverage : t -> Coverage.t option
(** Available after {!finalize} (or [None] without [~coverage:true]). *)

val live : t -> counter -> int
(** Fleet-wide read for progress heartbeats while the fleet runs: [Sum]
    counters summed over domains, [Max] gauges maxed.  Racy by design —
    the rows are plain ints their writers bump without synchronisation,
    so a read may miss the latest bumps (each cell still reads a value
    it held, and never decreases); exact totals come from {!totals}
    after the fleet has joined. *)

(** {2 Snapshots — the counter monoid} *)

type snapshot

val empty : unit -> snapshot
(** The monoid identity (all zeros). *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise by {!kind}: [Sum] adds, [Max] maxes.  Associative and
    commutative with {!empty} as identity (asserted by qcheck in the
    test suite). *)

val snapshot_of_domain : t -> domain:int -> snapshot
val totals : t -> snapshot
(** Rows merged in domain index order (DFS shard order). *)

val get : snapshot -> counter -> int
val to_alist : snapshot -> (string * int) list
val of_values : int array -> snapshot
(** From raw cell values (length {!ncounters}) — test constructor. *)

(** {2 JSON} *)

val to_json : t -> string
(** The schema-v3 telemetry block: fleet-total counters, per-domain
    rows, per-shard records and — after {!finalize}, when coverage was
    enabled — the {!Coverage.to_json} block under ["coverage"]. *)
