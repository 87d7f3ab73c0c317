(** Domain-parallel exhaustive verification.

    One work-stealing fleet over the snapshot-backtracking POR search
    ({!explore_por}).  The naive re-execution enumerator deliberately
    stays off it: {!Naive} is the sequential oracle the fleet is checked
    against, so the two share no plumbing.

    {b The fleet contract.}  A single-domain {e generation} pass
    ({!Frontier.generate} driving {!Por.explore}'s [~cut]) carves the
    tree into disjoint subtree shards while counting the shallow residue
    itself; then [jobs] workers steal shards from the pool and explore
    each with {!Por.explore} pinned under the shard's prefix.  Per-shard
    statistics are merged in shard (sequential DFS) order, and counts
    partition exactly, so for any search that runs to exhaustion the
    merged report — leaf counts, steps, and the complete-execution
    outcome set — is bit-identical to the sequential search's at any
    [jobs] (with [dedup] off).  [test/test_parallel.ml] verifies this
    differentially on the checker registry.

    - [jobs <= 1] is {!Por.explore} itself: every argument, [resume],
      [on_checkpoint] and [sink] included, passes straight through, and
      [telemetry] feeds probe row 0.  This is the only place that picks
      between the sequential and the fleet path.
    - [heartbeat] receives {e fleet-wide} running totals, flushed by
      each worker in batches (so [runs] advances in jumps of up to
      ~1024 per worker) and called under a mutex; [depth] is the
      reporting worker's current path depth.  Generation passes report
      their own residue-local totals first.
    - [stop] is polled from every domain and must be domain-safe (an
      [Atomic] flag); [max_runs] is a fleet-wide atomic polled with
      bounded lag.  [setup] and [check] are called from several domains
      and must not share mutable state unsynchronised (registry checks
      are pure).
    - [telemetry] must have at least [jobs] domain rows (else
      [Invalid_argument]); worker [w] bumps row [w], shard records
      carry each shard's start and wall clock (the input of
      {!section-"obs"}[Chrome_trace.fleet]'s per-domain Perfetto
      tracks), and each generation pass runs on a
      fresh probe of which only the kept pass is absorbed, so
      work counters and coverage stay [jobs]-invariant.
    - [sink] observes the machine of a sequential search only: a
      [sink] with [jobs > 1] is [Invalid_argument], since shards run on
      several machines at once.
    - No checkpointing under a fleet: [resume] or [on_checkpoint] with
      [jobs > 1] is [Invalid_argument] ([conrat check] restricts
      [--checkpoint]/[--resume] to sequential runs).

    What is {e not} deterministic across [jobs]: wall clock, the
    interleaving of [check] calls, and, when the run stops early on
    [stop] or [max_runs], the exact leaves explored.  On a [check]
    failure all shards still run to completion and the reported failure
    is the one in the {e lowest-numbered} shard — deterministic for a
    fixed frontier, though not necessarily the leaf sequential search
    would hit first; a returned path replays and shrinks identically
    either way. *)

val explore_por :
  jobs:int ->
  ?engine:Conrat_sim.Machine.engine ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?cheap_collect:bool ->
  ?faults:Conrat_sim.Fault.model ->
  ?stop:(unit -> bool) ->
  ?heartbeat:(runs:int -> pruned:int -> steps:int -> depth:int -> unit) ->
  ?dedup:bool ->
  ?resume:Checkpoint.counts ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.counts -> unit) ->
  ?telemetry:Conrat_obs.Telemetry.t ->
  ?sink:Conrat_sim.Sink.t ->
  n:int ->
  setup:(unit -> Conrat_sim.Memory.t * (pid:int -> 'r Conrat_sim.Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  unit ->
  (Por.stats, string * int list * Por.stats) result
(** {!Por.explore} under the fleet.  [~dedup] applies per shard, and
    generation passes run without it — duplicate suppression then
    depends on the sharding, so [pruned]/[dedup_hits] counts (unlike
    outcome sets) are only [jobs]-independent with dedup off. *)
