(** Shard frontiers: carving one exhaustive search into independently
    explorable subtrees, and the pool the workers steal them from.

    A {e shard} is a branch path prefix in
    {!Conrat_sim.Explore.run_path}'s encoding — the same encoding as
    {!Checkpoint} frontiers, and deliberately so: a shard handed to
    {!Por.explore} as [~resume:{path; zero counts}]
    [~subtree_prefix:(List.length path)] pins the prefix and explores
    exactly the subtree below it, and an interrupted shard's checkpoint
    is itself a deeper path in the same encoding.  The generator is
    {!Por.explore}'s [~cut]: it emits shards in sequential DFS order
    while exploring the {e residue} — leaves shallower than the cut —
    itself, so residue statistics plus per-shard statistics sum to
    exactly the unsharded search's (verified in
    [test/test_parallel.ml]). *)

type t = int list array
(** Shard paths, in emission (sequential DFS) order. *)

val target : jobs:int -> int
(** How many shards to aim for so that [jobs] workers stay busy despite
    skewed subtree sizes: [max 64 (16 * jobs)].  Over-decomposition is
    the load balancer — work stealing does the rest. *)

val generate :
  ?probe:Conrat_obs.Telemetry.probe ->
  target:int ->
  run:(cut:int * (int list -> unit) -> ('s, 'e) result) ->
  unit ->
  ('s * t, 'e) result
(** Drive one cut-mode search ([run ~cut:(lvl, emit)] must be the
    caller's explorer with every other parameter already applied) at
    adaptively chosen cut levels: start shallow and deepen while the
    shard count still grows short of [target].  Returns the {e last}
    generation pass's residue statistics with its shards — each pass is
    a complete partition on its own, so passes are not mixed.  An empty
    shard array means the generator pass explored the whole tree (the
    search was shallower than the shallowest cut); the residue
    statistics are then the full answer.  A residue leaf failing its
    check aborts generation with the underlying error.  [probe] counts
    deepening passes ([frontier_passes]) and gauges the kept frontier
    size ([shards_generated]); it is {e not} threaded into [run] — the
    caller decides which pass's exploration counters survive (see
    {!Parallel}). *)

type pool
(** A work-stealing pool over a frontier: one atomic cursor, stolen in
    emission order.  Stealing is the only synchronisation the workers
    need — shards are disjoint by construction. *)

val pool : t -> pool

val steal : pool -> (int * int list) option
(** Next unstolen shard as [(index, path)], or [None] when drained.
    Safe to call from any domain; each shard is handed out exactly
    once. *)
