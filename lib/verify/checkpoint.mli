(** SIGINT-safe checkpoints of an exhaustive explorer's DFS frontier.

    A checkpoint is the path (in {!Conrat_sim.Explore.run_path}'s
    branch encoding) to the leaf the explorer was about to count,
    together with the statistics accumulated strictly before that leaf.
    Resuming fast-forwards along the path — re-applying transitions but
    counting and checking nothing — then counts that leaf normally and
    continues, which makes a resumed run's outcome set, leaf order and
    statistics bit-identical to an uninterrupted one (the guarantee the
    round-trip tests lock in).

    {!Por.explore} accepts and emits the bare {!counts}; this record
    adds the engine and checker names so the CLI can refuse to resume a
    checkpoint against the wrong config or engine, plus durable
    save/load (write-then-rename, so interrupting a save never leaves a
    torn file). *)

type counts = {
  path : int list;    (** branch choices to the first uncounted leaf *)
  complete : int;
  truncated : int;
  pruned : int;
  steps : int;        (** machine transitions, including backtracked *)
}

type t = {
  engine : string;
    (** ["por"], the one engine that checkpoints ([conrat check] refuses
        to resume the ["naive"] an older build wrote) *)
  checker : string;   (** registry config name *)
  counts : counts;
}

val schema_version : int
(** The schema written by {!to_sexp} (currently 2, which added
    recover-choice path indices).  {!of_sexp} also accepts schema-1
    checkpoints — necessarily recovery-free — which replay
    bit-identically. *)

val to_sexp : t -> Conrat_sim.Sexp.t
val of_sexp : Conrat_sim.Sexp.t -> (t, string) result
(** Rejects a negative count or path entry with [bad field NAME]. *)

val save : string -> t -> unit
(** Atomic (write temp file, rename over). *)

val load : string -> (t, string) result
