(** Chrome trace-event exporter.

    Collects the events of one (or several sequential) executions into
    the Trace Event JSON format understood by Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and [chrome://tracing]:
    each simulated process is a track, every operation a 1-µs complete
    event at its logical step (1 step = 1 µs of trace time), every
    {!Conrat_sim.Program.label} stage a nested duration span, decisions,
    injected crash-stops (an instant on the crashed process's track that
    also closes its open stage span) and explorer snapshot/restore
    instants.  The output is a single JSON object
    [{"traceEvents": [...]}]. *)

type t

val create : n:int -> t
(** A fresh collector for [n] processes.  Emits thread-name metadata so
    tracks are labeled ["process 0"], …, plus an ["explorer"] track for
    snapshot/restore events. *)

val sink : t -> Conrat_sim.Sink.t
(** The sink to install on a run ({!Conrat_sim.Scheduler.run},
    [Conrat_verify.Por.explore], …).  Checkpoint saves appear as
    instants on the explorer track. *)

val create_fleet : workers:int -> t
(** A collector for a {e parallel} exploration: one track per worker
    domain (["worker 0"], …), timestamps in wall-clock microseconds
    since creation.  Install {!fleet_sink} on
    {!section-"Conrat_verify"}[.Parallel]; each stolen shard renders as
    a duration span on its worker's track (shard id and prefix depth in
    the opening args, leaf/step counts in the closing args) preceded by
    a ["steal"] instant marker.  Thread-safe: events may arrive from
    every worker domain. *)

val fleet_sink : t -> Conrat_sim.Sink.t
(** The fleet-event sink of a {!create_fleet} collector (raises
    [Invalid_argument] on a machine-mode collector). *)

val events : t -> int
(** Trace events recorded so far (metadata included). *)

val write : t -> out_channel -> unit
(** Finalize (close any open stage spans) and write the JSON document.
    Call once, after the run. *)

val to_string : t -> string
(** As {!write}, into a string. *)
