(** Observation sinks: the tap every execution engine drains into.

    A sink is a set of callbacks the {!Machine} invokes as it executes:
    one per applied operation (with the process, operation kind,
    register, coin outcome and current {!Program.label} stage), one when
    a process returns, and one per explorer snapshot/restore.  Engines
    thread an optional sink down to the machine; when none is installed
    the whole mechanism costs a single branch per transition (see the
    [obs] gate in [bench/gates.ml]).

    Only the machine fires these events.  Fleet-level events (shard
    steals and completions under [--jobs]) are recorded by the
    telemetry registry in [Conrat_obs], and checkpoint saves by its
    [checkpoints] counter.

    Concrete sinks live in [Conrat_obs]: a Chrome trace-event exporter
    and a per-stage work histogram.  This
    module only defines the interface (it must be visible to the
    machine) plus the trivial combinators. *)

type t = {
  on_op :
    step:int -> pid:int -> kind:Op.kind -> loc:Memory.loc -> landed:bool ->
    stage:string option -> unit;
      (** One applied transition.  [step] is the 0-based position on the
          current path, [landed] whether memory changed (for reads it is
          [false]), [stage] the innermost enclosing {!Program.label}. *)
  on_decide : step:int -> pid:int -> unit;
      (** [pid]'s program returned; [step] transitions had been applied. *)
  on_crash : step:int -> pid:int -> unit;
      (** [pid] crash-stopped (a fault-plane pseudo-transition). *)
  on_recover : step:int -> pid:int -> unit;
      (** [pid] restarted after a crash (the symmetric crash-recovery
          pseudo-transition: volatile registers wiped, program state
          re-entered at the recover continuation). *)
  on_snapshot : step:int -> unit;  (** an explorer snapshotted the state *)
  on_restore : step:int -> unit;   (** an explorer backtracked to a snapshot *)
}

val make :
  ?on_op:
    (step:int -> pid:int -> kind:Op.kind -> loc:Memory.loc -> landed:bool ->
     stage:string option -> unit) ->
  ?on_decide:(step:int -> pid:int -> unit) ->
  ?on_crash:(step:int -> pid:int -> unit) ->
  ?on_recover:(step:int -> pid:int -> unit) ->
  ?on_snapshot:(step:int -> unit) ->
  ?on_restore:(step:int -> unit) ->
  unit ->
  t
(** A sink with the given callbacks; omitted ones do nothing. *)

val null : t
(** The no-op sink: every callback does nothing.  Attaching it measures
    the pure dispatch overhead of the instrumentation. *)

val tee : t -> t -> t
(** [tee a b] forwards every event to [a] then [b]. *)
