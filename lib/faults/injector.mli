(** Monte-Carlo fault-injection plans for {!Conrat_sim.Scheduler.run}.

    A plan (see {!Conrat_sim.Fault.plan}) is consulted once per
    scheduler step, after the adversary's choice has been validated,
    and may override the step with a crash-stop or a stale delivery.
    The combinators here mirror the {!Conrat_sim.Adversary} zoo's
    shape: named factories returning stateful per-execution injectors.
    Overrides the machine cannot honour (crashing a finished process,
    a stale delivery on a non-weak register or a non-read) degrade to a
    plain step, so every plan is safe against every protocol.

    The plan's random stream is split off the scheduler's {e after} all
    historical draws, so running any plan that never fires — or no plan
    at all — reproduces the exact fault-free executions, seed for
    seed. *)

val crash_at : step:int -> pid:int -> Conrat_sim.Fault.plan
(** Deterministic: crash [pid] exactly when the global step counter
    hits [step].  The reproducible building block for tests. *)

val crashing : ?rate:float -> f:int -> unit -> Conrat_sim.Fault.plan
(** Budgeted random crashes: each step, with probability [rate]
    (default 0.05), crash a uniformly random enabled process — at most
    [f] times per execution. *)

val recover_at : step:int -> pid:int -> Conrat_sim.Fault.plan
(** Deterministic: recover [pid] exactly when the global step counter
    hits [step].  Degrades to a plain step unless [pid] is crashed
    there — the reproducible building block for recovery tests. *)

val recovering : ?rate:float -> r:int -> unit -> Conrat_sim.Fault.plan
(** Budgeted random recoveries: each step, with probability [rate]
    (default 0.05), recover a uniformly random process that is neither
    enabled nor pending — at most [r] times per execution.  The view
    does not distinguish crashed from finished processes, so a pick
    that merely finished degrades to a plain step at the machine (and
    is counted in the scheduler result's [plan_ignored]); the budget is
    spent either way, keeping draws reproducible. *)

val byzantine_reads : ?rate:float -> unit -> Conrat_sim.Fault.plan
(** Each time the scheduled process is about to read, deliver the value
    stale with probability [rate] (default 0.5).  Only takes effect on
    registers marked weak ({!Conrat_sim.Memory.mark_weak} /
    [weaken_all]); elsewhere it degrades to a plain step. *)

val mix : Conrat_sim.Fault.plan list -> Conrat_sim.Fault.plan
(** First non-[Step] override wins, consulted in list order.  Each
    constituent gets an independent random stream, so extending a mix
    never perturbs the draws of earlier plans.  [mix [] =
    {!Conrat_sim.Fault.no_plan}]. *)

val of_model :
  ?crash_rate:float -> ?stale_rate:float -> ?recover_rate:float ->
  Conrat_sim.Fault.model -> Conrat_sim.Fault.plan
(** The default Monte-Carlo interpretation of a fault model: a
    {!crashing} budget for [crashes], a {!recovering} budget for
    [recoveries] and {!byzantine_reads} when [weak_reads] — mixed, any
    subset, or {!Conrat_sim.Fault.no_plan} as the model dictates. *)
