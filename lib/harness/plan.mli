(** The plan layer: an experiment as data.

    A {!t} is a named list of trial {!spec}s.  Each spec pins every
    input of a Monte-Carlo cell — protocol, adversary, workload,
    [n]/[m], the seed list, the step cap — so that an execution engine
    ({!Engine}) can run the trials in any order (sequentially or across
    domains) and still produce a result that is a pure function of the
    plan.  Experiments (E1..E10) are built by generating specs from
    their parameter grids instead of hand-rolled nested loops. *)

type runner =
  | Consensus of Conrat_core.Consensus.factory
      (** a full consensus protocol; safety = the consensus contract *)
  | Deciding of Conrat_objects.Deciding.factory
      (** a bare deciding object (conciliator / ratifier);
          safety = validity + coherence *)
  | Probed of (unit -> Conrat_core.Consensus.factory * (unit -> int))
      (** a consensus protocol built fresh for {e each trial} together
          with a counter read after the trial (e.g. a
          {!Conrat_objects.Deciding.counting} wrapper counting stage
          entries).  Per-trial construction keeps the counter — and
          therefore the trials — isolated, which parallel execution
          requires. *)

type spec = {
  sid : string;            (** aggregation key, unique within a plan *)
  runner : runner;
  adversary : Conrat_sim.Adversary.t;
  workload : Workload.t;
  n : int;
  m : int;
  seeds : int list;
  max_steps : int option;
  cheap_collect : bool;
  stages : bool;
      (** collect the per-stage work breakdown (attaches a
          [Conrat_obs.Stage_work] sink to every trial) *)
  faults : Conrat_sim.Fault.model;
      (** Monte-Carlo fault injection: registers are weakened when
          [weak_reads] and each trial runs under the default
          [Conrat_faults.Injector.of_model] plan.  A non-{!Conrat_sim.Fault.none}
          model changes the trials' random streams (the plan draws from
          its own split); {!Conrat_sim.Fault.none} is bit-identical to
          the pre-fault-plane engine. *)
}

type t = {
  pname : string;          (** e.g. ["E1"] *)
  specs : spec list;
}

val spec :
  ?max_steps:int ->
  ?cheap_collect:bool ->
  ?stages:bool ->
  ?faults:Conrat_sim.Fault.model ->
  sid:string ->
  runner:runner ->
  adversary:Conrat_sim.Adversary.t ->
  workload:Workload.t ->
  n:int ->
  m:int ->
  seeds:int list ->
  unit ->
  spec
(** Smart constructor; rejects [n <= 0] and empty seed lists.
    [stages] (default false) enables the per-stage work breakdown. *)

val make : name:string -> spec list -> t
(** Rejects duplicate spec ids. *)

val runner_name : runner -> string
(** Protocol/object display name.  For [Probed] this constructs one
    (discarded) instance to read its name. *)

val trial_count : t -> int
(** Total number of trials the plan will run. *)

val seeds : ?base:int -> int -> int list
(** [seeds k] = the [k] standard seeds [base, base+1, …] (default base
    424242). *)

val workload_rng : int -> Conrat_sim.Rng.t
(** The input-generation stream for a trial seed, derived as
    [Rng.create (seed lxor 0x5eed)] so it is independent of the
    execution stream [Rng.create seed].  The single definition shared
    by {!Engine} and the CLI. *)
