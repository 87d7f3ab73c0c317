(** The engine layer: executes a {!Plan} on an OCaml 5 domain pool,
    producing one {!aggregate} per spec.

    Determinism contract: a trial is a pure function of its spec and
    seed — every trial gets a fresh [Rng], [Memory], scheduler and
    protocol instance — so the aggregates are a pure function of the
    plan.  Per-seed results are combined with an {e order-canonical}
    merge ({!merge} keeps samples and failures sorted by seed), which
    makes the merge commutative and associative with identity
    {!empty_aggregate}; the output is therefore bit-identical for every
    [jobs] value, however the pool interleaves trials.

    There is one execution path.  Every [jobs] value, [1] included,
    runs the same queue of (spec, seed chunk) tasks; [jobs = 1] runs it
    on the calling domain alone.  A chunk's trials and a spec's chunks
    are combined by pairwise rounds of {!merge}, O(T log T) for T
    trials.  A failing run re-raises the exception of the first failing
    task in plan order, the same for every [jobs]. *)

type outcome = {
  inputs : int array;
  outputs : int option array;
  agreed : bool;           (** all finished processes returned one value *)
  safety : (unit, string) result;
    (** agreement + validity on this execution ([Ok] required always
        for consensus; conciliators may legitimately disagree) *)
  completed : bool;        (** every surviving process finished in the cap *)
  crashes : int;           (** crash-stops injected into this trial *)
  recoveries : int;        (** crash-recovery events injected *)
  plan_ignored : int;
    (** invalid fault-plan overrides degraded to plain steps (the
        scheduler's [plan_ignored], reported as [sweep --json]'s
        [plan_overrides_ignored] field) *)
  total_work : int;
  individual_work : int;
  steps : int;
  registers : int;
  stage_work : (string * (int * int)) list;
    (** per-stage (total, max individual) work, stage-name ascending;
        [[]] unless the trial ran with [stages] enabled *)
}

val run_consensus :
  ?max_steps:int ->
  ?cheap_collect:bool ->
  ?stages:bool ->
  ?faults:Conrat_sim.Fault.model ->
  n:int ->
  adversary:Conrat_sim.Adversary.t ->
  inputs:int array ->
  seed:int ->
  Conrat_core.Consensus.factory ->
  outcome
(** One execution.  [safety] is the full consensus contract
    (termination within the cap, agreement, validity; both are already
    survivor-aware — crashed processes produce no output and outputs
    are only checked where produced).  [stages] (default false)
    collects the per-stage work breakdown.  [faults] (default none)
    weakens registers when asked and injects the default
    [Conrat_faults.Injector.of_model] plan. *)

type sample = {
  s_seed : int;
  s_total : int;   (** total work of the trial *)
  s_indiv : int;   (** individual work of the trial *)
  s_probe : int;   (** probe counter of the trial (0 unless [Probed]) *)
}

type aggregate = {
  trials : int;                    (** trials that ran to an outcome *)
  agreements : int;                (** trials where all values matched *)
  failures : (int * string) list;  (** (seed, reason), seed-ascending *)
  quarantined : (int * string) list;
    (** (seed, exception) for trials that raised while quarantine was
        enabled, seed-ascending; not counted in [trials] *)
  samples : sample list;           (** per-seed work, seed-ascending *)
  space : int;                     (** registers (max across trials) *)
  probe_total : int;               (** sum of probe counters *)
  crash_total : int;               (** injected crash-stops, summed *)
  recover_total : int;             (** injected recoveries, summed *)
  plan_ignored_total : int;
    (** invalid fault-plan overrides degraded to plain steps, summed *)
  stage_work : (string * (int * int)) list;
    (** per-stage (summed total, max individual) work across trials,
        stage-name ascending; [[]] unless [stages] was enabled *)
}

val empty_aggregate : aggregate
(** Identity of {!merge}. *)

val merge : aggregate -> aggregate -> aggregate
(** Order-canonical merge: commutative, associative, with identity
    {!empty_aggregate}.  Sorted lists are merged keyed on seed (ties
    broken by full comparison), counters are summed, [space] is the
    max. *)

val of_outcome : seed:int -> probe:int -> outcome -> aggregate
(** The singleton aggregate of one trial. *)

val total_works : aggregate -> int list
val individual_works : aggregate -> int list
(** Per-seed work samples in canonical (seed-ascending) order. *)

val run_trial : Plan.spec -> int -> aggregate
(** Run the spec's single trial for one seed. *)

val run_spec : ?jobs:int -> Plan.spec -> aggregate

val run_plan :
  ?jobs:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?stop:(unit -> bool) ->
  ?quarantine:bool ->
  Plan.t ->
  (string * aggregate) list
(** Execute every trial of the plan and return the per-spec aggregates
    keyed by spec id, in plan order, identical for every [jobs] value
    (default 1; [jobs = 0] means {!default_jobs}).  An exception in a
    trial (e.g. [Scheduler.Collect_disallowed]) stops the fetching of
    new tasks; the fetched ones finish and the first failure in plan
    order is re-raised.  With [quarantine] the trial's seed and
    exception go to its aggregate's [quarantined] list instead, and
    every other trial still runs.  [stop] is polled before each trial
    (domain-safely; use an [Atomic] flag from a signal handler): once
    it returns true, remaining trials are skipped and the partial
    aggregates are returned well-formed — what a SIGINT-interrupted
    sweep flushes.  [on_progress] is invoked once per completed trial
    with the running count; with [jobs > 1] it runs on worker domains
    and must be domain-safe ([Conrat_obs.Progress.tick] is). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val get : (string * aggregate) list -> string -> aggregate
(** Result lookup by spec id; [Invalid_argument] when missing. *)
