(** The fault plane's core vocabulary.

    A {!model} says which faults a whole verification run may contain —
    a crash-stop budget, a crash-{e recovery} budget (restarts of
    crashed processes with volatile state lost), and whether registers
    are weak (regular rather than atomic).  Models ride along in
    checker configs and counterexample artifacts, so a fault-found
    violation replays under the same fault class it was found in.

    A {!plan} is the Monte-Carlo side: a stateful injector consulted by
    {!Scheduler.run} once per step, which may override the adversary's
    choice with a crash, a stale read delivery, or a restart.  Plan
    combinators (crash budgets, byzantine read rates, restart delays,
    mixes) live in the [Conrat_faults] library; this module defines
    only the types the machine-level drivers need. *)

type model = {
  crashes : int;      (** max crash events per execution (f) *)
  recoveries : int;   (** max recovery (restart) events per execution
                          (r); a crashed process that recovers loses
                          the registers it last wrote unless they are
                          marked persistent, and re-enters the protocol
                          at its recover continuation *)
  weak_reads : bool;  (** registers are regular: reads may return the
                          pre-write ("stale") value *)
}

val none : model
(** The failure-free atomic model — behaviour is bit-identical to a
    build without the fault plane. *)

val is_none : model -> bool

val crash_only : int -> model
(** [crash_only f] allows up to [f] crash-stops, no recoveries, atomic
    registers. *)

val model : ?crashes:int -> ?recoveries:int -> ?weak_reads:bool -> unit -> model
(** Raises [Invalid_argument] on a negative budget or on
    [recoveries > 0] with [crashes = 0] (nothing could ever be down to
    restart). *)

val to_string : model -> string
(** ["none"], ["crash:f=2"], ["weak"], ["crash:f=1,recover:r=1"] — the
    CLI's [--faults] syntax.  Inverse of {!of_string}; recovery-free
    models render exactly as they did before the recovery plane. *)

val of_string : string -> (model, string) result
(** Parse a [--faults] spec: comma-separated [crash:f=K], [weak],
    [recover:r=R] and bare [recover] (meaning r = f) parts in any
    order, each kind at most once (a repeated kind is rejected, naming
    it); [""] and ["none"] mean {!none}.  [recover] without a crash
    budget is rejected with a message naming the contradiction. *)

(** {1 Injection plans for the Monte-Carlo scheduler} *)

type action =
  | Step of int   (** schedule normally (payload ignored by the scheduler) *)
  | Crash of int  (** crash-stop this (enabled) process instead *)
  | Stale of int  (** deliver the chosen process's pending read stale;
                      honoured only when that operation is a read on a
                      register marked weak *)
  | Recover of int
      (** restart this (crashed) process: volatile registers it last
          wrote are wiped, persistent ones survive, and it re-enters
          the protocol at its recover continuation *)

type plan = {
  plan_name : string;
  plan_fresh : n:int -> Rng.t -> (View.full -> chosen:int -> action);
      (** Like {!Adversary.t}: [plan_fresh ~n rng] returns a stateful
          per-execution injector.  It is called after the adversary's
          choice [chosen] has been validated against the enabled set;
          invalid overrides degrade to [Step chosen] (and are counted
          by the scheduler — see [Scheduler.result]). *)
}

val no_plan : plan
(** Always [Step chosen] — identical to running without a plan. *)
