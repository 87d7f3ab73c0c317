(** Replayable counterexample artifacts.

    A violation found by an explorer (or shrunk by {!Shrink}) is frozen
    into a small s-expression file: the configuration (checker name,
    process count, inputs, depth bound, model flags), the branch path
    in {!Conrat_sim.Explore.run_path}'s encoding — which fixes the
    whole schedule {e and} every probabilistic-write coin outcome — the
    violation message, and the full event trace for human reading.

    Replay is deterministic: [run_path] follows the stored choices, so
    the artifact reproduces the identical execution on every machine
    and commit where the protocol's operation sequence is unchanged,
    and degrades gracefully (choices clamp to 0) where it is not —
    that is what lets a fixture recorded against a buggy test double
    also be replayed against the fixed protocol as a regression test.

    Fixture files live in [test/fixtures/]; [conrat check] writes
    [<checker>.counterexample.sexp] on failure and [--replay FILE]
    re-runs one. *)

type t = {
  checker : string;            (** named {!Checks} config, or a label *)
  n : int;
  inputs : int array;
  max_depth : int;
  cheap_collect : bool;
  faults : Conrat_sim.Fault.model;
    (** fault model the path was recorded under — it fixes the path
        encoding.  Serialized only when not {!Conrat_sim.Fault.none},
        so fault-free artifacts keep the pre-fault byte format. *)
  path : int list;             (** branch choices incl. coin outcomes *)
  reason : string;             (** checker message when recorded *)
  trace : Conrat_sim.Trace.t option;  (** the witness execution, for humans *)
}

val schema_version : int

val to_sexp : t -> Conrat_sim.Sexp.t
val of_sexp : Conrat_sim.Sexp.t -> (t, string) result

val save : string -> t -> unit
(** Write-then-rename ({!Conrat_sim.Sexp.save}): an interrupted save
    never leaves a torn counterexample file. *)

val load : string -> (t, string) result

val replay :
  ?engine:Conrat_sim.Machine.engine ->
  setup:(unit -> Conrat_sim.Memory.t * (pid:int -> 'r Conrat_sim.Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  t ->
  (unit, string) result
(** Re-run the stored schedule against [setup] and return the checker's
    verdict: [Error reason] means the violation reproduced.  [engine]
    selects the program engine (default the compiled VM); replays are
    bit-identical under either. *)

val of_failure :
  checker:string ->
  n:int ->
  inputs:int array ->
  max_depth:int ->
  cheap_collect:bool ->
  ?faults:Conrat_sim.Fault.model ->
  setup:(unit -> Conrat_sim.Memory.t * (pid:int -> 'r Conrat_sim.Program.t)) ->
  check:(complete:bool -> 'r option array -> (unit, string) result) ->
  int list ->
  t
(** Build an artifact from a failing path: replays it once with trace
    recording to capture the reason and witness.  Raises
    [Invalid_argument] if the path does not actually fail. *)
