open Conrat_sim
open Conrat_objects

type property =
  | Weak_consensus
  | Valid_coherent
  | Deciders_agree

type t = {
  name : string;
  doc : string;
  factory : Deciding.factory;
  n : int;
  inputs : int array;
  property : property;
  max_depth : int;
  max_runs : int;
  cheap_collect : bool;
  faults : Fault.model;
}

(* Under a crash budget, completion-conditional clauses switch to their
   survivor form: a [None] output at a complete leaf is a crashed
   process (exactly — survivors always finish at complete leaves), and
   crash-stop is allowed to excuse it from acceptance.  Validity,
   coherence and agreement already quantify over produced outputs only,
   so they are checked verbatim — those are the crash-robust safety
   properties. *)
(* Staged: property dispatch and clause selection happen once per
   config, and the per-leaf closure chains the clauses with an explicit
   first-error-wins match instead of materializing a result list —
   this closure runs at every leaf of multi-million-leaf searches. *)
let check_of_property property ~crash_tolerant ~inputs =
  let acceptance =
    if crash_tolerant then Spec.acceptance_survivors else Spec.acceptance
  in
  match property with
  | Weak_consensus ->
    fun ~complete outputs ->
      (match Spec.validity_decided ~inputs ~outputs with
       | Error _ as e -> e
       | Ok () ->
         (match Spec.coherence ~outputs with
          | Error _ as e -> e
          | Ok () -> if complete then acceptance ~inputs ~outputs else Ok ()))
  | Valid_coherent ->
    fun ~complete:_ outputs ->
      (match Spec.validity_decided ~inputs ~outputs with
       | Error _ as e -> e
       | Ok () -> Spec.coherence ~outputs)
  | Deciders_agree ->
    fun ~complete:_ outputs ->
      (match Spec.validity_decided ~inputs ~outputs with
       | Error _ as e -> e
       | Ok () ->
         (match Spec.coherence ~outputs with
          | Error _ as e -> e
          | Ok () -> Spec.agreement_decided ~outputs))

(* A fresh rng per instance: the explorer only branches probabilistic
   writes, so checked protocols must not consume local coins — the rng
   is a placeholder, recreated per run for deterministic replay. *)
let setup_of config ~n () =
  let rng = Rng.create 0 in
  let memory = Memory.create () in
  if config.faults.Fault.weak_reads then Memory.weaken_all memory;
  (* Recovery wipes need last-writer ownership; engage tracking before
     any protocol write so every cell's provenance is known.  Kept off
     otherwise — recovery-free runs stay bit-identical to the pre-plane
     explorer. *)
  if config.faults.Fault.recoveries > 0 then Memory.track_writers memory;
  let instance = config.factory.Deciding.instantiate ~n memory in
  let inputs = Array.sub config.inputs 0 n in
  let body ~pid =
    Program.map
      (fun out -> (out.Deciding.decide, out.Deciding.value))
      (instance.Deciding.run ~pid ~rng inputs.(pid))
  in
  (memory, body)

let check_of config ~n =
  check_of_property config.property
    ~crash_tolerant:(config.faults.Fault.crashes > 0)
    ~inputs:(Array.sub config.inputs 0 n)

let target_of config =
  { Shrink.n = config.n;
    max_depth = config.max_depth;
    cheap_collect = config.cheap_collect;
    faults = config.faults;
    setup = setup_of config;
    check = check_of config }

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let config ?(max_depth = 200) ?(max_runs = 20_000_000) ?(cheap_collect = false)
    ?(faults = Fault.none) ~doc ~factory ~inputs ~property name =
  { name; doc; factory; n = Array.length inputs; inputs; property;
    max_depth; max_runs; cheap_collect; faults }

let all =
  [ config "binary_ratifier_n2"
      ~doc:"3-register binary ratifier, n=2, conflicting inputs"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1 |] ~property:Weak_consensus;
    config "binary_ratifier_n3"
      ~doc:"binary ratifier, n=3, split inputs"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 0 |] ~property:Weak_consensus;
    config "binary_ratifier_accept_n3"
      ~doc:"binary ratifier, n=3, agreeing inputs (acceptance)"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 1; 1; 1 |] ~property:Weak_consensus;
    config "binary_ratifier_n4"
      ~doc:"binary ratifier, n=4, alternating inputs (POR-only bound)"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 0; 1 |] ~property:Weak_consensus
      ~max_runs:200_000_000;
    config "bollobas_ratifier_n3_m3"
      ~doc:"Bollobás ratifier, n=3, three-way conflicting inputs"
      ~factory:(Conrat_core.Ratifier.bollobas ~m:3)
      ~inputs:[| 0; 1; 2 |] ~property:Weak_consensus;
    config "cheap_collect_ratifier_n2"
      ~doc:"cheap-collect ratifier (m=3), n=2"
      ~factory:(Conrat_core.Ratifier.cheap_collect ~m:3)
      ~inputs:[| 0; 1 |] ~property:Weak_consensus ~cheap_collect:true;
    config "conciliator_n2"
      ~doc:"impatient first-mover conciliator, n=2, depth 60"
      ~factory:(Conrat_core.Conciliator.impatient_first_mover ())
      ~inputs:[| 0; 1 |] ~property:Valid_coherent ~max_depth:60;
    config "composite_n2"
      ~doc:"one conciliator;ratifier round, n=2, depth 60"
      ~factory:(Compose.seq_factory
                  [ Conrat_core.Conciliator.impatient_first_mover ();
                    Conrat_core.Ratifier.binary () ])
      ~inputs:[| 0; 1 |] ~property:Valid_coherent ~max_depth:60;
    config "fallback_n2_d28"
      ~doc:"racing fallback, n=2, full tree to depth 28"
      ~factory:(Conrat_core.Fallback.racing ~m:2 ())
      ~inputs:[| 0; 1 |] ~property:Deciders_agree ~max_depth:28;
    config "fallback_n2_d34"
      ~doc:"racing fallback, n=2, full tree to depth 34 (POR-only bound)"
      ~factory:(Conrat_core.Fallback.racing ~m:2 ())
      ~inputs:[| 0; 1 |] ~property:Deciders_agree ~max_depth:34
      ~max_runs:200_000_000;
    config "fallback_n2_d40"
      ~doc:"racing fallback, n=2, full tree to depth 40 (stateful-POR bound)"
      ~factory:(Conrat_core.Fallback.racing ~m:2 ())
      ~inputs:[| 0; 1 |] ~property:Deciders_agree ~max_depth:40
      ~max_runs:2_000_000_000;
    (* Crash-closed configs: the same protocols proved safe under every
       placement of up to f crash-stops (acceptance in its survivor
       form).  Ratifiers are deterministic and wait-free, so the whole
       crash-closed tree is finite without depth truncation. *)
    config "binary_ratifier_n2_f1"
      ~doc:"binary ratifier, n=2, conflicting inputs, crash-closed f=1"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1 |] ~property:Weak_consensus
      ~faults:(Fault.crash_only 1);
    config "binary_ratifier_n3_f1"
      ~doc:"binary ratifier, n=3, split inputs, crash-closed f=1"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 0 |] ~property:Weak_consensus
      ~faults:(Fault.crash_only 1);
    config "binary_ratifier_n3_f2"
      ~doc:"binary ratifier, n=3, split inputs, crash-closed f=2"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 0 |] ~property:Weak_consensus
      ~faults:(Fault.crash_only 2);
    config "binary_ratifier_accept_n3_f2"
      ~doc:"binary ratifier, n=3, agreeing inputs, survivor acceptance, f=2"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 1; 1; 1 |] ~property:Weak_consensus
      ~faults:(Fault.crash_only 2);
    config "conciliator_n2_f1"
      ~doc:"impatient first-mover conciliator, n=2, depth 60, crash-closed f=1"
      ~factory:(Conrat_core.Conciliator.impatient_first_mover ())
      ~inputs:[| 0; 1 |] ~property:Valid_coherent ~max_depth:60
      ~faults:(Fault.crash_only 1);
    config "binary_ratifier_n5"
      ~doc:"binary ratifier, n=5, alternating inputs (parallel/dedup bound)"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 0; 1; 0 |] ~property:Weak_consensus;
    config "binary_ratifier_n4_f2"
      ~doc:"binary ratifier, n=4, alternating inputs, crash-closed f=2"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 0; 1 |] ~property:Weak_consensus
      ~faults:(Fault.crash_only 2);
    (* Crash-recovery-closed configs: the recoverable ratifier (persistent
       decision-critical registers + re-validating recovery continuation)
       proved safe under every joint placement of up to f crash-stops and
       r recoveries.  The [0; 1; 1] instance is exactly the one where the
       stock ratifier loses coherence (see the binary_ratifier_n3_rec
       demo), so the pair is a machine-checked pass/fail contrast. *)
    config "binary_ratifier_rec_n2_f1"
      ~doc:"recoverable binary ratifier, n=2, crash-recovery-closed f=1 r=1"
      ~factory:(Conrat_core.Ratifier.binary_rec ())
      ~inputs:[| 0; 1 |] ~property:Weak_consensus
      ~faults:(Fault.model ~crashes:1 ~recoveries:1 ());
    config "binary_ratifier_rec_n3_f1"
      ~doc:"recoverable binary ratifier, n=3, crash-recovery-closed f=1 r=1"
      ~factory:(Conrat_core.Ratifier.binary_rec ())
      ~inputs:[| 0; 1; 1 |] ~property:Weak_consensus
      ~faults:(Fault.model ~crashes:1 ~recoveries:1 ()) ]

(* Extended-frontier configs: sound members of the registry whose trees
   are too large for [check all]'s budget on commodity hardware — run
   them by name ([conrat check fallback_n2_d46 --jobs N --dedup]).
   Kept out of [all] so CI stays bounded; [find] still resolves them. *)
let extended =
  [ config "fallback_n2_d46"
      ~doc:"racing fallback, n=2, full tree to depth 46 (dedup-frontier bound)"
      ~factory:(Conrat_core.Fallback.racing ~m:2 ())
      ~inputs:[| 0; 1 |] ~property:Deciders_agree ~max_depth:46
      ~max_runs:20_000_000_000 ]

(* Expected-failure demos: excluded from [all]; runnable by name to
   exercise the find → shrink → artifact pipeline end to end. *)
let demos =
  [ config "fallback_unstaked_n2"
      ~doc:"KNOWN-UNSOUND unstaked fallback (§7 test double) — must fail"
      ~factory:(Conrat_core.Fallback.racing_unstaked ~m:2 ())
      ~inputs:[| 0; 1 |] ~property:Deciders_agree ~max_depth:28;
    config "ratifier_await_ack"
      ~doc:"KNOWN CRASH-UNSAFE await-ack helper — must fail acceptance at f=1"
      ~factory:(Conrat_core.Ratifier.await_ack ())
      ~inputs:[| 1; 1 |] ~property:Weak_consensus ~max_depth:40
      ~faults:(Fault.crash_only 1);
    config "binary_ratifier_n2_weak"
      ~doc:"binary ratifier on weak (regular) registers — must fail coherence"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1 |] ~property:Valid_coherent
      ~faults:(Fault.model ~weak_reads:true ());
    (* The stock (volatile-register) ratifier under crash-recovery: a
       recovering announcer can be the last writer of a pool cell it
       shares with a surviving same-value process, so the recovery wipe
       erases the survivor's announcement out from under a concurrent
       conflict scan — a decider misses the conflicting value and
       coherence breaks.  Needs n=3 (two same-value announcers plus a
       conflicting decider); the crash-only f=1 closure of the very same
       protocol is proved safe above. *)
    config "binary_ratifier_n3_rec"
      ~doc:"KNOWN RECOVERY-UNSAFE volatile binary ratifier, crash:f=1,recover — must fail coherence"
      ~factory:(Conrat_core.Ratifier.binary ())
      ~inputs:[| 0; 1; 1 |] ~property:Weak_consensus
      ~faults:(Fault.model ~crashes:1 ~recoveries:1 ()) ]

let find name =
  List.find_opt (fun c -> c.name = name) (all @ demos @ extended)

let names = List.map (fun c -> c.name) all
let demo_names = List.map (fun c -> c.name) demos
let extended_names = List.map (fun c -> c.name) extended

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type failure = {
  reason : string;
  stats : Por.stats;
  artifact : Artifact.t;
  shrink_replays : int;
}

type outcome = (Por.stats, failure) result

let run ?stop ?max_runs ?heartbeat ?resume ?checkpoint_every
    ?on_checkpoint ?(jobs = 1) ?dedup ?telemetry config =
  let max_runs = Option.value max_runs ~default:config.max_runs in
  let result =
    Parallel.explore_por ~jobs ~max_depth:config.max_depth ~max_runs
      ~cheap_collect:config.cheap_collect ~faults:config.faults ?stop ?heartbeat ?dedup
      ?resume ?checkpoint_every ?on_checkpoint ?telemetry ~n:config.n
      ~setup:(setup_of config ~n:config.n)
      ~check:(check_of config ~n:config.n)
      ()
  in
  match result with
  | Ok stats -> Ok stats
  | Error (reason, path, stats) ->
    let count = ref 0 in
    let n, path = Shrink.minimize ~count (target_of config) ~path () in
    let artifact =
      Artifact.of_failure ~checker:config.name ~n
        ~inputs:(Array.sub config.inputs 0 n) ~max_depth:config.max_depth
        ~cheap_collect:config.cheap_collect ~faults:config.faults
        ~setup:(setup_of config ~n) ~check:(check_of config ~n) path
    in
    Error { reason; stats; artifact; shrink_replays = !count }

let fits config (a : Artifact.t) =
  let ints xs = String.concat " " (Array.to_list (Array.map string_of_int xs)) in
  if a.n < 1 || a.n > config.n then
    Error (Printf.sprintf "n = %d is outside 1..%d (checker %s)" a.n config.n config.name)
  else if a.inputs <> Array.sub config.inputs 0 a.n then
    Error
      (Printf.sprintf "inputs (%s) are not checker %s's first %d inputs (%s)"
         (ints a.inputs) config.name a.n (ints (Array.sub config.inputs 0 a.n)))
  else if a.max_depth < 0 then
    Error (Printf.sprintf "max-depth = %d is negative" a.max_depth)
  else Ok ()

let replay ?engine config artifact =
  (match fits config artifact with
   | Error msg -> invalid_arg ("Checks.replay: " ^ msg)
   | Ok () -> ());
  Artifact.replay ?engine ~setup:(setup_of config ~n:artifact.Artifact.n)
    ~check:(check_of config ~n:artifact.Artifact.n)
    artifact

(* ------------------------------------------------------------------ *)
(* Cross-checking POR against naive enumeration                        *)
(* ------------------------------------------------------------------ *)

type cross = {
  naive : Naive.stats;
  por : Por.stats;
  outcomes_agree : bool;
  outcome_count : int;
  engines_agree : bool;
}

let cross_check ?stop ?max_runs ?naive_heartbeat ?por_heartbeat
    ?(jobs = 1) config =
  let max_runs = Option.value max_runs ~default:config.max_runs in
  let collect () = Hashtbl.create 64 in
  (* Copy before keying: explorers reuse the outputs buffer across
     leaves, and a hashtable key must not mutate after insertion.  With
     [jobs > 1] the POR side's collecting check runs from several
     domains, so the outcome table is mutex-guarded (membership peeks
     included). *)
  let lock = Mutex.create () in
  let noting outcomes ~complete outputs =
    if complete then
      Mutex.protect lock (fun () ->
          if not (Hashtbl.mem outcomes outputs) then
            Hashtbl.replace outcomes (Array.copy outputs) ());
    check_of config ~n:config.n ~complete outputs
  in
  let sets_equal a b =
    Hashtbl.length a = Hashtbl.length b
    && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem b k) a true
  in
  let naive_outcomes = collect () in
  let naive =
    Naive.explore ~max_depth:config.max_depth ~max_runs
      ~cheap_collect:config.cheap_collect ~faults:config.faults ?stop
      ?heartbeat:naive_heartbeat ~n:config.n
      ~setup:(setup_of config ~n:config.n)
      ~check:(noting naive_outcomes) ()
  in
  let por_outcomes = collect () in
  let por =
    Parallel.explore_por ~jobs ~max_depth:config.max_depth ~max_runs
      ~cheap_collect:config.cheap_collect ~faults:config.faults ?stop
      ?heartbeat:por_heartbeat ~n:config.n
      ~setup:(setup_of config ~n:config.n)
      ~check:(noting por_outcomes) ()
  in
  (* The engine differential: repeat the POR search under the tree
     interpreter and demand identical statistics (hence identical leaf
     order and pruning) and the identical complete-outcome set. *)
  let oracle_outcomes = collect () in
  let oracle =
    Por.explore ~engine:`Tree ~max_depth:config.max_depth ~max_runs
      ~cheap_collect:config.cheap_collect ~faults:config.faults ?stop
      ~n:config.n
      ~setup:(setup_of config ~n:config.n)
      ~check:(noting oracle_outcomes) ()
  in
  match (naive, por, oracle) with
  | Ok naive, Ok por, Ok oracle ->
    Ok { naive; por;
         outcomes_agree = sets_equal naive_outcomes por_outcomes;
         outcome_count = Hashtbl.length naive_outcomes;
         engines_agree = por = oracle && sets_equal por_outcomes oracle_outcomes }
  | Error (reason, _), _, _ -> Error ("naive: " ^ reason)
  | _, Error (reason, _, _), _ -> Error ("por: " ^ reason)
  | _, _, Error (reason, _, _) -> Error ("por (oracle engine): " ^ reason)
