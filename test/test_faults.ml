(* Tests for the fault plane: crash-stop / weak-register injection in
   the machine, crash-closed exhaustive verification, SIGINT-safe
   checkpoint/resume bit-identity, the Injector plan combinators and the
   quarantining engine.

   The qcheck property is the headline: validity and coherence hold on
   random crash schedules (0 ≤ crashes ≤ n−1) for every registry
   config, with crashed processes excused and survivors held to the
   full contract. *)

open Conrat_sim
open Conrat_verify

let check = Alcotest.check
let checkb msg expected actual = check Alcotest.bool msg expected actual
let checki msg expected actual = check Alcotest.int msg expected actual
let tc = Alcotest.test_case

let config name =
  match Checks.find name with
  | Some c -> c
  | None -> Alcotest.failf "no checker config named %s" name

(* ------------------------------------------------------------------ *)
(* The --faults grammar round-trips over its full range (qcheck)       *)
(* ------------------------------------------------------------------ *)

let qcheck_fault_spec_roundtrip =
  (* Generate only constructible models: a recovery budget needs a
     crash budget (Fault.model enforces it), but r may exceed f — the
     scheduler just runs out of crashed pids to restart. *)
  let gen =
    QCheck.Gen.(
      map3
        (fun crashes recoveries weak_reads ->
          let recoveries = if crashes = 0 then 0 else recoveries in
          Fault.model ~crashes ~recoveries ~weak_reads ())
        (int_bound 4) (int_bound 4) bool)
  in
  QCheck.Test.make ~count:200 ~name:"--faults spec round-trips"
    (QCheck.make ~print:Fault.to_string gen)
    (fun m ->
      match Fault.of_string (Fault.to_string m) with
      | Ok m' -> m = m'
      | Error e ->
        QCheck.Test.fail_reportf "to_string %S did not parse back: %s"
          (Fault.to_string m) e)

let test_fault_spec_errors () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* contradictory: recovery without anything to recover from *)
  (match Fault.of_string "recover" with
   | Error e -> checkb "bare recover names the contradiction" true
                  (contains ~needle:"crash budget" e)
   | Ok m -> Alcotest.failf "bare recover accepted as %s" (Fault.to_string m));
  (match Fault.of_string "crash:f=0,recover:r=1" with
   | Error e -> checkb "zero-crash recover names the contradiction" true
                  (contains ~needle:"crash budget" e)
   | Ok m ->
     Alcotest.failf "crash:f=0,recover:r=1 accepted as %s" (Fault.to_string m));
  (* bare recover inherits r = f *)
  (match Fault.of_string "crash:f=2,recover" with
   | Ok m -> checkb "bare recover means r=f" true
               (m = Fault.model ~crashes:2 ~recoveries:2 ())
   | Error e -> Alcotest.failf "crash:f=2,recover rejected: %s" e);
  (* an explicit r larger than f is fine — restarts just starve *)
  (match Fault.of_string "crash:f=1,recover:r=3" with
   | Ok m -> checkb "r may exceed f" true
               (m = Fault.model ~crashes:1 ~recoveries:3 ())
   | Error e -> Alcotest.failf "crash:f=1,recover:r=3 rejected: %s" e);
  (* a part kind given twice is rejected, not last-one-wins *)
  List.iter
    (fun (spec, kind) ->
      match Fault.of_string spec with
      | Error e ->
        checkb (spec ^ " names the repeated part") true
          (contains ~needle:"bad fault spec" e
           && contains ~needle:(kind ^ " given twice") e)
      | Ok m -> Alcotest.failf "%s accepted as %s" spec (Fault.to_string m))
    [ ("crash:f=2,crash:f=1", "crash");
      ("crash:f=1,recover,recover:r=3", "recover");
      ("crash:f=1,recover:r=1,recover", "recover");
      ("weak,weak", "weak");
      ("weak, crash:f=1 ,weak", "weak") ]

(* ------------------------------------------------------------------ *)
(* Random crash schedules keep validity + coherence (qcheck)           *)
(* ------------------------------------------------------------------ *)

(* Every fault-free registry config, re-armed with the largest
   meaningful crash budget (n − 1 leaves at least one survivor). *)
let crashable =
  List.filter_map
    (fun c ->
      if Fault.is_none c.Checks.faults then
        Some { c with Checks.faults = Fault.crash_only (c.Checks.n - 1) }
      else None)
    Checks.all

let qcheck_crash_schedules_safe =
  let gen =
    QCheck.Gen.(
      pair
        (int_bound (List.length crashable - 1))
        (list_size (int_bound 80) (int_bound 12)))
  in
  let print (i, path) =
    Printf.sprintf "%s %s" (List.nth crashable i).Checks.name
      (String.concat "," (List.map string_of_int path))
  in
  QCheck.Test.make ~count:200
    ~name:"validity+coherence under random crash schedules"
    (QCheck.make ~print gen)
    (fun (i, path) ->
      let c = List.nth crashable i in
      let run =
        Explore.run_path ~max_depth:c.Checks.max_depth
          ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
          ~n:c.Checks.n
          ~setup:(Checks.setup_of c ~n:c.Checks.n)
          path
      in
      match
        Checks.check_of c ~n:c.Checks.n ~complete:run.Explore.completed
          run.Explore.outputs
      with
      | Ok () -> true
      | Error reason ->
        QCheck.Test.fail_reportf "%s violated under crash schedule: %s"
          c.Checks.name reason)

(* ------------------------------------------------------------------ *)
(* Crash → recover orderings are always valid (qcheck)                 *)
(* ------------------------------------------------------------------ *)

(* Replay the trace of a random path under a crash-recovery model and
   check the pseudo-event discipline: a crash only hits a live process,
   a recovery only restarts a crashed one, and both budgets hold. *)
let qcheck_crash_recover_orderings_valid =
  let base = config "binary_ratifier_n3" in
  let c =
    { base with
      Checks.name = "binary_ratifier_n3+crash:f=2,recover:r=2";
      faults = Fault.model ~crashes:2 ~recoveries:2 () }
  in
  let gen = QCheck.Gen.(list_size (int_bound 120) (int_bound 12)) in
  let print path = String.concat "," (List.map string_of_int path) in
  QCheck.Test.make ~count:300
    ~name:"crash/recover pseudo-events well-ordered and within budget"
    (QCheck.make ~print gen)
    (fun path ->
      let run =
        Explore.run_path ~record:true ~max_depth:c.Checks.max_depth
          ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
          ~n:c.Checks.n
          ~setup:(Checks.setup_of c ~n:c.Checks.n)
          path
      in
      let tr =
        match run.Explore.trace with
        | Some tr -> tr
        | None -> QCheck.Test.fail_report "record:true produced no trace"
      in
      let crashed = Array.make c.Checks.n false in
      let crashes = ref 0 and recovers = ref 0 in
      List.iter
        (fun e ->
          match e.Trace.op with
          | Some _ ->
            if crashed.(e.Trace.pid) then
              QCheck.Test.fail_reportf "step %d: crashed p%d executed an op"
                e.Trace.step e.Trace.pid
          | None ->
            if e.Trace.landed then begin
              (* recovery pseudo-event *)
              if not crashed.(e.Trace.pid) then
                QCheck.Test.fail_reportf "step %d: recovered live p%d"
                  e.Trace.step e.Trace.pid;
              crashed.(e.Trace.pid) <- false;
              incr recovers
            end
            else begin
              if crashed.(e.Trace.pid) then
                QCheck.Test.fail_reportf "step %d: crashed p%d twice"
                  e.Trace.step e.Trace.pid;
              crashed.(e.Trace.pid) <- true;
              incr crashes
            end)
        (Trace.events tr);
      !crashes <= 2 && !recovers <= 2 && !recovers <= !crashes)

(* ------------------------------------------------------------------ *)
(* Crash-closed exhaustive checks                                      *)
(* ------------------------------------------------------------------ *)

let test_crash_closed_registry_configs () =
  (* Quick members of the crash-closed registry exhaust and pass; the
     explored counts double as determinism locks (cf. BENCH_VERIFY). *)
  List.iter
    (fun (name, expected_complete) ->
      match Checks.run (config name) with
      | Ok s ->
        checkb (name ^ " exhausted") true s.Por.exhausted;
        checki (name ^ " complete leaves") expected_complete s.Por.complete
      | Error f -> Alcotest.failf "%s violated: %s" name f.Checks.reason)
    [ ("binary_ratifier_n2_f1", 24); ("binary_ratifier_n3_f1", 408) ]

let test_recovery_closed_registry_configs () =
  (* The recoverable ratifier exhausts its crash-recovery-closed tree
     with zero violations; leaf counts double as determinism locks. *)
  List.iter
    (fun (name, expected_complete) ->
      match Checks.run (config name) with
      | Ok s ->
        checkb (name ^ " exhausted") true s.Por.exhausted;
        checki (name ^ " complete leaves") expected_complete s.Por.complete
      | Error f -> Alcotest.failf "%s violated: %s" name f.Checks.reason)
    [ ("binary_ratifier_rec_n2_f1", 170); ("binary_ratifier_rec_n3_f1", 7696) ]

let test_fault_free_stats_unchanged () =
  (* The fault plane compiled in but disabled must not change the
     exploration: same leaf/step counts as the committed baseline. *)
  match Checks.run (config "binary_ratifier_n2") with
  | Ok s ->
    checkb "exhausted" true s.Por.exhausted;
    checki "complete" 6 s.Por.complete
  | Error f -> Alcotest.failf "violation: %s" f.Checks.reason

(* ------------------------------------------------------------------ *)
(* The crash-unsafe demo and its committed fixture                     *)
(* ------------------------------------------------------------------ *)

let test_await_ack_caught_and_shrunk () =
  let demo = config "ratifier_await_ack" in
  match Checks.run demo with
  | Ok _ ->
    Alcotest.fail "await_ack demo passed; crash injection lost its witness"
  | Error f ->
    checkb "violation is about acceptance" true
      (String.length f.Checks.reason >= 10
       && String.sub f.Checks.reason 0 10 = "acceptance");
    checkb "artifact records the crash model" true
      (f.Checks.artifact.Artifact.faults = Fault.crash_only 1);
    (match Checks.replay demo f.Checks.artifact with
     | Artifact.Reproduced ->
       checkb "shrunk artifact reproduces" true
         (f.Checks.artifact.Artifact.reason = f.Checks.reason)
     | Passed | Differs _ -> Alcotest.fail "shrunk artifact does not reproduce")

let fixture_file name = Filename.concat "fixtures" name

let load_fixture name =
  match Artifact.load (fixture_file name) with
  | Ok a -> a
  | Error e -> Alcotest.failf "cannot load fixture %s: %s" name e

let test_await_ack_fixture_reproduces () =
  let a = load_fixture "ratifier_await_ack.sexp" in
  check Alcotest.string "fixture names the demo" "ratifier_await_ack"
    a.Artifact.checker;
  checkb "fixture carries the crash model" true
    (a.Artifact.faults = Fault.crash_only 1);
  match Checks.replay (config "ratifier_await_ack") a with
  | Artifact.Reproduced -> ()
  | Passed -> Alcotest.fail "fixture no longer reproduces"
  | Differs d -> Alcotest.failf "fixture reproduces otherwise: %s" d

let test_weak_read_fixture_reproduces () =
  let a = load_fixture "binary_ratifier_n2_weak.sexp" in
  checkb "fixture carries the weak-read model" true
    (a.Artifact.faults = Fault.model ~weak_reads:true ());
  match Checks.replay (config "binary_ratifier_n2_weak") a with
  | Artifact.Reproduced -> ()
  | Passed -> Alcotest.fail "weak-read fixture no longer reproduces"
  | Differs d -> Alcotest.failf "weak-read fixture reproduces otherwise: %s" d

let test_recovery_demo_caught_and_shrunk () =
  (* The stock (volatile-register) binary ratifier must fail coherence
     under crash:f=1,recover — the restarted process loses its
     announcement and the proposal it wrote, re-proposes, and splits
     the decision.  The recoverable variant on the same instance is in
     the crash-closed registry and passes. *)
  let demo = config "binary_ratifier_n3_rec" in
  match Checks.run demo with
  | Ok _ ->
    Alcotest.fail
      "volatile ratifier survived crash-recovery; the wipe lost its witness"
  | Error f ->
    checkb "violation is about coherence" true
      (String.length f.Checks.reason >= 9
       && String.sub f.Checks.reason 0 9 = "coherence");
    checkb "artifact records the crash-recovery model" true
      (f.Checks.artifact.Artifact.faults
       = Fault.model ~crashes:1 ~recoveries:1 ());
    (* The shrinker may land on a different minimal witness than the
       first-found one (here it usually drops to an n=2-style split),
       so the invariant is that the artifact reproduces its *own*
       recorded reason, not the original find. *)
    (match Checks.replay demo f.Checks.artifact with
     | Artifact.Reproduced -> ()
     | Passed -> Alcotest.fail "shrunk artifact does not reproduce"
     | Differs d -> Alcotest.failf "shrunk artifact reproduces otherwise: %s" d)

let test_recovery_fixture_reproduces () =
  let a = load_fixture "binary_ratifier_n3_rec.sexp" in
  check Alcotest.string "fixture names the demo" "binary_ratifier_n3_rec"
    a.Artifact.checker;
  checkb "fixture carries the crash-recovery model" true
    (a.Artifact.faults = Fault.model ~crashes:1 ~recoveries:1 ());
  checkb "fixture trace contains a recovery pseudo-event" true
    (match a.Artifact.trace with
     | Some tr ->
       List.exists
         (fun e -> e.Trace.op = None && e.Trace.landed)
         (Trace.events tr)
     | None -> false);
  match Checks.replay (config "binary_ratifier_n3_rec") a with
  | Artifact.Reproduced -> ()
  | Passed -> Alcotest.fail "recovery fixture no longer reproduces"
  | Differs d -> Alcotest.failf "recovery fixture reproduces otherwise: %s" d

let test_weak_demo_caught () =
  match Checks.run (config "binary_ratifier_n2_weak") with
  | Ok _ -> Alcotest.fail "weak-read demo passed; stale forks lost the witness"
  | Error f ->
    checkb "violation is about coherence" true
      (String.length f.Checks.reason >= 9
       && String.sub f.Checks.reason 0 9 = "coherence")

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume: segmented run is bit-identical to uninterrupted  *)
(* ------------------------------------------------------------------ *)

let test_por_checkpoint_resume_bit_identical () =
  let c = config "binary_ratifier_n3_f1" in
  let full =
    match Checks.run c with
    | Ok s -> s
    | Error f -> Alcotest.failf "unexpected violation: %s" f.Checks.reason
  in
  (* Re-run in budget segments, checkpointing at each stop and resuming
     from the saved frontier; the final statistics must be equal. *)
  let saved = ref None in
  let budget = ref 150 in
  let final = ref None in
  let segments = ref 0 in
  while !final = None do
    incr segments;
    if !segments > 100 then Alcotest.fail "segmented run does not converge";
    match
      Checks.run ~max_runs:!budget ?resume:!saved ~checkpoint_every:max_int
        ~on_checkpoint:(fun counts -> saved := Some counts)
        c
    with
    | Ok s when s.Por.exhausted -> final := Some s
    | Ok _ -> budget := !budget + 150
    | Error f -> Alcotest.failf "violation mid-segment: %s" f.Checks.reason
  done;
  checkb "≥ 2 segments actually exercised resume" true (!segments >= 2);
  checkb "segmented statistics bit-identical" true (Option.get !final = full)

let test_recovery_checkpoint_resume_bit_identical () =
  (* Same segmentation discipline over a crash-recovery-closed tree:
     stop-or-recover nodes and recovery bands must survive the
     checkpoint frontier encoding unchanged. *)
  let c = config "binary_ratifier_rec_n2_f1" in
  let full =
    match Checks.run c with
    | Ok s -> s
    | Error f -> Alcotest.failf "unexpected violation: %s" f.Checks.reason
  in
  let saved = ref None in
  let budget = ref 60 in
  let final = ref None in
  let segments = ref 0 in
  while !final = None do
    incr segments;
    if !segments > 100 then Alcotest.fail "segmented run does not converge";
    match
      Checks.run ~max_runs:!budget ?resume:!saved ~checkpoint_every:max_int
        ~on_checkpoint:(fun counts -> saved := Some counts)
        c
    with
    | Ok s when s.Por.exhausted -> final := Some s
    | Ok _ -> budget := !budget + 60
    | Error f -> Alcotest.failf "violation mid-segment: %s" f.Checks.reason
  done;
  checkb "≥ 2 segments actually exercised resume" true (!segments >= 2);
  checkb "segmented statistics bit-identical" true (Option.get !final = full)

let test_resume_rejects_corrupt_path () =
  let c = config "binary_ratifier_n2_f1" in
  let bogus =
    { Checkpoint.path = [ 7; 7; 7; 7; 7; 7; 7 ]; complete = 3; truncated = 0;
      pruned = 0; steps = 10 }
  in
  try
    ignore (Checks.run ~resume:bogus c);
    Alcotest.fail "corrupt resume path accepted"
  with Invalid_argument _ -> ()

let test_checkpoint_sexp_roundtrip () =
  let ck =
    { Checkpoint.engine = "por"; checker = "binary_ratifier_n3_f1";
      counts =
        { Checkpoint.path = [ 1; 0; 3 ]; complete = 42; truncated = 7;
          pruned = 99; steps = 1234 } }
  in
  match Checkpoint.of_sexp (Checkpoint.to_sexp ck) with
  | Ok ck' -> checkb "round-trips" true (ck = ck')
  | Error e -> Alcotest.failf "checkpoint did not parse back: %s" e

(* ------------------------------------------------------------------ *)
(* Crash children counted without running the crash                   *)
(* ------------------------------------------------------------------ *)

(* One uninterrupted run's per-leaf heartbeat, plus which leaves were
   crash children that Por counted without running the crash.  Every
   transition the machine applies reaches the sink as an op, crash or
   recover event, so at such a leaf the reported step total moves one
   further past the applied count than at the leaf before. *)
let leaf_profile c =
  let applied = ref 0 in
  let bump ~step:_ ~pid:_ = incr applied in
  let sink =
    Sink.make
      ~on_op:(fun ~step:_ ~pid:_ ~kind:_ ~loc:_ ~landed:_ ~stage:_ -> incr applied)
      ~on_crash:bump ~on_recover:bump ()
  in
  let steps = ref [] in
  let unrun = ref [] in
  let last_gap = ref 0 in
  let heartbeat ~runs:_ ~pruned:_ ~steps:s ~depth:_ =
    steps := s :: !steps;
    let gap = s - !applied in
    unrun := (gap > !last_gap) :: !unrun;
    last_gap := gap
  in
  (* [Checks.run]'s sequential search, with the sink attached. *)
  match
    Por.explore ~max_depth:c.Checks.max_depth ~max_runs:c.max_runs
      ~cheap_collect:c.cheap_collect ~faults:c.faults ~sink ~heartbeat ~n:c.n
      ~setup:(Checks.setup_of c ~n:c.n) ~check:(Checks.check_of c ~n:c.n) ()
  with
  | Ok full ->
    (full, Array.of_list (List.rev !steps), Array.of_list (List.rev !unrun))
  | Error (reason, _, _) -> Alcotest.failf "unexpected violation: %s" reason

let test_resume_after_every_leaf () =
  (* Stop and resume at every single leaf ([max_runs] stepping by 1):
     each checkpoint must carry the uninterrupted run's step total at
     that leaf, some must land on crash leaves counted without running
     the crash, and the final statistics must be the uninterrupted
     run's, [steps] included. *)
  let c = config "binary_ratifier_n3_f1" in
  let full, leaf_steps, unrun = leaf_profile c in
  let leaves = Array.length leaf_steps in
  checki "one heartbeat per leaf" (Por.explored full + full.Por.pruned) leaves;
  checkb "some crash leaves are counted without running" true
    (Array.exists Fun.id unrun);
  let saved = ref None in
  let on_unrun = ref 0 in
  let on_checkpoint (counts : Checkpoint.counts) =
    let r = counts.complete + counts.truncated + counts.pruned in
    if r >= leaves then Alcotest.failf "checkpoint past the last leaf (%d)" r;
    checki (Printf.sprintf "steps at leaf %d" r) leaf_steps.(r) counts.steps;
    if unrun.(r) then incr on_unrun;
    saved := Some counts
  in
  let rec segment budget =
    if budget > leaves + 1 then Alcotest.fail "segmented run does not converge";
    match
      Checks.run ~max_runs:budget ?resume:!saved ~checkpoint_every:max_int
        ~on_checkpoint c
    with
    | Ok s when s.Por.exhausted -> (s, budget)
    | Ok _ -> segment (budget + 1)
    | Error f -> Alcotest.failf "violation mid-segment: %s" f.Checks.reason
  in
  let final, budget = segment 1 in
  checki "one segment per leaf" leaves budget;
  checkb "a checkpoint landed on a crash leaf counted without running" true
    (!on_unrun > 0);
  checkb "segmented statistics bit-identical" true (final = full)

(* The two pins below were recorded before crash children could be
   counted without running the crash; they must not move. *)
let test_heartbeat_sequence_pinned () =
  let buf = Buffer.create 65536 in
  let count = ref 0 in
  let heartbeat ~runs ~pruned ~steps ~depth =
    incr count;
    Printf.bprintf buf "%d,%d,%d,%d;" runs pruned steps depth
  in
  (match Checks.run ~heartbeat (config "binary_ratifier_n3_f2") with
   | Ok s -> checki "steps" 3609 s.Por.steps
   | Error f -> Alcotest.failf "unexpected violation: %s" f.Checks.reason);
  checki "heartbeats" 1942 !count;
  check Alcotest.string "(runs, pruned, steps, depth) sequence digest"
    "2973a4487cdc42af9e02fc575fa10a1e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_coverage_depth_profile_pinned () =
  let t = Conrat_obs.Telemetry.create ~coverage:true ~domains:1 () in
  (match Checks.run ~telemetry:t (config "binary_ratifier_n3_f2") with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "unexpected violation: %s" f.Checks.reason);
  Conrat_obs.Telemetry.finalize t;
  match Conrat_obs.Telemetry.merged_coverage t with
  | None -> Alcotest.fail "no coverage collected"
  | Some cv ->
    check Alcotest.string "coverage (pruned-depth histogram included)"
      ({|{"schema_version":3,"depth_profile":{"complete":[0,0,0,0,0,0,3,12,54,130,232,284,84],|}
       ^ {|"truncated":[],"pruned":[0,1,6,16,34,60,94,160,218,248,234,72]},|}
       ^ {|"stage_signatures":[{"sig":["-","-","-"],"count":799}],"dedup_saturation":[]}|})
      (Conrat_obs.Coverage.to_json cv)

(* Minor words [f] allocates when run [iters] times, less what running
   it zero times costs, so the measurement's own boxing cancels. *)
let words_per_iters iters f =
  let measure k =
    let before = Gc.minor_words () in
    for _ = 1 to k do f () done;
    Gc.minor_words () -. before
  in
  measure iters -. measure 0

let fault_plane_machine () =
  let c = config "binary_ratifier_n3_f1" in
  let memory, body = Checks.setup_of c ~n:c.Checks.n () in
  Machine.create ~n:c.Checks.n ~memory body

let test_crash_restore_allocates_nothing () =
  let m = fault_plane_machine () in
  let s = Machine.snapshot m in
  let cycle () =
    Machine.crash m ~pid:1;
    Machine.restore m s
  in
  cycle ();
  check (Alcotest.float 0.) "words per 1 000 crash/restore cycles" 0.
    (words_per_iters 1000 cycle);
  checkb "restored" false (Machine.is_crashed m 1)

let test_crashed_pids_interned () =
  let m = fault_plane_machine () in
  check Alcotest.(array int) "none crashed" [||] (Machine.crashed_pids m);
  Machine.crash m ~pid:2;
  Machine.crash m ~pid:0;
  check Alcotest.(array int) "ascending" [| 0; 2 |] (Machine.crashed_pids m);
  check (Alcotest.float 0.) "words per 1 000 calls" 0.
    (words_per_iters 1000 (fun () -> ignore (Machine.crashed_pids m)))

(* ------------------------------------------------------------------ *)
(* Injector plan combinators on the Monte Carlo scheduler              *)
(* ------------------------------------------------------------------ *)

let write_then_read ~n () =
  let memory = Memory.create () in
  let regs = Array.init n (fun _ -> Memory.alloc memory) in
  let body ~pid ~rng:_ =
    let open Program in
    let* () = write regs.(pid) (pid + 1) in
    let* v = read regs.((pid + 1) mod n) in
    return (Option.value v ~default:(-1))
  in
  (memory, body)

let test_crash_at () =
  let memory = Memory.create () in
  let r = Memory.alloc memory in
  let body ~pid ~rng:_ =
    let open Program in
    if pid = 0 then
      let* () = write r 1 in
      return 1
    else
      let* v = read r in
      return (Option.value v ~default:0)
  in
  let result =
    Scheduler.run ~n:2
      ~adversary:Adversary.round_robin
      ~rng:(Rng.create 1) ~memory
      ~faults:(Conrat_faults.Injector.crash_at ~step:0 ~pid:0)
      body
  in
  checkb "p0 crashed" true result.Scheduler.crashed.(0);
  checkb "p0 produced no output" true (result.Scheduler.outputs.(0) = None);
  checkb "run completed" true result.Scheduler.completed;
  (* p0 crashed before its write landed, so p1 read the default *)
  checkb "p1 saw no write" true (result.Scheduler.outputs.(1) = Some 0)

let count_crashed crashed =
  Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crashed

let test_crashing_respects_budget () =
  (* rate 1.0 wants a crash at every step; the budget caps it at f. *)
  for seed = 0 to 9 do
    let memory, body = write_then_read ~n:3 () in
    let result =
      Scheduler.run ~n:3
        ~adversary:Adversary.random_uniform
        ~rng:(Rng.create seed) ~memory
        ~faults:(Conrat_faults.Injector.crashing ~rate:1.0 ~f:2 ())
        body
    in
    checkb "completed" true result.Scheduler.completed;
    checkb "crashes within budget" true
      (count_crashed result.Scheduler.crashed <= 2);
    checkb "rate 1.0 crashes someone" true
      (count_crashed result.Scheduler.crashed > 0)
  done

let test_byzantine_reads_deliver_stale () =
  (* A weak register read with rate 1.0 must deliver the pre-write
     state: the process observes the register as if its own write had
     not happened yet. *)
  let memory = Memory.create () in
  let r = Memory.alloc memory in
  Memory.weaken_all memory;
  let body ~pid:_ ~rng:_ =
    let open Program in
    let* () = write r 5 in
    let* v = read r in
    return (match v with Some x -> x | None -> -1)
  in
  let result =
    Scheduler.run ~n:1
      ~adversary:Adversary.round_robin
      ~rng:(Rng.create 3) ~memory
      ~faults:(Conrat_faults.Injector.byzantine_reads ~rate:1.0 ())
      body
  in
  checkb "stale read observed the pre-write state" true
    (result.Scheduler.outputs.(0) = Some (-1))

let test_byzantine_reads_ignore_strong_registers () =
  (* Without Memory.weaken_all the same plan must change nothing. *)
  let memory = Memory.create () in
  let r = Memory.alloc memory in
  let body ~pid:_ ~rng:_ =
    let open Program in
    let* () = write r 5 in
    let* v = read r in
    return (match v with Some x -> x | None -> -1)
  in
  let result =
    Scheduler.run ~n:1
      ~adversary:Adversary.round_robin
      ~rng:(Rng.create 3) ~memory
      ~faults:(Conrat_faults.Injector.byzantine_reads ~rate:1.0 ())
      body
  in
  checkb "strong register reads stay fresh" true
    (result.Scheduler.outputs.(0) = Some 5)

let test_fault_free_streams_unperturbed () =
  (* Installing no plan must reproduce historical executions exactly:
     same outputs, same step count for the same seed. *)
  let run faults =
    let memory, body = write_then_read ~n:3 () in
    Scheduler.run ~n:3
      ~adversary:Adversary.random_uniform
      ~rng:(Rng.create 11) ~memory ?faults body
  in
  let a = run None in
  let b = run None in
  checkb "same outputs" true (a.Scheduler.outputs = b.Scheduler.outputs);
  checki "same steps" a.Scheduler.steps b.Scheduler.steps

let test_recover_at () =
  (* Crash p0 before its write lands, restart it two steps later: the
     restarted process re-enters at its main root (no declared recover
     continuation), redoes the write and finishes. *)
  let memory, body = write_then_read ~n:2 () in
  Memory.track_writers memory;
  let result =
    Scheduler.run ~n:2
      ~adversary:Adversary.round_robin
      ~rng:(Rng.create 1) ~memory
      ~faults:
        (Conrat_faults.Injector.mix
           [ Conrat_faults.Injector.crash_at ~step:0 ~pid:0;
             Conrat_faults.Injector.recover_at ~step:2 ~pid:0 ])
      body
  in
  checkb "run completed" true result.Scheduler.completed;
  checki "one recovery fired" 1 result.Scheduler.recoveries;
  checkb "p0 is live again" true (not result.Scheduler.crashed.(0));
  checki "its crash still counts" 1 result.Scheduler.crashes;
  checkb "restarted p0 finished" true (result.Scheduler.outputs.(0) <> None)

let test_invalid_recover_overrides_degrade () =
  (* Recovering a pid that never crashed degrades to a plain step and
     is counted, not honoured. *)
  let memory, body = write_then_read ~n:2 () in
  Memory.track_writers memory;
  let result =
    Scheduler.run ~n:2
      ~adversary:Adversary.round_robin
      ~rng:(Rng.create 1) ~memory
      ~faults:(Conrat_faults.Injector.recover_at ~step:1 ~pid:0)
      body
  in
  checki "no recovery fired" 0 result.Scheduler.recoveries;
  checkb "degradation counted" true (result.Scheduler.plan_ignored >= 1);
  checkb "run completed" true result.Scheduler.completed;
  (* Recovering a genuinely crashed pid over memory without last-writer
     tracking cannot wipe safely: it degrades too (the scheduler guard),
     rather than raising mid-run. *)
  let memory, body = write_then_read ~n:2 () in
  let result =
    Scheduler.run ~n:2
      ~adversary:Adversary.round_robin
      ~rng:(Rng.create 1) ~memory
      ~faults:
        (Conrat_faults.Injector.mix
           [ Conrat_faults.Injector.crash_at ~step:0 ~pid:0;
             Conrat_faults.Injector.recover_at ~step:2 ~pid:0 ])
      body
  in
  checki "untracked memory: no recovery" 0 result.Scheduler.recoveries;
  checkb "untracked memory: p0 stays down" true result.Scheduler.crashed.(0);
  checkb "untracked memory: degradation counted" true
    (result.Scheduler.plan_ignored >= 1)

let test_recovering_respects_budget () =
  (* rate 1.0 wants a restart at every step; the budget caps it at r,
     and anyone who recovered is no longer crashed at the end. *)
  for seed = 0 to 9 do
    let memory, body = write_then_read ~n:3 () in
    Memory.track_writers memory;
    let result =
      Scheduler.run ~n:3
        ~adversary:Adversary.random_uniform
        ~rng:(Rng.create seed) ~memory
        ~faults:
          (Conrat_faults.Injector.mix
             [ Conrat_faults.Injector.crashing ~rate:1.0 ~f:2 ();
               Conrat_faults.Injector.recovering ~rate:1.0 ~r:1 () ])
        body
    in
    checkb "completed" true result.Scheduler.completed;
    checkb "recoveries within budget" true (result.Scheduler.recoveries <= 1)
  done

(* ------------------------------------------------------------------ *)
(* Survivor-aware acceptance                                           *)
(* ------------------------------------------------------------------ *)

let test_acceptance_survivors () =
  let inputs = [| 1; 1 |] in
  checkb "crashed process excused" true
    (Spec.acceptance_survivors ~inputs ~outputs:[| Some (true, 1); None |]
     = Ok ());
  checkb "survivor must still accept" true
    (Result.is_error
       (Spec.acceptance_survivors ~inputs ~outputs:[| Some (false, 1); None |]));
  checkb "all crashed is vacuous" true
    (Spec.acceptance_survivors ~inputs ~outputs:[| None; None |] = Ok ())

(* ------------------------------------------------------------------ *)
(* Engine: fault plumbing, quarantine, cooperative stop                *)
(* ------------------------------------------------------------------ *)

open Conrat_harness

let test_engine_faulted_trials_stay_safe () =
  (* Random crash injection across many seeds: every trial's safety
     check (survivor-aware) passes and at least one crash fires. *)
  let crash_seen = ref 0 in
  for seed = 0 to 99 do
    let o =
      Engine.run_consensus
        ~faults:(Fault.crash_only 1)
        ~n:3
        ~adversary:Adversary.random_uniform
        ~inputs:[| 0; 1; 1 |] ~seed
        (Conrat_core.Consensus.standard ~m:2)
    in
    checkb (Printf.sprintf "seed %d safe under crashes" seed) true
      (o.Engine.safety = Ok ());
    checkb "crash within budget" true (o.Engine.crashes <= 1);
    crash_seen := !crash_seen + o.Engine.crashes
  done;
  checkb "some crash actually fired" true (!crash_seen > 0)

let boom_factory =
  { Conrat_core.Consensus.name = "boom";
    instantiate =
      (fun ~n:_ _memory ->
        { Conrat_core.Consensus.name = "boom";
          space = (fun () -> 0);
          decide =
            (fun ~pid:_ ~rng:_ v ->
              if v = 1 then failwith "boom" else Conrat_sim.Program.return v) }) }

let boom_plan seeds =
  Plan.make ~name:"q"
    [ Plan.spec ~sid:"q"
        ~runner:(Plan.Consensus boom_factory)
        ~adversary:Adversary.round_robin
        ~workload:(Workload.by_name "split_half") ~n:2 ~m:2
        ~seeds:(Plan.seeds seeds) () ]

let test_engine_quarantine () =
  (* split_half always hands some process input 1, so every trial
     raises; with quarantine on, all are recorded and none counted. *)
  let plan = boom_plan 6 in
  let seq = Engine.run_plan ~quarantine:true plan in
  let par = Engine.run_plan ~jobs:2 ~quarantine:true plan in
  checkb "parallel = sequential byte-identity holds" true (seq = par);
  let agg = Engine.get seq "q" in
  checki "every trial quarantined" 6 (List.length agg.Engine.quarantined);
  checki "no quarantined trial counted" 0 agg.Engine.trials;
  checkb "quarantined list is seed-ascending" true
    (let seeds = List.map fst agg.Engine.quarantined in
     seeds = List.sort_uniq compare seeds);
  (* without quarantine the exception surfaces to the caller *)
  match Engine.run_plan plan with
  | _ -> Alcotest.fail "trial exception did not surface without quarantine"
  | exception Failure _ -> ()

let test_engine_stop_flushes_partial () =
  let spec =
    Plan.spec ~sid:"s"
      ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
      ~adversary:Adversary.round_robin
      ~workload:(Workload.by_name "split_half") ~n:2 ~m:2
      ~seeds:(Plan.seeds 20) ()
  in
  let plan = Plan.make ~name:"s" [ spec ] in
  let polls = ref 0 in
  let results =
    Engine.run_plan
      ~stop:(fun () ->
        incr polls;
        !polls > 5)
      plan
  in
  let agg = Engine.get results "s" in
  checkb "stopped early" true (agg.Engine.trials < 20);
  checkb "some trials ran" true (agg.Engine.trials > 0);
  checki "partial aggregate is well-formed" agg.Engine.trials
    (List.length agg.Engine.samples)

exception Seed_failed of int

let test_engine_first_failure_in_plan_order () =
  (* Seeds 7 and 30 raise different exceptions from different chunks at
     jobs 1, 2 and 4 (40 seeds make chunks of 10, 5 and 2).  Seed 30's
     trial raises later in wall time, after seed 7's has, whenever a
     second domain reaches it first; the run must still re-raise seed
     7's. *)
  let raise_at seed delay rng =
    if Rng.state rng = Rng.state (Plan.workload_rng seed) then begin
      Unix.sleepf delay;
      raise (Seed_failed seed)
    end
  in
  let workload =
    { Workload.wname = "raising";
      generate =
        (fun ~n ~m rng ->
          raise_at 7 0.02 rng;
          raise_at 30 0.1 rng;
          Workload.split_half.Workload.generate ~n ~m rng) }
  in
  let plan =
    Plan.make ~name:"f"
      [ Plan.spec ~sid:"f"
          ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
          ~adversary:Adversary.round_robin ~workload ~n:2 ~m:2 ~seeds:(Plan.seeds ~base:0 40) () ]
  in
  List.iter
    (fun jobs ->
      match Engine.run_plan ~jobs plan with
      | _ -> Alcotest.failf "jobs %d: no trial exception surfaced" jobs
      | exception Seed_failed seed ->
        checki (Printf.sprintf "jobs %d re-raises the lower seed's exception" jobs) 7 seed)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [ ( "fault_specs",
        [ QCheck_alcotest.to_alcotest qcheck_fault_spec_roundtrip;
          tc "spec errors" `Quick test_fault_spec_errors ] );
      ( "crash_schedules",
        [ QCheck_alcotest.to_alcotest qcheck_crash_schedules_safe;
          QCheck_alcotest.to_alcotest qcheck_crash_recover_orderings_valid;
          tc "acceptance_survivors" `Quick test_acceptance_survivors ] );
      ( "crash_closed",
        [ tc "registry configs" `Quick test_crash_closed_registry_configs;
          tc "recovery-closed registry configs" `Quick
            test_recovery_closed_registry_configs;
          tc "fault-free unchanged" `Quick test_fault_free_stats_unchanged ] );
      ( "demos_and_fixtures",
        [ tc "await_ack caught+shrunk" `Quick test_await_ack_caught_and_shrunk;
          tc "await_ack fixture" `Quick test_await_ack_fixture_reproduces;
          tc "recovery demo caught+shrunk" `Quick
            test_recovery_demo_caught_and_shrunk;
          tc "recovery fixture" `Quick test_recovery_fixture_reproduces;
          tc "weak fixture" `Quick test_weak_read_fixture_reproduces;
          tc "weak demo caught" `Quick test_weak_demo_caught ] );
      ( "checkpoint",
        [ tc "por resume bit-identical" `Quick
            test_por_checkpoint_resume_bit_identical;
          tc "recovery resume bit-identical" `Quick
            test_recovery_checkpoint_resume_bit_identical;
          tc "corrupt path rejected" `Quick test_resume_rejects_corrupt_path;
          tc "sexp round-trip" `Quick test_checkpoint_sexp_roundtrip;
          tc "resume after every leaf" `Quick test_resume_after_every_leaf ] );
      ( "crash_leaves",
        [ tc "heartbeat sequence pinned" `Quick test_heartbeat_sequence_pinned;
          tc "coverage depth profile pinned" `Quick
            test_coverage_depth_profile_pinned;
          tc "crash/restore allocates nothing" `Quick
            test_crash_restore_allocates_nothing;
          tc "crashed_pids interned" `Quick test_crashed_pids_interned ] );
      ( "injector",
        [ tc "crash_at" `Quick test_crash_at;
          tc "crashing budget" `Quick test_crashing_respects_budget;
          tc "recover_at" `Quick test_recover_at;
          tc "invalid recover degrades" `Quick
            test_invalid_recover_overrides_degrade;
          tc "recovering budget" `Quick test_recovering_respects_budget;
          tc "byzantine stale" `Quick test_byzantine_reads_deliver_stale;
          tc "byzantine strong no-op" `Quick
            test_byzantine_reads_ignore_strong_registers;
          tc "fault-free streams" `Quick test_fault_free_streams_unperturbed ] );
      ( "engine",
        [ tc "faulted trials safe" `Quick test_engine_faulted_trials_stay_safe;
          tc "quarantine" `Quick test_engine_quarantine;
          tc "stop flushes partial" `Quick test_engine_stop_flushes_partial;
          tc "first failure in plan order" `Quick
            test_engine_first_failure_in_plan_order ] ) ]
