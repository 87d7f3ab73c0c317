(* Tests for the verification subsystem (lib/verify): the static
   independence relation, sleep-set POR cross-checked against the naive
   enumerator, the delta-debugging shrinker, and replayable
   counterexample artifacts — including the committed §7 fixture, which
   must still fail against the historical buggy decision rule and pass
   against the shipped protocol. *)

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
(* S-expressions                                                       *)
(* ------------------------------------------------------------------ *)

let test_sexp_roundtrip () =
  let samples =
    [ Sexp.Atom "x";
      Sexp.atom "needs quoting";
      Sexp.atom "par(en)s and \"quotes\"";
      Sexp.atom "";
      Sexp.List [];
      Sexp.List
        [ Sexp.Atom "counterexample"; Sexp.of_int (-3); Sexp.of_bool true;
          Sexp.List [ Sexp.of_float 0.5; Sexp.Atom "y" ] ] ]
  in
  List.iter
    (fun s ->
      match Sexp.of_string (Sexp.to_string s) with
      | Ok s' -> checkb ("roundtrip " ^ Sexp.to_string s) true (s = s')
      | Error e -> Alcotest.failf "parse error on %s: %s" (Sexp.to_string s) e)
    samples;
  (match Sexp.of_string "(a b) trailing" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Sexp.of_string "; comment\n (a ;inline\n b)" with
  | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ]) -> ()
  | Ok s -> Alcotest.failf "comment parse: got %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "comment parse: %s" e

let test_op_sexp_roundtrip () =
  let ops =
    [ Op.Any (Op.Read 3);
      Op.Any (Op.Write (0, -7));
      Op.Any (Op.Prob_write (2, 5, 0.25));
      Op.Any (Op.Prob_write_detect (1, 0, 0.5));
      Op.Any (Op.Collect (4, 3)) ]
  in
  List.iter
    (fun op ->
      match Op.of_sexp (Op.to_sexp op) with
      | Ok op' -> checkb "op roundtrip" true (op = op')
      | Error e -> Alcotest.failf "op roundtrip: %s" e)
    ops

(* ------------------------------------------------------------------ *)
(* Independence                                                        *)
(* ------------------------------------------------------------------ *)

let test_independence () =
  let indep a b = Independence.independent a b in
  let r l = Op.Any (Op.Read l) in
  let w l = Op.Any (Op.Write (l, 1)) in
  let pw l = Op.Any (Op.Prob_write (l, 1, 0.5)) in
  let c l len = Op.Any (Op.Collect (l, len)) in
  checkb "reads commute (same reg)" true (indep (r 0) (r 0));
  checkb "distinct regs commute" true (indep (w 0) (w 1));
  checkb "read/write same reg conflict" false (indep (r 0) (w 0));
  checkb "write/write same reg conflict" false (indep (w 2) (w 2));
  checkb "prob-write is a writer" false (indep (pw 1) (r 1));
  checkb "prob-write distinct reg" true (indep (pw 1) (w 0));
  checkb "collect spans its range" false (indep (c 0 3) (w 2));
  checkb "collect past its range" true (indep (c 0 3) (w 3));
  checkb "collect vs reads commute" true (indep (c 0 3) (r 1));
  (* Symmetry on a small op sample. *)
  let sample = [ r 0; r 2; w 0; w 2; pw 1; c 0 2 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b -> checkb "independence symmetric" (indep a b) (indep b a))
        sample)
    sample

(* ------------------------------------------------------------------ *)
(* POR vs naive enumeration                                            *)
(* ------------------------------------------------------------------ *)

(* On every pre-existing exhaustive config the two engines must report
   the same complete-execution outcome set while POR explores strictly
   fewer executions.  These are the soundness cross-checks ISSUE'd for
   the reduction. *)
let cross_check_names =
  [ "binary_ratifier_n2"; "binary_ratifier_n3"; "binary_ratifier_accept_n3";
    "bollobas_ratifier_n3_m3"; "cheap_collect_ratifier_n2"; "conciliator_n2";
    "composite_n2" ]

let test_cross_check name () =
  let c = config name in
  match Checks.cross_check c with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok x ->
    checkb (name ^ ": outcome sets agree") true x.Checks.outcomes_agree;
    checkb (name ^ ": naive exhausted") true x.naive.Naive.exhausted;
    checkb (name ^ ": por exhausted") true x.por.Por.exhausted;
    checkb
      (Printf.sprintf "%s: strictly fewer executions (por %d vs naive %d)" name
         (Por.explored x.por) (x.naive.Naive.complete + x.naive.truncated))
      true
      (Por.explored x.por < x.naive.Naive.complete + x.naive.truncated);
    checkb (name ^ ": at least one outcome") true (x.outcome_count > 0)

(* Only the POR side of a cross-check takes [jobs]; the naive oracle
   runs sequentially either way, so the report is [jobs]-invariant. *)
let test_cross_check_jobs () =
  let c = config "binary_ratifier_n3_f1" in
  match (Checks.cross_check ~jobs:1 c, Checks.cross_check ~jobs:2 c) with
  | Ok x1, Ok x2 ->
    checkb "naive stats equal" true (x1.Checks.naive = x2.Checks.naive);
    checkb "por stats equal" true (x1.por = x2.por);
    checki "outcome count equal" x1.outcome_count x2.outcome_count;
    checkb "outcome sets agree at jobs 1" true x1.outcomes_agree;
    checkb "outcome sets agree at jobs 2" true x2.outcomes_agree;
    checkb "engines agree at jobs 1" true x1.engines_agree;
    checkb "engines agree at jobs 2" true x2.engines_agree
  | Error e, _ | _, Error e -> Alcotest.failf "binary_ratifier_n3_f1: %s" e

(* A hand-sized sanity check of the sleep sets themselves: two processes
   touching disjoint registers have C(4,2) = 6 naive interleavings of
   their 2+2 writes but only one Mazurkiewicz class, so POR must run
   exactly one complete execution. *)
let test_por_disjoint_writers () =
  let setup () =
    let memory = Memory.create () in
    let regs = Memory.alloc_n memory 2 in
    let body ~pid =
      let open Program in
      let* () = write regs.(pid) 1 in
      let* () = write regs.(pid) 2 in
      return pid
    in
    (memory, body)
  in
  let check ~complete:_ _ = Ok () in
  (match Naive.explore ~n:2 ~setup ~check () with
   | Ok s ->
     checki "naive interleavings" 6 s.Naive.complete;
     checkb "naive exhausted" true s.exhausted
   | Error _ -> Alcotest.fail "naive found a violation");
  match Por.explore ~n:2 ~setup ~check () with
  | Ok s ->
    checki "por complete executions" 1 s.Por.complete;
    checkb "por exhausted" true s.exhausted
  | Error _ -> Alcotest.fail "por found a violation"

(* Conflicting ops on one register: every schedule is its own class, so
   POR must keep them all (reduction is sound, not over-eager). *)
let test_por_conflicting_writers () =
  let setup () =
    let memory = Memory.create () in
    let reg = Memory.alloc memory in
    let body ~pid =
      let open Program in
      let* () = write reg (pid + 1) in
      let+ v = read reg in
      match v with Some v -> v | None -> -1
    in
    (memory, body)
  in
  let outcomes = Hashtbl.create 16 in
  let note ~complete outputs =
    (* Copy: Por reuses the outputs buffer across leaves. *)
    if complete then Hashtbl.replace outcomes (Array.copy outputs) ();
    Ok ()
  in
  let naive_total =
    match Naive.explore ~n:2 ~setup ~check:note () with
    | Ok s -> s.Naive.complete
    | Error _ -> Alcotest.fail "naive violation"
  in
  let naive_outcomes = Hashtbl.length outcomes in
  Hashtbl.reset outcomes;
  match Por.explore ~n:2 ~setup ~check:note () with
  | Ok s ->
    checkb "por <= naive" true (s.Por.complete <= naive_total);
    checki "same outcome count" naive_outcomes (Hashtbl.length outcomes)
  | Error _ -> Alcotest.fail "por violation"

(* The raised exhaustion bound: binary ratifier at n = 4 was out of
   reach for the naive enumerator's test budget (16.5M executions); POR
   exhausts it in a few thousand. *)
let test_binary_ratifier_n4_exhausts () =
  let c = config "binary_ratifier_n4" in
  match Checks.run c with
  | Ok s ->
    checkb "exhausted" true s.Por.exhausted;
    checki "no truncation" 0 s.truncated;
    checkb "non-trivial" true (s.complete > 1000);
    checkb "pruning happened" true (s.pruned > s.complete)
  | Error f -> Alcotest.failf "binary ratifier n=4: %s" f.Checks.reason

(* The raised fallback bound: depth 28 fully exhausted (the seed suite
   only sampled 600k of > 20M naive executions). *)
let test_fallback_d28_exhausts () =
  let c = config "fallback_n2_d28" in
  match Checks.run c with
  | Ok s ->
    checkb "exhausted" true s.Por.exhausted;
    checkb "non-trivial" true (Por.explored s > 100_000)
  | Error f -> Alcotest.failf "fallback d28: %s" f.Checks.reason

(* ------------------------------------------------------------------ *)
(* Shrinking and artifacts on a planted bug                            *)
(* ------------------------------------------------------------------ *)

(* The §7 hand-found witness took 13 executions to reach; the shrunk
   machine-found schedule must not be longer than that. *)
let section7_witness_length = 13

let test_por_finds_planted_bug () =
  let c = config "fallback_unstaked_n2" in
  match Checks.run c with
  | Ok _ -> Alcotest.fail "unstaked fallback passed: checker is broken"
  | Error f ->
    checkb "found quickly" true (Por.explored f.Checks.stats <= 100);
    let a = f.Checks.artifact in
    checkb
      (Printf.sprintf "shrunk to %d choices (witness: %d)"
         (List.length a.Artifact.path) section7_witness_length)
      true
      (List.length a.Artifact.path <= section7_witness_length);
    checki "shrunk to n=2" 2 a.Artifact.n;
    (* The artifact replays deterministically: same violation. *)
    (match Checks.replay c a with
     | Error _ -> ()
     | Ok () -> Alcotest.fail "shrunk artifact does not reproduce");
    (* And round-trips through its serialized form. *)
    (match Artifact.of_sexp (Artifact.to_sexp a) with
     | Ok a' ->
       checkb "artifact sexp roundtrip" true
         (Sexp.to_string (Artifact.to_sexp a) = Sexp.to_string (Artifact.to_sexp a'))
     | Error e -> Alcotest.failf "artifact roundtrip: %s" e)

let test_shrinker_output_still_fails () =
  let c = config "fallback_unstaked_n2" in
  let target = Checks.target_of c in
  match
    Por.explore ~max_depth:c.Checks.max_depth ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(Checks.check_of c ~n:c.Checks.n) ()
  with
  | Ok _ -> Alcotest.fail "no violation found"
  | Error (_, witness, _) ->
    let count = ref 0 in
    let n, shrunk = Shrink.minimize ~count target ~path:witness () in
    checkb "shrunk path still fails" true (Shrink.failing target ~n shrunk);
    checkb "no longer than the witness" true
      (List.length shrunk <= List.length witness);
    checkb "shrinking replays bounded" true (!count < 10_000)

(* ------------------------------------------------------------------ *)
(* The committed fixture                                               *)
(* ------------------------------------------------------------------ *)

let fixture_file = "fixtures/fallback_unstaked_n2.sexp"

let load_fixture () =
  match Artifact.load fixture_file with
  | Ok a -> a
  | Error e -> Alcotest.failf "cannot load %s: %s" fixture_file e

(* Replaying the fixture against the historical buggy decision rule
   (reintroduced as the racing_unstaked test double) must still exhibit
   the violation; replaying the very same schedule against the shipped
   two-phase protocol must pass.  Together these lock the §7 story: the
   candidate phase is exactly what closes this interleaving. *)
let test_fixture_fails_on_buggy_rule () =
  let a = load_fixture () in
  check Alcotest.string "fixture names the demo config" "fallback_unstaked_n2"
    a.Artifact.checker;
  match Checks.replay (config "fallback_unstaked_n2") a with
  | Error reason ->
    checkb "violation is about safety" true
      (reason = a.Artifact.reason)
  | Ok () -> Alcotest.fail "fixture no longer reproduces on the buggy rule"

let test_fixture_passes_on_shipped_protocol () =
  let a = load_fixture () in
  let fixed =
    { (config "fallback_unstaked_n2") with
      Checks.factory = Conrat_core.Fallback.racing ~m:2 () }
  in
  match Checks.replay fixed a with
  | Ok () -> ()
  | Error reason ->
    Alcotest.failf "shipped protocol fails the fixture schedule: %s" reason

(* An artifact that does not fit its named config is rejected naming
   the field, instead of replaying the config's own inputs, raising
   from [Array.sub], or "not reproducing" under a negative depth. *)
let test_fixture_mismatch_rejected () =
  let a = load_fixture () in
  let c = config "fallback_unstaked_n2" in
  checkb "committed fixture fits" true (Checks.fits c a = Ok ());
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (what, field, mutated) ->
      (match Checks.fits c mutated with
       | Error msg -> checkb (what ^ " names " ^ field) true (contains ~needle:field msg)
       | Ok () -> Alcotest.failf "%s accepted" what);
      match Checks.replay c mutated with
      | exception Invalid_argument msg ->
        checkb (what ^ ": replay names " ^ field) true (contains ~needle:field msg)
      | _ -> Alcotest.failf "%s replayed" what)
    [ ("inputs 0 99", "inputs", { a with Artifact.inputs = [| 0; 99 |] });
      ("n 99", "n =", { a with Artifact.n = 99 });
      ("n -3", "n =", { a with Artifact.n = -3 });
      ("max-depth -1", "max-depth", { a with Artifact.max_depth = -1 }) ]

(* ------------------------------------------------------------------ *)
(* run_path replay compatibility                                       *)
(* ------------------------------------------------------------------ *)

(* Choices beyond a branch point's arity clamp to 0, so a schedule
   recorded against one protocol replays (degraded but deterministic)
   against another — the mechanism behind the two fixture tests above. *)
let test_run_path_clamps () =
  let c = config "binary_ratifier_n2" in
  let run path =
    Explore.run_path ~max_depth:c.Checks.max_depth ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n) path
  in
  let reference = run [ 0; 0; 0 ] in
  let clamped = run [ 99; -3; 0 ] in
  checkb "clamped replay completes" true clamped.Explore.completed;
  checkb "clamped = all-zero schedule" true
    (clamped.Explore.outputs = reference.Explore.outputs)

(* ------------------------------------------------------------------ *)
(* Hostile checkpoints                                                 *)
(* ------------------------------------------------------------------ *)

(* A negative count or branch index would resume to silently wrong
   totals (or a clamped branch): each is rejected naming its field. *)
let test_checkpoint_rejects_negatives () =
  let ck =
    { Checkpoint.engine = "por"; checker = "fallback_n2_d28";
      counts =
        { Checkpoint.path = [ 0; 1; 0 ]; complete = 5; truncated = 7; pruned = 2;
          steps = 40 } }
  in
  List.iter
    (fun (field, counts) ->
      match Checkpoint.of_sexp (Checkpoint.to_sexp { ck with counts }) with
      | Error msg ->
        check Alcotest.string field ("Checkpoint.of_sexp: bad field " ^ field) msg
      | Ok _ -> Alcotest.failf "negative %s accepted" field)
    [ ("path", { ck.counts with path = [ 0; -1; 0 ] });
      ("complete", { ck.counts with complete = -5 });
      ("truncated", { ck.counts with truncated = -1 });
      ("pruned", { ck.counts with pruned = -1 });
      ("steps", { ck.counts with steps = -100_000 }) ]

let () =
  Alcotest.run "conrat verify"
    [ ( "sexp",
        [ tc "roundtrip" `Quick test_sexp_roundtrip;
          tc "op roundtrip" `Quick test_op_sexp_roundtrip ] );
      ("independence", [ tc "relation" `Quick test_independence ]);
      ( "por",
        [ tc "disjoint writers collapse" `Quick test_por_disjoint_writers;
          tc "conflicting writers kept" `Quick test_por_conflicting_writers ]
        @ List.map
            (fun name -> tc ("cross-check " ^ name) `Quick (test_cross_check name))
            cross_check_names
        @ [ tc "binary ratifier n=4 exhausts" `Quick
              test_binary_ratifier_n4_exhausts;
            tc "fallback depth 28 exhausts" `Slow test_fallback_d28_exhausts;
            tc "cross-check jobs 2 = jobs 1" `Quick test_cross_check_jobs ] );
      ( "shrink",
        [ tc "planted bug found and shrunk" `Quick test_por_finds_planted_bug;
          tc "shrunk path still fails" `Quick test_shrinker_output_still_fails ] );
      ( "fixture",
        [ tc "fails on buggy rule" `Quick test_fixture_fails_on_buggy_rule;
          tc "passes on shipped protocol" `Quick
            test_fixture_passes_on_shipped_protocol;
          tc "run_path clamps choices" `Quick test_run_path_clamps;
          tc "mismatched artifact rejected" `Quick test_fixture_mismatch_rejected ] );
      ( "checkpoint",
        [ tc "negative fields rejected" `Quick test_checkpoint_rejects_negatives ] ) ]
