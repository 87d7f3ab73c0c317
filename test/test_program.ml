(* Tests for the defunctionalized Program core (lib/sim/program.ml) and
   the Machine drivers built on it: programs are copyable (a
   continuation may be resumed repeatedly), the committed §7 fixture
   replays byte-identically through the Machine-based run_path, and
   lazy_seq reports cumulative space.  That the two program engines
   behind Machine agree is test_vm's job. *)

open Conrat_sim
open Conrat_objects
open Conrat_core
open Conrat_verify

let check = Alcotest.check
let checkb msg expected actual = check Alcotest.bool msg expected actual
let checki msg expected actual = check Alcotest.int msg expected actual
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Copyability: the whole point of defunctionalizing                   *)
(* ------------------------------------------------------------------ *)

let test_program_copyable () =
  let memory = Memory.create () in
  let r = Memory.alloc memory in
  let p =
    let open Program in
    let* v = read r in
    return (match v with Some v -> v * 10 | None -> -1)
  in
  match p with
  | Program.Step (Op.Read _, k) ->
    (* Resume the same continuation three times with different observed
       values: each resumption is independent (no one-shot restriction,
       no shared mutable state). *)
    let a = k (Some 5) in
    let b = k (Some 7) in
    let c = k None in
    checki "first resume" 50 (Option.get (Program.result a));
    checki "second resume" 70 (Option.get (Program.result b));
    checki "third resume" (-1) (Option.get (Program.result c));
    (* The original value is untouched by the resumptions. *)
    checkb "original still pending" false (Program.is_done p)
  | _ -> Alcotest.fail "expected the program to block on a read"

let test_protocol_program_copyable () =
  (* A real protocol program: resuming one prefix twice yields two
     independent suffixes.  The binary ratifier's first op is a write;
     resume it twice and check both copies then block on the same next
     operation. *)
  let memory = Memory.create () in
  let instance = (Ratifier.binary ()).Deciding.instantiate ~n:2 memory in
  let p = instance.Deciding.run ~pid:0 ~rng:(Rng.create 0) 1 in
  match p with
  | Program.Step (Op.Write _, k) ->
    let p1 = k () in
    let p2 = k () in
    (match (Program.pending p1, Program.pending p2) with
     | Some op1, Some op2 -> checkb "identical next op" true (op1 = op2)
     | _ -> Alcotest.fail "resumed copies should both be pending")
  | _ -> Alcotest.fail "binary ratifier should start with its announce write"

let config name =
  match Checks.find name with
  | Some c -> c
  | None -> Alcotest.failf "no checker config named %s" name

(* ------------------------------------------------------------------ *)
(* Fixture byte-identity through the Machine-based run_path            *)
(* ------------------------------------------------------------------ *)

let fixture_file = "fixtures/fallback_unstaked_n2.sexp"

(* The committed counterexample was recorded by the pre-Machine
   replay core.  The Machine-based run_path must reproduce the stored
   event trace byte for byte — same schedule, same observed values,
   same landed bits, same serialization. *)
let test_fixture_byte_identical_replay () =
  let a =
    match Artifact.load fixture_file with
    | Ok a -> a
    | Error e -> Alcotest.failf "cannot load %s: %s" fixture_file e
  in
  let c = config a.Artifact.checker in
  let run =
    Explore.run_path ~record:true ~max_depth:a.Artifact.max_depth
      ~cheap_collect:a.Artifact.cheap_collect ~n:a.Artifact.n
      ~setup:(Checks.setup_of c ~n:a.Artifact.n)
      a.Artifact.path
  in
  match (run.Explore.trace, a.Artifact.trace) with
  | Some got, Some want ->
    check Alcotest.string "trace serializes byte-identically"
      (Sexp.to_string (Trace.to_sexp want))
      (Sexp.to_string (Trace.to_sexp got))
  | None, _ -> Alcotest.fail "run_path did not record a trace"
  | _, None -> Alcotest.fail "fixture has no stored trace"

(* ------------------------------------------------------------------ *)
(* lazy_seq space accounting                                           *)
(* ------------------------------------------------------------------ *)

let test_lazy_seq_space_accumulates () =
  (* Four stages of 2 registers each are instantiated before the
     decision at stage 3: the composite's space must be the cumulative
     8, not the historical 0. *)
  let nth i =
    Deciding.make_factory
      (Printf.sprintf "stage%d" i)
      (fun ~n:_ memory ->
        ignore (Memory.alloc_n memory 2);
        Deciding.instance "stage" ~space:2 (fun ~pid:_ ~rng:_ v ->
          Program.return
            (if i >= 3 then { Deciding.decide = true; value = v }
             else { Deciding.decide = false; value = v + 1 })))
  in
  let factory = Compose.lazy_seq "lazy" nth in
  let memory = Memory.create () in
  let instance = factory.Deciding.instantiate ~n:2 memory in
  checki "no stages instantiated yet" 0 instance.Deciding.space;
  let result =
    Scheduler.run ~n:2 ~adversary:Adversary.round_robin ~rng:(Rng.create 3)
      ~memory
      (fun ~pid ~rng ->
        Program.map (fun o -> o.Deciding.value) (instance.Deciding.run ~pid ~rng 0))
  in
  checkb "completed" true result.completed;
  checki "cumulative space of four stages" 8 instance.Deciding.space

let () =
  Alcotest.run "program"
    [ ( "copyability",
        [ tc "continuations resume repeatedly" `Quick test_program_copyable;
          tc "protocol prefix resumes twice" `Quick
            test_protocol_program_copyable ] );
      ( "fixture",
        [ tc "byte-identical replay" `Quick test_fixture_byte_identical_replay ] );
      ( "lazy_seq",
        [ tc "space accumulates" `Quick test_lazy_seq_space_accumulates ] ) ]
