(* Exhaustive model-checking tests.

   Naive.explore, the unreduced re-execution enumerator, runs every
   schedule and every probabilistic-write outcome on small instances,
   so the checks in this file are proofs-by-exhaustion of the safety
   properties for those instances — much stronger than sampling.  A
   known-broken ratifier is included to show the explorer actually
   finds violations. *)

open Conrat_sim
open Conrat_objects
module Naive = Conrat_verify.Naive

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Explorer harness for a deciding object with fixed inputs. *)
let explore_object ?max_depth ?max_runs ?cheap_collect ~n ~inputs ~check factory =
  let dummy_rng = Rng.create 0 in
  Naive.explore ?max_depth ?max_runs ?cheap_collect ~n
    ~setup:(fun () ->
      let memory = Memory.create () in
      let instance = factory.Deciding.instantiate ~n memory in
      let body ~pid =
        Program.map
          (fun out -> (out.Deciding.decide, out.Deciding.value))
          (instance.Deciding.run ~pid ~rng:dummy_rng inputs.(pid))
      in
      (memory, body))
    ~check ()

let weak_consensus_check ~inputs ~complete outputs =
  Spec.all
    [ Spec.validity_decided ~inputs ~outputs;
      Spec.coherence ~outputs;
      (if complete then Spec.acceptance ~inputs ~outputs else Ok ()) ]

let exhaust label result =
  match result with
  | Ok (stats : Naive.stats) ->
    checkb (label ^ ": tree exhausted") true stats.exhausted;
    stats
  | Error (reason, (stats : Naive.stats)) ->
    Alcotest.failf "%s: violation after %d executions: %s" label
      (stats.complete + stats.truncated) reason

(* ------------------------------------------------------------------ *)
(* Explorer self-tests on known trees                                  *)
(* ------------------------------------------------------------------ *)

let test_counts_interleavings () =
  (* Two processes, two deterministic ops each, no coins: the number of
     complete executions is the number of interleavings C(4,2) = 6. *)
  let result =
    Naive.explore ~n:2
      ~setup:(fun () ->
        let memory = Memory.create () in
        let r = Memory.alloc_n memory 2 in
        let body ~pid =
          let open Program in
          let* () = write r.(pid) 1 in
          let* () = write r.(pid) 2 in
          return 0
        in
        (memory, body))
      ~check:(fun ~complete:_ _ -> Ok ())
      ()
  in
  match result with
  | Ok stats ->
    checki "C(4,2) interleavings" 6 stats.Naive.complete;
    checki "no truncation" 0 stats.Naive.truncated;
    checkb "exhausted" true stats.Naive.exhausted
  | Error (reason, _) -> Alcotest.fail reason

let test_counts_coin_branches () =
  (* One process, two probabilistic writes with 0 < p < 1: 4 leaves. *)
  let result =
    Naive.explore ~n:1
      ~setup:(fun () ->
        let memory = Memory.create () in
        let r = Memory.alloc memory in
        let body ~pid:_ =
          let open Program in
          let* () = prob_write r 1 ~p:0.5 in
          let* () = prob_write r 2 ~p:0.5 in
          return 0
        in
        (memory, body))
      ~check:(fun ~complete:_ _ -> Ok ())
      ()
  in
  match result with
  | Ok stats -> checki "2x2 coin outcomes" 4 stats.Naive.complete
  | Error (reason, _) -> Alcotest.fail reason

let test_deterministic_probs_do_not_branch () =
  (* p = 0 and p = 1 are deterministic: a single execution. *)
  let result =
    Naive.explore ~n:1
      ~setup:(fun () ->
        let memory = Memory.create () in
        let r = Memory.alloc memory in
        let body ~pid:_ =
          let open Program in
          let* () = prob_write r 1 ~p:1.0 in
          let* () = prob_write r 2 ~p:0.0 in
          let+ v = read r in
          match v with Some v -> v | None -> -1
        in
        (memory, body))
      ~check:(fun ~complete:_ outputs ->
        if outputs.(0) = Some 1 then Ok () else Error "p=1 write lost or p=0 write landed")
      ()
  in
  match result with
  | Ok stats -> checki "single execution" 1 stats.Naive.complete
  | Error (reason, _) -> Alcotest.fail reason

let test_finds_planted_violation () =
  (* A deliberately broken "ratifier" that decides without checking a
     read quorum: the explorer must find the interleaving where two
     processes decide differently. *)
  let broken =
    Deciding.make_factory "broken" (fun ~n:_ memory ->
      let proposal = Memory.alloc memory in
      Deciding.instance "broken" ~space:1 (fun ~pid:_ ~rng:_ v ->
        let open Program in
        let* u = read proposal in
        let+ preference =
          match u with
          | Some u -> return u
          | None ->
            let+ () = write proposal v in
            v
        in
        { Deciding.decide = true; value = preference }))
  in
  let inputs = [| 0; 1 |] in
  let result =
    explore_object ~n:2 ~inputs
      ~check:(fun ~complete outputs -> weak_consensus_check ~inputs ~complete outputs)
      broken
  in
  match result with
  | Ok _ -> Alcotest.fail "explorer missed the planted coherence violation"
  | Error (reason, _) ->
    checkb "reports coherence" true
      (String.length reason >= 9 && String.sub reason 0 9 = "coherence")

let test_truncation_reported () =
  (* An infinite loop gets cut at max_depth and counted as truncated. *)
  let result =
    Naive.explore ~max_depth:20 ~max_runs:5 ~n:1
      ~setup:(fun () ->
        let memory = Memory.create () in
        let r = Memory.alloc memory in
        let body ~pid:_ =
          let open Program in
          let rec spin () =
            let* v = read r in
            match v with None -> spin () | Some v -> return v
          in
          spin ()
        in
        (memory, body))
      ~check:(fun ~complete outputs ->
        if complete || outputs.(0) <> None then Error "spin cannot finish" else Ok ())
      ()
  in
  match result with
  | Ok stats ->
    checki "no complete executions" 0 stats.Naive.complete;
    checkb "truncations counted" true (stats.Naive.truncated >= 1)
  | Error (reason, _) -> Alcotest.fail reason

(* ------------------------------------------------------------------ *)
(* Exhaustive safety proofs for the paper's objects (small instances)  *)
(* ------------------------------------------------------------------ *)

let test_binary_ratifier_exhaustive_n2 () =
  (* Every interleaving of the 3-register binary ratifier with
     conflicting inputs: validity + coherence, and nobody may decide 1
     while a conflicting announce is complete...  coherence covers it. *)
  let inputs = [| 0; 1 |] in
  let stats =
    exhaust "binary ratifier n=2"
      (explore_object ~n:2 ~inputs
         ~check:(fun ~complete outputs -> weak_consensus_check ~inputs ~complete outputs)
         (Conrat_core.Ratifier.binary ()))
  in
  checkb "explored many interleavings" true (stats.Naive.complete >= 50)

let test_binary_ratifier_exhaustive_n3 () =
  let inputs = [| 0; 1; 0 |] in
  ignore
    (exhaust "binary ratifier n=3"
       (explore_object ~n:3 ~inputs
          ~check:(fun ~complete outputs -> weak_consensus_check ~inputs ~complete outputs)
          (Conrat_core.Ratifier.binary ())))

let test_binary_ratifier_acceptance_exhaustive () =
  let inputs = [| 1; 1; 1 |] in
  ignore
    (exhaust "binary ratifier acceptance n=3"
       (explore_object ~n:3 ~inputs
          ~check:(fun ~complete outputs -> weak_consensus_check ~inputs ~complete outputs)
          (Conrat_core.Ratifier.binary ())))

let test_mvalued_ratifier_exhaustive () =
  (* Bollobás ratifier, m = 3, three conflicting processes. *)
  let inputs = [| 0; 1; 2 |] in
  ignore
    (exhaust "bollobas ratifier n=3 m=3"
       (explore_object ~max_runs:5_000_000 ~n:3 ~inputs
          ~check:(fun ~complete outputs -> weak_consensus_check ~inputs ~complete outputs)
          (Conrat_core.Ratifier.bollobas ~m:3)))

let test_cheap_collect_ratifier_exhaustive () =
  let inputs = [| 0; 1 |] in
  ignore
    (exhaust "cheap-collect ratifier n=2 m=3"
       (explore_object ~cheap_collect:true ~n:2 ~inputs
          ~check:(fun ~complete outputs -> weak_consensus_check ~inputs ~complete outputs)
          (Conrat_core.Ratifier.cheap_collect ~m:3)))

let test_conciliator_exhaustive () =
  (* The impatient conciliator for n=2: every schedule and every coin
     outcome (first write has p=1/2, then p=1).  The second write always
     lands, so no schedule livelocks: the tree is finite and every path
     completes well inside the depth bound.  Validity must hold on every
     path. *)
  let inputs = [| 0; 1 |] in
  let stats =
    exhaust "impatient conciliator n=2"
      (explore_object ~max_depth:60 ~n:2 ~inputs
         ~check:(fun ~complete:_ outputs ->
           Spec.all
             [ Spec.validity_decided ~inputs ~outputs;
               Spec.coherence ~outputs ])
         (Conrat_core.Conciliator.impatient_first_mover ()))
  in
  checki "complete executions" 276 stats.Naive.complete;
  checki "no truncated executions" 0 stats.Naive.truncated

let test_fallback_exhaustive_n2 () =
  (* The racing fallback, n = 2, conflicting inputs: agreement +
     validity among deciders on every (possibly truncated) path.  The
     tree up to depth 28 is explored completely; deeper prefixes are
     covered up to the run budget.  An earlier version of the fallback
     (decide without the candidate phase) fails this test after 13
     executions — the explorer found a real stale-decision agreement
     violation. *)
  let inputs = [| 0; 1 |] in
  let result =
    explore_object ~max_depth:28 ~max_runs:600_000 ~n:2 ~inputs
      ~check:(fun ~complete:_ outputs ->
        Spec.all
          [ Spec.validity_decided ~inputs ~outputs;
            Spec.coherence ~outputs;
            Spec.agreement ~outputs:(Array.map (Option.map snd) outputs) ])
      (Conrat_core.Fallback.racing ~m:2 ())
  in
  match result with
  | Ok stats -> checkb "explored a large tree" true (stats.Naive.complete >= 1000)
  | Error (reason, _) -> Alcotest.failf "racing fallback n=2: %s" reason

let test_composition_exhaustive () =
  (* One full conciliator+ratifier round, n=2: weak-consensus safety on
     every path of the composite (Corollary 4, by exhaustion). *)
  let inputs = [| 0; 1 |] in
  let factory =
    Compose.seq_factory
      [ Conrat_core.Conciliator.impatient_first_mover ();
        Conrat_core.Ratifier.binary () ]
  in
  ignore
    (exhaust "C;R composite n=2"
       (explore_object ~max_depth:60 ~max_runs:5_000_000 ~n:2 ~inputs
          ~check:(fun ~complete:_ outputs ->
            Spec.all [ Spec.validity_decided ~inputs ~outputs; Spec.coherence ~outputs ])
          factory))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "explore"
    [ ( "explorer",
        [ tc "counts interleavings" `Quick test_counts_interleavings;
          tc "counts coin branches" `Quick test_counts_coin_branches;
          tc "deterministic probs" `Quick test_deterministic_probs_do_not_branch;
          tc "finds planted violation" `Quick test_finds_planted_violation;
          tc "truncation reported" `Quick test_truncation_reported ] );
      ( "exhaustive_proofs",
        [ tc "binary ratifier n=2" `Quick test_binary_ratifier_exhaustive_n2;
          tc "binary ratifier n=3" `Slow test_binary_ratifier_exhaustive_n3;
          tc "binary ratifier acceptance n=3" `Slow test_binary_ratifier_acceptance_exhaustive;
          tc "bollobas ratifier n=3 m=3" `Slow test_mvalued_ratifier_exhaustive;
          tc "cheap-collect ratifier" `Quick test_cheap_collect_ratifier_exhaustive;
          tc "impatient conciliator n=2" `Slow test_conciliator_exhaustive;
          tc "racing fallback n=2" `Slow test_fallback_exhaustive_n2;
          tc "composite C;R n=2" `Slow test_composition_exhaustive ] ) ]
