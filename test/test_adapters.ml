(* Tests for the §7 adapters: a consensus object satisfies both the
   conciliator and the ratifier specifications. *)

open Conrat_sim
open Conrat_objects
open Conrat_core

let checkb = Alcotest.check Alcotest.bool

let expect_ok label = function
  | Ok () -> ()
  | Error reason -> Alcotest.failf "%s: %s" label reason

let run_object ?(adversary = Adversary.random_uniform) ~n ~inputs ~seed factory =
  let rng = Rng.create seed in
  let memory = Memory.create () in
  let instance = factory.Deciding.instantiate ~n memory in
  Scheduler.run ~n ~adversary ~rng ~memory
    (fun ~pid ~rng ->
      Program.map
        (fun out -> (out.Deciding.decide, out.Deciding.value))
        (instance.Deciding.run ~pid ~rng inputs.(pid)))

(* A consensus object viewed as a conciliator must satisfy the full
   conciliator spec with delta = 1: validity, termination, coherence
   (vacuous: bit 0) and agreement on EVERY execution. *)
let test_conciliator_view_delta_one () =
  for seed = 0 to 29 do
    let n = 5 in
    let inputs = Array.init n (fun pid -> pid mod 3) in
    let result =
      run_object ~n ~inputs ~seed (Adapters.conciliator_of_consensus (Consensus.standard ~m:3))
    in
    checkb "completed" true result.completed;
    expect_ok "validity" (Spec.validity_decided ~inputs ~outputs:result.outputs);
    Array.iter
      (function
        | Some (d, _) -> checkb "decision bit 0" false d
        | None -> Alcotest.fail "missing output")
      result.outputs;
    expect_ok "agreement every time (delta = 1)"
      (Spec.agreement ~outputs:(Array.map (Option.map snd) result.outputs))
  done

(* A consensus object viewed as a ratifier must satisfy acceptance and
   coherence. *)
let test_ratifier_view_spec () =
  for seed = 0 to 29 do
    let n = 5 in
    (* Mixed inputs: coherence must hold (all deciders agree). *)
    let inputs = Array.init n (fun pid -> pid mod 2) in
    let result =
      run_object ~n ~inputs ~seed (Adapters.ratifier_of_consensus (Consensus.standard ~m:2))
    in
    expect_ok "coherence" (Spec.coherence ~outputs:result.outputs);
    expect_ok "validity" (Spec.validity_decided ~inputs ~outputs:result.outputs);
    (* All-equal inputs: acceptance. *)
    let inputs = Array.make n 1 in
    let result =
      run_object ~n ~inputs ~seed (Adapters.ratifier_of_consensus (Consensus.standard ~m:2))
    in
    expect_ok "acceptance" (Spec.acceptance ~inputs ~outputs:result.outputs)
  done

(* The composite with a consensus-as-conciliator decides in one round
   (the delta = 1 corner of the Theorem 5 analysis). *)
let test_one_round_consensus () =
  for seed = 0 to 19 do
    let n = 4 in
    let inputs = Array.init n (fun pid -> pid mod 3) in
    let o =
      Conrat_harness.Engine.run_consensus ~n
        ~adversary:Adversary.write_stalker ~inputs ~seed
        (Adapters.consensus_in_one_round ~m:3 ())
    in
    expect_ok "one-round contract" o.safety
  done

let qcheck_adapters_compose =
  (* Adapters must compose like any deciding object: (ratifier-view;
     anything) never reaches the second object. *)
  QCheck.Test.make ~name:"ratifier view short-circuits composition" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 0 10_000))
    (fun (n, seed) ->
      let entered = ref 0 in
      let probe =
        Deciding.make_factory "probe" (fun ~n:_ _memory ->
          Deciding.instance "probe" ~space:0 (fun ~pid:_ ~rng:_ v ->
            incr entered;
            Program.return { Deciding.decide = false; value = v }))
      in
      let factory =
        Compose.pair_factory
          (Adapters.ratifier_of_consensus (Consensus.standard ~m:2))
          probe
      in
      let inputs = Array.init n (fun pid -> pid mod 2) in
      let result = run_object ~n ~inputs ~seed factory in
      result.completed && !entered = 0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "adapters"
    [ ( "section7",
        [ tc "consensus as conciliator (delta=1)" `Quick test_conciliator_view_delta_one;
          tc "consensus as ratifier" `Quick test_ratifier_view_spec;
          tc "one-round consensus" `Quick test_one_round_consensus;
          QCheck_alcotest.to_alcotest qcheck_adapters_compose ] ) ]
