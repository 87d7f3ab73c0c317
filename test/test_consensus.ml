(* Tests for the §4 consensus constructions: the unbounded alternation
   with fast path, the bounded construction with fallback, and the
   ratifier-only protocol under restricted schedulers. *)

open Conrat_sim
open Conrat_objects
open Conrat_core
open Conrat_harness

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let expect_ok label = function
  | Ok () -> ()
  | Error reason -> Alcotest.failf "%s: %s" label reason

let run ?(adversary = Adversary.random_uniform) ?max_steps ~n ~inputs ~seed protocol =
  Engine.run_consensus ?max_steps ~n ~adversary ~inputs ~seed protocol

(* ------------------------------------------------------------------ *)
(* The standard protocol: full contract under every adversary          *)
(* ------------------------------------------------------------------ *)

let test_standard_binary_contract () =
  List.iter
    (fun (adversary : Adversary.t) ->
      for seed = 0 to 24 do
        let n = 6 in
        let inputs = Array.init n (fun pid -> pid mod 2) in
        let o = run ~adversary ~n ~inputs ~seed (Consensus.standard ~m:2) in
        expect_ok (Printf.sprintf "contract (%s, seed %d)" adversary.name seed) o.safety
      done)
    (Adversary.all_weak () @ [ Adversary.noisy (); Adversary.priority () ])

let test_standard_mvalued_contract () =
  List.iter
    (fun m ->
      for seed = 0 to 14 do
        let n = 7 in
        let inputs = Array.init n (fun pid -> pid mod m) in
        let o = run ~n ~inputs ~seed (Consensus.standard ~m) in
        expect_ok (Printf.sprintf "m=%d seed=%d" m seed) o.safety
      done)
    [ 2; 3; 5; 16; 40 ]

let test_standard_cheap_collect_contract () =
  (* The cheap-collect variant needs the model opt-in; its ratifier
     costs 4 ops regardless of m. *)
  List.iter
    (fun m ->
      for seed = 0 to 9 do
        let n = 6 in
        let inputs = Array.init n (fun pid -> pid mod m) in
        let o =
          Engine.run_consensus ~cheap_collect:true ~n
            ~adversary:Adversary.random_uniform ~inputs ~seed
            (Consensus.standard_cheap_collect ~m)
        in
        expect_ok (Printf.sprintf "cheap m=%d seed=%d" m seed) o.safety
      done)
    [ 2; 7; 40 ]

let test_standard_cheap_collect_requires_model () =
  (* Without the opt-in the scheduler rejects the collect op. *)
  checkb "raises Collect_disallowed" true
    (try
       ignore
         (Engine.run_consensus ~n:3 ~adversary:Adversary.round_robin
            ~inputs:[| 0; 1; 2 |] ~seed:0 (Consensus.standard_cheap_collect ~m:3));
       false
     with Scheduler.Collect_disallowed -> true)

let test_standard_single_process () =
  let o = run ~n:1 ~inputs:[| 4 |] ~seed:0 (Consensus.standard ~m:5) in
  expect_ok "solo" o.safety;
  Alcotest.check Alcotest.(array (option int)) "solo decides own input" [| Some 4 |] o.outputs

let test_standard_two_processes_all_seeds () =
  (* n=2 is where agreement races are tightest; hammer it. *)
  for seed = 0 to 199 do
    let o = run ~n:2 ~inputs:[| 0; 1 |] ~seed (Consensus.standard ~m:2) in
    expect_ok (Printf.sprintf "seed %d" seed) o.safety
  done

(* Safety against the adaptive attacker: termination is not guaranteed
   out of model, but agreement/validity of whoever decides must hold on
   any partial execution. *)
let test_standard_safety_vs_adaptive () =
  for seed = 0 to 24 do
    let n = 5 in
    let inputs = Array.init n (fun pid -> pid mod 2) in
    let o =
      run ~adversary:Adversary.adaptive_overwriter ~max_steps:200_000 ~n ~inputs ~seed
        (Consensus.standard ~m:2)
    in
    expect_ok "partial agreement" (Spec.agreement ~outputs:o.outputs);
    expect_ok "partial validity" (Spec.validity ~inputs ~outputs:o.outputs)
  done

let test_decided_value_was_contended () =
  (* With a split workload both 0 and 1 are valid; over many seeds both
     must actually win sometimes (no hidden bias to a constant). *)
  let zero_wins = ref 0 in
  let one_wins = ref 0 in
  for seed = 0 to 99 do
    let o = run ~n:4 ~inputs:[| 0; 1; 0; 1 |] ~seed (Consensus.standard ~m:2) in
    match o.outputs.(0) with
    | Some 0 -> incr zero_wins
    | Some 1 -> incr one_wins
    | _ -> Alcotest.fail "no decision"
  done;
  checkb "both values win sometimes" true (!zero_wins > 5 && !one_wins > 5)

(* ------------------------------------------------------------------ *)
(* Fast path (§4.1.1)                                                  *)
(* ------------------------------------------------------------------ *)

let test_fast_path_all_same () =
  (* All-equal inputs: decision in R₋₁/R₀, ≤ 8 ops each, conciliators
     untouched. *)
  let entries, counted = Deciding.counting (Conciliator.impatient_first_mover ()) in
  let protocol =
    Consensus.unbounded ~conciliator:(fun _ -> counted)
      ~ratifier:(fun _ -> Ratifier.binary ()) ()
  in
  for seed = 0 to 19 do
    let n = 6 in
    let inputs = Array.make n 1 in
    let o = run ~n ~inputs ~seed protocol in
    expect_ok "contract" o.safety;
    checkb "indiv <= 8" true (o.individual_work <= 8)
  done;
  checki "conciliator never entered" 0 (entries ())

let test_no_fast_path_still_correct () =
  let protocol =
    Consensus.unbounded ~fast_path:false
      ~conciliator:(fun _ -> Conciliator.impatient_first_mover ())
      ~ratifier:(fun _ -> Ratifier.binary ())
      ()
  in
  for seed = 0 to 19 do
    let inputs = [| 0; 1; 1; 0 |] in
    let o = run ~n:4 ~inputs ~seed protocol in
    expect_ok "contract" o.safety
  done

let test_fast_path_round_indices () =
  (* The alternation must hand round index -1, 0 to ratifiers first,
     then pair i >= 1 as C_i; R_i. *)
  let seen_ratifier = ref [] in
  let seen_conciliator = ref [] in
  let protocol =
    Consensus.unbounded
      ~conciliator:(fun i ->
        seen_conciliator := i :: !seen_conciliator;
        Conciliator.impatient_first_mover ())
      ~ratifier:(fun i ->
        seen_ratifier := i :: !seen_ratifier;
        Ratifier.binary ())
      ()
  in
  let o = run ~n:3 ~inputs:[| 0; 1; 0 |] ~seed:5 protocol in
  expect_ok "contract" o.safety;
  let rats = List.rev !seen_ratifier in
  let cons = List.rev !seen_conciliator in
  checkb "ratifiers start at -1, 0" true
    (List.length rats >= 2 && List.nth rats 0 = -1 && List.nth rats 1 = 0);
  List.iteri (fun idx round -> checki "conciliator rounds 1.." (idx + 1) round) cons

(* ------------------------------------------------------------------ *)
(* Bounded construction (Theorem 5)                                    *)
(* ------------------------------------------------------------------ *)

let test_bounded_contract () =
  List.iter
    (fun rounds ->
      for seed = 0 to 24 do
        let n = 5 in
        let inputs = Array.init n (fun pid -> pid mod 2) in
        let o =
          run ~n ~inputs ~seed ~max_steps:1_000_000
            (Consensus.standard_bounded ~m:2 ~rounds)
        in
        expect_ok (Printf.sprintf "k=%d seed=%d" rounds seed) o.safety
      done)
    [ 0; 1; 2; 5 ]

let test_bounded_space_is_bounded () =
  (* The whole point of Theorem 5: register count independent of how
     long the execution runs.  k rounds of (1-register conciliator +
     3-register binary ratifier... shared proposal) plus prefix plus n
     fallback registers. *)
  let memory = Memory.create () in
  let n = 4 in
  let instance = (Consensus.standard_bounded ~m:2 ~rounds:3).instantiate ~n memory in
  let expected =
    (* R₋₁, R₀: 3 each; 3 × (C=1 + R=3); fallback: n. *)
    3 + 3 + (3 * 4) + n
  in
  checki "registers allocated up front" expected (Memory.size memory);
  (* And running it does not allocate more. *)
  let _ =
    Scheduler.run ~n ~adversary:Adversary.random_uniform ~rng:(Rng.create 3) ~memory
      (fun ~pid ~rng -> instance.Consensus.decide ~pid ~rng (pid mod 2))
  in
  checki "no further allocation" expected (Memory.size memory)

let test_bounded_zero_rounds_is_fallback () =
  (* k=0 with no fast path degenerates to pure fallback — still
     consensus. *)
  let protocol =
    Consensus.bounded ~fast_path:false ~rounds:0
      ~conciliator:(fun _ -> Conciliator.impatient_first_mover ())
      ~ratifier:(fun _ -> Ratifier.binary ())
      ~fallback:(Fallback.racing ~m:2 ())
      ()
  in
  for seed = 0 to 9 do
    let o = run ~n:4 ~inputs:[| 1; 0; 1; 0 |] ~seed ~max_steps:1_000_000 protocol in
    expect_ok "fallback-only" o.safety
  done

(* ------------------------------------------------------------------ *)
(* Ratifier-only construction (§4.2)                                   *)
(* ------------------------------------------------------------------ *)

let test_ratifier_only_under_priority () =
  (* Priority scheduling: the top-priority process runs alone until it
     finishes, so it must decide in R₁ and everyone adopts. *)
  for seed = 0 to 9 do
    let n = 5 in
    let inputs = Array.init n (fun pid -> pid mod 2) in
    let o =
      run ~adversary:(Adversary.priority ()) ~n ~inputs ~seed
        (Consensus.ratifier_only ~ratifier:(fun _ -> Ratifier.binary ()) ())
    in
    expect_ok "priority" o.safety
  done

let test_ratifier_only_under_noisy () =
  (* The noisy scheduler eventually pushes someone ahead (lean-
     consensus, [5]); termination is probabilistic, so allow a generous
     step budget. *)
  for seed = 0 to 9 do
    let n = 4 in
    let inputs = Array.init n (fun pid -> pid mod 2) in
    let o =
      run
        ~adversary:(Adversary.noisy ~jitter:0.8 ())
        ~max_steps:2_000_000 ~n ~inputs ~seed
        (Consensus.ratifier_only ~ratifier:(fun _ -> Ratifier.binary ()) ())
    in
    expect_ok "noisy" o.safety
  done

let test_ratifier_only_safety_under_round_robin () =
  (* Under round robin the ratifier-only protocol may never terminate
     (that is why conciliators exist) — but whoever decides within the
     cap must agree.  Validity/agreement on partial executions. *)
  for seed = 0 to 9 do
    let n = 4 in
    let inputs = Array.init n (fun pid -> pid mod 2) in
    let o =
      run ~adversary:Adversary.round_robin ~max_steps:20_000 ~n ~inputs ~seed
        (Consensus.ratifier_only ~ratifier:(fun _ -> Ratifier.binary ()) ())
    in
    expect_ok "partial agreement" (Spec.agreement ~outputs:o.outputs);
    expect_ok "partial validity" (Spec.validity ~inputs ~outputs:o.outputs)
  done

(* ------------------------------------------------------------------ *)
(* Coin-based consensus (Theorem 6 plumbing end-to-end)                *)
(* ------------------------------------------------------------------ *)

let test_coin_based_consensus () =
  for seed = 0 to 9 do
    let protocol = Consensus.coin_based ~m:2 ~coin:(Conrat_coin.Shared_coin.voting ()) in
    let o = run ~n:4 ~inputs:[| 0; 1; 0; 1 |] ~seed protocol in
    expect_ok "coin-based" o.safety
  done;
  Alcotest.check_raises "m>2 rejected"
    (Invalid_argument "Consensus.coin_based: binary only") (fun () ->
      ignore (Consensus.coin_based ~m:3 ~coin:Conrat_coin.Shared_coin.local_flip))

let test_of_deciding_raises_on_nondeciding () =
  let protocol = Consensus.of_deciding "bad" Deciding.copy_object in
  let memory = Memory.create () in
  let instance = protocol.instantiate ~n:1 memory in
  checkb "raises Failure" true
    (try
       ignore
         (Scheduler.run ~n:1 ~adversary:Adversary.round_robin ~rng:(Rng.create 1) ~memory
            (fun ~pid ~rng -> instance.Consensus.decide ~pid ~rng 0));
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let qcheck_standard_consensus =
  QCheck.Test.make ~name:"standard consensus contract (random cfg)" ~count:200
    QCheck.(quad (int_range 1 9) (int_range 2 12) (int_range 0 1_000_000) (int_range 0 4))
    (fun (n, m, seed, advi) ->
      let adversary = List.nth (Adversary.all_weak ()) advi in
      let input_rng = Rng.create (seed lxor 77) in
      let inputs = Array.init n (fun _ -> Rng.int input_rng m) in
      let o = run ~adversary ~n ~inputs ~seed (Consensus.standard ~m) in
      Result.is_ok o.safety)

let qcheck_bounded_consensus =
  QCheck.Test.make ~name:"bounded consensus contract (random cfg)" ~count:100
    QCheck.(quad (int_range 1 6) (int_range 0 3) (int_range 0 1_000_000) (int_range 0 4))
    (fun (n, rounds, seed, advi) ->
      let adversary = List.nth (Adversary.all_weak ()) advi in
      let inputs = Array.init n (fun pid -> pid mod 2) in
      let o =
        run ~adversary ~n ~inputs ~seed ~max_steps:2_000_000
          (Consensus.standard_bounded ~m:2 ~rounds)
      in
      Result.is_ok o.safety)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "consensus"
    [ ( "standard",
        [ tc "binary contract, all adversaries" `Quick test_standard_binary_contract;
          tc "m-valued contract" `Quick test_standard_mvalued_contract;
          tc "cheap-collect contract" `Quick test_standard_cheap_collect_contract;
          tc "cheap-collect needs model" `Quick test_standard_cheap_collect_requires_model;
          tc "single process" `Quick test_standard_single_process;
          tc "n=2 stress" `Quick test_standard_two_processes_all_seeds;
          tc "safety vs adaptive" `Quick test_standard_safety_vs_adaptive;
          tc "both values can win" `Quick test_decided_value_was_contended;
          QCheck_alcotest.to_alcotest qcheck_standard_consensus ] );
      ( "fast_path",
        [ tc "all same decides in prefix" `Quick test_fast_path_all_same;
          tc "no fast path still correct" `Quick test_no_fast_path_still_correct;
          tc "round indices" `Quick test_fast_path_round_indices ] );
      ( "bounded",
        [ tc "contract" `Quick test_bounded_contract;
          tc "space bounded" `Quick test_bounded_space_is_bounded;
          tc "zero rounds = fallback" `Quick test_bounded_zero_rounds_is_fallback;
          QCheck_alcotest.to_alcotest qcheck_bounded_consensus ] );
      ( "ratifier_only",
        [ tc "priority scheduler" `Quick test_ratifier_only_under_priority;
          tc "noisy scheduler" `Slow test_ratifier_only_under_noisy;
          tc "round robin: safety only" `Quick test_ratifier_only_safety_under_round_robin ] );
      ( "coin_based",
        [ tc "end to end" `Slow test_coin_based_consensus;
          tc "of_deciding guards" `Quick test_of_deciding_raises_on_nondeciding ] ) ]
