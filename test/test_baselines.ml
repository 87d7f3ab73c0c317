(* Tests for the prior-art baselines: CIL racing, the constant-rate
   first mover, and the impatience-schedule ablation conciliators. *)

open Conrat_sim
open Conrat_harness

let expect_ok label = function
  | Ok () -> ()
  | Error reason -> Alcotest.failf "%s: %s" label reason

let run ?(adversary = Adversary.random_uniform) ?max_steps ~n ~inputs ~seed protocol =
  Engine.run_consensus ?max_steps ~n ~adversary ~inputs ~seed protocol

let test_cil_racing_contract () =
  List.iter
    (fun (adversary : Adversary.t) ->
      for seed = 0 to 19 do
        let n = 5 in
        let inputs = Array.init n (fun pid -> pid mod 3) in
        let o =
          run ~adversary ~n ~inputs ~seed ~max_steps:1_000_000
            (Conrat_baselines.Baseline.cil_racing ~m:3)
        in
        expect_ok (Printf.sprintf "cil (%s, seed %d)" adversary.name seed) o.safety
      done)
    (Adversary.all_weak ())

let test_constant_rate_contract () =
  List.iter
    (fun (adversary : Adversary.t) ->
      for seed = 0 to 19 do
        let n = 5 in
        let inputs = Array.init n (fun pid -> pid mod 2) in
        let o =
          run ~adversary ~n ~inputs ~seed
            (Conrat_baselines.Baseline.constant_rate_consensus ~m:2)
        in
        expect_ok (Printf.sprintf "constant_rate (%s, seed %d)" adversary.name seed) o.safety
      done)
    (Adversary.all_weak ())

let test_growth_schedules_contract () =
  List.iter
    (fun growth ->
      for seed = 0 to 14 do
        let o =
          run ~n:4 ~inputs:[| 0; 1; 0; 1 |] ~seed
            (Conrat_baselines.Baseline.growth_rate_consensus ~m:2 ~growth)
        in
        expect_ok "growth schedule" o.safety
      done)
    [ `Double; `Quadruple; `Linear ]

let test_schedule_conciliator_probabilities () =
  (* White-box: the three schedules produce the intended probability
     sequences — checked through observable work on a solo run (a solo
     process loops until its own write lands). *)
  List.iter
    (fun (growth, max_attempts) ->
      (* With n=16: double reaches p=1 at attempt 4, quadruple at 2,
         linear at 15.  A solo process does (attempts+1) reads +
         attempts' writes; bound individual work accordingly. *)
      let factory = Conrat_baselines.Baseline.schedule_conciliator ~growth in
      let worst = ref 0 in
      for seed = 0 to 49 do
        let memory = Memory.create () in
        let instance = factory.Conrat_objects.Deciding.instantiate ~n:16 memory in
        let result =
          Scheduler.run ~n:1 ~adversary:Adversary.round_robin ~rng:(Rng.create seed) ~memory
            (fun ~pid ~rng ->
              Program.map ignore
                (instance.Conrat_objects.Deciding.run ~pid ~rng 0))
        in
        worst := max !worst (Metrics.individual result.metrics)
      done;
      let bound = (2 * (max_attempts + 1)) + 2 in
      if !worst > bound then
        Alcotest.failf "worst %d ops > bound %d" !worst bound)
    [ (`Double, 4); (`Quadruple, 2); (`Linear, 15) ]

let test_baselines_cost_more_individually () =
  (* The headline comparison, as a coarse regression: at n = 64 the
     impatient protocol must beat the constant-rate baseline on
     individual work by at least 2x on average. *)
  let n = 64 in
  let seeds = Plan.seeds 40 in
  let mean_indiv protocol =
    let agg =
      Engine.run_spec
        (Plan.spec ~sid:"trials" ~runner:(Plan.Consensus protocol)
           ~adversary:Adversary.random_uniform ~workload:Workload.split_half ~n ~m:2
           ~seeds ())
    in
    List.iter (fun (seed, reason) -> Alcotest.failf "seed %d: %s" seed reason) agg.failures;
    Stats.mean (List.map float_of_int (Engine.individual_works agg))
  in
  let ours = mean_indiv (Conrat_core.Consensus.standard ~m:2) in
  let cil = mean_indiv (Conrat_baselines.Baseline.cil_racing ~m:2) in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "ours %.1f << cil %.1f" ours cil)
    true
    (ours *. 2.0 < cil)

let qcheck_cil_agreement =
  QCheck.Test.make ~name:"cil racing agreement (random cfg)" ~count:80
    QCheck.(triple (int_range 1 8) (int_range 2 5) (int_range 0 1_000_000))
    (fun (n, m, seed) ->
      let input_rng = Rng.create (seed lxor 3) in
      let inputs = Array.init n (fun _ -> Rng.int input_rng m) in
      let o =
        run ~n ~inputs ~seed ~max_steps:1_000_000
          (Conrat_baselines.Baseline.cil_racing ~m)
      in
      Result.is_ok o.safety)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "baselines"
    [ ( "cil_racing",
        [ tc "contract all adversaries" `Quick test_cil_racing_contract;
          QCheck_alcotest.to_alcotest qcheck_cil_agreement ] );
      ( "constant_rate",
        [ tc "contract all adversaries" `Quick test_constant_rate_contract ] );
      ( "schedules",
        [ tc "growth schedules contract" `Quick test_growth_schedules_contract;
          tc "schedule probabilities" `Quick test_schedule_conciliator_probabilities ] );
      ( "comparison",
        [ tc "sublinear individual work" `Slow test_baselines_cost_more_individually ] ) ]
