(* Tests for the plan/engine layers: the aggregate merge monoid, the
   parallel == sequential determinism contract, and one-spec runs. *)

open Conrat_harness

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Aggregate merge: commutative monoid with identity empty_aggregate   *)
(* ------------------------------------------------------------------ *)

(* A random aggregate built the way the engine builds them: as a merge
   of per-seed singletons. *)
let aggregate_gen =
  QCheck.Gen.(
    let outcome_gen =
      map3
        (fun seed (total, indiv) (agreed, fail) ->
          let o : Engine.outcome =
            { inputs = [| 0 |];
              outputs = [| Some 0 |];
              agreed;
              safety = (if fail then Error "synthetic violation" else Ok ());
              completed = true;
              crashes = 0;
              recoveries = 0;
              plan_ignored = 0;
              total_work = total;
              individual_work = indiv;
              steps = total;
              registers = 1 + (total mod 7);
              stage_work =
                (* Varying stage keys so the merge laws cover the
                   stage-work union-combine too. *)
                (match total mod 3 with
                 | 0 -> []
                 | 1 -> [ ("alpha", (total, indiv)) ]
                 | _ -> [ ("alpha", (total, indiv)); ("beta", (1, 1)) ]) }
          in
          Engine.of_outcome ~seed ~probe:(total mod 3) o)
        (int_bound 1000)
        (pair (int_bound 500) (int_bound 50))
        (pair bool bool)
    in
    map
      (List.fold_left Engine.merge Engine.empty_aggregate)
      (list_size (int_bound 12) outcome_gen))

let aggregate_arb =
  QCheck.make aggregate_gen
    ~print:(fun (a : Engine.aggregate) ->
      Printf.sprintf "{trials=%d; agreements=%d; samples=%d; failures=%d}"
        a.Engine.trials a.Engine.agreements
        (List.length a.Engine.samples) (List.length a.Engine.failures))

let merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:200
    (QCheck.pair aggregate_arb aggregate_arb)
    (fun (a, b) -> Engine.merge a b = Engine.merge b a)

let merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:200
    (QCheck.triple aggregate_arb aggregate_arb aggregate_arb)
    (fun (a, b, c) ->
      Engine.merge a (Engine.merge b c) = Engine.merge (Engine.merge a b) c)

let merge_identity =
  QCheck.Test.make ~name:"merge identity" ~count:200 aggregate_arb (fun a ->
    Engine.merge a Engine.empty_aggregate = a
    && Engine.merge Engine.empty_aggregate a = a)

let test_merge_counts () =
  let o agreed seed : Engine.aggregate =
    Engine.of_outcome ~seed ~probe:2
      { inputs = [| 0 |]; outputs = [| Some 0 |]; agreed; safety = Ok ();
        completed = true; crashes = 0; recoveries = 0; plan_ignored = 0;
        total_work = 10 * seed; individual_work = seed; steps = 10 * seed;
        registers = seed; stage_work = [] }
  in
  let m = Engine.merge (o true 3) (Engine.merge (o false 1) (o true 2)) in
  checki "trials" 3 m.Engine.trials;
  checki "agreements" 2 m.Engine.agreements;
  checki "space is max" 3 m.Engine.space;
  checki "probe sums" 6 m.Engine.probe_total;
  Alcotest.check Alcotest.(list int) "samples seed-ascending" [ 1; 2; 3 ]
    (List.map (fun s -> s.Engine.s_seed) m.Engine.samples);
  Alcotest.check Alcotest.(list int) "works follow seeds" [ 10; 20; 30 ]
    (Engine.total_works m)

(* ------------------------------------------------------------------ *)
(* Parallel == sequential                                              *)
(* ------------------------------------------------------------------ *)

let small_plan () =
  Plan.make ~name:"test"
    [ Plan.spec ~sid:"consensus"
        ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
        ~adversary:Conrat_sim.Adversary.random_uniform ~workload:Workload.split_half
        ~n:4 ~m:2 ~seeds:(Plan.seeds 30) ();
      Plan.spec ~sid:"conciliator"
        ~runner:(Plan.Deciding (Conrat_core.Conciliator.impatient_first_mover ()))
        ~adversary:Conrat_sim.Adversary.write_stalker ~workload:Workload.alternating
        ~n:8 ~m:8 ~seeds:(Plan.seeds 40) ();
      Plan.spec ~sid:"probed"
        ~runner:
          (Plan.Probed
             (fun () ->
               let entries, counted =
                 Conrat_objects.Deciding.counting
                   (Conrat_core.Conciliator.impatient_first_mover ())
               in
               let protocol =
                 Conrat_core.Consensus.unbounded ~name:"counting"
                   ~conciliator:(fun _ -> counted)
                   ~ratifier:(fun _ -> Conrat_core.Ratifier.binary ())
                   ()
               in
               (protocol, entries)))
        ~adversary:Conrat_sim.Adversary.round_robin ~workload:Workload.split_half
        ~n:4 ~m:2 ~seeds:(Plan.seeds 25) () ]

let test_parallel_matches_sequential () =
  let plan = small_plan () in
  let seq = Engine.run_plan ~jobs:1 plan in
  let par = Engine.run_plan ~jobs:4 plan in
  checkb "identical aggregates" true (seq = par);
  (* and not vacuously: the plan really ran *)
  checki "spec count" 3 (List.length seq);
  checki "trials" 30 (Engine.get seq "consensus").Engine.trials;
  checkb "probe counted" true ((Engine.get seq "probed").Engine.probe_total > 0)

let test_parallel_matches_sequential_experiment () =
  (* A real experiment plan end to end (E10 exercises Probed +
     Consensus specs together). *)
  let plan, _render = Experiments.build ~mode:Experiments.Quick "E10" in
  let seq = Engine.run_plan ~jobs:1 plan in
  let par = Engine.run_plan ~jobs:3 plan in
  checkb "identical aggregates" true (seq = par)

let test_jobs_zero_means_auto () =
  let plan = small_plan () in
  checkb "jobs:0 runs and matches" true
    (Engine.run_plan ~jobs:0 plan = Engine.run_plan ~jobs:1 plan);
  checkb "default_jobs positive" true (Engine.default_jobs () >= 1)

let test_run_trial_is_pure () =
  let spec = List.hd (small_plan ()).Plan.specs in
  checkb "same seed, same aggregate" true
    (Engine.run_trial spec 7 = Engine.run_trial spec 7)

(* ------------------------------------------------------------------ *)
(* One-spec runs: Engine.run_spec                                      *)
(* ------------------------------------------------------------------ *)

let trials ?jobs seeds =
  Engine.run_spec ?jobs
    (Plan.spec ~sid:"trials" ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
       ~adversary:Conrat_sim.Adversary.random_uniform ~workload:Workload.split_half ~n:4
       ~m:2 ~seeds ())

let test_run_spec_jobs_identical () =
  checkb "jobs 1 = jobs 3" true (trials ~jobs:1 (Plan.seeds 30) = trials ~jobs:3 (Plan.seeds 30))

let test_run_spec_sample_order () =
  (* Work samples come back seed-ascending, each equal to a standalone
     run of that seed with the spec's derived inputs. *)
  let agg = trials [ 12; 10; 11 ] in
  checki "trials" 3 agg.Engine.trials;
  let per_seed =
    List.map
      (fun seed ->
        let inputs =
          Workload.split_half.Workload.generate ~n:4 ~m:2 (Plan.workload_rng seed)
        in
        (Engine.run_consensus ~n:4 ~adversary:Conrat_sim.Adversary.random_uniform
           ~inputs ~seed (Conrat_core.Consensus.standard ~m:2)).Engine.total_work)
      [ 10; 11; 12 ]
  in
  Alcotest.check Alcotest.(list int) "seed-ascending totals" per_seed
    (Engine.total_works agg)

(* The engine's chunked, pairwise fold against its definition: the left
   fold of [merge] over every seed's trial, for seed lists in any order
   and with repeats. *)
let run_spec_is_left_fold =
  QCheck.Test.make ~name:"run_spec = left fold of merge" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 60))
    (fun seeds ->
      List.for_all
        (fun (spec : Plan.spec) ->
          let spec = { spec with Plan.seeds } in
          let folded =
            List.fold_left Engine.merge Engine.empty_aggregate
              (List.map (Engine.run_trial spec) seeds)
          in
          Engine.run_spec ~jobs:1 spec = folded && Engine.run_spec ~jobs:3 spec = folded)
        (small_plan ()).Plan.specs)

let test_workload_rng_derivation () =
  (* The CLI and the harness must derive workload inputs identically. *)
  checkb "state matches lxor derivation" true
    (Conrat_sim.Rng.state (Plan.workload_rng 99)
     = Conrat_sim.Rng.state (Conrat_sim.Rng.create (99 lxor 0x5eed)))

(* ------------------------------------------------------------------ *)
(* Plan construction                                                   *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  let spec sid =
    Plan.spec ~sid ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
      ~adversary:Conrat_sim.Adversary.round_robin ~workload:Workload.split_half
      ~n:2 ~m:2 ~seeds:[ 1 ] ()
  in
  Alcotest.check_raises "duplicate sid"
    (Invalid_argument "Plan.make: duplicate spec id \"a\"") (fun () ->
      ignore (Plan.make ~name:"dup" [ spec "a"; spec "a" ]));
  Alcotest.check_raises "empty seeds"
    (Invalid_argument "Plan.spec: empty seed list") (fun () ->
      ignore
        (Plan.spec ~sid:"x" ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
           ~adversary:Conrat_sim.Adversary.round_robin ~workload:Workload.split_half
           ~n:2 ~m:2 ~seeds:[] ()))

let test_all_experiments_build () =
  List.iter
    (fun name ->
      let plan, _render = Experiments.build ~mode:Experiments.Quick name in
      checkb (name ^ " has specs") true (plan.Plan.specs <> []);
      checkb (name ^ " has trials") true (Plan.trial_count plan > 0))
    Experiments.all_names

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [ ( "merge",
        [ qt merge_commutative;
          qt merge_associative;
          qt merge_identity;
          tc "counts/space/probe" `Quick test_merge_counts ] );
      ( "parallel",
        [ tc "plan: jobs 4 = jobs 1" `Quick test_parallel_matches_sequential;
          tc "E10 quick: jobs 3 = jobs 1" `Quick test_parallel_matches_sequential_experiment;
          tc "jobs 0 = auto" `Quick test_jobs_zero_means_auto;
          tc "trial is pure" `Quick test_run_trial_is_pure ] );
      ( "run_spec",
        [ tc "jobs identical" `Quick test_run_spec_jobs_identical;
          tc "sample order" `Quick test_run_spec_sample_order;
          tc "workload rng" `Quick test_workload_rng_derivation;
          qt run_spec_is_left_fold ] );
      ( "plan",
        [ tc "validation" `Quick test_plan_validation;
          tc "all experiments build" `Quick test_all_experiments_build ] ) ]
