(* Tests for the measurement harness: statistics, workloads, the
   Monte-Carlo runner and the table printer. *)

open Conrat_harness

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_mean_variance () =
  checkf "mean" 3.0 (Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  checkf "variance" 2.5 (Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  checkf "singleton variance" 0.0 (Stats.variance [ 7.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
    ignore (Stats.mean []))

let test_quantile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  checkf "median interpolates" 25.0 (Stats.quantile 0.5 xs);
  checkf "min" 10.0 (Stats.quantile 0.0 xs);
  checkf "max" 40.0 (Stats.quantile 1.0 xs);
  checkf "q25" 17.5 (Stats.quantile 0.25 xs)

let test_quantile_unsorted_input () =
  checkf "sorts internally" 25.0 (Stats.quantile 0.5 [ 40.0; 10.0; 30.0; 20.0 ])

let test_summarize () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  checki "count" 8 s.count;
  checkf "mean" 5.0 s.mean;
  checkf "min" 2.0 s.minimum;
  checkf "max" 9.0 s.maximum;
  checkf "median" 4.5 s.median;
  checkb "sd positive" true (s.stddev > 0.0);
  checkb "ci95 positive" true (s.ci95 > 0.0)

let test_of_ints () =
  let s = Stats.of_ints [ 1; 2; 3 ] in
  checkf "int mean" 2.0 s.mean

let test_binomial_ci () =
  let lo, hi = Stats.binomial_ci95 ~successes:50 ~trials:100 in
  checkb "brackets p" true (lo < 0.5 && 0.5 < hi);
  checkb "reasonable width" true (hi -. lo < 0.25);
  let lo0, hi0 = Stats.binomial_ci95 ~successes:0 ~trials:100 in
  checkf "lower edge at 0" 0.0 lo0;
  checkb "nonzero upper" true (hi0 > 0.0 && hi0 < 0.1);
  let lo1, hi1 = Stats.binomial_ci95 ~successes:100 ~trials:100 in
  checkf "upper edge at 1" 1.0 hi1;
  checkb "nonone lower" true (lo1 > 0.9)

let test_linear_fit_exact () =
  let slope, intercept, r2 =
    Stats.linear_fit [ (1.0, 5.0); (2.0, 7.0); (3.0, 9.0) ]
  in
  checkf "slope" 2.0 slope;
  checkf "intercept" 3.0 intercept;
  checkf "r2 perfect" 1.0 r2

let test_linear_fit_noisy () =
  let points = List.init 50 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0 +. (if i mod 2 = 0 then 0.5 else -0.5))) in
  let slope, _, r2 = Stats.linear_fit points in
  checkb "slope near 3" true (abs_float (slope -. 3.0) < 0.05);
  checkb "r2 high" true (r2 > 0.99)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let rng () = Conrat_sim.Rng.create 5

let test_workload_ranges () =
  List.iter
    (fun (wl : Workload.t) ->
      List.iter
        (fun (n, m) ->
          let inputs = wl.generate ~n ~m (rng ()) in
          checki (wl.wname ^ " length") n (Array.length inputs);
          checkb (wl.wname ^ " in range") true
            (Array.for_all (fun v -> v >= 0 && v < m) inputs))
        [ (1, 2); (8, 2); (5, 3); (16, 10) ])
    [ Workload.all_same; Workload.split_half; Workload.alternating; Workload.uniform;
      Workload.zipf () ]

let test_workload_all_same () =
  let inputs = Workload.all_same.generate ~n:6 ~m:4 (rng ()) in
  checkb "constant" true (Array.for_all (fun v -> v = 0) inputs)

let test_workload_split_half () =
  let inputs = Workload.split_half.generate ~n:6 ~m:2 (rng ()) in
  Alcotest.check Alcotest.(array int) "half zeroes" [| 0; 0; 0; 1; 1; 1 |] inputs

let test_workload_alternating () =
  let inputs = Workload.alternating.generate ~n:5 ~m:3 (rng ()) in
  Alcotest.check Alcotest.(array int) "round robin values" [| 0; 1; 2; 0; 1 |] inputs

let test_workload_zipf_skew () =
  let inputs = Workload.(zipf ()).generate ~n:2000 ~m:10 (rng ()) in
  let count v = Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 inputs in
  checkb "head heavier than tail" true (count 0 > 3 * count 9)

let test_workload_by_name () =
  List.iter
    (fun name -> Alcotest.check Alcotest.string "name" name (Workload.by_name name).wname)
    [ "all_same"; "split_half"; "alternating"; "uniform"; "zipf" ];
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Workload.by_name "nope"))

(* ------------------------------------------------------------------ *)
(* Monte-Carlo runner                                                  *)
(* ------------------------------------------------------------------ *)

let test_run_consensus_outcome_fields () =
  let inputs = [| 0; 1; 0; 1 |] in
  let o =
    Engine.run_consensus ~n:4 ~adversary:Conrat_sim.Adversary.random_uniform ~inputs
      ~seed:11 (Conrat_core.Consensus.standard ~m:2)
  in
  checkb "completed" true o.completed;
  checkb "agreed" true o.agreed;
  checkb "safety ok" true (Result.is_ok o.safety);
  checkb "work positive" true (o.total_work > 0);
  checkb "individual <= total" true (o.individual_work <= o.total_work);
  checki "steps = total work" o.total_work o.steps;
  checkb "registers allocated" true (o.registers >= 6)

let test_run_consensus_deterministic () =
  let run () =
    Engine.run_consensus ~n:4 ~adversary:Conrat_sim.Adversary.random_uniform
      ~inputs:[| 0; 1; 0; 1 |] ~seed:42 (Conrat_core.Consensus.standard ~m:2)
  in
  let a = run () in
  let b = run () in
  Alcotest.check Alcotest.(array (option int)) "same outputs" a.outputs b.outputs;
  checki "same work" a.total_work b.total_work

let test_trials_aggregate () =
  let agg =
    Engine.run_spec
      (Plan.spec ~sid:"trials"
         ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
         ~adversary:Conrat_sim.Adversary.random_uniform ~workload:Workload.split_half
         ~n:4 ~m:2 ~seeds:(Plan.seeds 25) ())
  in
  checki "trials" 25 agg.trials;
  checki "all agreed (consensus)" 25 agg.agreements;
  checki "no failures" 0 (List.length agg.failures);
  checki "work samples" 25 (List.length (Engine.total_works agg));
  checkb "space recorded" true (agg.space > 0)

let test_trials_deciding_conciliator () =
  (* A conciliator sometimes disagrees: agreements < trials, but no
     safety failures (validity/coherence hold). *)
  let agg =
    Engine.run_spec
      (Plan.spec ~sid:"trials"
         ~runner:(Plan.Deciding (Conrat_core.Conciliator.impatient_first_mover ()))
         ~adversary:Conrat_sim.Adversary.write_stalker ~workload:Workload.alternating
         ~n:8 ~m:8 ~seeds:(Plan.seeds 60) ())
  in
  checki "no safety failures" 0 (List.length agg.failures);
  checkb "some disagreement happens" true (agg.agreements < agg.trials);
  checkb "some agreement happens" true (agg.agreements > 0)

let test_seeds_generator () =
  Alcotest.check Alcotest.(list int) "default base" [ 424242; 424243; 424244 ]
    (Plan.seeds 3);
  Alcotest.check Alcotest.(list int) "custom base" [ 7; 8 ] (Plan.seeds ~base:7 2)

(* ------------------------------------------------------------------ *)
(* Table printer                                                       *)
(* ------------------------------------------------------------------ *)

let capture f =
  let path = Filename.temp_file "conrat_table" ".txt" in
  let out = open_out path in
  f out;
  close_out out;
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  s

let test_table_alignment () =
  let s =
    capture (fun out ->
      Table.print ~out ~header:[ "name"; "value" ]
        [ [ "alpha"; "1" ]; [ "b"; "12345" ] ])
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  checki "4 lines" 4 (List.length lines);
  (* All lines equal width. *)
  let widths = List.map String.length lines in
  checki "uniform width" 1 (List.sort_uniq compare widths |> List.length)

let test_table_fl () =
  Alcotest.check Alcotest.string "two digits" "3.14" (Table.fl 3.14159);
  Alcotest.check Alcotest.string "four digits" "3.1416" (Table.fl ~digits:4 3.14159)

(* ------------------------------------------------------------------ *)
(* Experiments plumbing                                                *)
(* ------------------------------------------------------------------ *)

let test_experiment_names () =
  checki "ten experiments" 10 (List.length Experiments.all_names);
  Alcotest.check_raises "unknown experiment" Not_found (fun () ->
    Experiments.run "E99")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "harness"
    [ ( "stats",
        [ tc "mean/variance" `Quick test_mean_variance;
          tc "empty mean" `Quick test_mean_empty;
          tc "quantile" `Quick test_quantile;
          tc "quantile unsorted" `Quick test_quantile_unsorted_input;
          tc "summarize" `Quick test_summarize;
          tc "of_ints" `Quick test_of_ints;
          tc "binomial ci" `Quick test_binomial_ci;
          tc "linear fit exact" `Quick test_linear_fit_exact;
          tc "linear fit noisy" `Quick test_linear_fit_noisy ] );
      ( "workload",
        [ tc "ranges" `Quick test_workload_ranges;
          tc "all_same" `Quick test_workload_all_same;
          tc "split_half" `Quick test_workload_split_half;
          tc "alternating" `Quick test_workload_alternating;
          tc "zipf skew" `Quick test_workload_zipf_skew;
          tc "by_name" `Quick test_workload_by_name ] );
      ( "montecarlo",
        [ tc "outcome fields" `Quick test_run_consensus_outcome_fields;
          tc "deterministic" `Quick test_run_consensus_deterministic;
          tc "aggregate" `Quick test_trials_aggregate;
          tc "deciding aggregate" `Quick test_trials_deciding_conciliator;
          tc "seeds" `Quick test_seeds_generator ] );
      ( "table",
        [ tc "alignment" `Quick test_table_alignment;
          tc "fl" `Quick test_table_fl ] );
      ("experiments", [ tc "names" `Quick test_experiment_names ]) ]
