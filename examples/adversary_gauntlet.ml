(* The adversary gauntlet.

   The impatient first-mover conciliator (Theorem 7) guarantees
   agreement with probability >= (1 - e^(-1/4))/4 ~ 0.055 against any
   location-oblivious adversary.  This example runs it against the
   whole adversary zoo — including an adaptive attacker that is outside
   the model — and prints the measured agreement probability for each,
   together with worst-case work.

   Two things to observe in the output: every in-model adversary stays
   comfortably above the bound (most are far above it: the bound is the
   worst case over all adversary strategies, and the analysis is
   conservative), and safety (validity, coherence) never breaks even
   against the adaptive attacker — only the agreement *probability* is
   at risk outside the model.

     dune exec examples/adversary_gauntlet.exe
*)

open Conrat_sim
open Conrat_core
open Conrat_harness

let () =
  let n = 64 in
  let trials = 1500 in
  let factory = Conciliator.impatient_first_mover () in
  Printf.printf
    "Impatient conciliator, n = %d, %d trials per adversary, inputs all distinct.\n"
    n trials;
  Printf.printf "Theorem 7 bound: P[agree] >= %.4f for location-oblivious adversaries.\n"
    Conciliator.delta_impatient;
  let rows =
    List.map
      (fun (adversary, klass) ->
        let agg =
          Engine.run_spec
            (Plan.spec ~sid:"gauntlet" ~runner:(Plan.Deciding factory) ~adversary
               ~workload:Workload.alternating ~n ~m:n ~seeds:(Plan.seeds trials) ())
        in
        let p = float_of_int agg.agreements /. float_of_int agg.trials in
        let lo, hi = Stats.binomial_ci95 ~successes:agg.agreements ~trials:agg.trials in
        [ adversary.Adversary.name;
          klass;
          Printf.sprintf "%.3f" p;
          Printf.sprintf "[%.3f, %.3f]" lo hi;
          string_of_int (List.fold_left max 0 (Engine.individual_works agg));
          string_of_int (List.length agg.failures) ])
      [ (Adversary.round_robin, "oblivious");
        (Adversary.random_uniform, "oblivious");
        (Adversary.fixed_permutation (), "oblivious");
        (Adversary.noisy (), "oblivious+jitter");
        (Adversary.priority (), "priority");
        (Adversary.write_stalker, "value-oblivious");
        (Adversary.overwrite_attacker, "location-oblivious");
        (Adversary.adaptive_overwriter, "ADAPTIVE (out of model)") ]
  in
  Table.print
    ~header:[ "adversary"; "class"; "P[agree]"; "95% CI"; "max indiv work"; "violations" ]
    rows;
  Table.note
    (Printf.sprintf "individual work bound: 2 lg n + 4 = %d operations"
       (Conciliator.max_individual_work ~n))
