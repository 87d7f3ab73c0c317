open Conrat_sim
open Conrat_objects
open Conrat_core

type mode = Quick | Full

let mode_name = function Quick -> "quick" | Full -> "full"

let delta_bound = Conciliator.delta_impatient

let log2f x = log x /. log 2.0

let log2_ceil n =
  let rec go acc pow = if pow >= n then acc else go (acc + 1) (2 * pow) in
  go 0 1

let powers_of_two ~from ~upto =
  let rec go n acc = if n > upto then List.rev acc else go (2 * n) (n :: acc) in
  go from []

let agreement_cell agreements trials =
  let lo, hi = Stats.binomial_ci95 ~successes:agreements ~trials in
  Printf.sprintf "%.3f [%.3f,%.3f]" (float_of_int agreements /. float_of_int trials) lo hi

let fail_cell failures =
  match failures with
  | [] -> "0"
  | (seed, reason) :: _ ->
    Printf.sprintf "%d! (seed %d: %s)" (List.length failures) seed reason

let mean_of ints = Stats.mean (List.map float_of_int ints)
let max_of ints = List.fold_left max 0 ints

(* Aggregate accessors used by every render function. *)
let totals (a : Engine.aggregate) = Engine.total_works a
let indivs (a : Engine.aggregate) = Engine.individual_works a

(* An experiment is a plan (the trials as data) plus a render function
   over the merged per-spec aggregates.  Building both from one [cells]
   list keeps the parameter grid written exactly once. *)
type built = Plan.t * ((string * Engine.aggregate) list -> unit)

(* ------------------------------------------------------------------ *)
(* E1: Theorem 7 — the impatient first-mover conciliator.              *)
(* ------------------------------------------------------------------ *)

let e1 mode : built =
  let ns, trials_base =
    match mode with
    | Quick -> (powers_of_two ~from:2 ~upto:64, 400)
    | Full -> (powers_of_two ~from:2 ~upto:1024, 3000)
  in
  let adversaries =
    [ Adversary.round_robin; Adversary.write_stalker; Adversary.overwrite_attacker ]
  in
  let cells =
    List.concat_map
      (fun n ->
        (* Scale trials down with n to keep the sweep's total work flat. *)
        let trials = min trials_base (max 300 (50_000 / n)) in
        List.concat_map
          (fun (adversary : Adversary.t) ->
            (* Only the overwrite attacker's choice is O(n) per step:
               it checks every enabled pending write against every
               register, so it sweeps a smaller range.  The stalker's
               choice reads the scheduler's reader count in O(1); it
               keeps the same range so the grid matches the published
               tables. *)
            if adversary.name = "round_robin" || n <= 256 then
              List.map
                (fun detect ->
                  let variant = if detect then "detect" else "plain" in
                  let sid = Printf.sprintf "n%d/%s/%s" n adversary.name variant in
                  (sid, n, adversary, detect, trials))
                [ false; true ]
            else [])
          adversaries)
      ns
  in
  let specs =
    List.map
      (fun (sid, n, adversary, detect, trials) ->
        Plan.spec ~sid
          ~runner:(Plan.Deciding (Conciliator.impatient_first_mover ~detect ()))
          ~adversary ~workload:Workload.alternating ~n ~m:(max 2 n)
          ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E1  Impatient first-mover conciliator (Theorem 7)";
    Table.note
      (Printf.sprintf
         "paper: agreement prob >= %.4f vs any location-oblivious adversary;" delta_bound);
    Table.note "       individual work <= 2 lg n + 4; expected total work <= 6n.";
    let rows =
      List.map
        (fun (sid, n, (adversary : Adversary.t), detect, _) ->
          let agg = Engine.get results sid in
          let bound = Conciliator.max_individual_work ~n in
          let bound = if detect then bound - 2 else bound in
          [ string_of_int n;
            adversary.Adversary.name;
            (if detect then "detect" else "plain");
            agreement_cell agg.Engine.agreements agg.Engine.trials;
            Table.fl delta_bound ~digits:4;
            Table.fl (mean_of (totals agg) /. float_of_int n);
            "6.00";
            string_of_int (max_of (indivs agg));
            string_of_int bound;
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:
        [ "n"; "adversary"; "variant"; "P[agree] (95% CI)"; ">=bound";
          "total/n"; "<=bound"; "max indiv"; "<=bound"; "safety viol" ]
      rows
  in
  (Plan.make ~name:"E1" specs, render)

(* ------------------------------------------------------------------ *)
(* E2: §6.2 — ratifier space and work per quorum construction.         *)
(* ------------------------------------------------------------------ *)

let e2 mode : built =
  let ms =
    match mode with
    | Quick -> [ 2; 4; 16; 64 ]
    | Full -> [ 2; 4; 16; 64; 256; 1024; 4096 ]
  in
  let n = 8 in
  let trials = match mode with Quick -> 50 | Full -> 200 in
  let schemes m =
    let base =
      [ ("bollobas", Conrat_quorum.Quorum.bollobas_optimal ~m, false);
        ("bitvector", Conrat_quorum.Quorum.bitvector ~m, false);
        ("singleton", Conrat_quorum.Quorum.singleton ~m, true) ]
    in
    if m = 2 then ("binary", Conrat_quorum.Quorum.binary, false) :: base else base
  in
  let cells =
    List.concat_map
      (fun m ->
        List.map
          (fun (label, q, cheap) ->
            (Printf.sprintf "m%d/%s" m label, m, label, q, cheap))
          (schemes m))
      ms
  in
  let specs =
    List.map
      (fun (sid, m, _, q, cheap) ->
        let factory =
          if cheap then Ratifier.cheap_collect ~m else Ratifier.of_quorum q
        in
        Plan.spec ~sid ~cheap_collect:cheap ~runner:(Plan.Deciding factory)
          ~adversary:Adversary.random_uniform ~workload:Workload.uniform ~n ~m
          ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E2  Deterministic m-valued ratifiers (Section 6, Theorem 10)";
    Table.note "paper: registers lg m + O(log log m) (Bollobas), 2 lg m + 1 (bitvector),";
    Table.note "       3 (binary), m+1 (cheap-collect); work <= |W|+|R|+2 (4 for binary/collect).";
    let rows =
      List.map
        (fun (sid, m, label, q, cheap) ->
          let agg = Engine.get results sid in
          let work_bound = if cheap then 4 else Ratifier.max_individual_work q in
          let registers = Ratifier.space q in
          let lg = log2_ceil m in
          let paper_space =
            match label with
            | "binary" -> "3"
            | "bollobas" -> Printf.sprintf "lg m+O(lglg m)+1=%d+" (lg + 1)
            | "bitvector" -> Printf.sprintf "2 lg m+1=%d" ((2 * lg) + 1)
            | _ -> Printf.sprintf "m+1=%d" (m + 1)
          in
          (* The Bollobas certificate (Theorem 9) must accept the system. *)
          let cert = if Conrat_quorum.Bollobas.certificate q then "ok" else "FAIL" in
          [ string_of_int m;
            label;
            string_of_int registers;
            paper_space;
            string_of_int (max_of (indivs agg));
            string_of_int work_bound;
            cert;
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:
        [ "m"; "scheme"; "registers"; "paper space"; "max indiv work"; "<=bound";
          "Thm9 cert"; "safety viol" ]
      rows;
    Table.note
      (Printf.sprintf "Bollobas pool lower bound check: m=64 needs >= %d registers; built %d."
         (Conrat_quorum.Bollobas.pool_lower_bound ~m:64)
         (Conrat_quorum.Quorum.bollobas_optimal ~m:64).pool)
  in
  (Plan.make ~name:"E2" specs, render)

(* ------------------------------------------------------------------ *)
(* E3: headline — binary consensus work scaling in n.                  *)
(* ------------------------------------------------------------------ *)

let e3 mode : built =
  let ns, trials =
    match mode with
    | Quick -> (powers_of_two ~from:2 ~upto:32, 100)
    | Full -> (powers_of_two ~from:2 ~upto:512, 400)
  in
  let protocol = Consensus.standard ~m:2 in
  let cells =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun (adversary : Adversary.t) ->
            (* The stalker forces the most conciliator rounds, so it
               sweeps a smaller range, kept so the grid matches the
               published tables.  Its choice is O(1) per step: the
               scheduler keeps the reader count. *)
            if adversary.name <> "write_stalker" || n <= 128 then begin
              let trials = if n >= 256 then max 100 (trials / 2) else trials in
              Some (Printf.sprintf "n%d/%s" n adversary.name, n, adversary, trials)
            end
            else None)
          [ Adversary.random_uniform; Adversary.write_stalker ])
      ns
  in
  let specs =
    List.map
      (fun (sid, n, adversary, trials) ->
        Plan.spec ~sid ~runner:(Plan.Consensus protocol) ~adversary
          ~workload:Workload.split_half ~n ~m:2 ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E3  Binary consensus: O(log n) individual, O(n) total work";
    Table.note "paper: first weak-adversary protocol with optimal O(n) total work;";
    Table.note "       expected individual work O(log n).  Shape check: indiv/lg n and total/n flat.";
    let points = ref [] in
    let rows =
      List.map
        (fun (sid, n, (adversary : Adversary.t), _) ->
          let agg = Engine.get results sid in
          let indiv = mean_of (indivs agg) in
          let total = mean_of (totals agg) in
          let lg = max 1.0 (log2f (float_of_int n)) in
          if adversary.name = "random_uniform" then points := (lg, indiv) :: !points;
          [ string_of_int n;
            adversary.name;
            Table.fl indiv;
            Table.fl (indiv /. lg);
            Table.fl total;
            Table.fl (total /. float_of_int n);
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:[ "n"; "adversary"; "E[indiv]"; "indiv/lg n"; "E[total]"; "total/n"; "safety viol" ]
      rows;
    let slope, intercept, r2 = Stats.linear_fit !points in
    Table.note
      (Printf.sprintf
         "fit E[indiv] = %.2f lg n + %.2f (r^2 = %.3f) under adversary random_uniform"
         slope intercept r2)
  in
  (Plan.make ~name:"E3" specs, render)

(* ------------------------------------------------------------------ *)
(* E4: headline — m-valued consensus total work O(n log m).            *)
(* ------------------------------------------------------------------ *)

let e4 mode : built =
  let n, ms, trials =
    match mode with
    | Quick -> (16, [ 2; 4; 16; 64 ], 100)
    | Full -> (64, [ 2; 4; 16; 64; 256; 1024 ], 300)
  in
  let cells =
    List.concat_map
      (fun m ->
        List.map
          (fun (label, protocol, cheap) ->
            (Printf.sprintf "m%d/%s" m label, m, label, protocol, cheap))
          [ ("bollobas ratifier", Consensus.standard ~m, false);
            ("cheap-collect ratifier", Consensus.standard_cheap_collect ~m, true) ])
      ms
  in
  let specs =
    List.map
      (fun (sid, m, _, protocol, cheap) ->
        Plan.spec ~sid ~cheap_collect:cheap ~runner:(Plan.Consensus protocol)
          ~adversary:Adversary.random_uniform ~workload:Workload.split_half ~n ~m
          ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E4  m-valued consensus: O(n log m) total work";
    let rows =
      List.map
        (fun (sid, m, label, _, _) ->
          let agg = Engine.get results sid in
          let indiv = mean_of (indivs agg) in
          let total = mean_of (totals agg) in
          let lg = max 1.0 (log2f (float_of_int m)) in
          [ string_of_int m;
            label;
            Table.fl indiv;
            Table.fl total;
            Table.fl (total /. (float_of_int n *. lg));
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:[ "m"; "protocol"; "E[indiv]"; "E[total]"; "total/(n lg m)"; "safety viol" ]
      rows;
    Table.note (Printf.sprintf "n = %d, workload split_half, adversary random_uniform;" n);
    Table.note "cheap-collect removes the lg m ratifier factor (4-op ratifier, m+1 registers)."
  in
  (Plan.make ~name:"E4" specs, render)

(* ------------------------------------------------------------------ *)
(* E5: prior art comparison.                                           *)
(* ------------------------------------------------------------------ *)

let e5 mode : built =
  let ns, trials =
    match mode with
    | Quick -> ([ 4; 16; 64 ], 60)
    | Full -> ([ 4; 16; 64; 256 ], 200)
  in
  let protocols n =
    [ ("standard (paper)", Consensus.standard ~m:2, trials);
      ("constant_rate [19,20]", Conrat_baselines.Baseline.constant_rate_consensus ~m:2, trials);
      ("cil_racing [20]", Conrat_baselines.Baseline.cil_racing ~m:2,
       if n >= 256 then max 20 (trials / 4) else trials) ]
  in
  let cells =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, protocol, trials) ->
            (Printf.sprintf "n%d/%s" n label, n, label, protocol, trials))
          (protocols n))
      ns
  in
  let specs =
    List.map
      (fun (sid, n, _, protocol, trials) ->
        Plan.spec ~sid ~runner:(Plan.Consensus protocol)
          ~adversary:Adversary.random_uniform ~workload:Workload.split_half ~n ~m:2
          ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E5  Impatient vs prior first movers (sublinear individual work)";
    Table.note "paper: previous protocols used Theta(1/n) write probability => Theta(n)";
    Table.note "       individual work; CIL racing is Theta(n) per collect.  Ours: O(log n).";
    let rows =
      List.map
        (fun (sid, n, label, _, _) ->
          let agg = Engine.get results sid in
          let indiv = mean_of (indivs agg) in
          [ string_of_int n;
            label;
            Table.fl indiv;
            Table.fl (indiv /. max 1.0 (log2f (float_of_int n)));
            Table.fl (indiv /. float_of_int n);
            Table.fl (mean_of (totals agg));
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:[ "n"; "protocol"; "E[indiv]"; "indiv/lg n"; "indiv/n"; "E[total]"; "safety viol" ]
      rows;
    Table.note "shape: indiv/lg n flat for standard; indiv/n flat for the baselines."
  in
  (Plan.make ~name:"E5" specs, render)

(* ------------------------------------------------------------------ *)
(* E6: Attiya-Censor termination tail.                                 *)
(* ------------------------------------------------------------------ *)

let e6 mode : built =
  let n, trials =
    match mode with
    | Quick -> (16, 400)
    | Full -> (32, 4000)
  in
  let spec =
    Plan.spec ~sid:"tail" ~runner:(Plan.Consensus (Consensus.standard ~m:2))
      ~adversary:Adversary.random_uniform ~workload:Workload.split_half ~n ~m:2
      ~seeds:(Plan.seeds trials) ()
  in
  let render results =
    Table.heading "E6  Termination tail: Pr[not terminated after k*n total steps]";
    Table.note "Attiya-Censor: any protocol fails to terminate in k(n-f) steps w.p. >= 1/c^k;";
    Table.note "our protocol's tail must decay geometrically (log2 column ~linear in k).";
    let agg = Engine.get results "tail" in
    (match agg.Engine.failures with
     | (_, reason) :: _ -> failwith ("E6 safety violation: " ^ reason)
     | [] -> ());
    let totals = totals agg in
    let rows =
      List.filter_map
        (fun k ->
          let cutoff = k * n in
          let surviving = List.length (List.filter (fun t -> t > cutoff) totals) in
          if surviving = 0 then None
          else begin
            let p = float_of_int surviving /. float_of_int trials in
            Some
              [ string_of_int k;
                string_of_int cutoff;
                Table.fl ~digits:4 p;
                Table.fl (log2f p) ]
          end)
        [ 1; 2; 3; 4; 5; 6; 7; 8; 10; 12 ]
    in
    Table.print ~header:[ "k"; "k*n steps"; "P[T > k*n]"; "log2 P" ] rows;
    Table.note (Printf.sprintf "n = %d, %d trials, adversary overwrite_attacker" n trials)
  in
  (Plan.make ~name:"E6" [ spec ], render)

(* ------------------------------------------------------------------ *)
(* E7: adversary class sensitivity of the conciliator.                 *)
(* ------------------------------------------------------------------ *)

let e7 mode : built =
  let n, trials =
    match mode with
    | Quick -> (32, 500)
    | Full -> (64, 4000)
  in
  let cells =
    [ (Adversary.round_robin, "oblivious", true);
      (Adversary.random_uniform, "oblivious", true);
      (Adversary.fixed_permutation (), "oblivious", true);
      (Adversary.write_stalker, "value-oblivious", true);
      (Adversary.overwrite_attacker, "location-oblivious", true);
      (Adversary.noisy (), "restricted", true);
      (Adversary.priority (), "restricted", true);
      (Adversary.adaptive_overwriter, "ADAPTIVE (out of model)", false) ]
  in
  let factory = Conciliator.impatient_first_mover () in
  let specs =
    List.map
      (fun ((adversary : Adversary.t), _, _) ->
        Plan.spec ~sid:adversary.Adversary.name ~runner:(Plan.Deciding factory)
          ~adversary ~workload:Workload.alternating ~n ~m:n
          ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E7  Conciliator agreement probability per adversary class";
    Table.note "paper: the Theorem 7 guarantee holds for any location-oblivious adversary";
    Table.note "       (probabilistic writes); stronger adversaries are outside the model.";
    let rows =
      List.map
        (fun ((adversary : Adversary.t), klass, in_model) ->
          let agg = Engine.get results adversary.Adversary.name in
          [ adversary.Adversary.name;
            klass;
            agreement_cell agg.Engine.agreements agg.Engine.trials;
            (if in_model then Table.fl delta_bound ~digits:4 else "(no guarantee)");
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:[ "adversary"; "class"; "P[agree] (95% CI)"; "paper bound"; "safety viol" ]
      rows
  in
  (Plan.make ~name:"E7" specs, render)

(* ------------------------------------------------------------------ *)
(* E8: the fast path.                                                  *)
(* ------------------------------------------------------------------ *)

let e8 mode : built =
  let ns, trials =
    match mode with
    | Quick -> ([ 2; 8; 32 ], 100)
    | Full -> ([ 2; 8; 32; 128; 512 ], 400)
  in
  let cells =
    List.concat_map
      (fun n ->
        List.map
          (fun (wl : Workload.t) -> (Printf.sprintf "n%d/%s" n wl.Workload.wname, n, wl))
          [ Workload.all_same; Workload.split_half ])
      ns
  in
  (* Fresh counted conciliator per trial: the probe counts how many
     processes entered a conciliator in that execution. *)
  let probed () =
    let conciliator_entries, counted_conciliator =
      Deciding.counting (Conciliator.impatient_first_mover ())
    in
    let protocol =
      Consensus.unbounded
        ~name:"standard+counting"
        ~conciliator:(fun _ -> counted_conciliator)
        ~ratifier:(fun _ -> Ratifier.binary ())
        ()
    in
    (protocol, conciliator_entries)
  in
  let specs =
    List.map
      (fun (sid, n, wl) ->
        (* [stages]: the fast-path claim is *about* where work happens
           (the R₋₁;R₀ prefix vs conciliator rounds), so E8 records the
           per-stage breakdown into its BENCH json. *)
        Plan.spec ~sid ~stages:true ~runner:(Plan.Probed probed)
          ~adversary:Adversary.random_uniform
          ~workload:wl ~n ~m:2 ~seeds:(Plan.seeds trials) ())
      cells
  in
  let render results =
    Table.heading "E8  Fast path (Section 4.1.1): agreeing inputs decide in R-1;R0";
    Table.note "paper: with all-equal inputs, acceptance forces a decision in the prefix,";
    Table.note "       so no process ever runs a conciliator and individual work is O(1).";
    let rows =
      List.map
        (fun (sid, n, (wl : Workload.t)) ->
          let agg = Engine.get results sid in
          [ string_of_int n;
            wl.Workload.wname;
            Table.fl (mean_of (indivs agg));
            string_of_int (max_of (indivs agg));
            (if wl.Workload.wname = "all_same" then "8" else "-");
            Printf.sprintf "%.2f"
              (float_of_int agg.Engine.probe_total /. float_of_int agg.Engine.trials);
            fail_cell agg.Engine.failures ])
        cells
    in
    Table.print
      ~header:
        [ "n"; "workload"; "E[indiv]"; "max indiv"; "<=bound"; "conciliator entries/trial";
          "safety viol" ]
      rows;
    (* The stage breakdown makes the fast-path claim directly visible:
       under all_same every operation lands in the ratifier prefix
       stages; conciliator stages appear only under split inputs. *)
    Table.note "";
    Table.note "Per-stage work (largest spec, summed over trials, top stages by total):";
    (match List.rev cells with
     | [] -> ()
     | (sid, _, _) :: _ ->
       let agg = Engine.get results sid in
       let top =
         List.sort
           (fun (_, (ta, _)) (_, (tb, _)) -> compare tb ta)
           agg.Engine.stage_work
       in
       let rec take k = function
         | x :: tl when k > 0 -> x :: take (k - 1) tl
         | _ -> []
       in
       Table.print
         ~header:[ "stage"; "total work"; "max indiv" ]
         (List.map
            (fun (stage, (total, indiv)) ->
              [ stage; string_of_int total; string_of_int indiv ])
            (take 8 top)))
  in
  (Plan.make ~name:"E8" specs, render)

(* ------------------------------------------------------------------ *)
(* E9: coin-based vs probabilistic-write conciliators + schedule       *)
(* ablation.                                                           *)
(* ------------------------------------------------------------------ *)

let e9 mode : built =
  let ns, trials =
    match mode with
    | Quick -> ([ 2; 4 ], 60)
    | Full -> ([ 2; 4; 8; 16 ], 200)
  in
  let coin_cells =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, factory) -> (Printf.sprintf "n%d/%s" n label, n, label, factory))
          [ ("impatient (Thm 7)", Conciliator.impatient_first_mover ());
            ("coin/voting (Thm 6)", Conciliator.from_coin (Conrat_coin.Shared_coin.voting ()));
            ("coin/local_flip", Conciliator.from_coin Conrat_coin.Shared_coin.local_flip) ])
      ns
  in
  let abl_n, abl_trials =
    match mode with Quick -> (64, 400) | Full -> (256, 2500)
  in
  let abl_cells =
    List.map
      (fun growth ->
        let label =
          match growth with `Double -> "x2 (paper)" | `Quadruple -> "x4" | `Linear -> "+1/n"
        in
        ("schedule/" ^ label, label, growth))
      [ `Double; `Quadruple; `Linear ]
  in
  let specs =
    List.map
      (fun (sid, n, _, factory) ->
        Plan.spec ~sid ~runner:(Plan.Deciding factory) ~adversary:Adversary.write_stalker
          ~workload:Workload.split_half ~n ~m:2 ~seeds:(Plan.seeds trials) ())
      coin_cells
    @ List.map
        (fun (sid, _, growth) ->
          Plan.spec ~sid
            ~runner:(Plan.Deciding (Conrat_baselines.Baseline.schedule_conciliator ~growth))
            ~adversary:Adversary.write_stalker ~workload:Workload.alternating
            ~n:abl_n ~m:abl_n ~seeds:(Plan.seeds abl_trials) ())
        abl_cells
  in
  let render results =
    Table.heading "E9  Conciliator implementations (Theorem 6 vs Theorem 7)";
    Table.note "paper: any weak shared coin gives a conciliator; the voting coin costs";
    Table.note "       Theta(n) per vote and Theta(n^2) votes, vs O(n) total for Theorem 7.";
    let rows =
      List.map
        (fun (sid, n, label, _) ->
          let agg = Engine.get results sid in
          [ string_of_int n;
            label;
            agreement_cell agg.Engine.agreements agg.Engine.trials;
            Table.fl (mean_of (totals agg));
            string_of_int (max_of (indivs agg));
            fail_cell agg.Engine.failures ])
        coin_cells
    in
    Table.print
      ~header:[ "n"; "conciliator"; "P[agree] (95% CI)"; "E[total]"; "max indiv"; "safety viol" ]
      rows;

    Table.note "";
    Table.note "Ablation: impatience growth schedule, bare conciliator (DESIGN.md)";
    let rows =
      List.map
        (fun (sid, label, _) ->
          let agg = Engine.get results sid in
          [ label;
            agreement_cell agg.Engine.agreements agg.Engine.trials;
            Table.fl (mean_of (indivs agg));
            string_of_int (max_of (indivs agg));
            Table.fl (mean_of (totals agg) /. float_of_int abl_n);
            fail_cell agg.Engine.failures ])
        abl_cells
    in
    Table.print
      ~header:[ "schedule"; "P[agree] (95% CI)"; "E[indiv]"; "max indiv"; "total/n"; "safety viol" ]
      rows;
    Table.note
      (Printf.sprintf
         "n = %d: x4 reaches p=1 sooner (fewer ops, more collisions => lower P[agree]);" abl_n);
    Table.note "+1/n takes Theta(sqrt n) attempts (more ops) for a similar P[agree]."
  in
  (Plan.make ~name:"E9" specs, render)

(* ------------------------------------------------------------------ *)
(* E10: bounded construction (Theorem 5).                              *)
(* ------------------------------------------------------------------ *)

let e10 mode : built =
  let n, trials, ks =
    match mode with
    | Quick -> (8, 200, [ 1; 2; 4 ])
    | Full -> (16, 1500, [ 1; 2; 4; 6; 8 ])
  in
  let adversary = Adversary.random_uniform in
  let bounded_probed k () =
    let fallback_entries, counted_fallback =
      Deciding.counting (Fallback.racing ~m:2 ())
    in
    let protocol =
      Consensus.bounded ~name:"bounded+counting" ~rounds:k
        ~conciliator:(fun _ -> Conciliator.impatient_first_mover ())
        ~ratifier:(fun _ -> Ratifier.binary ())
        ~fallback:counted_fallback ()
    in
    (protocol, fallback_entries)
  in
  let k_cells = List.map (fun k -> (Printf.sprintf "k%d" k, k)) ks in
  let specs =
    Plan.spec ~sid:"unbounded" ~runner:(Plan.Consensus (Consensus.standard ~m:2))
      ~adversary ~workload:Workload.split_half ~n ~m:2 ~seeds:(Plan.seeds trials) ()
    :: List.map
         (fun (sid, k) ->
           Plan.spec ~sid ~runner:(Plan.Probed (bounded_probed k)) ~adversary
             ~workload:Workload.split_half ~n ~m:2 ~seeds:(Plan.seeds trials) ())
         k_cells
  in
  let render results =
    Table.heading "E10  Bounded construction (Theorem 5)";
    Table.note "paper: truncating after k rounds into fallback K reaches K with prob";
    Table.note "       <= (1-delta)^k and costs O(max(T(C), T(R))) like the unbounded object.";
    let u = Engine.get results "unbounded" in
    let u_indiv = mean_of (indivs u) in
    let u_total = mean_of (totals u) in
    let rows =
      List.map
        (fun (sid, k) ->
          let agg = Engine.get results sid in
          let indiv = mean_of (indivs agg) in
          let total = mean_of (totals agg) in
          let fallback_rate =
            (* Entries count processes; a trial "reaches K" if any did. *)
            float_of_int agg.Engine.probe_total /. float_of_int (n * trials)
          in
          [ string_of_int k;
            Table.fl ~digits:4 fallback_rate;
            Table.fl ~digits:4 ((1.0 -. delta_bound) ** float_of_int k);
            Table.fl indiv;
            Table.fl (indiv /. u_indiv);
            Table.fl total;
            Table.fl (total /. u_total);
            fail_cell agg.Engine.failures ])
        k_cells
    in
    Table.print
      ~header:
        [ "k"; "fallback rate"; "<=(1-d)^k"; "E[indiv]"; "/unbounded"; "E[total]";
          "/unbounded"; "safety viol" ]
      rows;
    Table.note
      (Printf.sprintf "unbounded reference: E[indiv]=%.2f E[total]=%.2f (viol: %s)"
         u_indiv u_total (fail_cell u.Engine.failures))
  in
  (Plan.make ~name:"E10" specs, render)

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5);
    ("E6", e6); ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10) ]

let all_names = List.map fst experiments

let build ?(mode = Full) name =
  match List.assoc_opt name experiments with
  | Some f -> f mode
  | None -> raise Not_found

let run ?(mode = Full) ?(jobs = 1) ?json ?(progress = false) name =
  let plan, render = build ~mode name in
  let t0 = Unix.gettimeofday () in
  let on_progress =
    if not progress then None
    else begin
      let reporter = Conrat_obs.Progress.create ~label:name () in
      Some
        (fun ~done_ ~total ->
          Conrat_obs.Progress.tick reporter ~done_ ~detail:(fun () ->
            Printf.sprintf "of %d trials" total))
    end
  in
  let results = Engine.run_plan ~jobs ?on_progress plan in
  let elapsed = Unix.gettimeofday () -. t0 in
  render results;
  Option.iter
    (fun write ->
      write (Report.bench_file name)
        (Report.json_of_run ~experiment:name ~mode:(mode_name mode) ~jobs ~elapsed plan
           results))
    json;
  (* Timing goes to stderr (via Report.info) so stdout (the tables) is a
     pure function of the plan, byte-identical for every jobs value. *)
  Report.info "[%s] %d trials in %.2fs (jobs=%d%s)" name
    (Plan.trial_count plan) elapsed
    (if jobs = 0 then Engine.default_jobs () else max 1 jobs)
    (if Option.is_none json then "" else ", wrote " ^ Report.bench_file name)
