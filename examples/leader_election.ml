(* Leader election among replicas.

   A classic use of m-valued consensus: n replicas each nominate
   themselves (input = own pid, so m = n possible values) and the
   consensus output is the elected leader.  Validity guarantees the
   leader is an actual replica; agreement guarantees there is exactly
   one.  We elect leaders for several independent "terms" and under
   several adversaries, and show the work staying at O(log n)
   individual / O(n log n) total — the m = n corner of the paper's
   O(n log m) bound.

     dune exec examples/leader_election.exe
*)

open Conrat_sim
open Conrat_core
open Conrat_harness

let elect ~n ~adversary ~seed =
  let protocol = Consensus.standard ~m:n in
  let inputs = Array.init n Fun.id in
  let outcome = Engine.run_consensus ~n ~adversary ~inputs ~seed protocol in
  (match outcome.safety with
   | Ok () -> ()
   | Error reason -> failwith ("consensus violated: " ^ reason));
  let leader =
    match outcome.outputs.(0) with
    | Some leader -> leader
    | None -> assert false (* safety check above implies completion *)
  in
  (leader, outcome.total_work, outcome.individual_work)

let () =
  let n = 32 in
  let terms = 5 in
  Printf.printf "Electing a leader among %d replicas (every replica nominates itself).\n\n" n;
  let rows = ref [] in
  List.iter
    (fun adversary ->
      for term = 1 to terms do
        let leader, total, indiv = elect ~n ~adversary ~seed:((term * 7919) + 13) in
        rows :=
          [ adversary.Adversary.name;
            string_of_int term;
            Printf.sprintf "replica %d" leader;
            string_of_int total;
            string_of_int indiv ]
          :: !rows
      done)
    [ Adversary.random_uniform; Adversary.write_stalker; Adversary.overwrite_attacker ];
  Table.print
    ~header:[ "adversary"; "term"; "elected"; "total ops"; "max ops/replica" ]
    (List.rev !rows);
  Table.note "Different terms elect different leaders (whoever wins the conciliator";
  Table.note "race), but within a term every replica agrees — that is the consensus";
  Table.note "contract, checked on every execution above."
