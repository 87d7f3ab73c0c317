(* Bechamel micro-benchmarks of the simulator's building blocks (one
   Test.make per component), a performance regression suite for the
   simulator itself.  The paper-claim experiments (E1..E10) are run by
   `conrat experiment`; `make bench` runs both.

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit
open Conrat_sim

let bench_scheduler_step =
  (* Cost of one simulated operation: 8 processes doing straight-line
     reads/writes, normalised per op by Bechamel's run counter. *)
  Test.make ~name:"scheduler: 16-op execution (n=8)"
    (Staged.stage (fun () ->
       let memory = Memory.create () in
       let shared = Memory.alloc_n memory 4 in
       ignore
         (Scheduler.run ~n:8 ~adversary:Adversary.round_robin ~rng:(Rng.create 1) ~memory
            (fun ~pid ~rng:_ ->
              let open Program in
              let* () = write shared.(pid mod 4) pid in
              map ignore (read shared.((pid + 1) mod 4))))))

let bench_conciliator =
  Test.make ~name:"impatient conciliator round (n=16)"
    (Staged.stage (fun () ->
       let memory = Memory.create () in
       let instance =
         (Conrat_core.Conciliator.impatient_first_mover ()).Conrat_objects.Deciding.instantiate
           ~n:16 memory
       in
       ignore
         (Scheduler.run ~n:16 ~adversary:Adversary.round_robin ~rng:(Rng.create 2) ~memory
            (fun ~pid ~rng ->
              instance.Conrat_objects.Deciding.run ~pid ~rng (pid mod 2)))))

let bench_ratifier =
  Test.make ~name:"bollobas ratifier round (n=16, m=64)"
    (Staged.stage (fun () ->
       let memory = Memory.create () in
       let instance =
         (Conrat_core.Ratifier.bollobas ~m:64).Conrat_objects.Deciding.instantiate ~n:16 memory
       in
       ignore
         (Scheduler.run ~n:16 ~adversary:Adversary.round_robin ~rng:(Rng.create 3) ~memory
            (fun ~pid ~rng ->
              instance.Conrat_objects.Deciding.run ~pid ~rng (pid mod 64)))))

let bench_consensus =
  Test.make ~name:"full binary consensus (n=16)"
    (Staged.stage
       (let seed = ref 0 in
        fun () ->
          incr seed;
          let memory = Memory.create () in
          let instance = (Conrat_core.Consensus.standard ~m:2).instantiate ~n:16 memory in
          ignore
            (Scheduler.run ~n:16 ~adversary:Adversary.random_uniform
               ~rng:(Rng.create !seed) ~memory
               (fun ~pid ~rng ->
                 instance.Conrat_core.Consensus.decide ~pid ~rng (pid mod 2)))))

let bench_rng =
  Test.make ~name:"rng: 1000 draws"
    (Staged.stage (fun () ->
       let rng = Rng.create 9 in
       for _ = 1 to 1000 do
         ignore (Rng.int rng 1024)
       done))

let bench_quorum =
  Test.make ~name:"bollobas quorum lookup (m=4096)"
    (Staged.stage
       (let q = Conrat_quorum.Quorum.bollobas_optimal ~m:4096 in
        let v = ref 0 in
        fun () ->
          v := (!v + 1) mod 4096;
          ignore (q.Conrat_quorum.Quorum.write_quorum !v)))

let run_micro () =
  let benchmarks =
    [ bench_rng; bench_scheduler_step; bench_conciliator; bench_ratifier;
      bench_consensus; bench_quorum ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:(Some 500) () in
  let raw = List.map (Benchmark.all cfg instances) benchmarks in
  let results =
    List.map (fun r -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) Instance.monotonic_clock r) raw
  in
  print_newline ();
  print_endline "Micro-benchmarks (monotonic clock, ns/run)";
  print_endline "==========================================";
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-42s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-42s (no estimate)\n" name)
        result)
    results;
  flush stdout

let () = run_micro ()
