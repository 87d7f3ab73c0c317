(* Observability subsystem tests: sinks, stage labels, the Chrome
   trace exporter, the live bound checker, the baseline parser, and
   progress reporting.  Also the sealed-metrics property (adversary
   views cannot mutate scheduler counters) and Trace serialization
   round-trips over every operation kind, including traces from the
   snapshot-backtracking explorer whose restores truncate registers. *)

open Conrat_sim
open Conrat_obs

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let run_checker_once ?sink ?(adversary = "round_robin") ~seed name =
  let config = Option.get (Conrat_verify.Checks.find name) in
  let n = config.Conrat_verify.Checks.n in
  let memory, body = Conrat_verify.Checks.setup_of config ~n () in
  ( Scheduler.run ?sink ~cheap_collect:config.Conrat_verify.Checks.cheap_collect
      ~n ~adversary:(Adversary.by_name adversary) ~rng:(Rng.create seed) ~memory
      (fun ~pid ~rng:_ -> body ~pid),
    n )

(* --- Trace serialization over every Op.kind ------------------------- *)

let test_trace_roundtrip_all_kinds () =
  let t = Trace.create () in
  let ev step pid op landed observed =
    Trace.add t { Trace.step; pid; op = Some (Op.Any op); landed; observed }
  in
  ev 0 0 (Op.Read 0) false (Some 3);
  ev 1 1 (Op.Write (1, 7)) true None;
  ev 2 0 (Op.Prob_write (0, 5, 0.25)) true None;
  ev 3 1 (Op.Prob_write_detect (2, 9, 0.75)) false None;
  ev 4 0 (Op.Collect (0, 3)) false None;
  match Trace.of_sexp (Trace.to_sexp t) with
  | Error msg -> Alcotest.failf "trace did not parse back: %s" msg
  | Ok t' ->
    checkb "all-kinds trace round-trips" true (Trace.equal t t');
    checki "length preserved" (Trace.length t) (Trace.length t')

(* A 2-process program whose landed prob-write branch allocates a fresh
   register: exploring it forces the machine to snapshot at the coin,
   and backtracking to the missed branch truncates the register file
   (the restore path introduced with the snapshot explorer). *)
let truncating_setup () =
  let memory = Memory.create () in
  let r0 = Memory.alloc memory in
  let body ~pid =
    let open Program in
    if pid = 0 then
      let* landed = prob_write_detect r0 1 ~p:0.5 in
      if landed then begin
        let extra = Memory.alloc memory in
        let* () = write extra 7 in
        let* v = read extra in
        return (Option.value v ~default:(-1))
      end
      else return 0
    else
      let* _ = read r0 in
      let* () = write r0 2 in
      return 1
  in
  (memory, body)

let test_trace_roundtrip_truncation_path () =
  (* Exhaustively explore with a sink: snapshots and restores must both
     fire, and after the walk the extra register of the landed branch
     has been truncated away (the machine is left in its last — missed
     coin — leaf). *)
  let snapshots = ref 0 and restores = ref 0 in
  let sink =
    Sink.make
      ~on_snapshot:(fun ~step:_ -> incr snapshots)
      ~on_restore:(fun ~step:_ -> incr restores)
      ()
  in
  let memory_ref = ref None in
  let result =
    Conrat_verify.Por.explore ~n:2 ~sink
      ~setup:(fun () ->
        let memory, body = truncating_setup () in
        memory_ref := Some memory;
        (memory, body))
      ~check:(fun ~complete:_ _ -> Ok ())
      ()
  in
  (match result with
   | Ok stats -> checkb "tree exhausted" true stats.Conrat_verify.Por.exhausted
   | Error (msg, _, _) -> Alcotest.failf "explore failed: %s" msg);
  checkb "explorer snapshotted" true (!snapshots > 0);
  checkb "explorer restored" true (!restores > 0);
  checki "restore truncated the extra register" 1
    (Memory.size (Option.get !memory_ref));
  (* Every path of the same program, replayed standalone with
     recording, must produce a trace that survives a sexp round-trip —
     including the landed path that touches the late register. *)
  let paths = [ []; [ 0 ]; [ 1 ]; [ 0; 1; 0 ]; [ 1; 0; 1; 0 ]; [ 0; 0; 1; 1 ] ] in
  let saw_late_register = ref false in
  List.iter
    (fun path ->
      let run =
        Explore.run_path ~record:true ~n:2
          ~setup:(fun () -> truncating_setup ())
          path
      in
      let t = Option.get run.Explore.trace in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.op with
          | Some op when Op.loc op > 0 -> saw_late_register := true
          | _ -> ())
        (Trace.events t);
      match Trace.of_sexp (Trace.to_sexp t) with
      | Error msg -> Alcotest.failf "path trace did not parse back: %s" msg
      | Ok t' -> checkb "path trace round-trips" true (Trace.equal t t'))
    paths;
  checkb "some path exercised the late-allocated register" true !saw_late_register

(* --- Sealed metrics -------------------------------------------------- *)

let test_metrics_are_sealed () =
  let result, _ = run_checker_once ~seed:7 "conciliator_n2" in
  let counts = Metrics.counts result.Scheduler.metrics in
  let before = Metrics.count counts 0 in
  let arr = Metrics.counts_to_array counts in
  arr.(0) <- arr.(0) + 1_000;
  checki "mutating the exported array does not touch the counter" before
    (Metrics.count counts 0);
  checki "metrics total unchanged" result.Scheduler.steps
    (Metrics.total result.Scheduler.metrics);
  (* Round-tripping through an array is also a copy on the way in. *)
  let src = [| 1; 2 |] in
  let counts' = Metrics.counts_of_array src in
  src.(0) <- 99;
  checki "counts_of_array copies" 1 (Metrics.count counts' 0)

(* --- Sink combinators ------------------------------------------------ *)

let counting_sink () =
  let ops = ref 0 and decides = ref 0 in
  ( Sink.make
      ~on_op:(fun ~step:_ ~pid:_ ~kind:_ ~loc:_ ~landed:_ ~stage:_ -> incr ops)
      ~on_decide:(fun ~step:_ ~pid:_ -> incr decides)
      (),
    ops,
    decides )

let test_sink_tee_and_null () =
  let a, a_ops, a_dec = counting_sink () in
  let b, b_ops, b_dec = counting_sink () in
  let result, n =
    run_checker_once ~sink:(Sink.tee (Sink.tee a b) Sink.null) ~seed:3
      "composite_n2"
  in
  checkb "run completed" true result.Scheduler.completed;
  checki "tee forwards every op to both" !a_ops !b_ops;
  checki "op events match machine steps" result.Scheduler.steps !a_ops;
  checki "one decide per process" n !a_dec;
  checki "decides forwarded to both" !a_dec !b_dec

(* --- Stage labels and the per-stage histogram ------------------------ *)

let test_stage_work_histogram () =
  let sw = Stage_work.create ~n:2 in
  let result, _ =
    run_checker_once ~sink:(Stage_work.sink sw) ~seed:11 "composite_n2"
  in
  let totals = Stage_work.totals sw in
  checkb "at least two stages observed" true (List.length totals >= 2);
  let sum = List.fold_left (fun acc (_, (tot, _)) -> acc + tot) 0 totals in
  checki "stage totals account for every operation" result.Scheduler.steps sum;
  List.iter
    (fun (stage, (tot, indiv)) ->
      checkb (stage ^ ": max individual <= total") true (indiv <= tot);
      checkb (stage ^ ": counts positive") true (tot > 0 && indiv > 0))
    totals;
  checkb "composite stages are labeled" true
    (List.for_all (fun (stage, _) -> stage <> Stage_work.unlabeled) totals)

let test_stage_work_merge_laws () =
  let a = [ ("alpha", (10, 4)); ("beta", (3, 1)) ] in
  let b = [ ("alpha", (5, 6)); ("gamma", (2, 2)) ] in
  let c = [ ("beta", (7, 7)) ] in
  let ( +@ ) = Stage_work.merge in
  Alcotest.(check (list (pair string (pair int int))))
    "merge combines totals and maxima"
    [ ("alpha", (15, 6)); ("beta", (3, 1)); ("gamma", (2, 2)) ]
    (a +@ b);
  Alcotest.(check (list (pair string (pair int int))))
    "commutative" (a +@ b) (b +@ a);
  Alcotest.(check (list (pair string (pair int int))))
    "associative"
    ((a +@ b) +@ c)
    (a +@ (b +@ c));
  Alcotest.(check (list (pair string (pair int int)))) "identity" a (a +@ []);
  Alcotest.(check (list (pair string (pair int int)))) "identity'" a ([] +@ a)

(* --- Chrome trace exporter ------------------------------------------- *)

let test_chrome_trace_structure () =
  let ct = Chrome_trace.create ~n:2 in
  let result, _ =
    run_checker_once ~sink:(Chrome_trace.sink ct) ~seed:5 "composite_n2"
  in
  checkb "run completed" true result.Scheduler.completed;
  let doc = Chrome_trace.to_string ct in
  let count_occurrences needle =
    let ln = String.length needle and n = String.length doc in
    let c = ref 0 in
    for i = 0 to n - ln do
      if String.sub doc i ln = needle then incr c
    done;
    !c
  in
  checkb "document shape" true
    (String.length doc > 2
     && String.sub doc 0 16 = "{\"traceEvents\":["
     && doc.[String.length doc - 2] = '}');
  (* Metadata: process name + a thread name per track (2 processes +
     the explorer track). *)
  checki "metadata events" 4 (count_occurrences "\"ph\":\"M\"");
  checki "one complete event per machine step" result.Scheduler.steps
    (count_occurrences "\"ph\":\"X\"");
  checkb "stage spans present" true (count_occurrences "\"ph\":\"B\"" > 0);
  checki "stage spans balanced" (count_occurrences "\"ph\":\"B\"")
    (count_occurrences "\"ph\":\"E\"");
  checki "decision instants" 2 (count_occurrences "\"name\":\"decide\"");
  checki "events accessor agrees" (Chrome_trace.events ct)
    (count_occurrences "\"ph\":")

let test_chrome_trace_fleet_structure () =
  (* Drive the fleet collector through the Sink interface exactly as
     Parallel does: a steal opens the shard's span on the worker's
     track (closing any still-open one), completion closes it with the
     leaf/step counts.  Domain 1 steals twice before reporting, so one
     span is closed by the next steal rather than by shard_done. *)
  let ct = Chrome_trace.create_fleet ~workers:2 in
  let sink = Chrome_trace.fleet_sink ct in
  sink.Sink.on_steal ~domain:0 ~shard:0 ~prefix:3;
  sink.Sink.on_shard_done ~domain:0 ~shard:0 ~leaves:10 ~steps:40;
  sink.Sink.on_steal ~domain:1 ~shard:1 ~prefix:2;
  sink.Sink.on_steal ~domain:1 ~shard:2 ~prefix:2;
  sink.Sink.on_shard_done ~domain:1 ~shard:2 ~leaves:5 ~steps:20;
  let doc = Chrome_trace.to_string ct in
  let count_occurrences needle =
    let ln = String.length needle and n = String.length doc in
    let c = ref 0 in
    for i = 0 to n - ln do
      if String.sub doc i ln = needle then incr c
    done;
    !c
  in
  checkb "document shape" true
    (String.length doc > 2
     && String.sub doc 0 16 = "{\"traceEvents\":["
     && doc.[String.length doc - 2] = '}');
  (* Metadata: the fleet process name plus one thread name per worker. *)
  checki "metadata events" 3 (count_occurrences "\"ph\":\"M\"");
  checkb "worker tracks named" true
    (count_occurrences "worker 0" = 1 && count_occurrences "worker 1" = 1);
  checki "steal instants" 3 (count_occurrences "\"name\":\"steal\"");
  checki "shard spans open per steal" 3 (count_occurrences "\"ph\":\"B\"");
  checki "shard spans balanced" (count_occurrences "\"ph\":\"B\"")
    (count_occurrences "\"ph\":\"E\"");
  checkb "completion args carried" true
    (count_occurrences "\"args\":{\"leaves\":10,\"steps\":40}" = 1
     && count_occurrences "\"args\":{\"leaves\":5,\"steps\":20}" = 1);
  checki "events accessor agrees" (Chrome_trace.events ct)
    (count_occurrences "\"ph\":")

(* --- Telemetry counter monoid and coverage signatures ---------------- *)

let qcheck_telemetry_monoid =
  (* Snapshots under merge: associative, commutative, empty as identity
     — the laws the --jobs-invariant fleet totals rest on. *)
  let cells = QCheck.Gen.(array_size (return Telemetry.ncounters) (int_bound 10_000)) in
  let gen = QCheck.Gen.triple cells cells cells in
  let print (a, b, c) =
    let row x =
      String.concat "," (Array.to_list (Array.map string_of_int x))
    in
    Printf.sprintf "[%s] [%s] [%s]" (row a) (row b) (row c)
  in
  QCheck.Test.make ~count:200
    ~name:"telemetry snapshots form a commutative monoid"
    (QCheck.make ~print gen)
    (fun (a, b, c) ->
      let s = Telemetry.of_values in
      let ( +@ ) = Telemetry.merge in
      let eq x y = Telemetry.to_alist x = Telemetry.to_alist y in
      eq (s a +@ s b) (s b +@ s a)
      && eq (s a +@ s b +@ s c) (s a +@ (s b +@ s c))
      && eq (s a +@ Telemetry.empty ()) (s a)
      && eq (Telemetry.empty () +@ s a) (s a))

let qcheck_coverage_json_roundtrip =
  (* Arbitrary leaf streams and saturation curves: the canonical JSON
     rendering must parse back to an equal signature and re-render to
     the identical string (the schema-v3 "coverage" block contract). *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 60)
           (triple (int_bound 2) (int_bound 40) (int_bound 17)))
        (list_size (int_bound 10) (pair (int_bound 1000) (int_bound 200))))
  in
  let print (leaves, sat) =
    Printf.sprintf "%d leaves, %d saturation samples" (List.length leaves)
      (List.length sat)
  in
  QCheck.Test.make ~count:100 ~name:"coverage JSON round-trips canonically"
    (QCheck.make ~print gen)
    (fun (leaves, sat) ->
      let c = Coverage.create () in
      List.iter
        (fun (k, depth, sseed) ->
          let kind =
            match k with 0 -> `Complete | 1 -> `Truncated | _ -> `Pruned
          in
          Coverage.leaf c ~kind ~depth ~n:2 ~stage:(fun pid ->
              if (sseed + pid) mod 3 = 0 then None
              else Some (Printf.sprintf "stage%d" ((sseed + pid) mod 5))))
        leaves;
      List.iter (fun (l, t) -> Coverage.saturate c ~leaves:l ~table:t) sat;
      let json = Coverage.to_json c in
      match Coverage.of_json json with
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e
      | Ok c' -> Coverage.equal c c' && String.equal (Coverage.to_json c') json)

(* --- Live bound checking --------------------------------------------- *)

let conciliator_specs n =
  (* Theorem 6: individual work of the impatient first-mover is at most
     2 lg n + O(1); Theorem 7: expected total work at most 6n. *)
  [ Bound_check.spec
      ~individual:(Conrat_core.Conciliator.max_individual_work ~n)
      ~mean_total:(6.0 *. float_of_int n)
      "impatient conciliator (Thm 6/7)" ]

let test_bound_check_passes_conciliator () =
  let n = 2 in
  let bc = Bound_check.create ~n ~specs:(conciliator_specs n) in
  let sink = Bound_check.sink bc in
  for seed = 0 to 29 do
    let result, _ =
      run_checker_once ~sink ~adversary:"random_uniform" ~seed "conciliator_n2"
    in
    Bound_check.end_execution ~registers:result.Scheduler.registers bc
  done;
  checki "30 executions accounted" 30 (Bound_check.executions bc);
  match Bound_check.result bc with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "paper bounds violated: %a" Bound_check.pp_violation
      (List.hd vs)

let test_bound_check_flags_over_budget_protocol () =
  (* The same conciliator, deliberately padded with busy-work reads past
     the Theorem 6 budget: the checker must flag it, live, and also
     catch a register budget that is plainly too small. *)
  let n = 2 in
  let config = Option.get (Conrat_verify.Checks.find "conciliator_n2") in
  let budget = Conrat_core.Conciliator.max_individual_work ~n in
  let specs =
    Bound_check.spec ~registers:0 "no registers allowed" :: conciliator_specs n
  in
  let bc = Bound_check.create ~n ~specs in
  let memory, body = Conrat_verify.Checks.setup_of config ~n () in
  let scratch = Memory.alloc memory in
  let padded ~pid =
    let rec pad i =
      if i = 0 then body ~pid
      else Program.bind (Program.read scratch) (fun _ -> pad (i - 1))
    in
    pad (budget + 4)
  in
  let result =
    Scheduler.run ~sink:(Bound_check.sink bc) ~n
      ~adversary:(Adversary.by_name "round_robin") ~rng:(Rng.create 1) ~memory
      (fun ~pid ~rng:_ -> padded ~pid)
  in
  Bound_check.end_execution ~registers:result.Scheduler.registers bc;
  (* The individual bound is checked live: the violation is recorded
     before end_execution. *)
  let live = Bound_check.violations bc in
  checkb "individual bound flagged live" true
    (List.exists (fun v -> v.Bound_check.kind = "individual") live);
  (match Bound_check.result bc with
   | Ok () -> Alcotest.fail "over-budget protocol passed the bound checker"
   | Error vs ->
     checkb "register budget flagged" true
       (List.exists (fun v -> v.Bound_check.kind = "registers") vs);
     List.iter
       (fun v ->
         checkb "observed exceeds bound" true
           (v.Bound_check.observed > v.Bound_check.bound))
       vs);
  match Bound_check.check bc with
  | () -> Alcotest.fail "check did not raise"
  | exception Failure msg ->
    checkb "failure message names the spec" true
      (String.length msg > 0
       && (let sub = "impatient conciliator" in
           let rec find i =
             i + String.length sub <= String.length msg
             && (String.sub msg i (String.length sub) = sub || find (i + 1))
           in
           find 0))

(* --- Baseline parser -------------------------------------------------- *)

let test_baseline_parser () =
  let file = Filename.temp_file "bench_verify" ".json" in
  let oc = open_out file in
  output_string oc
    "{\n  \"schema_version\": 1,\n  \"kind\": \"verify-bench\",\n  \"results\": [\n\
    \    {\"name\":\"fallback_n2_d28\",\"engine\":\"por\",\"executions\":1203084,\
     \"complete\":1203084,\"truncated\":0,\"pruned\":23,\"steps\":31000000,\
     \"wall_clock_seconds\":0.972,\"exhausted\":true,\"ok\":true},\n\
    \    {\"name\":\"fallback_n2_d28\",\"engine\":\"naive\",\"executions\":1203084,\
     \"complete\":1203084,\"truncated\":0,\"steps\":33000000,\
     \"wall_clock_seconds\":4.5,\"exhausted\":true,\"ok\":true}\n  ]\n}\n";
  close_out oc;
  let entries = Baseline.load file in
  Sys.remove file;
  checki "two entries" 2 (List.length entries);
  (match Baseline.find entries ~name:"fallback_n2_d28" ~engine:"por" with
   | None -> Alcotest.fail "por entry not found"
   | Some e ->
     checki "executions" 1_203_084 e.Baseline.executions;
     checkb "wall clock" true (Float.abs (e.Baseline.wall_clock_seconds -. 0.972) < 1e-9);
     checkb "exhausted" true e.Baseline.exhausted);
  checkb "missing engine is None" true
    (Baseline.find entries ~name:"fallback_n2_d28" ~engine:"bogus" = None);
  Alcotest.(check (list reject)) "unreadable file is empty" []
    (Baseline.load "/nonexistent/BENCH_VERIFY.json")

(* The committed baseline must stay parseable — progress ETAs feed on
   it.  The test binary runs in the dune sandbox, so the file is
   declared as a test dep and resolved relative to the workspace. *)
let test_committed_baseline_parses () =
  let file = "../BENCH_VERIFY.json" in
  if not (Sys.file_exists file) then ()
  else begin
    let entries = Baseline.load file in
    checkb "committed BENCH_VERIFY.json parses" true (entries <> []);
    List.iter
      (fun (e : Baseline.entry) ->
        checkb (e.Baseline.name ^ ": counts sane") true
          (e.Baseline.executions > 0 && e.Baseline.wall_clock_seconds >= 0.0))
      entries
  end

(* --- Progress reporter ------------------------------------------------ *)

let test_progress_reporter () =
  let file = Filename.temp_file "progress" ".txt" in
  let oc = open_out file in
  let p =
    Progress.create ~out:oc ~interval:0.0 ~check_every:1 ~expected:1_000
      ~baseline_seconds:10.0 ~label:"unit-test" ()
  in
  for i = 1 to 500 do
    Progress.tick p ~done_:i ~detail:(fun () -> "detail-string")
  done;
  Progress.force p ~done_:1_000 ~detail:(fun () -> "final-detail");
  Progress.finish p;
  close_out oc;
  let ic = open_in file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  let contains needle =
    let ln = String.length needle and n = String.length contents in
    let rec go i = i + ln <= n && (String.sub contents i ln = needle || go (i + 1)) in
    go 0
  in
  checkb "emits the label" true (contains "[unit-test]");
  checkb "emits detail" true (contains "detail");
  checkb "reaches 100%" true (contains "100%");
  checkb "shows the baseline" true (contains "baseline")

let test_progress_default_enabled_respects_ci () =
  (* The test runner's stderr is not a TTY (dune captures it), so the
     CLI default must be off — exactly the CI guarantee. *)
  checkb "progress defaults off without a TTY" false (Progress.default_enabled ())

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ( "trace_sexp",
        [ tc "round-trips every op kind" `Quick test_trace_roundtrip_all_kinds;
          tc "round-trips truncation-path traces" `Quick
            test_trace_roundtrip_truncation_path ] );
      ( "sealed_metrics",
        [ tc "views cannot mutate counters" `Quick test_metrics_are_sealed ] );
      ( "sinks",
        [ tc "tee and null" `Quick test_sink_tee_and_null ] );
      ( "stage_work",
        [ tc "histogram over a composed run" `Quick test_stage_work_histogram;
          tc "merge laws" `Quick test_stage_work_merge_laws ] );
      ( "chrome_trace",
        [ tc "document structure" `Quick test_chrome_trace_structure;
          tc "fleet tracks and shard spans" `Quick
            test_chrome_trace_fleet_structure ] );
      ( "telemetry",
        [ qc qcheck_telemetry_monoid; qc qcheck_coverage_json_roundtrip ] );
      ( "bound_check",
        [ tc "paper bounds hold on the conciliator" `Quick
            test_bound_check_passes_conciliator;
          tc "flags an over-budget protocol" `Quick
            test_bound_check_flags_over_budget_protocol ] );
      ( "baseline",
        [ tc "parses verify-bench JSON" `Quick test_baseline_parser;
          tc "committed baseline parses" `Quick test_committed_baseline_parses ] );
      ( "progress",
        [ tc "rate-limited reporting" `Quick test_progress_reporter;
          tc "default off without TTY" `Quick
            test_progress_default_enabled_respects_ci ] ) ]
