(* conrat: command-line front end.

   Subcommands:
     run         — run one consensus execution and print the outcome
     experiment  — run the E1..E10 paper-claim reproductions
     sweep       — Monte-Carlo sweep of a protocol at one configuration
     check       — exhaustively verify named checker configurations
     trace       — record one execution as a Chrome/Perfetto trace
     list        — list protocols, adversaries, workloads, experiments

   Every option shared between subcommands is one Cmdliner term below,
   parsed and validated once: a bad value (an unknown name, a count
   below 1, a non-positive number of seconds, an unwritable output
   path) exits 2 with a one-line "conrat: ..." message before any run
   starts.

   Output discipline: stdout carries results (tables, JSON documents);
   all human-facing progress and timing chatter goes to stderr via
   Report.info, so `--json -` output can be piped straight into a JSON
   consumer.  A document that cannot be written in full exits 2, and so
   does a report to a stdout that cannot take it. *)

open Cmdliner
open Conrat_sim
open Conrat_harness
open Conrat_verify
module Telemetry = Conrat_obs.Telemetry
module Progress = Conrat_obs.Progress
module Chrome_trace = Conrat_obs.Chrome_trace

(* A stdout that cannot be written: one line on stderr, exit 2.  Its
   buffer keeps the bytes it failed on, and the at-exit flush would
   raise on them again, so leave without running it. *)
let stdout_failed reason =
  prerr_endline ("conrat: cannot write stdout: " ^ reason);
  Unix._exit 2

(* Every exit goes through here: stdout is flushed first, so a full
   stdout is reported like any other unwritable output and never
   raises in the at-exit flush. *)
let flush_stdout () = try flush stdout with Sys_error reason -> stdout_failed reason
let quit code = flush_stdout (); exit code

(* A usage error: one line on stderr, exit 2. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("conrat: " ^ msg); quit 2) fmt

let protocols =
  [ ("standard", fun ~m -> Conrat_core.Consensus.standard ~m);
    ("bounded", fun ~m -> Conrat_core.Consensus.standard_bounded ~m ~rounds:8);
    ("constant_rate", fun ~m -> Conrat_baselines.Baseline.constant_rate_consensus ~m);
    ("cil_racing", fun ~m -> Conrat_baselines.Baseline.cil_racing ~m);
    ( "coin_voting",
      fun ~m ->
        Conrat_core.Consensus.coin_based ~m ~coin:(Conrat_coin.Shared_coin.voting ()) ) ]

let protocol_names = List.map fst protocols

let adversary_names =
  [ "round_robin"; "random_uniform"; "fixed_permutation"; "write_stalker";
    "overwrite_attacker"; "adaptive_overwriter"; "noisy"; "priority" ]

let workload_names = [ "all_same"; "split_half"; "alternating"; "uniform"; "zipf" ]

(* The one checker-name resolver: every registered config — passing,
   expected-fail demo and extended frontier — under one candidate list. *)
let checker_names = Checks.names @ Checks.demo_names @ Checks.extended_names

let checker ?(all = false) name =
  match Checks.find name with
  | Some config -> config
  | None ->
    die "unknown checker %s (expected %s%s)" name (String.concat ", " checker_names)
      (if all then " or 'all'" else "")

let checker_arg ~doc =
  Term.(const (fun name -> checker name)
        $ Arg.(required & pos 0 (some string) None & info [] ~docv:"CHECKER" ~doc))

(* Shared option terms *)

let count flags ~docv ~doc default =
  let check v =
    if v < 1 then
      die "bad %s %d (expected at least 1)"
        (String.concat "/"
           (List.map (fun f -> (if String.length f = 1 then "-" else "--") ^ f) flags))
        v
    else v
  in
  Term.(const check $ Arg.(value & opt int default & info flags ~docv ~doc))

(* A name option resolved through [by_name]; an unknown name exits 2. *)
let named ~what names by_name default flags ~docv =
  let resolve s =
    try by_name s
    with Not_found ->
      die "unknown %s %S (expected %s)" what s (String.concat ", " names)
  in
  let doc =
    Printf.sprintf "%s: %s." (String.capitalize_ascii what) (String.concat ", " names)
  in
  Term.(const resolve $ Arg.(value & opt string default & info flags ~docv ~doc))

let n_arg = count [ "n"; "processes" ] ~docv:"N" ~doc:"Number of processes." 8

let m_arg = count [ "m"; "values" ] ~docv:"M" ~doc:"Number of possible input values." 2

let trials_arg = count [ "t"; "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials." 200

let seed_arg =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

(* (name, factory constructor) *)
let protocol_arg =
  named ~what:"protocol" protocol_names
    (fun s -> (s, List.assoc s protocols))
    "standard" [ "p"; "protocol" ] ~docv:"PROTO"

let adversary_arg default =
  named ~what:"adversary" adversary_names Adversary.by_name default
    [ "a"; "adversary" ] ~docv:"ADV"

let workload_arg =
  named ~what:"workload" workload_names Workload.by_name "split_half"
    [ "w"; "workload" ] ~docv:"WL"

(* Resolved domain count: 0 means every core.  [doc] says what the
   domains run and what stays invariant across counts. *)
let jobs_arg ~doc =
  let resolve j =
    if j < 0 then die "bad --jobs %d (expected 0 for all cores, or a positive count)" j
    else if j = 0 then Engine.default_jobs ()
    else j
  in
  Term.(const resolve
        $ Arg.(value & opt int 1
               & info [ "j"; "jobs" ] ~docv:"JOBS"
                   ~doc:("Domains to run on (0 = all cores). " ^ doc)))

(* Monte-Carlo trials are seeded per trial, not per domain. *)
let trials_jobs_arg =
  jobs_arg
    ~doc:"Trials are spread over the domains; results are byte-identical for \
          every value, and timing is reported on stderr."

let faults_arg ~doc =
  let parse s =
    match Fault.of_string s with
    | Ok model -> model
    | Error msg -> die "bad --faults %S: %s" s msg
  in
  Term.(const (Option.map parse)
        $ Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc))

let progress_arg ~doc = Arg.(value & flag & info [ "progress" ] ~doc)

(* Output targets: FILE, or '-' for stdout.  A file is probed at parse
   time (created, then removed again if it did not exist), so an
   unwritable path fails before any run starts instead of after it. *)
let writable file =
  if file <> "-" then begin
    let existed = Sys.file_exists file in
    (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 file)
     with Sys_error msg -> die "cannot write %s" msg);
    if not existed then Sys.remove file
  end;
  file

(* An output directory is checked the same way: it must exist and take
   new files before any run starts. *)
let writable_dir dir =
  if not (Sys.file_exists dir) then die "--artifact-dir %s: no such directory" dir;
  if not (Sys.is_directory dir) then die "--artifact-dir %s: not a directory" dir;
  (try Unix.access dir [ Unix.W_OK ]
   with Unix.Unix_error _ -> die "--artifact-dir %s: directory not writable" dir);
  dir

let output flags ~default ~doc =
  Term.(const writable $ Arg.(value & opt string default & info flags ~docv:"FILE" ~doc))

let output_opt flags ~doc =
  Term.(const (Option.map writable)
        $ Arg.(value & opt (some string) None & info flags ~docv:"FILE" ~doc))

(* Write one output document to [file] ('-' = stdout); [wrote] tags the
   stderr note for a file target.  The channel is closed with
   [close_out], not [close_noerr], so a failed final flush (a full disk)
   is an error, never a silently truncated document. *)
let write_doc ?wrote file write =
  try
    if file = "-" then (write stdout; flush stdout)
    else begin
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc; close_out oc);
      Option.iter (fun tag -> Report.info "[%s] wrote %s" tag file) wrote
    end
  with
  | Sys_error reason when file = "-" -> stdout_failed reason
  | Sys_error reason -> die "cannot write %s: %s" file reason

(* SIGINT flips the returned flag, which the run polls between units of
   work; the caller flushes its partial results and exits 130. *)
let on_sigint () =
  let flag = Atomic.make false in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set flag true)));
  flag

(* [check]'s per-domain countdown to its next clock read. *)
let stop_clock_every = 1024
let stop_countdown = Domain.DLS.new_key (fun () -> ref stop_clock_every)

let exit_if_interrupted tag flag =
  if Atomic.get flag then begin
    Report.info "[%s] interrupted (SIGINT); partial results flushed" tag;
    quit 130
  end

(* run *)

let run_cmd =
  let action n m seed (_, protocol) adversary workload trace obs =
    let inputs = workload.Workload.generate ~n ~m (Plan.workload_rng seed) in
    let rng = Rng.create seed in
    let memory = Memory.create () in
    let instance = (protocol ~m).Conrat_core.Consensus.instantiate ~n memory in
    let chrome = Option.map (fun file -> (file, Chrome_trace.create ~n)) obs in
    let result =
      Scheduler.run ~n ~adversary ~rng ~memory ~record:trace
        ?sink:(Option.map (fun (_, ct) -> Chrome_trace.sink ct) chrome)
        (fun ~pid ~rng -> instance.Conrat_core.Consensus.decide ~pid ~rng inputs.(pid))
    in
    Option.iter (fun (file, ct) -> write_doc ~wrote:"run" file (Chrome_trace.write ct))
      chrome;
    (* With `--obs -` the trace owns stdout, so the report goes to
       stderr. *)
    let oc, ppf =
      if obs = Some "-" then (stderr, Format.err_formatter)
      else (stdout, Format.std_formatter)
    in
    Printf.fprintf oc "protocol:  %s\nadversary: %s\n" instance.Conrat_core.Consensus.name
      adversary.Adversary.name;
    Printf.fprintf oc "inputs:    %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int inputs)));
    Printf.fprintf oc "outputs:   %s\n"
      (String.concat " "
         (Array.to_list
            (Array.map (function Some v -> string_of_int v | None -> "?") result.outputs)));
    (match Spec.consensus_execution ~inputs ~outputs:result.outputs ~completed:result.completed with
     | Ok () -> output_string oc "spec:      ok (termination, agreement, validity)\n"
     | Error reason -> Printf.fprintf oc "spec:      VIOLATION: %s\n" reason);
    Printf.fprintf oc "work:      total=%d individual=%d\n"
      (Metrics.total result.metrics)
      (Metrics.individual result.metrics);
    (* Read the object's footprint after the run: lazily composed
       protocols grow it as stages are instantiated. *)
    Printf.fprintf oc "space:     registers=%d object=%d\n" result.registers
      (instance.Conrat_core.Consensus.space ());
    match result.trace with
    | Some t -> Format.fprintf ppf "%a@." Trace.pp t
    | None -> ()
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full execution trace.")
  in
  let obs_arg =
    output_opt [ "obs" ]
      ~doc:"Also record the execution as a Chrome trace-event JSON file \
            ('-' = stdout), loadable in ui.perfetto.dev."
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one consensus execution")
    Term.(const action $ n_arg $ m_arg $ seed_arg $ protocol_arg
          $ adversary_arg "overwrite_attacker" $ workload_arg $ trace_arg $ obs_arg)

(* sweep *)

let sweep_cmd =
  let action n m seed (protocol, make) adversary workload trials jobs stages
      faults json progress =
    (* SIGINT stops the engine between trials: the aggregates of the
       trials that did finish are flushed (tables, and a well-formed
       partial JSON document when --json was given), then exit 130.
       Installed before anything sized by [trials] so the window in
       which the inherited disposition (often SIG_IGN under a
       backgrounding shell) still applies is negligible. *)
    let interrupted = on_sigint () in
    let spec =
      Plan.spec ?faults ~stages ~sid:"sweep" ~runner:(Plan.Consensus (make ~m))
        ~adversary ~workload ~n ~m ~seeds:(Plan.seeds ~base:seed trials) ()
    in
    let plan = Plan.make ~name:"sweep" [ spec ] in
    let json_stdout = json = Some "-" in
    let reporter =
      if progress then Some (Progress.create ~expected:trials ~label:"sweep" ())
      else None
    in
    let on_progress =
      Option.map
        (fun r ~done_ ~total ->
          Progress.tick r ~done_ ~detail:(fun () -> Printf.sprintf "of %d trials" total))
        reporter
    in
    let t0 = Unix.gettimeofday () in
    let results =
      Engine.run_plan ~jobs ?on_progress
        ~stop:(fun () -> Atomic.get interrupted)
        ~quarantine:true plan
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    Option.iter Progress.finish reporter;
    let (agg : Engine.aggregate) = Engine.get results "sweep" in
    let summary =
      Printf.sprintf "agreement: %d/%d trials; registers: %d; safety violations: %d"
        agg.agreements agg.trials agg.space (List.length agg.failures)
    in
    if json_stdout then Report.info "[sweep] %s" summary
    else begin
      let row label samples =
        let s = Stats.of_ints samples in
        label :: List.map Table.fl [ s.mean; s.stddev; s.median; s.p95; s.maximum ]
      in
      if agg.trials > 0 then begin
        Table.print
          ~header:[ "metric"; "mean"; "sd"; "median"; "p95"; "max" ]
          [ row "individual work" (Engine.individual_works agg);
            row "total work" (Engine.total_works agg) ];
        if agg.stage_work <> [] then begin
          print_newline ();
          Table.print
            ~header:[ "stage"; "total work"; "max individual" ]
            (List.map
               (fun (stage, (tot, ind)) -> [ stage; string_of_int tot; string_of_int ind ])
               agg.stage_work)
        end
      end;
      print_endline summary;
      if agg.crash_total > 0 || agg.recover_total > 0 || agg.plan_ignored_total > 0
         || agg.quarantined <> []
      then
        Printf.printf
          "faults:    crashes=%d recoveries=%d overrides_ignored=%d quarantined=%d\n"
          agg.crash_total agg.recover_total agg.plan_ignored_total
          (List.length agg.quarantined);
      List.iteri
        (fun i (seed, reason) ->
          if i < 3 then Printf.printf "  violation (seed %d): %s\n" seed reason)
        agg.failures;
      flush_stdout ()
    end;
    Option.iter
      (fun file ->
        let pairs_obj field_name pairs =
          Printf.sprintf "\"%s\": [%s]" field_name
            (String.concat ", "
               (List.map
                  (fun (seed, text) -> Printf.sprintf "{\"seed\":%d,\"detail\":%S}" seed text)
                  pairs))
        in
        let works field_name samples =
          if samples = [] then Printf.sprintf "\"%s\": null" field_name
          else
            let s = Stats.of_ints samples in
            Printf.sprintf
              "\"%s\": {\"mean\":%.3f,\"stddev\":%.3f,\"median\":%.3f,\
               \"p95\":%.3f,\"max\":%.3f}"
              field_name s.mean s.stddev s.median s.p95 s.maximum
        in
        let doc =
          Printf.sprintf
            "{\n  \"schema_version\": 1,\n  \"kind\": \"sweep\",\n  \
             \"protocol\": %S,\n  \"adversary\": %S,\n  \"workload\": %S,\n  \
             \"n\": %d,\n  \"m\": %d,\n  \"seed\": %d,\n  \
             \"faults\": %S,\n  \"trials_requested\": %d,\n  \
             \"trials_completed\": %d,\n  \"agreements\": %d,\n  \
             \"registers\": %d,\n  \"crash_total\": %d,\n  \
             \"recover_total\": %d,\n  \"plan_overrides_ignored\": %d,\n  \
             \"interrupted\": %b,\n  %s,\n  %s,\n  %s,\n  %s\n}\n"
            protocol adversary.Adversary.name workload.Workload.wname n m seed
            (Fault.to_string (Option.value faults ~default:Fault.none))
            trials agg.trials agg.agreements agg.space agg.crash_total
            agg.recover_total agg.plan_ignored_total (Atomic.get interrupted)
            (pairs_obj "violations" agg.failures)
            (pairs_obj "quarantined" agg.quarantined)
            (works "total_work" (Engine.total_works agg))
            (works "individual_work" (Engine.individual_works agg))
        in
        write_doc ~wrote:"sweep" file (fun oc -> output_string oc doc))
      json;
    Report.info "[sweep] %d/%d trials in %.2fs (jobs=%d)" agg.trials trials elapsed jobs;
    exit_if_interrupted "sweep" interrupted
  in
  let stages_arg =
    Arg.(value & flag
         & info [ "stages" ]
             ~doc:"Also collect and print the per-stage work breakdown \
                   (where in the composed protocol the operations happen).")
  in
  let faults_arg =
    faults_arg
      ~doc:"Inject faults into every trial: 'crash:f=K' (up to K \
            random crash-stops), 'weak' (stale reads on weakened \
            registers), 'recover[:r=R]' (restart up to R crashed \
            processes with volatile registers wiped; needs a crash \
            budget), combinations like 'crash:f=1,recover,weak', or \
            'none'.  Safety is still checked on the survivors; crashed \
            processes are excused."
  in
  let json_arg =
    output_opt [ "json" ]
      ~doc:"Write the sweep's aggregate as a JSON document (schema v1, \
            kind \"sweep\"); '-' writes it to stdout and moves the \
            human-facing tables to stderr.  On SIGINT the document \
            still lands, well-formed, with \"interrupted\": true."
  in
  let progress_arg = progress_arg ~doc:"Show a progress line on stderr while sweeping." in
  Cmd.v (Cmd.info "sweep" ~doc:"Monte-Carlo sweep at one configuration")
    Term.(const action $ n_arg $ m_arg $ seed_arg $ protocol_arg
          $ adversary_arg "overwrite_attacker" $ workload_arg $ trials_arg $ trials_jobs_arg
          $ stages_arg $ faults_arg $ json_arg $ progress_arg)

(* experiment *)

let experiment_cmd =
  let action quick jobs json progress names =
    let mode = if quick then Experiments.Quick else Experiments.Full in
    let names = if names = [] || names = [ "all" ] then Experiments.all_names else names in
    (match List.find_opt (fun n -> not (List.mem n Experiments.all_names)) names with
     | Some bad ->
       die "unknown experiment %s (expected %s or 'all')" bad
         (String.concat ", " Experiments.all_names)
     | None -> ());
    (* Every BENCH_E<k>.json is probed before the first trial runs, and
       written with the same checked close as every other document. *)
    let json =
      if not json then None
      else begin
        List.iter (fun name -> ignore (writable (Report.bench_file name))) names;
        Some (fun file doc -> write_doc file (fun oc -> output_string oc doc))
      end
    in
    List.iter (Experiments.run ~mode ~jobs ?json ~progress) names
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small sweeps (seconds instead of minutes).")
  in
  let progress_arg =
    progress_arg ~doc:"Show a per-trial progress line on stderr while an experiment runs."
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Also write each experiment's structured results as \
                   BENCH_E<k>.json (schema: README, \"Machine-readable results\").")
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"E1..E10, or 'all'.")
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Run the paper-claim reproductions (E1..E10)")
    Term.(const action $ quick_arg $ trials_jobs_arg $ json_arg $ progress_arg $ names_arg)

(* Exploration: the one dispatch over the four exploration algorithms. *)

let engine_name = function `Vm -> "vm" | `Tree -> "tree"

type algo = [ `Por | `Naive | `Dpor | `Cross ]

let algo_name = function
  | `Por -> "por" | `Naive -> "naive" | `Dpor -> "dpor" | `Cross -> "cross"

(* One algorithm's statistics in the shape both renderers consume:
   check's report line and its JSON row. *)
type row = {
  algo : string;         (* the JSON "engine" key: por | naive | dpor *)
  complete : int;
  truncated : int;
  pruned : int option;   (* None for the unreduced naive enumerator *)
  dedup_hits : int;
  steps : int;
  exhausted : bool;
}

let por_row algo (s : Por.stats) =
  { algo; complete = s.complete; truncated = s.truncated; pruned = Some s.pruned;
    dedup_hits = s.dedup_hits; steps = s.steps; exhausted = s.exhausted }

let naive_row (s : Naive.stats) =
  { algo = "naive"; complete = s.complete; truncated = s.truncated; pruned = None;
    dedup_hits = 0; steps = s.steps; exhausted = s.exhausted }

type verdict =
  | Pass
  | Violation of string           (* naive/dpor, or either side of --cross *)
  | Shrunk of Checks.failure      (* POR: a shrunk, replayable counterexample *)
  | Compared of Checks.cross      (* --cross ran both algorithms to the end *)

let verdict_ok = function
  | Pass -> true
  | Compared x -> x.Checks.outcomes_agree && x.Checks.engines_agree
  | Violation _ | Shrunk _ -> false

(* Explore [config] under [algo] with the [engine] program engine on
   [jobs] domains; [max_runs] overrides the config's budget, and
   [reporter label] is the progress heartbeat for the algorithm named
   [label], if any.  POR goes through [Parallel] (via [Checks.run]),
   which alone picks the sequential or the fleet path from [jobs], and
   alone takes [resume] and [on_checkpoint]; the naive and dpor oracles
   always run sequentially. *)
let explore ~engine ~jobs ~dedup ~max_runs ~(algo : algo) ?stop
    ?(reporter = fun _ -> None) ?telemetry ?resume ?on_checkpoint
    (config : Checks.t) =
  let n = config.n and max_depth = config.max_depth in
  let cheap_collect = config.cheap_collect and faults = config.faults in
  let max_runs = Option.value max_runs ~default:config.max_runs in
  let setup = Checks.setup_of config ~n and check = Checks.check_of config ~n in
  (* Heartbeat details: the base counts always; when a telemetry
     registry is live, the fleet extras — steal count and shards still
     in flight under --jobs, dedup hit-rate under --dedup — read racily
     off the registry ([Telemetry.live]). *)
  let fleet_detail () =
    match telemetry with
    | None -> ""
    | Some t ->
      let live = Telemetry.live t in
      let steals = live Telemetry.steals in
      let hits = live Telemetry.dedup_hits and misses = live Telemetry.dedup_misses in
      (if jobs > 1 then
         Printf.sprintf ", steals %d (%d live)" steals (steals - live Telemetry.shards_done)
       else "")
      ^ (if dedup && hits + misses > 0 then
           Printf.sprintf ", dedup %.0f%%"
             (100. *. float_of_int hits /. float_of_int (hits + misses))
         else "")
  in
  let started = ref [] in
  let rep label =
    let r = reporter label in
    Option.iter (fun r -> started := r :: !started) r;
    r
  in
  (* The unreduced naive enumerator prunes nothing: its line omits the
     always-zero count. *)
  let heartbeat label =
    Option.map
      (fun r ~runs ~pruned ~steps ~depth:_ ->
        Progress.tick r ~done_:runs ~detail:(fun () ->
            Printf.sprintf "%s%d steps%s"
              (if label = "naive" then "" else Printf.sprintf "pruned %d, " pruned)
              steps (fleet_detail ())))
      (rep label)
  in
  let result =
    match algo with
    | `Cross ->
      (match
         Checks.cross_check ~engine ?stop ~max_runs ~jobs
           ?naive_heartbeat:(heartbeat "naive") ?por_heartbeat:(heartbeat "por") config
       with
       | Ok x -> ([ naive_row x.naive; por_row "por" x.por ], Compared x)
       | Error reason -> ([], Violation reason))
    | `Naive ->
      (match
         Naive.explore ~engine ~max_depth ~max_runs ~cheap_collect ~faults ?stop
           ?heartbeat:(heartbeat "naive") ~n ~setup ~check ()
       with
       | Ok s -> ([ naive_row s ], Pass)
       | Error (reason, s) -> ([ naive_row s ], Violation reason))
    | `Dpor ->
      (match
         Por.explore_source ~engine ~max_depth ~max_runs ~cheap_collect ~faults ?stop
           ?heartbeat:(heartbeat "dpor")
           ?probe:(Option.map (fun t -> Telemetry.probe t ~domain:0) telemetry)
           ~n ~setup ~check ()
       with
       | Ok s -> ([ por_row "dpor" s ], Pass)
       | Error (reason, _path, s) -> ([ por_row "dpor" s ], Violation reason))
    | `Por ->
      (match
         Checks.run ~engine ?stop ~max_runs ?heartbeat:(heartbeat "por")
           ?resume ?on_checkpoint ~jobs ~dedup ?telemetry config
       with
       | Ok s -> ([ por_row "por" s ], Pass)
       | Error f -> ([ por_row "por" f.stats ], Shrunk f))
  in
  List.iter Progress.finish (List.rev !started);
  result

(* check *)

let replay_artifact engine file =
  (* A replay must never die with a backtrace on operator input: any
     escape from artifact parsing or re-execution (torn file, stale
     register indices, n larger than the config's inputs, …) is a
     diagnosable bad-artifact condition, exit 2. *)
  try
    match Artifact.load file with
    | Error msg -> die "cannot load artifact %s: %s" file msg
    | Ok artifact ->
      (match Checks.find artifact.checker with
       | None -> die "artifact names unknown checker %s" artifact.checker
       | Some config ->
         (match Checks.fits config artifact with
          | Error msg -> die "artifact %s is not replayable: %s" file msg
          | Ok () -> ());
         (match Checks.replay ~engine config artifact with
          | Error reason -> Printf.printf "%s: reproduced: %s\n" artifact.checker reason
          | Ok () ->
            Printf.printf "%s: did NOT reproduce (checker passed)\n" artifact.checker;
            quit 1))
  with e -> die "artifact %s is not replayable: %s" file (Printexc.to_string e)

let check_cmd =
  let action algo engine jobs dedup max_runs faults budget timeout artifact_dir replay
      json trace checkpoint resume no_telemetry progress progress_interval quiet names =
    if dedup && engine = `Tree then
      die "--dedup needs the VM engine's state hash (drop --engine tree)";
    match replay with
    | Some file -> replay_artifact engine file
    | None ->
      if checkpoint = Some "-" then
        die "--checkpoint needs a file name (it cannot be written to stdout)";
      if trace = Some "-" && json = Some "-" then
        die "--trace - and --json - cannot share stdout (write one of them to a FILE)";
      let configs =
        List.map (checker ~all:true)
          (if names = [] || names = [ "all" ] then Checks.names else names)
      in
      if trace <> None && algo <> `Por then
        die "--trace records the POR fleet (drop --naive, --cross and --dpor)";
      if trace <> None && List.length configs <> 1 then
        die "--trace needs exactly one checker name";
      let checkpointing = checkpoint <> None || resume <> None in
      if algo = `Dpor && (jobs > 1 || dedup || checkpointing) then
        die "--dpor is the sequential reduction oracle; it supports neither \
             --jobs, --dedup nor checkpointing";
      if algo = `Naive && (jobs > 1 || checkpointing) then
        die "--naive is the sequential unreduced oracle; it supports neither \
             --jobs nor checkpointing";
      if dedup && (algo = `Naive || algo = `Cross) then
        die "--dedup applies to the POR engine only";
      if dedup && checkpointing then
        die "--dedup does not combine with --checkpoint/--resume (the \
             visited-state table is not serialized)";
      if jobs > 1 && checkpointing then
        die "--checkpoint/--resume apply to sequential runs only (drop --jobs)";
      if checkpointing && algo = `Cross then
        die "--checkpoint/--resume do not apply to --cross";
      if checkpointing && List.length configs <> 1 then
        die "--checkpoint/--resume need exactly one checker name";
      let resume_file = resume in
      let resume =
        Option.map
          (fun file ->
            match Checkpoint.load file with
            | Error msg -> die "cannot load checkpoint %s: %s" file msg
            | Ok ck ->
              if ck.Checkpoint.engine <> algo_name algo then
                die "checkpoint %s was written by the %s engine (this run uses %s)"
                  file ck.Checkpoint.engine (algo_name algo);
              if not (List.exists (fun c -> c.Checks.name = ck.checker) configs) then
                die "checkpoint %s is for checker %s" file ck.checker;
              ck.counts)
          resume
      in
      let on_checkpoint ~name =
        Option.map
          (fun file counts ->
            Checkpoint.save file { Checkpoint.engine = algo_name algo; checker = name; counts })
          checkpoint
      in
      (* SIGINT flips a flag the exploration polls; the explorer saves a
         final checkpoint (when asked), the partial JSON document is
         still written, and the process exits 130. *)
      let interrupted = on_sigint () in
      (* With `--json -` or `--trace -` that document owns stdout, so
         every human line is rerouted to stderr via Report.info. *)
      let stdout_taken = json = Some "-" || trace = Some "-" in
      let say fmt =
        Printf.ksprintf
          (fun s -> if stdout_taken then Report.info "%s" s else print_endline s)
          fmt
      in
      (* Progress heartbeats: on by default only on an interactive
         non-CI stderr; --progress forces them on, --quiet off. *)
      let progress_on = (progress || Progress.default_enabled ()) && not quiet in
      let reporter name algo_label =
        if not progress_on then None
        else
          (* A fleet's heartbeat arrives pre-batched (one call per
             worker flush, not one per leaf), so the tick countdown
             that amortises clock reads on the sequential per-leaf path
             would starve emission — check the clock every call. *)
          Some
            (Progress.create ?interval:progress_interval
               ?check_every:(if jobs > 1 then Some 1 else None)
               ~label:
                 (if jobs > 1 then Printf.sprintf "%s/%s (j%d)" name algo_label jobs
                  else Printf.sprintf "%s/%s" name algo_label)
               ())
      in
      let t0 = Unix.gettimeofday () in
      let past limit since =
        match limit with None -> false | Some s -> Unix.gettimeofday () -. since > s
      in
      let failed = ref false in
      (* BENCH_VERIFY records: one JSON object per (config, algorithm)
         run — executions explored, machine steps executed, wall clock,
         and (unless --no-telemetry) the schema-v3 telemetry block.
         "engine" is the exploration algorithm; "exec_engine" is the
         program engine. *)
      let telemetry_json_on = json <> None && not no_telemetry in
      let any_telemetry = ref false in
      let json_rows = ref [] in
      List.iter
        (fun (config : Checks.t) ->
          let name = config.name in
          let config = match faults with None -> config | Some m -> { config with faults = m } in
          let t1 = Unix.gettimeofday () in
          (* [--timeout] bounds each config separately, on top of the
             global [--budget]; either way the explorer stops cleanly
             and its partial statistics are still reported.  The
             explorers ask at every leaf, and a clock read costs about
             as much as a short leaf, so the clock is read once per
             [stop_clock_every] calls of a domain (fleet workers share
             this closure).  An expiry is latched, so every worker stops
             at its next leaf, and a config that starts after the budget
             ran out stops at its first. *)
          let expired = Atomic.make (past budget t0) in
          let stop () =
            Atomic.get interrupted || Atomic.get expired
            || begin
              let left = Domain.DLS.get stop_countdown in
              decr left;
              !left <= 0
              && begin
                left := stop_clock_every;
                past budget t0 || past timeout t1
              end
              && (Atomic.set expired true; true)
            end
          in
          (* One registry per config run: coverage (the per-leaf work)
             only when the block lands in --json; counters alone when a
             progress heartbeat wants the fleet extras or --trace wants
             the shard records.  --cross runs two engines over the same
             config and the naive oracle carries no probe, so neither gets
             one. *)
          let telemetry =
            if algo = `Cross || algo = `Naive then None
            else if telemetry_json_on then
              Some (Telemetry.create ~coverage:true ~domains:jobs ())
            else if trace <> None || (progress_on && (jobs > 1 || dedup)) then
              Some (Telemetry.create ~domains:jobs ())
            else None
          in
          (* The POR search rejects a resume path its tree cannot take
             ([Invalid_argument]); that is a bad-input condition, exit 2. *)
          let rows, verdict =
            try
              explore ~engine ~jobs ~dedup ~max_runs ~algo ~stop ~reporter:(reporter name)
                ?telemetry ?resume ?on_checkpoint:(on_checkpoint ~name) config
            with Invalid_argument _ when resume_file <> None ->
              die "checkpoint %s does not fit checker %s" (Option.get resume_file) name
          in
          let elapsed = Unix.gettimeofday () -. t1 in
          (match verdict with
           | Pass ->
             let line r =
               say "%-26s explored=%d (complete=%d truncated=%d)%s steps=%d %s (%.1fs)"
                 name (r.complete + r.truncated) r.complete r.truncated
                 (match r.pruned with
                  | None -> ""
                  | Some p when r.dedup_hits > 0 ->
                    Printf.sprintf " pruned=%d (dedup_hits=%d)" p r.dedup_hits
                  | Some p -> Printf.sprintf " pruned=%d" p)
                 r.steps
                 (if r.exhausted then "exhausted"
                  else if r.pruned = None then "budget exceeded"
                  else if stop () then "BUDGET EXCEEDED"
                  else "run budget exceeded")
                 elapsed
             in
             if not quiet then List.iter line rows
           | Compared x ->
             (* AGREE requires both differentials: naive vs POR outcome
                sets, and the POR search repeated under the other
                program engine (vm vs tree). *)
             if not quiet then
               say
                 "%-26s naive=%d/%d por=%d/%d pruned=%d outcomes=%d engines=%s %s \
                  (%.1fs)"
                 name x.naive.complete x.naive.truncated x.por.complete
                 x.por.truncated x.por.pruned x.outcome_count
                 (if x.engines_agree then "ok" else "MISMATCH")
                 (if verdict_ok verdict then "AGREE" else "MISMATCH")
                 elapsed
           | Shrunk f ->
             let file = Filename.concat artifact_dir (name ^ ".counterexample.sexp") in
             Artifact.save file f.artifact;
             say "%-26s VIOLATION: %s" name f.reason;
             say "  after %d executions; shrunk to n=%d, %d choices (%d shrink replays)"
               (Por.explored f.stats) f.artifact.n (List.length f.artifact.path)
               f.shrink_replays;
             say "  counterexample written to %s" file
           | Violation reason -> say "%-26s VIOLATION: %s" name reason);
          (* The fleet trace of the one config --trace allows. *)
          (match (trace, telemetry) with
           | Some file, Some t ->
             write_doc ~wrote:"check" file (fun oc ->
                 output_string oc (Chrome_trace.fleet ~workers:jobs (Telemetry.shards t)))
           | _ -> ());
          let ok = verdict_ok verdict in
          if not ok then failed := true;
          let telemetry_field =
            match telemetry with
            | Some t when telemetry_json_on ->
              any_telemetry := true;
              Telemetry.finalize t;
              ",\"telemetry\":" ^ Telemetry.to_json t
            | _ -> ""
          in
          List.iter
            (fun r ->
              json_rows :=
                Printf.sprintf
                  "{\"name\":%S,\"engine\":%S,\"exec_engine\":%S,\"jobs\":%d,\
                   \"executions\":%d,\"complete\":%d,\"truncated\":%d%s,\"steps\":%d,\
                   \"wall_clock_seconds\":%.3f,\"exhausted\":%b,\"ok\":%b%s}"
                  name r.algo (engine_name engine) jobs (r.complete + r.truncated)
                  r.complete r.truncated
                  (match r.pruned with
                   | Some p -> Printf.sprintf ",\"pruned\":%d" p
                   | None -> "")
                  r.steps elapsed r.exhausted ok telemetry_field
                :: !json_rows)
            rows)
        configs;
      (* Rows without telemetry are the historical schema v1; the nested
         per-row telemetry/coverage block is schema v3 (v2 was the
         fault-plane artifact schema). *)
      Option.iter
        (fun file ->
          write_doc ~wrote:"check" file (fun oc ->
              Printf.fprintf oc
                "{\n  \"schema_version\": %d,\n  \"kind\": \"verify-bench\",\n  \
                 \"results\": [\n    %s\n  ]\n}\n"
                (if !any_telemetry then 3 else 1)
                (String.concat ",\n    " (List.rev !json_rows))))
        json;
      exit_if_interrupted "check" interrupted;
      if !failed then quit 1
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  let algo_arg =
    let pick naive cross dpor : algo =
      if dpor && (naive || cross) then die "--dpor excludes --naive/--cross";
      if cross then `Cross else if naive then `Naive else if dpor then `Dpor else `Por
    in
    Term.(const pick
          $ flag [ "naive" ]
              "Use the unreduced re-execution enumerator instead of the POR \
               engine.  Sequential oracle only — excludes --jobs, --dedup and \
               checkpointing."
          $ flag [ "cross" ]
              "Run both exploration algorithms (naive and POR) and compare \
               complete-execution outcome sets; also repeats the POR search \
               under the other program engine (vm vs tree) and compares."
          $ flag [ "dpor" ]
              "Use the dynamic (source-set-style) partial-order-reduction \
               engine: backtracking points are added only where executed \
               transitions race, so it explores fewer executions than the \
               sleep-set engine while preserving the complete-execution \
               outcome set.  Sequential oracle only — excludes --jobs, \
               --dedup, --naive, --cross and checkpointing.")
  in
  let seconds flag_name doc =
    let check s =
      if s > 0. then s
      else die "bad --%s %g (expected a positive number of seconds)" flag_name s
    in
    Term.(const (Option.map check)
          $ Arg.(value & opt (some float) None & info [ flag_name ] ~docv:"SECONDS" ~doc))
  in
  let file_in names doc = Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc) in
  let engine_arg =
    let parse = function
      | "vm" -> `Vm
      | "tree" -> `Tree
      | other -> die "bad --engine %S (expected 'vm' or 'tree')" other
    in
    Term.(const parse
          $ Arg.(value & opt string "vm"
                 & info [ "engine" ] ~docv:"ENGINE"
                     ~doc:"Program engine: 'vm' (compiled flat-instruction VM, the \
                           default) or 'tree' (the direct Program.t interpreter, kept \
                           as the differential oracle).  Results are bit-identical \
                           under either."))
  in
  let max_runs_arg =
    let check r = if r < 1 then die "bad --max-runs %d (expected at least 1)" r else r in
    Term.(const (Option.map check)
          $ Arg.(value & opt (some int) None
                 & info [ "max-runs" ] ~docv:"RUNS"
                     ~doc:"Override each config's execution budget."))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively verify named checker configs (POR engine by default)")
    Term.(const action $ algo_arg $ engine_arg
          $ jobs_arg
              ~doc:"Workers steal subtree shards of the POR search.  Statistics \
                    and the complete-execution outcome set of an exhaustive run \
                    are identical for every value, except under $(b,--dedup), \
                    whose visited-state table is per shard: there only the \
                    verdict and the outcome set stay invariant, and execution \
                    counts vary with JOBS.  $(b,--naive) and $(b,--dpor) are \
                    sequential oracles (JOBS = 1); $(b,--cross) runs only its \
                    POR side on JOBS domains."
          $ flag [ "dedup" ]
              "Prune scheduling states already visited at the same depth and \
               crash budget (hashed VM snapshots: program counters, memory, \
               fault bits).  Preserves the complete-execution outcome set; \
               execution counts shrink.  VM engine only; excludes \
               --naive/--cross/--dpor and checkpointing."
          $ max_runs_arg
          $ faults_arg
              ~doc:"Override every requested config's fault model: 'none', \
                    'crash:f=K' (crash-closed exploration of up to K \
                    crash-stops), 'weak' (regular-register read forks), \
                    'recover[:r=R]' (crash-recovery closure: restart up to R \
                    crashed processes, volatile registers wiped; needs a crash \
                    budget), or combinations like 'crash:f=1,recover'."
          $ seconds "budget"
              "Wall-clock budget across all requested checkers; exploration \
               stops cleanly (reported as not exhausted) when exceeded."
          $ seconds "timeout"
              "Per-config wall-clock budget (on top of the global \
               $(b,--budget)); a config that exceeds it stops cleanly and \
               its partial statistics still land in the report and the \
               $(b,--json) document."
          $ Term.(const writable_dir
                  $ Arg.(value & opt string "."
                         & info [ "artifact-dir" ] ~docv:"DIR"
                             ~doc:"Where to write <name>.counterexample.sexp on \
                                   failure (an existing, writable directory)."))
          $ file_in [ "replay" ]
              "Replay a counterexample artifact instead of exploring; exits 0 \
               iff the violation reproduces."
          $ output_opt [ "json" ]
              ~doc:"Write per-config exploration statistics (executions, machine \
                    steps, wall clock) as JSON, each row with its telemetry \
                    block (schema v3; v1 under $(b,--no-telemetry), \
                    $(b,--naive) and $(b,--cross)); see `make \
                    perf-verify` and BENCH_VERIFY.json.  FILE '-' writes the \
                    document to stdout and moves all human-facing lines to \
                    stderr."
          $ output_opt [ "trace" ]
              ~doc:"Also record the POR fleet as a Chrome trace-event JSON file \
                    with one track per worker domain: a span per explored shard \
                    (shard id, prefix depth, leaves, steps), each after an \
                    instant marker at its steal.  Needs exactly one checker \
                    name and the POR engine; meaningful with $(b,--jobs) > 1; loadable in \
                    ui.perfetto.dev.  FILE '-' writes the trace to stdout and \
                    moves all human-facing lines to stderr."
          $ output_opt [ "checkpoint" ]
              ~doc:"Periodically save the explorer's DFS frontier to FILE \
                    (atomically), and once more on SIGINT or budget exhaustion; \
                    requires exactly one checker name.  Resume with \
                    $(b,--resume) for bit-identical totals."
          $ file_in [ "resume" ]
              "Resume exploration from a checkpoint written by \
               $(b,--checkpoint) (the engine and checker name must match); \
               the completed run's statistics are bit-identical to an \
               uninterrupted one."
          $ flag [ "no-telemetry" ]
              "Skip the per-run telemetry/coverage block that $(b,--json) \
               includes by default (schema v3); rows revert to the plain \
               schema-v1 shape and the run pays no per-leaf coverage \
               cost — used by `make perf-verify` to keep \
               BENCH_VERIFY.json timings comparable across releases."
          $ progress_arg
              ~doc:"Force progress heartbeats on stderr (executions, rate, \
                    machine steps; steals under $(b,--jobs), the dedup hit rate \
                    under $(b,--dedup)).  Default: on only when stderr is a TTY \
                    and $(b,CI) is unset."
          $ seconds "progress-interval" "Seconds between progress lines (default 1.0)."
          $ flag [ "q"; "quiet" ]
              "Suppress per-config success lines and progress; violations \
               and the exit status still report failures."
          $ Arg.(value & pos_all string []
                 & info [] ~docv:"CHECKER" ~doc:"Checker config names, or 'all'."))

(* trace *)

let trace_cmd =
  let action (config : Checks.t) out seed adversary =
    let n = config.n in
    let memory, body = Checks.setup_of config ~n () in
    let ct = Chrome_trace.create ~n in
    let result =
      Scheduler.run ~cheap_collect:config.cheap_collect ~sink:(Chrome_trace.sink ct) ~n
        ~adversary ~rng:(Rng.create seed) ~memory
        (fun ~pid ~rng:_ -> body ~pid)
    in
    write_doc out (Chrome_trace.write ct);
    Report.info "[trace] %s under %s: %d steps, %d trace events%s" config.name
      adversary.Adversary.name result.Scheduler.steps (Chrome_trace.events ct)
      (if out = "-" then "" else Printf.sprintf ", wrote %s" out);
    Report.info "[trace] load the file at https://ui.perfetto.dev"
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record one execution of a checker config as a Chrome/Perfetto trace")
    Term.(const action
          $ checker_arg
              ~doc:"Checker config name to trace one execution of (see `conrat list`)."
          $ output [ "o"; "out" ] ~default:"trace.json"
              ~doc:"Output file for the Chrome trace-event JSON ('-' = stdout)."
          $ seed_arg $ adversary_arg "round_robin")

(* list *)

let list_cmd =
  let action () =
    Printf.printf "protocols:   %s\n" (String.concat ", " protocol_names);
    Printf.printf "adversaries: %s\n" (String.concat ", " adversary_names);
    Printf.printf "workloads:   %s\n" (String.concat ", " workload_names);
    Printf.printf "experiments: %s\n" (String.concat ", " Experiments.all_names);
    Printf.printf "checkers:    %s\n" (String.concat ", " Checks.names);
    Printf.printf "checker demos (expected-fail): %s\n"
      (String.concat ", " Checks.demo_names);
    Printf.printf "checkers (extended, by name): %s\n"
      (String.concat ", " Checks.extended_names)
  in
  Cmd.v (Cmd.info "list" ~doc:"List available components") Term.(const action $ const ())

let () =
  let doc = "modular shared-memory consensus (conciliators + ratifiers), Aspnes PODC 2010" in
  let info = Cmd.info "conrat" ~version:"1.0.0" ~doc in
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [ run_cmd; sweep_cmd; experiment_cmd; check_cmd; trace_cmd; list_cmd ])
    with e ->
      (* A full stdout raises from whichever print met it first, and
         [flush_stdout] meets it again and reports it.  Anything else is
         an internal error, reported as Cmdliner would. *)
      flush_stdout ();
      prerr_endline ("conrat: internal error, uncaught exception:\n" ^ Printexc.to_string e);
      Cmd.Exit.internal_error
  in
  quit code
