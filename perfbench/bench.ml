(* conrat's outside-in benchmark: four fixed-work workloads driven
   through the public API and timed from outside the library.

   An untraced run (--trace 0) repeats the workload's fixed work until
   --seconds have passed and reports the end-to-end metrics.  A traced
   run (--trace 1) does the work once untraced and once traced: every
   call the benchmark makes or owns becomes a span, machine events are
   counted at the Sink boundary, and the machine calls Por makes
   internally are timed by a replay drive over paths the search really
   explored.  README.md gives the workload rationale and the metric
   table; run.py builds this executable and passes provenance in. *)

open Conrat_sim
open Conrat_verify
open Conrat_harness
module Telemetry = Conrat_obs.Telemetry

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(* ------------------------------------------------------------------ *)

(* End-to-end times read process CPU time.  The benchmark is one
   process on one domain, so on an idle host CPU time equals wall time;
   time the process spends descheduled is not counted. *)
let clock =
  "process CPU time (Sys.time: getrusage user+sys), stopped during \
   untimed full major collections and speed probes, scaled per pass by \
   500 us over the pass's median probe time; wall_s sums per-chunk minima \
   across passes"
let cpu_s = Sys.time

(* The work clock is [cpu_s] stopped during the benchmark's own
   housekeeping between operations (a full major collection, see
   [untimed], and the speed probe). *)
let excluded = ref 0.
let work_s () = cpu_s () -. !excluded

let untimed f =
  let t0 = cpu_s () in
  f ();
  excluded := !excluded +. (cpu_s () -. t0)

(* The speed probe: 3 000 dependent loads along one random cycle through
   a 32 MiB array outside the OCaml heap, about 0.5 ms, run untimed at
   every chunk mark.  Each probe resumes the walk where the last one
   stopped, so every load misses the caches whatever the workload left
   in them.  Other tenants of a shared host slow this process's memory
   accesses for stretches longer than a run, which no choice among
   passes can undo; the probe slows with them.  Each pass's times are
   therefore scaled by [probe_ref_s] over the pass's median probe time:
   end-to-end times read as CPU seconds at the memory speed of an idle
   2-vCPU Xeon host, where the probe's median was [probe_ref_s].  Over
   the passes of 60 s runs on a busy host of that kind, this scaling
   cut the spread of pass times (coefficient of variation) from 9.3 %
   to 4.6 % on por_faults, 6.8 % to 3.9 % on mc_paper and 8.9 % to
   7.0 % on por_dedup; a core-bound probe barely moved.  The probe is
   the benchmark's own code, so no change to the library moves it. *)
let probe_ref_s = 500e-6
let probe_words = 1 lsl 22
let probe_hops = 3_000

module A1 = Bigarray.Array1

(* Sattolo's shuffle: one cycle through every slot. *)
let probe_cycle =
  let a = A1.create Bigarray.int Bigarray.c_layout probe_words in
  for i = 0 to probe_words - 1 do A1.unsafe_set a i i done;
  let st = Random.State.make [| 7 |] in
  for i = probe_words - 1 downto 1 do
    let j = Random.State.int st i in
    let t = A1.unsafe_get a i in
    A1.unsafe_set a i (A1.unsafe_get a j);
    A1.unsafe_set a j t
  done;
  a

let probe_at = ref 0
let probes = ref []

let probe () =
  let t0 = cpu_s () in
  let p = ref !probe_at in
  for _ = 1 to probe_hops do p := A1.unsafe_get probe_cycle !p done;
  let dt = cpu_s () -. t0 in
  probe_at := !p;
  excluded := !excluded +. dt;
  probes := dt :: !probes

(* Chunk marks: work-clock readings at fixed points of the fixed work
   (every [chunk_leaves] leaves of a search, every [chunk_trials] trials
   of a plan, and between operations), each followed by a probe.  The
   work is deterministic, so the k-th mark falls at the same point in
   every pass. *)
let marks = ref []
let mark () = marks := work_s () :: !marks; probe ()
let chunk_leaves = 1 lsl 16
let chunk_trials = 256

(* Spans and per-call layer times read the monotonic nanosecond clock. *)
let span_clock = "monotonic ns (clock_gettime via Bechamel's Monotonic_clock)"
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The traced run's pass clock: monotonic time, stopped like [work_s]. *)
let mono_s () = (float_of_int (now_ns ()) /. 1e9) -. !excluded

(* The mean cost of timing an empty call, subtracted from every
   per-call time. *)
let clock_overhead_ns =
  lazy
    (let k = 100_000 and total = ref 0 in
     for _ = 1 to k do
       let t = now_ns () in
       ignore (Sys.opaque_identity ());
       total := !total + (now_ns () - t)
     done;
     !total / k)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One exhaustive search and the counts it must reproduce. *)
type search = {
  config : string;           (* Checks registry name *)
  dedup : bool;
  faults : string option;    (* a --faults spec, parsed as the CLI does *)
  explored : int;
  pruned : int;
  dedup_hits : int;
  steps : int;
}

type workload =
  | Por of search list
  | Plans of string list     (* E-plans, Quick mode *)

let search ?(dedup = false) ?faults ?(hits = 0) config ~explored ~pruned ~steps =
  { config; dedup; faults; explored; pruned; dedup_hits = hits; steps }

(* Trial seeds of mc_paper move by [seed * seed_stride]; the stride
   exceeds every plan's seed range, so seeds never overlap.  E5 keeps
   its own seeds: its n = 64 baseline trials are heavy-tailed, and one
   long trial sets the whole run's peak heap, so shifted E5 seeds would
   make heap_peak_mb (and much of wall_s) a function of the seed rather
   than of the code. *)
let seed_stride = 1_000_000
let fixed_seed_plans = [ "E5" ]

(* [tiny] sizes serve the self-test (selftest.py), not measurement. *)
let workload name ~tiny =
  match (name, tiny) with
  | "por_sleep", false ->
    Por [ search "fallback_n2_d34" ~explored:18_697_486 ~pruned:301_140
            ~steps:49_889_473 ]
  | "por_sleep", true ->
    Por [ search "fallback_n2_d28" ~explored:1_202_610 ~pruned:14_934
            ~steps:3_177_102 ]
  | "por_dedup", false ->
    Por [ search ~dedup:true "fallback_n2_d34" ~explored:1_661_305
            ~pruned:255_828 ~hits:190_936 ~steps:5_369_837 ]
  | "por_dedup", true ->
    Por [ search ~dedup:true "fallback_n2_d28" ~explored:200_785
            ~pruned:28_253 ~hits:22_688 ~steps:631_332 ]
  | "por_faults", false ->
    Por [ search ~faults:"crash:f=1" "binary_ratifier_n5" ~explored:457_284
            ~pruned:4_836_928 ~steps:7_373_906;
          search ~faults:"crash:f=2,recover" "binary_ratifier_rec_n3_f1"
            ~explored:398_081 ~pruned:883_643 ~steps:3_776_077 ]
  | "por_faults", true ->
    Por [ search ~faults:"crash:f=2" "binary_ratifier_n4_f2" ~explored:22_744
            ~pruned:64_979 ~steps:157_378;
          search ~faults:"crash:f=1,recover" "binary_ratifier_rec_n2_f1"
            ~explored:170 ~pruned:137 ~steps:1_042 ]
  | "mc_paper", false ->
    (* The fixed-seed plans run first: E5's peak heap is the workload's,
       and collecting cannot undo the seed-dependent heap layout that
       earlier plans leave behind. *)
    Plans (fixed_seed_plans
           @ List.filter (fun e -> not (List.mem e fixed_seed_plans))
               Experiments.all_names)
  | "mc_paper", true -> Plans [ "E3" ]
  | _ -> failwith ("unknown workload " ^ name)


(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("wall_s", "s"); ("trials_per_s", "1/s"); ("heap_peak_mb", "MB");
    ("setup_s", "s") ]

(* Every traced run emits every name below; a layer the workload does
   not use reads 0. *)
let per_layer =
  [ ("checks.check.calls", "count"); ("checks.check.s", "s");
    ("checks.setup.calls", "count"); ("checks.setup.s", "s");
    ("experiments.build.s", "s");
    ("machine.step.calls", "count"); ("machine.step.ns", "ns");
    ("machine.step.s", "s");
    ("machine.snapshot.calls", "count"); ("machine.snapshot.ns", "ns");
    ("machine.snapshot.s", "s");
    ("machine.restore.calls", "count"); ("machine.restore.ns", "ns");
    ("machine.restore.s", "s");
    ("machine.state_hash.calls", "count"); ("machine.state_hash.ns", "ns");
    ("machine.state_hash.s", "s");
    ("machine.crash.calls", "count"); ("machine.crash.ns", "ns");
    ("machine.recover.calls", "count"); ("machine.recover.ns", "ns");
    ("machine.create.ns", "ns"); ("code.compile_share", "ratio");
    ("por.leaves.complete", "count"); ("por.leaves.truncated", "count");
    ("por.leaves.pruned", "count"); ("por.prune_ratio", "ratio");
    ("por.dedup.hits", "count"); ("por.dedup.misses", "count");
    ("por.dedup.intersections", "count"); ("por.dedup.table_peak", "count");
    ("por.dedup.hit_ratio", "ratio");
    ("por.snapshots", "count"); ("por.snapshot_refreshes", "count");
    ("por.snapshot_pool_high", "count");
    ("por.self_s", "s"); ("attributed_pct", "%");
    ("engine.trial.calls", "count"); ("engine.trial.p50_us", "us");
    ("engine.trial.p99_us", "us") ]
  @ List.map (fun e -> ("plan." ^ e ^ ".trials_per_s", "1/s"))
      Experiments.all_names
  @ [ ("adversary.choose.calls", "count"); ("adversary.choose.s", "s");
      ("engine.merge.s", "s"); ("experiments.render.s", "s");
      ("gc.minor_mb", "MB"); ("gc.promoted_mb", "MB");
      ("gc.major_collections", "count"); ("trace.overhead_pct", "%") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let seti name v = set name (float_of_int v)
let get name = Option.value (Hashtbl.find_opt values name) ~default:0.

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;
  mutable t0 : int;
  mutable t1 : int;
  mutable calls : int;
  mutable busy : int;    (* summed call time, clock overhead included *)
}

let spans = ref []
let next_id = ref 0

let span ?(parent = -1) name =
  let s = { id = !next_id; name; parent; t0 = now_ns (); t1 = 0; calls = 1;
            busy = 0 } in
  incr next_id;
  spans := s :: !spans;
  s

let finish s =
  s.t1 <- now_ns ();
  s.busy <- s.t1 - s.t0

(* An aggregate span stands for every call of one kind under its parent
   (18.7 M leaf checks would not fit in memory one span each): it runs
   from the first call's start to the last call's end and carries the
   call count and the summed call time. *)
let agg ~parent name =
  let s = span ~parent name in
  s.calls <- 0;
  s

let add_call s t0 t1 =
  if s.calls = 0 then s.t0 <- t0;
  s.t1 <- t1;
  s.calls <- s.calls + 1;
  s.busy <- s.busy + (t1 - t0)

(* Summed call time less the clock reads, in seconds. *)
let net_s s =
  float_of_int (max 0 (s.busy - (s.calls * Lazy.force clock_overhead_ns))) /. 1e9

(* Per-call accumulator for the replay drive. *)
type acc = { mutable n : int; mutable ns : int }

let acc () = { n = 0; ns = 0 }

(* [calls] calls that took [dt] ns, one clock read pair included. *)
let add_batch a calls dt =
  a.n <- a.n + calls;
  a.ns <- a.ns + dt - Lazy.force clock_overhead_ns

let timed a f =
  let t0 = now_ns () in
  f ();
  add_batch a 1 (now_ns () - t0)

let per_call a = if a.n = 0 then 0. else float_of_int (max 0 a.ns) /. float_of_int a.n

(* The median over replay rounds of the per-call time: robust to a
   round that an interrupt or another tenant slowed. *)
let round_median pick rounds =
  median (List.filter_map (fun r -> let a = pick r in
                            if a.n = 0 then None else Some (per_call a)) rounds)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type 'a pass = {
  secs : float;
  chunks : float array;  (* time between consecutive chunk marks *)
  probe : float;         (* median probe time over the pass *)
  attempted : int;
  failed : int;
  heap : int;    (* peak major heap words when the pass ended *)
  out : 'a;
}

let forget p = { p with out = () }

let timed_pass clock f =
  marks := [];
  probes := [];
  let t0 = clock () in
  let attempted, failed, out = f () in
  let t1 = clock () in
  let m = Array.of_list ((t0 :: List.rev !marks) @ [ t1 ]) in
  { secs = t1 -. t0; attempted; failed; out;
    chunks = Array.init (Array.length m - 1) (fun i -> m.(i + 1) -. m.(i));
    probe = (if !probes = [] then probe_ref_s else median !probes);
    heap = (Gc.quick_stat ()).Gc.top_heap_words }

(* The factor that turns a pass's CPU seconds into reference seconds. *)
let speed p = probe_ref_s /. p.probe

(* The fastest scaled time of each chunk across the passes, summed.
   Other tenants' load also slows stretches of a few seconds that the
   probe does not see; stitching the best run of every chunk keeps
   those stretches out of the figure. *)
let stitched passes =
  match passes with
  | [] -> 0.
  | p :: _ ->
    let k = Array.length p.chunks in
    if List.exists (fun q -> Array.length q.chunks <> k) passes then
      List.fold_left (fun a q -> Float.min a (q.secs *. speed q)) infinity passes
    else
      Array.fold_left ( +. ) 0.
        (Array.init k (fun i ->
           List.fold_left (fun a q -> Float.min a (q.chunks.(i) *. speed q))
             infinity passes))

(* Repeat the fixed work for about [seconds] of wall time: at least one
   pass, and another only while it should end within [seconds].  [after]
   runs after each pass. *)
let repeat ~seconds ~after f =
  let start = Unix.gettimeofday () in
  let rec go acc =
    let w0 = Unix.gettimeofday () in
    let p = timed_pass work_s f in
    let w1 = Unix.gettimeofday () in
    Printf.eprintf
      "[perfbench] pass %d: %.3f s CPU, %.3f s wall, probe %.1f us, %.3f ref s\n%!"
      (List.length acc + 1) p.secs (w1 -. w0) (p.probe *. 1e6) (p.secs *. speed p);
    after ();
    let acc = p :: acc in
    if Unix.gettimeofday () -. start +. (w1 -. w0) <= float_of_int seconds then go acc
    else List.rev acc
  in
  go []

(* Set-up timing: samples of enough calls of [f] that each spans at
   least 10 ms, each from a fully collected heap.  [setup_sampler f]
   returns a function that takes [k] more samples; the median over all
   of them is the set-up time. *)
let setup_sampler f =
  let sample reps =
    Gc.full_major ();
    let t0 = cpu_s () in
    for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
    (cpu_s () -. t0) /. float_of_int reps
  in
  let rec calibrate reps =
    if sample reps *. float_of_int reps >= 0.01 then reps
    else calibrate (reps * 2)
  in
  let reps = lazy (calibrate 1) and samples = ref [] in
  fun k ->
    let reps = Lazy.force reps in
    samples := List.init k (fun _ -> sample reps) @ !samples;
    median !samples

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  set "gc.minor_mb" (mb (int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words)));
  set "gc.promoted_mb"
    (mb (int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words)));
  seti "gc.major_collections" (g1.Gc.major_collections - g0.Gc.major_collections);
  r

(* ------------------------------------------------------------------ *)
(* POR workloads                                                       *)
(* ------------------------------------------------------------------ *)

let resolve s =
  let cfg =
    match Checks.find s.config with
    | Some c -> c
    | None -> failwith ("unknown checker config " ^ s.config)
  in
  match s.faults with
  | None -> cfg
  | Some spec ->
    (match Fault.of_string spec with
     | Ok m -> { cfg with Checks.faults = m }
     | Error msg -> failwith (Printf.sprintf "bad fault spec %S: %s" spec msg))

let por_setup searches () =
  List.map
    (fun s ->
      let cfg = resolve s in
      ignore (Sys.opaque_identity (Checks.setup_of cfg ~n:cfg.Checks.n ()));
      (s, cfg))
    searches

let verify_stats s (st : Por.stats) =
  let ok =
    st.Por.exhausted && Por.explored st = s.explored && st.pruned = s.pruned
    && st.dedup_hits = s.dedup_hits && st.steps = s.steps
  in
  if not ok then
    Printf.eprintf
      "perfbench: %s: explored=%d pruned=%d dedup_hits=%d steps=%d \
       exhausted=%b; expected %d %d %d %d\n%!"
      s.config (Por.explored st) st.pruned st.dedup_hits st.steps st.exhausted
      s.explored s.pruned s.dedup_hits s.steps;
  ok

let report_error what e =
  Printf.eprintf "perfbench: %s raised %s\n%!" what (Printexc.to_string e)

let heartbeat ~runs ~pruned ~steps:_ ~depth:_ =
  if (runs + pruned) land (chunk_leaves - 1) = 0 then mark ()

(* One untraced search through [Checks.run], from a fully collected
   heap, so that neither its time nor its peak heap depends on what ran
   before it; [None] is a failed operation. *)
let run_search (s, cfg) =
  untimed Gc.full_major;
  mark ();
  match Checks.run ~dedup:s.dedup ~heartbeat cfg with
  | Ok st -> if verify_stats s st then Some st else None
  | Error f ->
    Printf.eprintf "perfbench: %s violated its property: %s\n%!" s.config
      f.Checks.reason;
    None
  | exception e -> report_error s.config e; None

let por_pass inputs () =
  let out = List.map run_search inputs in
  (List.length out, List.length (List.filter Option.is_none out), out)

type events = {
  mutable ops : int;
  mutable snaps : int;
  mutable restores : int;
  mutable crashes : int;
  mutable recovers : int;
}

type traced_search = {
  stats : Por.stats option;
  events : events;
  counters : Telemetry.snapshot;
  check : span;
  setup : span;
  bursts : int array list list;  (* sampled leaf paths, see [replay_por] *)
}

(* The replay drive samples this many bursts of this many consecutive
   checked leaves, spread evenly over the search. *)
let bursts = 64
let burst = 16

(* [Checks.run]'s exact [Por.explore] call, with the setup and check
   closures wrapped, a counting sink and a counters-only probe.  The
   sink also tracks the current path (one code per transition: pid*4 +
   0/1 step with its landed flag, 2 crash, 3 recover) so that leaves
   can be sampled for the replay drive. *)
let traced_search ~parent (s, cfg) =
  untimed Gc.full_major;
  let sp = span ~parent ("search " ^ s.config) in
  let n = cfg.Checks.n in
  let ev = { ops = 0; snaps = 0; restores = 0; crashes = 0; recovers = 0 } in
  let path = Array.make (cfg.Checks.max_depth + 1) 0 and len = ref 0 in
  let note step code =
    if step < Array.length path then begin
      path.(step) <- code;
      len := step + 1
    end
  in
  let sink =
    Sink.make
      ~on_op:(fun ~step ~pid ~kind:_ ~loc:_ ~landed ~stage:_ ->
        ev.ops <- ev.ops + 1;
        note step ((pid lsl 2) lor Bool.to_int landed))
      ~on_crash:(fun ~step ~pid ->
        ev.crashes <- ev.crashes + 1;
        note step ((pid lsl 2) lor 2))
      ~on_recover:(fun ~step ~pid ->
        ev.recovers <- ev.recovers + 1;
        note step ((pid lsl 2) lor 3))
      ~on_snapshot:(fun ~step:_ -> ev.snaps <- ev.snaps + 1)
      ~on_restore:(fun ~step:_ -> ev.restores <- ev.restores + 1)
      ()
  in
  let telemetry = Telemetry.create ~domains:1 () in
  let setup_span = agg ~parent:sp.id "checks.setup" in
  let check_span = agg ~parent:sp.id "checks.check" in
  let setup () =
    let t0 = now_ns () in
    let r = Checks.setup_of cfg ~n () in
    add_call setup_span t0 (now_ns ());
    r
  in
  let check_of = Checks.check_of cfg ~n in
  let every = max burst (s.explored / bursts) in
  let sampled = ref [] in
  let check ~complete outputs =
    let t0 = now_ns () in
    let r = check_of ~complete outputs in
    add_call check_span t0 (now_ns ());
    let k = check_span.calls mod every in
    if k < burst then begin
      let p = Array.sub path 0 !len in
      match !sampled with
      | b :: rest when k > 0 -> sampled := (p :: b) :: rest
      | l -> sampled := [ p ] :: l
    end;
    r
  in
  let stats =
    match
      Por.explore ~max_depth:cfg.Checks.max_depth ~max_runs:cfg.Checks.max_runs
        ~cheap_collect:cfg.Checks.cheap_collect ~faults:cfg.Checks.faults ~sink
        ~probe:(Telemetry.probe telemetry ~domain:0) ~dedup:s.dedup ~n ~setup
        ~check ()
    with
    | Ok st -> if verify_stats s st then Some st else None
    | Error (reason, _, _) ->
      Printf.eprintf "perfbench: traced %s violated its property: %s\n%!"
        s.config reason;
      None
    | exception e -> report_error ("traced " ^ s.config) e; None
  in
  finish sp;
  { stats; events = ev; counters = Telemetry.totals telemetry;
    check = check_span; setup = setup_span;
    bursts = List.rev_map List.rev !sampled }

(* Per-call times of one replay round. *)
type replay = {
  step : acc;
  snap : acc;
  restore : acc;
  hash : acc;
  crash : acc;
  recover : acc;
}

let new_replay () =
  { step = acc (); snap = acc (); restore = acc (); hash = acc ();
    crash = acc (); recover = acc () }

let common_prefix a b =
  let l = min (Array.length a) (Array.length b) in
  let rec go i = if i < l && a.(i) = b.(i) then go (i + 1) else i in
  go 0

let replay_rounds = 21

(* Replay the sampled bursts on a fresh machine of the search's config
   the way the depth-first search moves: from one leaf to the next, one
   restore back to the branch point where the paths diverge, then the
   new suffix.  Each round makes two passes over the bursts.  The first
   snapshots only where a later restore needs it and times each run of
   consecutive steps as one batch (crashes and recoveries singly).  The
   second snapshots and state-hashes (dedup's per-branch-point cost)
   every level and times those calls and the restores singly.  A round
   times at least 20 000 steps.  Returns the [Machine.create] time and
   one record per round. *)
let replay_por (cfg : Checks.t) bursts =
  let n = cfg.Checks.n in
  let memory, body = Checks.setup_of cfg ~n () in
  let create = acc () and m = ref None in
  timed create (fun () ->
    m := Some (Machine.create ~cheap_collect:cfg.Checks.cheap_collect ~n ~memory body));
  let m = Option.get !m in
  let paths = List.concat bursts in
  let depth = List.fold_left (fun d p -> max d (Array.length p)) 0 paths in
  let pool = Array.init (depth + 1) (fun _ -> Machine.snapshot m) in
  let path_steps = sum Array.length paths in
  let repeats = if path_steps = 0 then 0 else 1 + (20_000 / path_steps) in
  (* [needed]: the levels to snapshot in a batch pass; [None] for the
     per-call pass *)
  let descend r ~needed p from =
    let run = ref 0 and t0 = ref 0 in
    let flush () =
      if !run > 0 then add_batch r.step !run (now_ns () - !t0);
      run := 0
    in
    for i = from to Array.length p - 1 do
      (match needed with
       | Some needed ->
         if needed.(i) then begin
           flush ();
           Machine.snapshot_into m pool.(i)
         end
       | None ->
         timed r.snap (fun () -> Machine.snapshot_into m pool.(i));
         timed r.hash (fun () -> ignore (Sys.opaque_identity (Machine.state_hash m))));
      let pid = p.(i) lsr 2 in
      match p.(i) land 3 with
      | 2 -> flush (); timed r.crash (fun () -> Machine.crash m ~pid)
      | 3 -> flush (); timed r.recover (fun () -> Machine.recover m ~pid)
      | c when needed = None -> Machine.step_forced m ~pid ~landed:(c = 1)
      | c ->
        if !run = 0 then t0 := now_ns ();
        Machine.step_forced m ~pid ~landed:(c = 1);
        incr run
    done;
    flush ()
  in
  let walk r ~batch burst =
    match burst with
    | [] -> ()
    | first :: rest ->
      let cuts =
        List.rev
          (snd
             (List.fold_left
                (fun (prev, cuts) p ->
                  (p, min (common_prefix prev p) (Array.length prev - 1) :: cuts))
                (first, []) rest))
      in
      let needed =
        if batch then begin
          let a = Array.make (depth + 1) false in
          List.iter (fun c -> a.(c) <- true) (0 :: cuts);
          Some a
        end
        else None
      in
      descend r ~needed first 0;
      List.iter2
        (fun p c ->
          if batch then Machine.restore m pool.(c)
          else timed r.restore (fun () -> Machine.restore m pool.(c));
          descend r ~needed p c)
        rest cuts;
      Machine.restore m pool.(0)
  in
  ( create,
    List.init replay_rounds (fun _ ->
      let r = new_replay () in
      for _ = 1 to repeats do
        List.iter (walk r ~batch:true) bursts;
        List.iter (walk r ~batch:false) bursts
      done;
      r) )

(* Layer seconds = calls x replayed ns per call, summed over searches;
   the reported ns is the call-weighted mean (or the replay's own
   figure when the workload never makes the call). *)
let layer name per_search =
  let calls = sum fst per_search in
  let secs =
    List.fold_left (fun a (c, ns) -> a +. (float_of_int c *. ns /. 1e9)) 0. per_search
  in
  let ns =
    if calls > 0 then secs *. 1e9 /. float_of_int calls
    else median (List.map snd per_search)
  in
  seti (name ^ ".calls") calls;
  set (name ^ ".ns") ns;
  set (name ^ ".s") secs;
  secs

let por_traced ~inputs ~root =
  let untraced =
    gc_delta (fun () -> timed_pass mono_s (por_pass inputs))
  in
  let traced =
    timed_pass mono_s (fun () ->
      let out = List.map (traced_search ~parent:root.id) inputs in
      let failed =
        List.fold_left2
          (fun f t u ->
            if t.stats <> None && t.stats = u then f
            else begin
              Printf.eprintf "perfbench: traced and untraced searches differ\n%!";
              f + 1
            end)
          0 out untraced.out
      in
      (List.length out, failed, out))
  in
  let ts = traced.out in
  let replays =
    List.map2 (fun (_, cfg) t -> replay_por cfg t.bursts) inputs ts
  in
  let c = List.fold_left (fun a t -> Telemetry.merge a t.counters) (Telemetry.empty ()) ts in
  let cnt k = Telemetry.get c k in
  let pairs calls pick =
    List.map2 (fun t (_, rounds) -> (calls t, round_median pick rounds)) ts replays
  in
  let check_s = List.fold_left (fun a t -> a +. net_s t.check) 0. ts in
  let setup_s = List.fold_left (fun a t -> a +. net_s t.setup) 0. ts in
  seti "checks.check.calls" (sum (fun t -> t.check.calls) ts);
  set "checks.check.s" check_s;
  seti "checks.setup.calls" (sum (fun t -> t.setup.calls) ts);
  set "checks.setup.s" setup_s;
  (* every dedup lookup is exactly one hit, miss or intersection *)
  let hash_calls t =
    Telemetry.(get t.counters dedup_hits + get t.counters dedup_misses
               + get t.counters dedup_intersections)
  in
  let machine_s =
    layer "machine.step" (pairs (fun t -> t.events.ops) (fun r -> r.step))
    +. layer "machine.snapshot" (pairs (fun t -> t.events.snaps) (fun r -> r.snap))
    +. layer "machine.restore" (pairs (fun t -> t.events.restores) (fun r -> r.restore))
    +. layer "machine.state_hash" (pairs hash_calls (fun r -> r.hash))
    +. layer "machine.crash" (pairs (fun t -> t.events.crashes) (fun r -> r.crash))
    +. layer "machine.recover" (pairs (fun t -> t.events.recovers) (fun r -> r.recover))
  in
  let create_ns =
    List.fold_left (fun a (create, _) -> a +. per_call create) 0. replays
  in
  set "machine.create.ns" (create_ns /. float_of_int (List.length replays));
  set "code.compile_share" (create_ns /. 1e9 /. untraced.secs);
  let explored = cnt Telemetry.leaves_complete + cnt Telemetry.leaves_truncated in
  seti "por.leaves.complete" (cnt Telemetry.leaves_complete);
  seti "por.leaves.truncated" (cnt Telemetry.leaves_truncated);
  seti "por.leaves.pruned" (cnt Telemetry.leaves_pruned);
  set "por.prune_ratio"
    (float_of_int (cnt Telemetry.leaves_pruned) /. float_of_int (max 1 explored));
  let hits = cnt Telemetry.dedup_hits and misses = cnt Telemetry.dedup_misses in
  let inters = cnt Telemetry.dedup_intersections in
  seti "por.dedup.hits" hits;
  seti "por.dedup.misses" misses;
  seti "por.dedup.intersections" inters;
  seti "por.dedup.table_peak" (cnt Telemetry.dedup_table_peak);
  set "por.dedup.hit_ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses + inters)));
  seti "por.snapshots" (cnt Telemetry.snapshots);
  seti "por.snapshot_refreshes" (cnt Telemetry.snapshot_refreshes);
  seti "por.snapshot_pool_high" (cnt Telemetry.snapshot_pool_high);
  let attributed = check_s +. setup_s +. machine_s in
  set "por.self_s" (traced.secs -. attributed);
  set "attributed_pct" (100. *. attributed /. traced.secs);
  set "trace.overhead_pct" (100. *. ((traced.secs /. untraced.secs) -. 1.));
  (untraced.attempted + traced.attempted, untraced.failed + traced.failed)

(* ------------------------------------------------------------------ *)
(* mc_paper                                                            *)
(* ------------------------------------------------------------------ *)

type plan_input = {
  pname : string;
  plan : Plan.t;
  render : (string * Engine.aggregate) list -> unit;
}

let mc_setup ~seed names () =
  List.map
    (fun pname ->
      let plan, render = Experiments.build ~mode:Experiments.Quick pname in
      let offset = if List.mem pname fixed_seed_plans then 0 else seed * seed_stride in
      let shift (s : Plan.spec) =
        { s with Plan.seeds = List.map (fun x -> x + offset) s.Plan.seeds }
      in
      { pname; plan = { plan with Plan.specs = List.map shift plan.Plan.specs };
        render })
    names

(* Failed trials: safety failures, quarantined trials and trials that
   never reported. *)
let plan_failed p results =
  let count f = sum (fun (_, a) -> f a) results in
  let trials = count (fun (a : Engine.aggregate) -> a.Engine.trials) in
  let bad = count (fun a -> List.length a.Engine.failures) in
  let quarantined = count (fun a -> List.length a.Engine.quarantined) in
  if bad + quarantined > 0 then
    Printf.eprintf "perfbench: %s: %d safety failures, %d quarantined\n%!"
      p.pname bad quarantined;
  bad + quarantined + max 0 (Plan.trial_count p.plan - trials - quarantined)

(* One plan as [experiment --quick] runs it: the engine, then the
   renderer.  Each trial is one operation. *)
let on_progress ~done_ ~total:_ = if done_ mod chunk_trials = 0 then mark ()

let run_plan p =
  let expected = Plan.trial_count p.plan in
  untimed Gc.full_major;
  mark ();
  let t0 = work_s () in
  match Engine.run_plan ~jobs:1 ~quarantine:true ~on_progress p.plan with
  | results ->
    let secs = work_s () -. t0 in
    mark ();
    p.render results;
    (expected, plan_failed p results, (secs, Some results))
  | exception e -> report_error p.pname e; (expected, expected, (0., None))

let mc_pass inputs () =
  let out = List.map run_plan inputs in
  ( sum (fun (e, _, _) -> e) out,
    sum (fun (_, f, _) -> f) out,
    List.map (fun (_, _, o) -> o) out )

let wrap_adversary choose (a : Adversary.t) =
  { a with
    Adversary.fresh =
      (fun ~n rng ->
        let f = a.Adversary.fresh ~n rng in
        fun view ->
          let t0 = now_ns () in
          let pid = f view in
          add_call choose t0 (now_ns ());
          pid) }

(* [Engine.run_plan ~jobs:1 ~quarantine:true] unrolled into
   [Engine.run_trial] and [Engine.merge] calls, each a span. *)
let traced_plan ~parent ~trial_ns p =
  untimed Gc.full_major;
  let sp = span ~parent ("plan " ^ p.pname) in
  let choose = agg ~parent:sp.id "adversary.choose" in
  let merge = agg ~parent:sp.id "engine.merge" in
  let results =
    List.map
      (fun (spec : Plan.spec) ->
        let spec' = { spec with Plan.adversary = wrap_adversary choose spec.Plan.adversary } in
        let result =
          List.fold_left
            (fun acc seed ->
              let t = span ~parent:sp.id "engine.trial" in
              let one =
                try Engine.run_trial spec' seed
                with e ->
                  { Engine.empty_aggregate with
                    Engine.quarantined = [ (seed, Printexc.to_string e) ] }
              in
              finish t;
              trial_ns := t.busy :: !trial_ns;
              let t0 = now_ns () in
              let acc = Engine.merge acc one in
              add_call merge t0 (now_ns ());
              acc)
            Engine.empty_aggregate spec.Plan.seeds
        in
        (spec.Plan.sid, result))
      p.plan.Plan.specs
  in
  let r = span ~parent:sp.id "experiments.render" in
  p.render results;
  finish r;
  finish sp;
  (results, choose, merge, r)

(* Build one machine per spec the way a trial does (fresh memory, the
   protocol instantiated on it, one program per pid), timing
   [Machine.create] (best of three); then drive the last build
   round-robin with [Machine.step_random], the non-journaled path, up to
   2 000 steps timed as one batch. *)
let replay_mc ~step ~create p =
  List.iter
    (fun (spec : Plan.spec) ->
      let n = spec.Plan.n and seed = List.hd spec.Plan.seeds in
      let inputs =
        spec.Plan.workload.Workload.generate ~n ~m:spec.Plan.m (Plan.workload_rng seed)
      in
      let rng pid = Rng.create (seed + pid) in
      let best = ref max_int in
      let drive (type o) (build : Memory.t -> pid:int -> o Program.t) =
        let m = ref None in
        for _ = 1 to 3 do
          let memory = Memory.create () in
          let body = build memory in
          let a = acc () in
          timed a (fun () ->
            m := Some (Machine.create ~cheap_collect:spec.Plan.cheap_collect ~n
                         ~memory body));
          best := min !best a.ns
        done;
        let m = Option.get !m and coin = Rng.create seed in
        let k = ref 0 and t0 = now_ns () in
        while Array.length (Machine.enabled m) > 0 && !k < 2_000 do
          let en = Machine.enabled m in
          Machine.step_random m ~pid:en.(!k mod Array.length en) ~coin;
          incr k
        done;
        add_batch step !k (now_ns () - t0)
      in
      (match spec.Plan.runner with
       | Plan.Consensus f ->
         drive (fun memory ->
           let i = f.Conrat_core.Consensus.instantiate ~n memory in
           fun ~pid -> i.Conrat_core.Consensus.decide ~pid ~rng:(rng pid) inputs.(pid))
       | Plan.Probed build ->
         drive (fun memory ->
           let f, _ = build () in
           let i = f.Conrat_core.Consensus.instantiate ~n memory in
           fun ~pid -> i.Conrat_core.Consensus.decide ~pid ~rng:(rng pid) inputs.(pid))
       | Plan.Deciding f ->
         drive (fun memory ->
           let i = f.Conrat_objects.Deciding.instantiate ~n memory in
           fun ~pid -> i.Conrat_objects.Deciding.run ~pid ~rng:(rng pid) inputs.(pid)));
      (* weight each spec's create cost by its trial count *)
      let trials = List.length spec.Plan.seeds in
      create.n <- create.n + trials;
      create.ns <- create.ns + (trials * !best))
    p.plan.Plan.specs

let percentile sorted q =
  let k = Array.length sorted in
  if k = 0 then 0.
  else float_of_int sorted.(min (k - 1) (int_of_float (q *. float_of_int k)))

let mc_traced ~inputs ~root =
  let untraced = gc_delta (fun () -> timed_pass mono_s (mc_pass inputs)) in
  List.iter2
    (fun p (secs, _) ->
      set ("plan." ^ p.pname ^ ".trials_per_s")
        (float_of_int (Plan.trial_count p.plan) /. secs))
    inputs untraced.out;
  let trial_ns = ref [] in
  let traced =
    timed_pass mono_s (fun () ->
      let out = List.map (traced_plan ~parent:root.id ~trial_ns) inputs in
      let failed =
        List.fold_left2
          (fun f p ((results, _, _, _), (_, u)) ->
            f
            + (if Some results = u then plan_failed p results
               else begin
                 Printf.eprintf "perfbench: traced and untraced %s differ\n%!" p.pname;
                 Plan.trial_count p.plan
               end))
          0 inputs (List.combine out untraced.out)
      in
      (sum (fun p -> Plan.trial_count p.plan) inputs, failed, out))
  in
  let step = acc () and create = acc () in
  List.iter (replay_mc ~step ~create) inputs;
  let spans_of f = List.map f traced.out in
  let total_s l = List.fold_left (fun a s -> a +. net_s s) 0. l in
  let chooses = spans_of (fun (_, c, _, _) -> c) in
  let choose_calls = sum (fun s -> s.calls) chooses in
  let choose_s = total_s chooses in
  let merge_s = total_s (spans_of (fun (_, _, m, _) -> m)) in
  let render_s = total_s (spans_of (fun (_, _, _, r) -> r)) in
  seti "adversary.choose.calls" choose_calls;
  set "adversary.choose.s" choose_s;
  set "engine.merge.s" merge_s;
  set "experiments.render.s" render_s;
  let trials = Array.of_list !trial_ns in
  Array.sort compare trials;
  seti "engine.trial.calls" (Array.length trials);
  set "engine.trial.p50_us" (percentile trials 0.5 /. 1e3);
  set "engine.trial.p99_us" (percentile trials 0.99 /. 1e3);
  (* every adversary choice is followed by exactly one transition *)
  let step_ns = per_call step in
  let step_s = float_of_int choose_calls *. step_ns /. 1e9 in
  seti "machine.step.calls" choose_calls;
  set "machine.step.ns" step_ns;
  set "machine.step.s" step_s;
  let create_s = float_of_int (max 0 create.ns) /. 1e9 in
  set "machine.create.ns" (per_call create);
  set "code.compile_share" (create_s /. untraced.secs);
  let attributed = choose_s +. merge_s +. render_s +. step_s +. create_s in
  set "attributed_pct" (100. *. attributed /. traced.secs);
  set "trace.overhead_pct" (100. *. ((traced.secs /. untraced.secs) -. 1.));
  (untraced.attempted + traced.attempted, untraced.failed + traced.failed)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list l = "[" ^ String.concat ", " l ^ "]"

(* The median over an untraced run's passes of their median probe time. *)
let run_probe = ref None

let manifest ~name ~seed ~seconds ~trace ~tiny ~commit ~digest ~nproc w =
  let str s = json_string s in
  let work =
    match w with
    | Por searches ->
      ( "searches",
        json_list
          (List.map
             (fun s ->
               let c = resolve s in
               json_obj
                 [ ("config", str s.config); ("n", string_of_int c.Checks.n);
                   ("max_depth", string_of_int c.Checks.max_depth);
                   ("max_runs", string_of_int c.Checks.max_runs);
                   ("dedup", string_of_bool s.dedup);
                   ("faults", str (Fault.to_string c.Checks.faults)) ])
             searches) )
    | Plans names ->
      ( "plans",
        json_list
          (List.map
             (fun p ->
               json_obj
                 [ ("name", str p); ("mode", str "Quick");
                   ("trials", string_of_int (Plan.trial_count (fst (Experiments.build ~mode:Experiments.Quick p)))) ])
             names) )
  in
  json_obj
    ([ ("workload", str name); ("size", str (if tiny then "tiny" else "full"));
      ("seed", string_of_int seed);
      ( "seed_use",
        str
          (match w with
           | Por _ -> "ignored: the exhaustive searches are deterministic"
           | Plans _ ->
             Printf.sprintf "trial seeds offset by seed * %d, except in %s"
               seed_stride (String.concat ", " fixed_seed_plans)) );
      ("seconds", string_of_int seconds); ("trace", string_of_int trace);
      ("jobs", "1"); ("clock", str clock); ("span_clock", str span_clock);
      ("ocaml_version", str Sys.ocaml_version); ("commit", str commit);
      ("source_digest", str digest); ("nproc", string_of_int nproc) ]
    @ (match !run_probe with
       | Some p -> [ ("probe_us", json_float (p *. 1e6)) ]
       | None -> [])
    @ [ work ])

let span_json origin s =
  json_obj
    [ ("id", string_of_int s.id); ("name", json_string s.name);
      ("parent", string_of_int s.parent);
      ("start_s", json_float (float_of_int (s.t0 - origin) /. 1e9));
      ("end_s", json_float (float_of_int (s.t1 - origin) /. 1e9));
      ("calls", string_of_int s.calls);
      ("busy_s", json_float (float_of_int s.busy /. 1e9)) ]

let out_dir = ".perfbench-out"

let write_file file contents =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let oc = open_out (Filename.concat out_dir file) in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let name = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let tiny = ref false and commit = ref "unknown" and digest = ref "unknown" in
  let nproc = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "NAME  por_sleep|por_dedup|por_faults|mc_paper");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ("--tiny", Arg.Set tiny, " self-test sizes");
      ("--commit", Arg.Set_string commit, "ID  provenance: source commit");
      ("--source-digest", Arg.Set_string digest, "HEX  provenance: source digest");
      ("--nproc", Arg.Set_int nproc, "N  provenance: usable cores") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w = workload !name ~tiny:!tiny in
  let root = span ("workload " ^ !name) in
  let setup_span = span ~parent:root.id "setup" in
  let setup, run_pass, traced =
    match w with
    | Por searches ->
      let setup = por_setup searches in
      let inputs = setup () in
      finish setup_span;
      ( setup_sampler setup,
        (fun ~after -> repeat ~seconds:!seconds ~after (por_pass inputs) |> List.map forget),
        fun () -> por_traced ~inputs ~root )
    | Plans names ->
      let setup = mc_setup ~seed:!seed names in
      let inputs = setup () in
      finish setup_span;
      ( setup_sampler setup,
        (fun ~after -> repeat ~seconds:!seconds ~after (mc_pass inputs) |> List.map forget),
        fun () -> mc_traced ~inputs ~root )
  in
  (* Set-up is sampled after each pass, so that its samples spread over
     the run like the passes do, and none precede the first pass, whose
     peak heap is the one reported. *)
  let attempted, failed, metric_names =
    if !trace = 0 then begin
      let passes = run_pass ~after:(fun () -> ignore (setup 3)) in
      let wall = stitched passes in
      set "wall_s" wall;
      set "trials_per_s" (float_of_int (List.hd passes).attempted /. wall);
      set "heap_peak_mb" (mb (List.hd passes).heap);
      let probe = median (List.map (fun p -> p.probe) passes) in
      set "setup_s" (setup 0 *. probe_ref_s /. probe);
      run_probe := Some probe;
      ( sum (fun p -> p.attempted) passes,
        sum (fun p -> p.failed) passes,
        end_to_end )
    end
    else begin
      let a, f = traced () in
      (match w with Plans _ -> set "experiments.build.s" (setup 11) | Por _ -> ());
      (a, f, per_layer)
    end
  in
  finish root;
  let metrics =
    List.map
      (fun (m, unit) ->
        Printf.printf "%-32s %18.6f %s\n" m (get m) unit;
        (m, json_obj [ ("value", json_float (get m)); ("unit", json_string unit) ]))
      metric_names
  in
  let result =
    json_obj
      [ ("correct", string_of_bool (failed = 0 && attempted > 0));
        ("attempted", string_of_int attempted); ("failed", string_of_int failed);
        ("metrics", json_obj metrics) ]
  in
  let manifest =
    manifest ~name:!name ~seed:!seed ~seconds:!seconds ~trace:!trace ~tiny:!tiny
      ~commit:!commit ~digest:!digest ~nproc:!nproc w
  in
  let spans_field =
    if !trace = 0 then []
    else [ ("spans", json_list (List.rev_map (span_json root.t0) !spans)) ]
  in
  write_file
    (Printf.sprintf "%s-seed%d-trace%d.json" !name !seed !trace)
    (json_obj ([ ("manifest", manifest); ("result", result) ] @ spans_field));
  print_endline (json_obj [ ("manifest", manifest) ]);
  print_endline result
