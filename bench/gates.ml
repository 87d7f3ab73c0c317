(* The performance gates of `make bench-gates`, driven by one table.

   A run is one committed checker config, a clock and a list of arms;
   every arm is one {!Parallel.explore_por} call on that config that
   varies only the sink, the telemetry probe, the number of domains or
   the memory setup, or that search under the tree interpreter.  The
   driver gives each arm one untimed warmup (when the run asks for it),
   then times [reps] repetitions interleaved arm by arm, so all arms
   see the same thermal and allocator conditions, and keeps the best
   (minimum) of each.  Every call of every arm must return the same
   {!Por.stats} as the run's first arm, and that arm must exhaust the
   config; anything else is exit 2.  A gate compares two arms' best times against a
   budget; any gate over budget is exit 1.

   The CPU clock ([Sys.time]) is for the single-domain arms: since the
   VM engine halved the timed region to ~0.5s, wall clock on a shared
   machine can no longer resolve a 3% effect.  The jobs arms need the
   wall clock, since CPU time sums over domains.

   Takes no arguments; writes BENCH_GATES.json (every rep's seconds per
   arm, each gate's value, limit and verdict, and the core count) in
   the current directory. *)

open Conrat_verify
module Memory = Conrat_sim.Memory
module Telemetry = Conrat_obs.Telemetry

type clock = Cpu | Wall

type run = {
  config : string;
  clock : clock;
  reps : int;
  warmup : bool;
  arms : (string * (Checks.t -> (Por.stats, string * int list * Por.stats) result)) list;
}

(* One exploration of [c]; [inert_faults] engages the fault plane's
   shadow and writer bookkeeping without weakening or wiping anything,
   so the explored tree is bit-identical.  [telemetry] builds a fresh
   registry per call. *)
let arm ?sink ?telemetry ?(jobs = 1) ?(inert_faults = false) () (c : Checks.t) =
  let n = c.n in
  let setup () =
    let ((memory, _) as s) = Checks.setup_of c ~n () in
    if inert_faults then begin
      Memory.engage_shadow memory;
      Memory.track_writers memory
    end;
    s
  in
  Parallel.explore_por ~jobs ?sink
    ?telemetry:(Option.map (fun mk -> mk ()) telemetry)
    ~max_depth:c.max_depth ~max_runs:c.max_runs ~cheap_collect:c.cheap_collect
    ~faults:c.faults ~n ~setup ~check:(Checks.check_of c ~n) ()

(* The baseline arm's search under the tree interpreter: at [jobs = 1],
   [Parallel.explore_por] is exactly this [Por.explore] call on the
   VM. *)
let tree_arm (c : Checks.t) =
  let n = c.n in
  Por.explore ~engine:`Tree ~max_depth:c.max_depth ~max_runs:c.max_runs
    ~cheap_collect:c.cheap_collect ~faults:c.faults ~n ~setup:(Checks.setup_of c ~n)
    ~check:(Checks.check_of c ~n) ()

let runs =
  [ { config = "fallback_n2_d28"; clock = Cpu; reps = 5; warmup = true;
      arms =
        [ ("baseline", arm ());
          ("null_sink", arm ~sink:Conrat_sim.Sink.null ());
          ("fault_inert", arm ~inert_faults:true ());
          ("counters", arm ~telemetry:(fun () -> Telemetry.create ~domains:1 ()) ());
          ("coverage",
           arm ~telemetry:(fun () -> Telemetry.create ~coverage:true ~domains:1 ()) ());
          ("tree", tree_arm) ] };
    (* One ~7s search per arm, no warmup: the jobs floor is coarse. *)
    { config = "fallback_n2_d34"; clock = Wall; reps = 1; warmup = false;
      arms =
        [ ("jobs1", arm ~jobs:1 ()); ("jobs2", arm ~jobs:2 ()); ("jobs4", arm ~jobs:4 ()) ] } ]

let cores = Domain.recommended_domain_count ()

type gate = {
  name : string;
  run : string;
  value : (string -> float) -> float;  (** from each arm's best seconds *)
  unit_ : string;
  limit : [ `Max of float | `Min of float | `Info ];
  gated : bool;
}

let overhead arm best = (best arm -. best "baseline") /. best "baseline" *. 100.0
let speedup ~slow ~fast best = best slow /. best fast

let gates =
  [ (* The tap's cost is one option branch, a stage fetch, the kind/loc
       decode and an indirect closure call per event, at ~1.8 events
       per step.  What moves is the denominator: built as the root
       dune-workspace builds it (no -opaque), the VM spends ~105–120ns
       per step of this run where the tree engine spends ~210–245
       (best-of-5 CPU time over 3.18M steps, 2-core host), and the
       null-sink arm adds 5–7ns per step, 4–7% on the VM.  A 3% budget
       against the VM would allow ~3.5ns/step, less than one indirect
       call.  Re-measured after the telemetry plane (best-of-5
       interleaved, repeated runs) the null-sink arm spans 0.5–6.8% on a
       noisy single-core host: 9% is max observed plus headroom, still
       tight enough that an accidental allocation or a second call on
       the disabled path fails. *)
    { name = "obs"; run = "fallback_n2_d28"; value = overhead "null_sink"; unit_ = "%";
      limit = `Max 9.0; gated = true };
    (* The fault plane's hot-path costs (previous-value shadow, crashed
       set in snapshots, last-writer ownership) sit behind flags that
       stay false on the failure-free fast path; engaged but inert, they
       may cost at most 3%. *)
    { name = "fault"; run = "fallback_n2_d28"; value = overhead "fault_inert"; unit_ = "%";
      limit = `Max 3.0; gated = true };
    (* What the counter registry alone costs (a `check --progress`
       heartbeat under --jobs or --dedup): uncontended atomic adds at
       snapshot/dedup/checkpoint events plus exit-time delta
       accounting, nothing per leaf. *)
    { name = "counters"; run = "fallback_n2_d28"; value = overhead "counters"; unit_ = "%";
      limit = `Max 3.0; gated = true };
    (* Coverage does per-leaf work (depth histograms, stage signatures);
       it is what each `check --json` row pays for its telemetry
       block, timed for the record only (EXPERIMENTS.md). *)
    { name = "coverage"; run = "fallback_n2_d28"; value = overhead "coverage"; unit_ = "%";
      limit = `Info; gated = false };
    (* Both engines run the identical search and back the store up
       through the one memory journal, so the ratio isolates the program
       engine (interning vs closure calls, pc files vs array copies)
       under a workload that reaches a leaf every ~2.6 steps; it
       understates the ~2.4x end-to-end win over the pre-VM driver
       (EXPERIMENTS.md).  1.4x is headroom under
       the 1.7–2.1x measured, so noise does not trip it but an engine
       regression does. *)
    { name = "vm_over_tree"; run = "fallback_n2_d28";
      value = speedup ~slow:"tree" ~fast:"baseline"; unit_ = "x"; limit = `Min 1.4;
      gated = true };
    (* On a single core extra domains are pure overhead, so the floor is
       reported but enforced only where a second core exists. *)
    { name = "jobs2"; run = "fallback_n2_d34"; value = speedup ~slow:"jobs1" ~fast:"jobs2";
      unit_ = "x"; limit = `Min 1.6; gated = cores >= 2 } ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("gates: " ^ s); exit 2) fmt
let best = List.fold_left Float.min infinity

let stats_json (s : Por.stats) =
  Printf.sprintf
    "{\"complete\":%d,\"truncated\":%d,\"pruned\":%d,\"steps\":%d,\"exhausted\":%b}"
    s.complete s.truncated s.pruned s.steps s.exhausted

(* Times every arm of [r]; returns the agreed stats and each arm's
   per-rep seconds in rep order. *)
let measure r =
  let config =
    match Checks.find r.config with Some c -> c | None -> die "unknown config %s" r.config
  in
  let clock = match r.clock with Cpu -> Sys.time | Wall -> Unix.gettimeofday in
  let expected = ref None in
  let time (label, explore) =
    let t0 = clock () in
    let result = explore config in
    let dt = clock () -. t0 in
    (match result, !expected with
     | Error (reason, _, _), _ -> die "%s/%s violated its property: %s" r.config label reason
     | Ok s, None ->
       if not s.Por.exhausted then die "%s/%s did not exhaust under its budget" r.config label;
       expected := Some s
     | Ok s, Some e when s <> e ->
       die "%s/%s disagrees with %s/%s: %s vs %s" r.config label r.config (fst (List.hd r.arms))
         (stats_json s) (stats_json e)
     | Ok _, Some _ -> ());
    dt
  in
  if r.warmup then List.iter (fun a -> ignore (time a)) r.arms;
  let seconds = List.map (fun _ -> ref []) r.arms in
  for i = 1 to r.reps do
    let dts = List.map time r.arms in
    List.iter2 (fun acc dt -> acc := dt :: !acc) seconds dts;
    Printf.eprintf "[gates] %s rep %d/%d: %s\n%!" r.config i r.reps
      (String.concat ", " (List.map2 (fun (l, _) dt -> Printf.sprintf "%s %.3fs" l dt) r.arms dts))
  done;
  (Option.get !expected, List.map2 (fun (l, _) acc -> (l, List.rev !acc)) r.arms seconds)

let () =
  if Array.length Sys.argv > 1 then die "takes no arguments";
  let measured = List.map (fun r -> (r, measure r)) runs in
  let verdicts =
    List.map
      (fun g ->
        let _, (_, seconds) = List.find (fun (r, _) -> r.config = g.run) measured in
        let v = g.value (fun a -> best (List.assoc a seconds)) in
        let within = match g.limit with `Max l -> v <= l | `Min l -> v >= l | `Info -> true in
        (g, v, (not g.gated) || within))
      gates
  in
  let floats xs = String.concat "," (List.map (Printf.sprintf "%.3f") xs) in
  let run_json (r, (stats, seconds)) =
    Printf.sprintf
      "    {\"config\":%S,\"clock\":%S,\"reps\":%d,\"warmup\":%b,\"stats\":%s,\"arms\":[\n%s]}"
      r.config (match r.clock with Cpu -> "cpu" | Wall -> "wall") r.reps r.warmup
      (stats_json stats)
      (String.concat ",\n"
         (List.map
            (fun (l, s) ->
              Printf.sprintf "      {\"arm\":%S,\"seconds\":[%s],\"best_seconds\":%.3f}" l
                (floats s) (best s))
            seconds))
  in
  let gate_json (g, v, ok) =
    Printf.sprintf
      "    {\"gate\":%S,\"config\":%S,\"value\":%.2f,\"unit\":%S,\"limit\":%s,\
       \"gated\":%b,\"ok\":%b}"
      g.name g.run v g.unit_
      (match g.limit with
       | `Max l -> Printf.sprintf "{\"max\":%.2f}" l
       | `Min l -> Printf.sprintf "{\"min\":%.2f}" l
       | `Info -> "null")
      g.gated ok
  in
  let all_ok = List.for_all (fun (_, _, ok) -> ok) verdicts in
  Out_channel.with_open_text "BENCH_GATES.json" (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema_version\": 1,\n  \"kind\": \"bench-gates\",\n  \"cores\": %d,\n  \
         \"runs\": [\n%s\n  ],\n  \"gates\": [\n%s\n  ],\n  \"ok\": %b\n}\n"
        cores
        (String.concat ",\n" (List.map run_json measured))
        (String.concat ",\n" (List.map gate_json verdicts))
        all_ok);
  List.iter
    (fun (g, v, ok) ->
      Printf.printf "gates: %-12s %s %8.2f%s  %s: %s\n" g.name g.run v g.unit_
        (match g.limit with
         | `Max l -> Printf.sprintf "(limit %.1f%s)" l g.unit_
         | `Min l -> Printf.sprintf "(floor %.1f%s)" l g.unit_
         | `Info -> "(informational)")
        (if not g.gated then "not gated"
         else if ok then "OK"
         else "FAILED"))
    verdicts;
  if not all_ok then exit 1
