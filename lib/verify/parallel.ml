module Telemetry = Conrat_obs.Telemetry

(* Workers flush their locally accumulated leaf/step counts into the
   fleet-wide atomics every [flush_every] leaves: often enough for the
   budget check and progress display to track the fleet, rarely enough
   that the shared cache lines stay out of the hot leaf loop. *)
let flush_every = 1024

let zero_counts path =
  { Checkpoint.path; complete = 0; truncated = 0; pruned = 0; steps = 0 }

let add (a : Por.stats) (b : Por.stats) =
  { Por.complete = a.complete + b.complete;
    truncated = a.truncated + b.truncated;
    pruned = a.pruned + b.pruned;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    exhausted = a.exhausted && b.exhausted;
    steps = a.steps + b.steps }

(* Fold the residue and then every shard, in shard (sequential DFS)
   order.  A shard the fleet never ran (budget or [stop]) leaves the
   total unexhausted; the lowest-numbered failing shard is the error. *)
let merge residue results =
  let fold (err, total) = function
    | None -> (err, { total with Por.exhausted = false })
    | Some (Ok s) -> (err, add total s)
    | Some (Error (reason, path, s)) ->
      ((if Option.is_none err then Some (reason, path) else err),
       { (add total s) with exhausted = false })
  in
  match Array.fold_left fold (None, residue) results with
  | None, total -> Ok total
  | Some (reason, path), total -> Error (reason, path, total)

let probe_of telemetry ~domain =
  Option.map (fun t -> Telemetry.probe t ~domain) telemetry

(* The work-stealing fleet over {!Por.explore}: [shard_search] with
   [~cut] is a {!Frontier.generate} pass, with [~shard:path] it explores
   exactly the subtree pinned under [path]. *)
let fleet ~jobs ?engine ?max_depth ~max_runs ?cheap_collect ?faults ~stop ?heartbeat
    ~dedup ?telemetry ~n ~setup ~check () =
  (match telemetry with
   | Some t when Telemetry.domains t < jobs ->
     invalid_arg "Parallel.explore_por: telemetry registry has fewer domains than jobs"
   | _ -> ());
  let shard_search ?probe ?heartbeat ~stop ~max_runs ?cut ?shard () =
    Por.explore ?engine ?max_depth ~max_runs ?cheap_collect ?faults ~stop ?probe
      ?heartbeat ?resume:(Option.map zero_counts shard)
      ?subtree_prefix:(Option.map List.length shard) ?cut
      ~dedup:(dedup && Option.is_none cut) ~n ~setup ~check ()
  in
  (* Each generator deepening pass explores the residue afresh, and
     only the last pass's statistics survive — so each pass gets a
     fresh free-standing probe and only the last is absorbed, or
     multi-pass generation would inflate the registry and break
     [--jobs]-invariance. *)
  let gen_probe = ref None in
  let gen =
    Frontier.generate ?probe:(probe_of telemetry ~domain:0)
      ~target:(Frontier.target ~jobs)
      ~run:(fun ~cut ->
          gen_probe :=
            Option.map
              (fun t -> Telemetry.fresh_probe ~coverage:(Telemetry.coverage_on t) ())
              telemetry;
          shard_search ?probe:!gen_probe ?heartbeat ~stop ~max_runs ~cut ())
      ()
  in
  (match (telemetry, !gen_probe) with
   | Some t, Some p -> Telemetry.absorb t ~domain:0 p
   | _ -> ());
  match gen with
  | Error _ as e -> e
  | Ok (residue, shards) when Array.length shards = 0 || not residue.Por.exhausted ->
    (* The generator pass already covered the whole tree, or the
       budget/stop bound during generation — either way the residue
       statistics are the answer. *)
    Ok residue
  | Ok (residue, shards) ->
    let results = Array.make (Array.length shards) None in
    let pool = Frontier.pool shards in
    let fleet_runs = Atomic.make (Por.explored residue + residue.pruned) in
    let fleet_pruned = Atomic.make residue.pruned in
    let fleet_steps = Atomic.make residue.steps in
    let hb_mutex = Mutex.create () in
    let worker w =
      let probe = probe_of telemetry ~domain:w in
      let bump ctr = Option.iter (fun p -> Telemetry.bump p ctr) probe in
      let pending_runs = ref 0 in
      let pending_pruned = ref 0 in
      let pending_steps = ref 0 in
      let flush depth =
        if !pending_runs > 0 || !pending_steps > 0 then begin
          ignore (Atomic.fetch_and_add fleet_runs !pending_runs);
          ignore (Atomic.fetch_and_add fleet_pruned !pending_pruned);
          ignore (Atomic.fetch_and_add fleet_steps !pending_steps);
          pending_runs := 0;
          pending_pruned := 0;
          pending_steps := 0;
          match heartbeat with
          | None -> ()
          | Some hb ->
            (* Snapshot the fleet totals under the mutex, not at the
               atomic add: calls then observe monotone totals, so a
               rate computed from successive heartbeats is the
               fleet-wide executions/sec. *)
            Mutex.protect hb_mutex (fun () ->
                hb ~runs:(Atomic.get fleet_runs) ~pruned:(Atomic.get fleet_pruned)
                  ~steps:(Atomic.get fleet_steps) ~depth)
        end
      in
      let stop_w () = stop () || Atomic.get fleet_runs + !pending_runs >= max_runs in
      let rec loop () =
        if not (stop_w ()) then
          match Frontier.steal pool with
          | None -> ()
          | Some (i, path) ->
            let prefix = List.length path in
            bump Telemetry.steals;
            let t_start = Unix.gettimeofday () in
            let last_runs = ref 0 in
            let last_pruned = ref 0 in
            let last_steps = ref 0 in
            let last_depth = ref 0 in
            let hb ~runs ~pruned ~steps ~depth =
              pending_runs := !pending_runs + runs - !last_runs;
              pending_pruned := !pending_pruned + pruned - !last_pruned;
              pending_steps := !pending_steps + steps - !last_steps;
              last_runs := runs;
              last_pruned := pruned;
              last_steps := steps;
              last_depth := depth;
              if !pending_runs >= flush_every then flush depth
            in
            let res =
              shard_search ?probe ~heartbeat:hb ~stop:stop_w ~max_runs:max_int ~shard:path ()
            in
            flush !last_depth;
            let s = match res with Ok s | Error (_, _, s) -> s in
            let leaves = Por.explored s + s.Por.pruned in
            Option.iter
              (fun t ->
                Telemetry.record_shard t
                  { Telemetry.shard = i; domain = w; prefix; leaves; steps = s.Por.steps;
                    start = t_start -. Telemetry.created t;
                    seconds = Unix.gettimeofday () -. t_start })
              telemetry;
            bump Telemetry.shards_done;
            results.(i) <- Some res;
            loop ()
      in
      loop ()
    in
    let extra = min jobs (Array.length shards) - 1 in
    let domains = Array.init extra (fun j -> Domain.spawn (fun () -> worker (j + 1))) in
    worker 0;
    Array.iter Domain.join domains;
    merge residue results

let explore_por ~jobs ?engine ?max_depth ?(max_runs = 2_000_000) ?cheap_collect ?faults
    ?(stop = fun () -> false) ?heartbeat ?(dedup = false) ?resume ?checkpoint_every
    ?on_checkpoint ?telemetry ?sink ~n ~setup ~check () =
  if jobs <= 1 then
    Por.explore ?engine ?max_depth ~max_runs ?cheap_collect ?faults ~stop ?sink
      ?probe:(probe_of telemetry ~domain:0) ?heartbeat ?resume ?checkpoint_every
      ?on_checkpoint ~dedup ~n ~setup ~check ()
  else if Option.is_some sink then
    invalid_arg "Parallel.explore_por: a sink needs jobs <= 1"
  else if Option.is_some resume || Option.is_some on_checkpoint then
    invalid_arg "Parallel.explore_por: checkpointing needs jobs <= 1"
  else fleet ~jobs ?engine ?max_depth ~max_runs ?cheap_collect ?faults ~stop ?heartbeat
      ~dedup ?telemetry ~n ~setup ~check ()
