open Conrat_sim
module Telemetry = Conrat_obs.Telemetry
module Coverage = Conrat_obs.Coverage

type stats = {
  complete : int;
  truncated : int;
  exhausted : bool;
  steps : int;
}

let explore ?engine ?(max_depth = 200) ?(max_runs = 2_000_000) ?(cheap_collect = false)
    ?(faults = Fault.none) ?(stop = fun () -> false) ?probe ?heartbeat
    ?resume ?(path_floor = 0) ?cut ?(checkpoint_every = 100_000) ?on_checkpoint
    ~n ~setup ~check () =
  if path_floor > 0 && resume = None then
    invalid_arg "Naive.explore: path_floor requires resume";
  if Option.is_some cut && (Option.is_some resume || Option.is_some on_checkpoint) then
    invalid_arg "Naive.explore: cut excludes resume and checkpointing";
  let complete_count = ref 0 in
  let truncated_count = ref 0 in
  let runs = ref 0 in
  let steps = ref 0 in
  (* Resuming the re-execution enumerator is trivial: a path IS the
     whole frontier, so restore the counters and re-enter the loop at
     the checkpointed (uncounted) path. *)
  let start_path =
    match resume with
    | None -> []
    | Some (c : Checkpoint.counts) ->
      complete_count := c.complete;
      truncated_count := c.truncated;
      runs := c.complete + c.truncated;
      steps := c.steps;
      c.path
  in
  let last_saved = ref !runs in
  let check_resume = ref (Option.is_some resume) in
  (* Probe adds are exit-time deltas against the resume baseline — see
     Por.explore. *)
  let c0_complete = !complete_count in
  let c0_truncated = !truncated_count in
  let c0_steps = !steps in
  let cov = match probe with Some p -> Telemetry.coverage p | None -> None in
  let stats exhausted =
    { complete = !complete_count;
      truncated = !truncated_count;
      exhausted;
      steps = !steps }
  in
  let rec drive path =
    let stopping = !runs >= max_runs || stop () in
    (match on_checkpoint with
     | Some save when stopping || !runs - !last_saved >= checkpoint_every ->
       (* Saved before running/counting [path], mirroring Por: the
          resumed run re-runs and counts this very leaf. *)
       save
         { Checkpoint.path;
           complete = !complete_count;
           truncated = !truncated_count;
           pruned = 0;
           steps = !steps };
       (match probe with
        | Some p -> Telemetry.bump p Telemetry.checkpoints
        | None -> ());
       last_saved := !runs
     | Some _ | None -> ());
    if stopping then Ok (stats false)
    else begin
      let run = Explore.run_path ?engine ~max_depth ~cheap_collect ~faults ~n ~setup path in
      (* [run_path] clamps an out-of-range choice to 0, so a resume path
         the tree cannot take would silently enumerate another subtree:
         the first run must record the resume path as its prefix. *)
      if !check_resume then begin
        check_resume := false;
        let rec follows p b =
          match (p, b) with
          | [], _ -> true
          | c :: p, (c', _) :: b -> c = c' && follows p b
          | _ :: _, [] -> false
        in
        if not (follows path run.Explore.branches) then
          invalid_arg "Naive.explore: checkpoint path inconsistent with this config"
      end;
      match cut with
      | Some (lvl, emit) when List.length run.Explore.branches > lvl ->
        (* Shard generation: this path reaches branch position [lvl], so
           does every path under its length-[lvl] prefix — emit that
           prefix as one shard and skip its subtree uncounted. *)
        let prefix = List.filteri (fun i _ -> i < lvl) run.Explore.branches in
        emit (List.map fst prefix);
        next prefix
      | _ ->
        incr runs;
        steps := !steps + run.Explore.steps;
        let complete = run.Explore.completed in
        if complete then incr complete_count else incr truncated_count;
        (match cov with
         | None -> ()
         | Some cv ->
           Coverage.leaf cv
             ~kind:(if complete then `Complete else `Truncated)
             ~depth:run.Explore.steps ~n
             ~stage:(Array.get run.Explore.stages));
        (match heartbeat with
         | None -> ()
         | Some hb -> hb ~runs:!runs ~pruned:0 ~steps:!steps ~depth:run.Explore.steps);
        match check ~complete run.Explore.outputs with
        | Error reason -> Error (reason, stats false)
        | Ok () -> next run.Explore.branches
    end
  and next branches =
    match Explore.next_path_from ~lo:path_floor branches with
    | Some path -> drive path
    | None -> Ok (stats true)
  in
  let finish r =
    (match probe with
     | None -> ()
     | Some p ->
       Telemetry.add p Telemetry.leaves_complete (!complete_count - c0_complete);
       Telemetry.add p Telemetry.leaves_truncated (!truncated_count - c0_truncated);
       Telemetry.add p Telemetry.steps (!steps - c0_steps));
    r
  in
  finish (drive start_path)
