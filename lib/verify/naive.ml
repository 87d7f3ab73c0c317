open Conrat_sim

type stats = {
  complete : int;
  truncated : int;
  exhausted : bool;
  steps : int;
}

let explore ?engine ?(max_depth = 200) ?(max_runs = 2_000_000) ?(cheap_collect = false)
    ?(faults = Fault.none) ?(stop = fun () -> false) ?heartbeat ~n ~setup ~check () =
  let complete_count = ref 0 in
  let truncated_count = ref 0 in
  let steps = ref 0 in
  let stats exhausted =
    { complete = !complete_count;
      truncated = !truncated_count;
      exhausted;
      steps = !steps }
  in
  let rec drive path =
    let runs = !complete_count + !truncated_count in
    if runs >= max_runs || stop () then Ok (stats false)
    else begin
      let run = Explore.run_path ?engine ~max_depth ~cheap_collect ~faults ~n ~setup path in
      steps := !steps + run.Explore.steps;
      let complete = run.Explore.completed in
      if complete then incr complete_count else incr truncated_count;
      (match heartbeat with
       | None -> ()
       | Some hb -> hb ~runs:(runs + 1) ~pruned:0 ~steps:!steps ~depth:run.Explore.steps);
      match check ~complete run.Explore.outputs with
      | Error reason -> Error (reason, stats false)
      | Ok () ->
        (match Explore.next_path run.Explore.branches with
         | Some path -> drive path
         | None -> Ok (stats true))
    end
  in
  drive []
