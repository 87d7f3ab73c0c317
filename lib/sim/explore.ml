type 'r run = {
  outputs : 'r option array;
  completed : bool;
  crashed : bool array;
  stages : string option array;
  branches : (int * int) list;
  trace : Trace.t option;
  steps : int;
}

(* Run one execution following [path]: choices beyond it default to 0
   and out-of-range ones clamp to 0, so a schedule recorded against one
   protocol replays against another.  A scheduling point offers the
   enabled pids' steps, then (while crash budget remains) their
   crash-stops, then (while recovery budget remains) recoveries of the
   crashed pids, so the all-zeros path is the failure-free canonical
   execution; with nobody enabled but crashed pids recoverable it is a
   stop-or-recover node whose choice 0 ends the execution.  The mli
   spells the encoding out. *)
let run_path ?engine ?(record = false) ?(max_depth = 200) ?(cheap_collect = false)
    ?(faults = Fault.none) ?sink ~n ~setup path =
  let memory, body = setup () in
  let trace = if record then Some (Trace.create ()) else None in
  let machine = Machine.create ?engine ~cheap_collect ?trace ?sink ~n ~memory body in
  let recorded = ref [] in
  let remaining = ref path in
  let crashes_left = ref faults.Fault.crashes in
  let take arity =
    let chosen = match !remaining with c :: tl -> remaining := tl; c | [] -> 0 in
    let chosen = if chosen < 0 || chosen >= arity then 0 else chosen in
    recorded := (chosen, arity) :: !recorded;
    chosen
  in
  let recoveries_left = ref faults.Fault.recoveries in
  let completed = ref false in
  let running = ref true in
  while !running do
    let en = Machine.enabled machine in
    let arity = Array.length en in
    let rec_pids =
      if !recoveries_left > 0 then Machine.crashed_pids machine else [||]
    in
    let m = Array.length rec_pids in
    if arity = 0 && m = 0 then begin
      completed := true;
      running := false
    end
    else if Machine.steps machine >= max_depth then running := false
    else if arity = 0 then begin
      (* Stop-or-recover node: every live process finished, but crashed
         pids remain recoverable.  Choice 0 ends the execution. *)
      let idx = take (1 + m) in
      if idx = 0 then begin
        completed := true;
        running := false
      end
      else begin
        decr recoveries_left;
        Machine.recover machine ~pid:rec_pids.(idx - 1)
      end
    end
    else begin
      let base = if !crashes_left > 0 then 2 * arity else arity in
      let total = base + m in
      let idx = if total = 1 then 0 else take total in
      if idx >= base then begin
        decr recoveries_left;
        Machine.recover machine ~pid:rec_pids.(idx - base)
      end
      else if idx >= arity then begin
        decr crashes_left;
        Machine.crash machine ~pid:en.(idx - arity)
      end
      else begin
        let pid = en.(idx) in
        let landed =
          match Machine.coin_class machine pid with
          | 0 -> false
          | 1 -> true
          | 2 -> take 2 = 0
          | _ -> take 2 = 1
        in
        Machine.step_forced machine ~pid ~landed
      end
    end
  done;
  { outputs = Machine.outputs machine;
    completed = !completed;
    crashed = Array.init n (Machine.is_crashed machine);
    stages = Array.init n (Machine.stage machine);
    branches = List.rev !recorded;
    trace;
    steps = Machine.steps machine }

(* The lexicographically next unexplored path after [recorded]: bump
   the deepest branch point that still has an untried alternative and
   drop everything after it. *)
let next_path recorded =
  let rec go = function
    | [] -> None
    | (c, arity) :: shallower_rev ->
      if c + 1 < arity
      then Some (List.rev_append (List.map fst shallower_rev) [ c + 1 ])
      else go shallower_rev
  in
  go (List.rev recorded)
