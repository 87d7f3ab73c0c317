type stats = {
  complete : int;
  truncated : int;
  exhausted : bool;
  steps : int;
}

type 'r run = {
  outputs : 'r option array;
  completed : bool;
  crashed : bool array;
  branches : (int * int) list;
  trace : Trace.t option;
  steps : int;
}

(* The coin decision for a pending operation, in the explorer's
   convention: probabilistic writes with 0 < p < 1 branch on the coin
   (choice 0 = landed), reads on registers the setup marked weak branch
   on freshness (choice 0 = fresh, so default-0 paths replay the atomic
   semantics), and everything else is deterministic. *)
let coin_of_op ~memory op =
  match Op.prob op with
  | Some p when p <= 0.0 -> `Det false
  | Some p when p >= 1.0 -> `Det true
  | Some _ -> `Coin
  | None ->
    (match op with
     | Op.Any (Op.Read l) when Memory.is_weak memory l -> `Weak
     | _ -> `Det (Op.is_write op))

(* Run one execution following [path] (list of branch choices); choices
   beyond the path default to 0, and out-of-range choices are clamped to
   0 so that a schedule recorded against one protocol can be replayed
   against another (e.g. a fixed protocol vs the buggy test double it
   was found on).  Returns the outputs, whether the execution completed,
   and the branch points actually encountered as (chosen, arity) pairs
   in order.  Branch points of arity 1 are not recorded.

   With a crash budget f > 0 ([faults]), every scheduling point over
   enabled set [en] widens from |en| to 2|en| choices while budget
   remains: index i < |en| steps en.(i), index |en| + j crash-stops
   en.(j).  Crash choices come after step choices so the all-zeros path
   is still the failure-free canonical execution.

   With additionally a recovery budget r > 0, a third band of m choices
   follows (m = currently crash-stopped pids, ascending): index
   |bands| + j recovers the j-th crashed pid.  When every live process
   has finished but crashed pids remain recoverable, the point becomes
   a stop-or-recover node of arity 1 + m: choice 0 ends the execution
   (complete leaf, keeping all-zeros canonical), choice 1 + j recovers.
   With r = 0 the tree is bit-identical to the crash-only one. *)
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
    branches = List.rev !recorded;
    trace;
    steps = Machine.steps machine }

(* The lexicographically next unexplored path after [recorded], never
   bumping a branch point before position [lo]: the enumeration stays
   inside the subtree whose first [lo] choices are pinned, and returns
   [None] once the subtree is exhausted.  [lo = 0] is the classic full
   enumeration. *)
let next_path_from ~lo recorded =
  let pos = List.length recorded in
  let rec go pos = function
    | [] -> None
    | (c, arity) :: shallower_rev ->
      if pos > lo && c + 1 < arity
      then Some (List.rev_append (List.map fst shallower_rev) [ c + 1 ])
      else go (pos - 1) shallower_rev
  in
  go pos (List.rev recorded)

(* The lexicographically next unexplored path after [recorded]: bump the
   deepest branch point that still has an untried alternative and drop
   everything after it. *)
let next_path recorded = next_path_from ~lo:0 recorded

exception Abort of string
exception Out_of_budget

(* Stateful DFS: the machine advances through the tree in place; each
   internal node with more than one child snapshots once, and visiting
   a later child restores that snapshot in O(|memory| + n) instead of
   re-executing the path prefix.  Single-successor corridors (one
   enabled process, deterministic coin, no crash budget) — the common
   case — cost no snapshot at all.  Leaves are visited in exactly the
   lexicographic order of the re-execution enumerator ([run_path] +
   [next_path], kept as [Conrat_verify.Naive]), so the two engines'
   statistics and outcome sequences coincide leaf for leaf. *)
let explore ?engine ?(max_depth = 200) ?(max_runs = 2_000_000) ?(cheap_collect = false)
    ?(faults = Fault.none) ?(stop = fun () -> false) ?sink ?heartbeat
    ~n ~setup ~check () =
  let memory, body = setup () in
  let machine = Machine.create ?engine ~cheap_collect ?sink ~n ~memory body in
  let complete_count = ref 0 in
  let truncated_count = ref 0 in
  let runs = ref 0 in
  let stats exhausted =
    { complete = !complete_count;
      truncated = !truncated_count;
      exhausted;
      steps = Machine.total_steps machine }
  in
  let leaf complete =
    if !runs >= max_runs || stop () then raise Out_of_budget;
    incr runs;
    if complete then incr complete_count else incr truncated_count;
    (match heartbeat with
     | None -> ()
     | Some hb ->
       hb ~runs:!runs ~steps:(Machine.total_steps machine)
         ~depth:(Machine.steps machine));
    match check ~complete (Machine.outputs machine) with
    | Ok () -> ()
    | Error reason -> raise (Abort reason)
  in
  let rec go ~crashes_left ~recoveries_left depth =
    let en = Machine.enabled machine in
    let arity = Array.length en in
    let rec_pids =
      if recoveries_left > 0 then Machine.crashed_pids machine else [||]
    in
    let m = Array.length rec_pids in
    if arity = 0 && m = 0 then leaf true
    else if depth >= max_depth then leaf false
    else if arity = 0 then begin
      (* Stop-or-recover node: choice 0 is a complete leaf, choice
         1 + j recovers rec_pids.(j) — same encoding as [run_path]. *)
      let snap = Machine.snapshot machine in
      leaf true;
      for j = 0 to m - 1 do
        if j > 0 then Machine.restore machine snap;
        Machine.recover machine ~pid:rec_pids.(j);
        go ~crashes_left ~recoveries_left:(recoveries_left - 1) (depth + 1)
      done
    end
    else begin
      let base = if crashes_left > 0 then 2 * arity else arity in
      let total = base + m in
      if total = 1 then
        visit ~snap:None ~crashes_left ~recoveries_left ~idx:0 ~en ~rec_pids
          (depth + 1)
      else begin
        (* The machine's enabled array mutates as we step; iterate a copy. *)
        let en = Array.copy en in
        let snap = Machine.snapshot machine in
        for idx = 0 to total - 1 do
          if idx > 0 then Machine.restore machine snap;
          visit ~snap:(Some snap) ~crashes_left ~recoveries_left ~idx ~en
            ~rec_pids (depth + 1)
        done
      end
    end
  and visit ~snap ~crashes_left ~recoveries_left ~idx ~en ~rec_pids depth =
    (* Machine is at the branch state; apply the idx-th choice. *)
    let arity = Array.length en in
    let base = if crashes_left > 0 then 2 * arity else arity in
    if idx >= base then begin
      Machine.recover machine ~pid:rec_pids.(idx - base);
      go ~crashes_left ~recoveries_left:(recoveries_left - 1) depth
    end
    else if idx >= arity then begin
      Machine.crash machine ~pid:en.(idx - arity);
      go ~crashes_left:(crashes_left - 1) ~recoveries_left depth
    end
    else begin
      let pid = en.(idx) in
      let branch first second =
        (* The coin's pre-state is the node state itself: reuse (or take)
           the node snapshot rather than a second one. *)
        let snap = match snap with Some s -> s | None -> Machine.snapshot machine in
        Machine.step_forced machine ~pid ~landed:first;
        go ~crashes_left ~recoveries_left depth;
        Machine.restore machine snap;
        Machine.step_forced machine ~pid ~landed:second;
        go ~crashes_left ~recoveries_left depth
      in
      match Machine.coin_class machine pid with
      | 0 ->
        Machine.step_forced machine ~pid ~landed:false;
        go ~crashes_left ~recoveries_left depth
      | 1 ->
        Machine.step_forced machine ~pid ~landed:true;
        go ~crashes_left ~recoveries_left depth
      | 2 -> branch true false
      | _ -> branch false true
    end
  in
  match
    go ~crashes_left:faults.Fault.crashes
      ~recoveries_left:faults.Fault.recoveries 0
  with
  | () -> Ok (stats true)
  | exception Out_of_budget -> Ok (stats false)
  | exception Abort reason -> Error (reason, stats false)
