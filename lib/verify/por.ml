open Conrat_sim
module Telemetry = Conrat_obs.Telemetry
module Coverage = Conrat_obs.Coverage

type stats = {
  complete : int;
  truncated : int;
  pruned : int;
  dedup_hits : int;
  exhausted : bool;
  steps : int;
}

let explored stats = stats.complete + stats.truncated

(* A sleep-set element: a scheduling candidate — execute a process's
   pending operation (fixed until the process is scheduled), crash-stop
   it, or recover it from a crash — numbered in 3-bit lanes
   [pid * 3 + kind] (kind 0 = execute, 1 = crash, 2 = recover), plus
   one reserved bit for the stop pseudo-candidate of stop-or-recover
   nodes.  Within a state a pid's pending operation is fixed, so the
   (pid, kind) pair determines the transition; the operation itself is
   fetched from the machine's pending table only when the independence
   filter actually needs it.  A whole sleep set is then one int bitmask
   over those element numbers (hence [n <= 20] on a 64-bit host:
   3·20 lanes + the stop bit fit 61 bits): membership is a bit test,
   insertion is [lor], and the independence filter builds the child's
   set with shifts and masks — the sets are immediate values, so the
   per-node and per-transition set operations of a multi-million-leaf
   DFS allocate nothing at all.  Candidates are likewise enumerated
   without materializing anything, in Explore.run_path's band order:
   candidate [i] of a state with [k > 0] enabled pids executes pid
   [en.(i)] when [i < k], crash-stops [en.(i - k)] when [i < base]
   ([base = 2k] while crash budget remains, else [k]), and recovers
   [rec_pids.(i - base)] otherwise (recover candidates exist only while
   recovery budget remains, over the currently crashed pids ascending).
   A state with [k = 0] but recoverable crashed pids is a
   stop-or-recover node: candidate 0 is the stop pseudo-candidate
   (a complete leaf, no transition), candidate [1 + j] recovers
   [rec_pids.(j)]. *)
let kind_exec = 0
let kind_crash = 1
let kind_recover = 2
let kind_stop = 3
let key ~pid ~kind = pid * 3 + kind
let stop_bit = 60

(* The execute-candidate bits (3p) and recover-candidate bits (3p + 2)
   of a sleep mask, for the kind-level filters below. *)
let exec_bits = 0x1249249249249249
let recover_bits = 0x1249249249249249 lsl 2

(* Candidate [c]'s sleep-set element: [key ~pid ~kind], or [stop_bit]
   for the stop pseudo-candidate, with the band tests done once: this
   is the inner loop of every sibling scan, and [bit / 3] and
   [bit mod 3] give the candidate's pid and kind back. *)
let[@inline] cand_bit en k base rec_pids c =
  if k = 0 then (if c = 0 then stop_bit else 3 * rec_pids.(c - 1) + kind_recover)
  else if c < k then 3 * en.(c)
  else if c < base then 3 * en.(c - k) + kind_crash
  else 3 * rec_pids.(c - base) + kind_recover

(* First candidate index at or after [i] not in the sleep set, or -1.
   Module-level (machine state threaded through) so the per-node scan
   allocates no closures.  A node's sleep set only grows while its
   siblings are tried, so every scan after the first resumes just past
   the candidate it last returned: each node's candidates are scanned
   once in total.  (Source-set DPOR, below, passes its unrequested
   candidates as asleep too and rescans from 0.) *)
let rec first_awake sleep en k base rec_pids ncands i =
  if i >= ncands then -1
  else if sleep land (1 lsl cand_bit en k base rec_pids i) <> 0 then
    first_awake sleep en k base rec_pids ncands (i + 1)
  else i

let any_of pending pid =
  match pending.(pid) with
  | Some o -> o
  | None -> assert false (* sleeping/candidate pids are never finished *)

(* [Independence.independent_actions] specialized to packed keys: two
   transitions of distinct processes commute unless both execute and
   their operations conflict (a crash touches no register).  [eop] is
   the executing candidate's pending operation; a sleeper's is read
   from the pending table at test time — it cannot have changed while
   the entry slept, since executing or crashing its process would have
   filtered the entry out as dependent (same pid) at that transition. *)
(* Drop from [z] every sleeping {e execute} entry whose operation
   conflicts with the executing transition's [eop] ([Independence]'s
   fault-aware relation: crash entries commute with everything and stay
   put; the caller already removed every entry of the executing pid).
   The exec bits scanned here belong to live pids, so [any_of] is safe.
   Scanning pids 0..n-1 visits each candidate once. *)
let rec drop_dependent pending eop z q n =
  if q >= n then z
  else
    let z =
      if
        z land (1 lsl (q * 3)) <> 0
        && not (Independence.independent (any_of pending q) eop)
      then z land lnot (1 lsl (q * 3))
      else z
    in
    drop_dependent pending eop z (q + 1) n

(* The child sleep set of descending via [pid]/[kind] from a state
   asleep at [sleep]: remove all of [pid]'s entries (same-pid
   transitions never commute) and the stop pseudo-candidate (stopping
   commutes with nothing — any transition reaches a different final
   state).  A crash touches no register, so crashing keeps everything
   else.  A recovery conservatively conflicts with every operation (it
   wipes the volatile registers its pid last wrote, so reads of those
   registers observe different values across the swap): recovering
   wakes every sleeping execute entry, and executing wakes every
   sleeping recover entry; recover/recover and recover/crash pairs of
   distinct pids commute (disjoint ownership, disjoint program
   states — see {!Independence.independent_actions}). *)
let filter_indep pending sleep ~pid ~kind =
  let z = sleep land lnot ((7 lsl (pid * 3)) lor (1 lsl stop_bit)) in
  if kind = kind_crash then z
  else if kind = kind_recover then z land lnot exec_bits
  else begin
    let z = z land lnot recover_bits in
    if z land exec_bits = 0 then z
    else drop_dependent pending (any_of pending pid) z 0 (Array.length pending)
  end

(* The execute lanes [3q] of every enabled pid [q] other than [pid]. *)
let rec other_exec_lanes en pid i acc =
  if i >= Array.length en then acc
  else
    let q = en.(i) in
    other_exec_lanes en pid (i + 1) (if q = pid then acc else acc lor (1 lsl (3 * q)))

(* Whether crashing [pid] at a node asleep at [sleep], with
   [crashes_left] crash budget and no recovery budget, leads straight
   to a sleep-blocked leaf.  The child's candidates are known without
   running the crash: the other enabled pids' executes, plus their
   crashes while budget remains after this one.  A crash writes no
   register, so the child's sleep set is [sleep] less [pid]'s lanes
   and the stop bit, and the child is blocked exactly when every one of
   those candidate bits is already set here.  With no other pid
   enabled the child is a complete leaf, never blocked. *)
let crash_child_blocked sleep en pid crashes_left =
  let lanes = other_exec_lanes en pid 0 0 in
  let need = if crashes_left > 1 then lanes lor (lanes lsl 1) else lanes in
  lanes <> 0 && sleep land need = need

let corrupt () =
  invalid_arg "Por.explore: checkpoint path inconsistent with this config"

(* Replay a node's sibling progression from its first awake candidate
   [i] to the checkpointed or pinned candidate [c] (a valid index),
   growing the sleep set from [z] exactly as the run that saved the
   path did while exploring nothing; the sleep set [c] is tried under. *)
let advance z en k base rec_pids ncands i c =
  let rec go sleep i =
    if i = c then sleep
    else
      let sleep = sleep lor (1 lsl cand_bit en k base rec_pids i) in
      let j = first_awake sleep en k base rec_pids ncands (i + 1) in
      if j < 0 then corrupt () else go sleep j
  in
  go z i

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (toward source sets)                *)
(* ------------------------------------------------------------------ *)

(* The sleep-set search restricts each node to its not-yet-slept
   candidates but still tries every one of them; the reduction is the
   sleep sets' alone.  Under [~source] the same DFS adds
   Flanagan–Godefroid-style dynamic backtracking on top: a node starts
   with a minimal backtracking set (see [enter_node]) and grows it on
   demand.  When a transition of process p executes at depth d, the
   latest executed event of another process whose operation conflicts
   with p's marks a race: p is added to the backtracking set of that
   event's pre-state node (or, if p was not enabled there, every
   enabled candidate is — the conservative fallback).  Candidates never
   requested are never explored, which is where the asymptotic
   reduction over pure sleep sets comes from.

   Completeness bookkeeping beyond the classic loop: leaves that do not
   run to completion (depth-truncated or sleep-blocked) race-scan the
   pending operation of every still-enabled process as if it executed
   there, so a dependency whose second half lies beyond the cut still
   registers its backtracking point.  Detection on execution (rather
   than at every state a transition is pending) finds the same races
   one branch later: the run where p executes adds p's backtracking
   point at the latest conflicting event, and the branch explored from
   there repeats the scan against the then-shorter past, percolating
   the point as far up as it must go.

   The state is one record; the sleep-set search shares the static
   [no_races], so it allocates nothing for it.
   Events are indexed by execution depth: process, operation footprint
   and the frame index of the node whose pre-state chose it (-1 below
   sole-candidate corridors, where no other process is enabled to
   request).  A node's backtracking set (a candidate-key mask) and its
   enabled array (aliased: enabled arrays are interned or rebuilt, never
   mutated) are indexed by its frame index, unique along the current
   path and below [2 * (max_depth + 1)]: a path pushes at most a node
   frame and a fork frame per depth. *)
type races = {
  on : bool;
  probe : Telemetry.probe;
  pending : Op.any option array;
  ev_pid : int array;
  ev_lo : int array;
  ev_hi : int array;
  ev_writes : bool array;
  ev_node : int array;
  bt : int array;
  node_en : int array array;
}

let no_races =
  { on = false; probe = Telemetry.fresh_probe (); pending = [||]; ev_pid = [||]; ev_lo = [||];
    ev_hi = [||]; ev_writes = [||]; ev_node = [||]; bt = [||]; node_en = [||] }

let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1)

(* Request [p]'s execute candidate at node [lvl] — or, when [p] was not
   schedulable there, every execute candidate (the classic conservative
   clause). *)
let add_backtrack rc lvl p =
  let before = rc.bt.(lvl) in
  let en = rc.node_en.(lvl) in
  let m =
    if Array.exists (fun q -> q = p) en then before lor (1 lsl key ~pid:p ~kind:kind_exec)
    else Array.fold_left (fun m q -> m lor (1 lsl key ~pid:q ~kind:kind_exec)) before en
  in
  rc.bt.(lvl) <- m;
  Telemetry.add rc.probe Telemetry.dpor_backtracks (popcount (m land lnot before))

(* The latest event before depth [d] of another process whose footprint
   conflicts with [pid]'s operation; request [pid] at its pre-state
   node. *)
let race rc pid d =
  let op = any_of rc.pending pid in
  let lo = Op.loc op and hi = Independence.op_hi op in
  let writes = Independence.op_writes op in
  let rec scan j =
    if j >= 0 then
      if
        rc.ev_pid.(j) <> pid
        && (writes || rc.ev_writes.(j))
        && rc.ev_lo.(j) < hi && lo < rc.ev_hi.(j)
      then begin
        Telemetry.bump rc.probe Telemetry.dpor_races;
        if rc.ev_node.(j) >= 0 then add_backtrack rc rc.ev_node.(j) pid
      end
      else scan (j - 1)
  in
  scan (d - 1)

(* Record the event [pid]/[kind] taken at depth [d] from node [node],
   race-scanning an execute against the past first.  A crash's footprint
   is empty, so it races with nothing.  A recovery wipes whichever
   volatile registers its pid last wrote — a footprint static analysis
   cannot bound — so it is recorded as a global write: every later
   operation races with it.  The converse reorderings (recover first)
   need no scan of their own, because recover candidates sit in every
   node's initial backtracking set. *)
let record_event rc ~pid ~kind ~node d =
  rc.ev_pid.(d) <- pid;
  rc.ev_node.(d) <- node;
  if kind = kind_exec then begin
    race rc pid d;
    let op = any_of rc.pending pid in
    rc.ev_lo.(d) <- Op.loc op;
    rc.ev_hi.(d) <- Independence.op_hi op;
    rc.ev_writes.(d) <- Independence.op_writes op
  end
  else begin
    rc.ev_lo.(d) <- 0;
    rc.ev_hi.(d) <- (if kind = kind_recover then max_int else 0);
    rc.ev_writes.(d) <- kind = kind_recover
  end

(* A leaf cut before completion: scan every still-enabled process's
   pending operation as if it executed here, so races whose second half
   lies past the cut still register. *)
let pending_races rc en d = Array.iter (fun p -> race rc p d) en

(* Enter the node at frame index [fi] whose first awake candidate is
   [i].  Its initial backtracking set is [i], every crash candidate
   (crashes race with nothing, so detection below would never request
   them), every recover candidate (likewise unrequestable: detection
   asks for execute candidates only, and a crashed pid is never
   enabled) and the stop pseudo-candidate when present — crash- and
   recovery-closure would be lost otherwise. *)
let enter_node rc fi en k base rec_pids ncands i =
  rc.node_en.(fi) <- en;
  let m = ref (1 lsl cand_bit en k base rec_pids i) in
  for j = k to ncands - 1 do
    m := !m lor (1 lsl cand_bit en k base rec_pids j)
  done;
  rc.bt.(fi) <- !m

(* The one DFS kernel behind {!explore} and {!explore_source}: [source]
   adds source-set DPOR (above) to the sleep sets. *)
let search ~source ?engine ?(max_depth = 200) ?(max_runs = 2_000_000)
    ?(cheap_collect = false) ?(faults = Fault.none) ?(stop = fun () -> false) ?sink
    ?probe ?heartbeat ?resume ?(subtree_prefix = 0) ?cut ?(dedup = false)
    ?(checkpoint_every = 100_000) ?on_checkpoint ~n ~setup ~check () =
  (* Sleep sets are int bitmasks over [3n] candidate keys plus the stop
     bit.  Exhaustive exploration is hopeless long before this binds. *)
  if n > 20 then
    invalid_arg
      ((if source then "Por.explore_source" else "Por.explore") ^ ": n must be at most 20");
  if subtree_prefix < 0 then
    invalid_arg "Por.explore: subtree_prefix must be nonnegative";
  (match resume with
   | None ->
     if subtree_prefix > 0 then
       invalid_arg "Por.explore: subtree_prefix needs a resume path to pin"
   | Some (c : Checkpoint.counts) ->
     if subtree_prefix > List.length c.path then
       invalid_arg "Por.explore: subtree_prefix longer than the resume path");
  if cut <> None && (Option.is_some resume || Option.is_some on_checkpoint || dedup)
  then invalid_arg "Por.explore: cut excludes resume, checkpointing and dedup";
  if dedup && Option.is_some on_checkpoint then
    invalid_arg "Por.explore: dedup cannot checkpoint (the visited table is not saved)";
  (match resume with
   | Some (c : Checkpoint.counts) when dedup && List.length c.path > subtree_prefix ->
     (* A resumed run starts with an empty visited table; anywhere but
        at a subtree root that would prune differently than the
        interrupted run, losing bit-identical resume. *)
     invalid_arg "Por.explore: dedup cannot resume mid-subtree"
   | _ -> ());
  (* Every event is counted where it happens, into the given probe's
     row or, without one, into a private row nobody reads. *)
  let probe = match probe with Some p -> p | None -> Telemetry.fresh_probe () in
  let memory, body = setup () in
  let machine = Machine.create ?engine ~cheap_collect ?sink ~n ~memory body in
  if dedup && not (Machine.supports_state_hash machine) then
    invalid_arg "Por.explore: dedup needs the VM engine (state hashing)";
  let rc =
    if not source then no_races
    else
      let cap = max_depth + 1 in
      { on = true; probe; pending = Machine.unsafe_pending machine;
        ev_pid = Array.make cap 0; ev_lo = Array.make cap 0; ev_hi = Array.make cap 0;
        ev_writes = Array.make cap false; ev_node = Array.make cap (-1);
        bt = Array.make (2 * cap) 0; node_en = Array.make (2 * cap) [||] }
  in
  (* Branch-point marks, kept on an explicit stack so the current path
     can be reported in Explore.run_path's encoding — when a check
     aborts the search, and as the checkpoint frontier — and so the
     snapshot pool and the DPOR backtracking sets have a per-node
     index.  Sleep sets, depth and fault budgets live in the recursion.
     Scheduling points with a single candidate are not marked, matching
     the path encoding.  A frame is one raw int — the current candidate
     index at a scheduling point, the current coin outcome (0 =
     landed/fresh, 1 = missed/stale) at a fork — so marking a branch
     point allocates nothing. *)
  let frames = ref (Array.make 64 0) in
  let nframes = ref 0 in
  let push v =
    if !nframes = Array.length !frames then begin
      let bigger = Array.make (2 * !nframes) 0 in
      Array.blit !frames 0 bigger 0 !nframes;
      frames := bigger
    end;
    !frames.(!nframes) <- v;
    incr nframes
  in
  let pop () = decr nframes in
  (* Snapshot pool, one slot per frame-stack level.  When a branch
     point (or a fork below a sole-candidate chain) needs a snapshot at
     level [!nframes], any snapshot previously pooled at that level
     belonged to a node whose sibling loop has already finished — the
     stack was back down to this level before control could get here —
     so it is dead and can be refreshed in place.  This turns the
     ~2 snapshots-per-leaf allocation stream of a big search into
     [max_depth] allocations total; the LIFO restore discipline
     required by {!Memory.restore_backup} is unchanged.  [take_snapshot]
     returns the slot's own [Some], which the sibling loop hands to its
     transitions as is, so entering a branch point allocates nothing. *)
  let snaps = ref (Array.make 64 None) in
  let take_snapshot () =
    let lvl = !nframes in
    if lvl >= Array.length !snaps then begin
      let bigger = Array.make (2 * Array.length !snaps) None in
      Array.blit !snaps 0 bigger 0 (Array.length !snaps);
      snaps := bigger
    end;
    match !snaps.(lvl) with
    | Some s as slot ->
      Telemetry.bump probe Telemetry.snapshot_refreshes;
      Machine.snapshot_into machine s; slot
    | None ->
      Telemetry.bump probe Telemetry.snapshots;
      Telemetry.peak probe Telemetry.snapshot_pool_high lvl;
      let slot = Some (Machine.snapshot machine) in
      !snaps.(lvl) <- slot;
      slot
  in
  let complete_count = ref 0 in
  let truncated_count = ref 0 in
  let pruned_count = ref 0 in
  let runs = ref 0 in
  (* Resume support: [rail] is the checkpointed path still to be
     fast-forwarded along (consumed at marked branch points, exploring
     nothing off it); [pending_offset] re-bases the step counter at the
     first leaf so resumed statistics continue the interrupted run's
     totals instead of this process's (which only paid for replaying
     one path prefix). *)
  let rail = ref [] in
  let steps_offset = ref 0 in
  let pending_offset = ref None in
  (match resume with
   | None -> ()
   | Some (c : Checkpoint.counts) ->
     complete_count := c.complete;
     truncated_count := c.truncated;
     pruned_count := c.pruned;
     runs := c.complete + c.truncated + c.pruned;
     rail := c.path;
     pending_offset := Some c.steps);
  let total_steps () = !steps_offset + Machine.total_steps machine in
  let rebase () =
    match !pending_offset with
    | Some prior ->
      steps_offset := prior - Machine.total_steps machine;
      pending_offset := None
    | None -> ()
  in
  (* The frame [fi] just pushed takes the next rail entry, if any, as
     its current choice, which must be below [arity]; a [pinned] frame
     must have one.  Taking the last entry at the deepest pinned frame
     crosses into a fresh shard's subtree (the rail was exactly the
     pinned prefix): the transitions replayed so far are the shard
     generator's work, already counted by the generator, not this
     shard's — so the step counter is rebased right here, and the
     pinned choice and everything below it are what this run's
     statistics measure.  A mid-shard resume (rail longer than the pin)
     keeps the first-leaf rebase instead, continuing the interrupted
     shard's totals. *)
  let take_rail fi ~pinned arity =
    match !rail with
    | [] -> if pinned then corrupt ()
    | c :: tl ->
      if c < 0 || c >= arity then corrupt ();
      rail := tl;
      !frames.(fi) <- c;
      if tl = [] && fi = subtree_prefix - 1 then rebase ()
  in
  (* Duplicate detection: a {!Visited} table over (state hash, depth,
     crash budget, recovery budget) at marked scheduling nodes, storing
     the sleep set the state was first visited with.  Godefroid's rule
     for combining sleep sets with state caching: a revisit whose sleep
     set covers the stored one can only explore a subset of what the
     first visit did — prune it; a revisit with a fresh awake candidate
     must be re-explored, and the entry is narrowed to the intersection so
     later revisits compare against everything now covered.  Depth
     participates in the key because [max_depth] truncation gives
     equal states at different depths different subtrees; diamonds of
     commuting transitions — the duplicates worth catching — converge
     at equal depth anyway.  The table is per-call, so per-shard under
     [Parallel]: shard counts stay deterministic regardless of how
     shards land on workers. *)
  let visited = Visited.create () in
  let hits0 = Telemetry.count probe Telemetry.dedup_hits in
  let hash = [| 0; 0 |] in
  let dedup_covered z depth crashes_left recoveries_left =
    Machine.hash_into machine hash;
    let h1 = Memory.mix1 (Memory.mix1 (Memory.mix1 hash.(0) depth) crashes_left) recoveries_left in
    let h2 = Memory.mix2 (Memory.mix2 (Memory.mix2 hash.(1) depth) crashes_left) recoveries_left in
    match Visited.visit visited h1 h2 z with
    | Visited.Covered -> Telemetry.bump probe Telemetry.dedup_hits; true
    | Visited.Added -> Telemetry.bump probe Telemetry.dedup_misses; false
    | Visited.Narrowed -> Telemetry.bump probe Telemetry.dedup_intersections; false
  in
  let last_saved = ref !runs in
  (* Telemetry baseline: counts carried in by [resume] are the
     interrupted run's work, not this call's — exit-time probe adds
     report deltas against them, so per-shard contributions sum to the
     sequential totals. *)
  let c0_complete = !complete_count in
  let c0_truncated = !truncated_count in
  let c0_pruned = !pruned_count in
  let c0_steps = match resume with None -> 0 | Some c -> c.Checkpoint.steps in
  let cov = Telemetry.coverage probe in
  let stage_of pid = Machine.stage machine pid in
  let stats exhausted =
    { complete = !complete_count;
      truncated = !truncated_count;
      pruned = !pruned_count;
      dedup_hits = Telemetry.count probe Telemetry.dedup_hits - hits0;
      exhausted;
      steps = total_steps () }
  in
  let exception Abort of string in
  let exception Out_of_budget in
  (* The current position in Explore.run_path's encoding; frames are
     kept on the stack when [Abort] unwinds, root first. *)
  let current_path () = List.init !nframes (fun i -> !frames.(i)) in
  (* One leaf-outputs buffer for the whole search: checks see the live
     contents and must copy what they retain (see the mli). *)
  let out_buf = Array.make n None in
  (* [leaf_at ghost kind] counts a leaf.  [ghost] is 1 for a crash child
     counted without running the crash (see [transition]) and 0
     otherwise: the unapplied crash still counts as one transition, in
     the step total and in the leaf's depth, so every statistic,
     checkpoint and callback reads as if it had run. *)
  let leaf_at ghost kind =
    steps_offset := !steps_offset + ghost;
    rebase ();
    let depth = Machine.steps machine + ghost in
    let stopping = !runs >= max_runs || stop () in
    (match on_checkpoint with
     | Some save when stopping || !runs - !last_saved >= checkpoint_every ->
       (* Saved before counting this leaf: the resumed run re-reaches
          and counts it, so an interrupted + resumed exploration visits
          exactly the uninterrupted leaf sequence. *)
       save
         { Checkpoint.path = current_path ();
           complete = !complete_count;
           truncated = !truncated_count;
           pruned = !pruned_count;
           steps = total_steps () };
       Telemetry.bump probe Telemetry.checkpoints;
       last_saved := !runs
     | Some _ | None -> ());
    if stopping then raise Out_of_budget;
    incr runs;
    (match cov with
     | None -> ()
     | Some cv ->
       Coverage.leaf cv ~kind ~depth ~n ~stage:stage_of;
       if dedup && !runs land 16383 = 0 then
         Coverage.saturate cv ~leaves:!runs ~table:(Visited.count visited));
    (match heartbeat with
     | None -> ()
     | Some hb ->
       hb ~runs:!runs ~pruned:!pruned_count ~steps:(total_steps ()) ~depth);
    match kind with
    | `Pruned -> incr pruned_count
    | (`Complete | `Truncated) as kind ->
      let complete = kind = `Complete in
      if complete then incr complete_count else incr truncated_count;
      Machine.outputs_into machine out_buf;
      (match check ~complete out_buf with
       | Ok () -> ()
       | Error reason -> raise (Abort reason))
  in
  let leaf kind = leaf_at 0 kind in
  let pending = Machine.unsafe_pending machine in
  (* [descend z crashes_left recoveries_left depth]: the machine sits at
     a fresh state whose inherited sleep set is [z].  Scheduling
     candidates are executing each enabled process (ascending pid),
     then — while crash budget remains — crash-stopping each (same
     order), then — while recovery budget remains — recovering each
     currently crashed pid (ascending); faults after steps keeps the
     all-zeros path the failure-free canonical execution and matches
     Explore.run_path's arity layout choice for choice (including the
     stop-or-recover node when no process is enabled but crashed pids
     remain recoverable).  Pick the first candidate not asleep; if they
     all are, this path only revisits already-explored traces — prune.
     After a scheduling choice is fully explored it enters the state's
     sleep set, so its subtree is never re-entered from a sibling;
     trying the sibling restores the state snapshot instead of
     re-executing from the root. *)
  let rec descend z crashes_left recoveries_left depth =
    let en = Machine.enabled machine in
    let k = Array.length en in
    let rec_pids =
      if recoveries_left > 0 then Machine.crashed_pids machine else [||]
    in
    let m = Array.length rec_pids in
    let base = if crashes_left > 0 then 2 * k else k in
    let ncands = if k = 0 && m > 0 then 1 + m else base + m in
    if ncands = 0 then leaf `Complete
    else if depth >= max_depth then begin
      if rc.on then pending_races rc en depth;
      leaf `Truncated
    end
    else begin
      let i = first_awake z en k base rec_pids ncands 0 in
      if i < 0 then begin
        if rc.on then pending_races rc en depth;
        leaf `Pruned
      end
      else if ncands = 1 then
        (* Sole candidate: no alternative can ever be tried here, so
           no snapshot and no mark. *)
        ignore
          (transition ~pid:en.(0) ~kind:kind_exec ~node:(-1) ~sleep:z ~snap:None
             ~crashes_left ~recoveries_left ~depth)
      else begin
        match cut with
        | Some (lvl, emit) when !nframes >= lvl ->
          (* Shard generation: first marked node at or past the cut
             level — emit one shard per candidate the sibling loop
             would explore, in its exact progression order, and
             explore nothing below. *)
          emit_cut emit z en k base rec_pids ncands i
        | _ ->
          (* A pinned shard-prefix frame replays exactly its railed
             candidate, rebuilding the sleep progression the shard
             generator walked when it emitted this path; it takes no
             snapshot, so it explores no sibling and nothing backtracks
             to it. *)
          let fi = !nframes in
          let pinned = fi < subtree_prefix in
          if (not pinned) && dedup && dedup_covered z depth crashes_left recoveries_left
          then leaf `Pruned
          else begin
            let snapo = if pinned then None else take_snapshot () in
            push i;
            if rc.on then enter_node rc fi en k base rec_pids ncands i;
            take_rail fi ~pinned ncands;
            let c = !frames.(fi) in
            let sleep = if c = i then z else advance z en k base rec_pids ncands i c in
            siblings fi en k base rec_pids ncands snapo crashes_left recoveries_left
              depth sleep;
            pop ()
          end
      end
    end
  (* Emit one shard path per candidate of this node, walking the same
     first_awake progression the sibling loop would: shard paths
     partition the node's subtrees exactly as sequential exploration
     orders them. *)
  and emit_cut emit z en k base rec_pids ncands i =
    push i;
    emit (current_path ());
    pop ();
    let z = z lor (1 lsl cand_bit en k base rec_pids i) in
    let j = first_awake z en k base rec_pids ncands (i + 1) in
    if j >= 0 then emit_cut emit z en k base rec_pids ncands j
  (* The sibling loop of one scheduling node, as a recursion so the
     growing sleep set stays an immediate parameter.  A sibling that
     left the machine untouched (a crash child counted without running,
     or the stop pseudo-candidate) needs no restore before the next.
     The next sibling is the first awake candidate past this one, or
     under source-set DPOR ([rc.on]) the lowest-index requested
     candidate not asleep.  A node without a snapshot (a pinned frame)
     has no next sibling. *)
  and siblings fi en k base rec_pids ncands snapo crashes_left recoveries_left depth
      sleep =
    let i = !frames.(fi) in
    let bit = cand_bit en k base rec_pids i in
    let ran =
      transition ~pid:(bit / 3) ~kind:(if bit = stop_bit then kind_stop else bit mod 3)
        ~node:fi ~sleep ~snap:snapo ~crashes_left ~recoveries_left ~depth
    in
    match snapo with
    | None -> ()
    | Some snap ->
      let sleep = sleep lor (1 lsl bit) in
      let j =
        (* Race detection below may have grown the node's backtracking
           set, so source-set DPOR rescans from 0, unrequested candidates
           counting as asleep. *)
        if rc.on then first_awake (sleep lor lnot rc.bt.(fi)) en k base rec_pids ncands 0
        else first_awake sleep en k base rec_pids ncands (i + 1)
      in
      if j >= 0 then begin
        !frames.(fi) <- j;
        if ran then Machine.restore machine snap;
        siblings fi en k base rec_pids ncands snapo crashes_left recoveries_left depth
          sleep
      end
  (* Descend through one chosen transition: candidates that commute with
     it (fault-aware relation) stay asleep below.  A probabilistic write
     with 0 < p < 1 forks on the coin and a weak-register read forks on
     freshness; either fork's pre-state is the scheduling state itself,
     so the node snapshot is reused when there is one.  The stop
     pseudo-candidate is a complete leaf in place — no transition.

     A crash child that [crash_child_blocked] shows to be a
     sleep-blocked leaf — at a depth where it is not truncated first,
     and with no recovery budget that would make [pid] an awake recover
     candidate there — is counted at depth [depth + 1] without running
     the crash or entering [descend]; its [descend] would have done
     nothing else.  The result says whether the machine was moved, so
     the caller's sibling loop knows whether it must restore.  Under
     source-set DPOR the crash always runs (its child's leaf
     race-scans), and the event is recorded against node [node]
     first. *)
  and transition ~pid ~kind ~node ~sleep ~snap ~crashes_left ~recoveries_left ~depth =
    if kind = kind_stop then (leaf `Complete; false)
    else if
      (not rc.on) && kind = kind_crash && recoveries_left = 0 && depth + 1 < max_depth
      && crash_child_blocked sleep (Machine.enabled machine) pid crashes_left
    then (leaf_at 1 `Pruned; false)
    else begin
      if rc.on then record_event rc ~pid ~kind ~node depth;
      let z' =
        if sleep = 0 then 0 else filter_indep pending sleep ~pid ~kind
      in
      (if kind = kind_crash then begin
         Machine.crash machine ~pid;
         descend z' (crashes_left - 1) recoveries_left (depth + 1)
       end
       else if kind = kind_recover then begin
         Telemetry.bump probe Telemetry.recovers;
         Machine.recover machine ~pid;
         descend z' crashes_left (recoveries_left - 1) (depth + 1)
       end
       else
         (* [coin_class] reads the machine's pending descriptor for the
            pid — pending operations are fixed until the process is
            scheduled.  Under the VM the class is cached per pc, so this
            allocates nothing. *)
         match Machine.coin_class machine pid with
         | 0 ->
           Machine.step_forced machine ~pid ~landed:false;
           descend z' crashes_left recoveries_left (depth + 1)
         | 1 ->
           Machine.step_forced machine ~pid ~landed:true;
           descend z' crashes_left recoveries_left (depth + 1)
         | 2 -> fork ~pid ~z' ~snap ~crashes_left ~recoveries_left ~depth ~landed0:true
         | _ -> fork ~pid ~z' ~snap ~crashes_left ~recoveries_left ~depth ~landed0:false);
      true
    end
  (* Two-way fork on the coin (choice 0 = [landed0]) or on freshness
     (choice 0 = fresh): straight-line, since this is the inner loop. *)
  and fork ~pid ~z' ~snap ~crashes_left ~recoveries_left ~depth ~landed0 =
    match cut with
    | Some (lvl, emit) when !nframes >= lvl ->
      (* Fork at or past the cut level: one shard per outcome.  Forks
         must be cut points too, or coin-heavy subtrees (the fallback's
         corridor of forks) would all land in the generator's residue. *)
      push 0;
      emit (current_path ());
      !frames.(!nframes - 1) <- 1;
      emit (current_path ());
      pop ()
    | _ ->
      (* A pinned fork frame replays its railed outcome only. *)
      let fi = !nframes in
      let pinned = fi < subtree_prefix in
      let snap =
        if pinned then None else match snap with Some _ -> snap | None -> take_snapshot ()
      in
      push 0;
      take_rail fi ~pinned 2;
      if !frames.(fi) = 0 then begin
        Machine.step_forced machine ~pid ~landed:landed0;
        descend z' crashes_left recoveries_left (depth + 1);
        match snap with
        | Some s ->
          Machine.restore machine s;
          !frames.(fi) <- 1
        | None -> ()
      end;
      if !frames.(fi) = 1 then begin
        Machine.step_forced machine ~pid ~landed:(not landed0);
        descend z' crashes_left recoveries_left (depth + 1)
      end;
      pop ()
  in
  (* Leaf and step totals land in the probe once, on the way out —
     deltas against the resume baseline, so shard contributions sum to
     the sequential totals ([--jobs]-invariance, asserted in
     test/test_parallel.ml). *)
  let finish r =
    Telemetry.add probe Telemetry.leaves_complete (!complete_count - c0_complete);
    Telemetry.add probe Telemetry.leaves_truncated (!truncated_count - c0_truncated);
    Telemetry.add probe Telemetry.leaves_pruned (!pruned_count - c0_pruned);
    Telemetry.add probe Telemetry.steps (max 0 (total_steps () - c0_steps));
    Telemetry.peak probe Telemetry.code_pcs (Machine.code_size machine);
    if dedup then begin
      Telemetry.peak probe Telemetry.dedup_table_peak (Visited.count visited);
      match cov with
      | Some cv -> Coverage.saturate cv ~leaves:!runs ~table:(Visited.count visited)
      | None -> ()
    end;
    r
  in
  match descend 0 faults.Fault.crashes faults.Fault.recoveries 0 with
  | () -> finish (Ok (stats true))
  | exception Out_of_budget -> finish (Ok (stats false))
  | exception Abort reason -> finish (Error (reason, current_path (), stats false))

let explore ?engine ?max_depth ?max_runs ?cheap_collect ?faults ?stop ?sink ?probe
    ?heartbeat ?resume ?subtree_prefix ?cut ?dedup ?checkpoint_every ?on_checkpoint ~n
    ~setup ~check () =
  search ~source:false ?engine ?max_depth ?max_runs ?cheap_collect ?faults ?stop ?sink
    ?probe ?heartbeat ?resume ?subtree_prefix ?cut ?dedup ?checkpoint_every
    ?on_checkpoint ~n ~setup ~check ()

let explore_source ?engine ?max_depth ?max_runs ?cheap_collect ?faults ?stop ?sink
    ?probe ?heartbeat ~n ~setup ~check () =
  search ~source:true ?engine ?max_depth ?max_runs ?cheap_collect ?faults ?stop ?sink
    ?probe ?heartbeat ~n ~setup ~check ()
