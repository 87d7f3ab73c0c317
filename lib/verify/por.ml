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

let cand_kind k base c =
  if k = 0 then (if c = 0 then kind_stop else kind_recover)
  else if c < k then kind_exec
  else if c < base then kind_crash
  else kind_recover

let cand_pid en k base rec_pids c =
  if k = 0 then (if c = 0 then 0 else rec_pids.(c - 1))
  else if c < k then en.(c)
  else if c < base then en.(c - k)
  else rec_pids.(c - base)

(* [key ~pid:(cand_pid ..) ~kind:(cand_kind ..)], or [stop_bit] for the
   stop pseudo-candidate, with the band tests done once: this is the
   inner loop of every sibling scan. *)
let[@inline] cand_bit en k base rec_pids c =
  if k = 0 then (if c = 0 then stop_bit else 3 * rec_pids.(c - 1) + kind_recover)
  else if c < k then 3 * en.(c)
  else if c < base then 3 * en.(c - k) + kind_crash
  else 3 * rec_pids.(c - base) + kind_recover

(* Branch-point marks, kept on an explicit stack solely so the current
   path can be reported in Explore.run_path's encoding — when a check
   aborts the search, and as the checkpoint frontier.  All other
   per-node state (sleep sets, snapshots, depth, fault budgets) lives
   in the DFS recursion.  Scheduling points with a single candidate are
   not marked, matching the path encoding.  A frame is one raw int —
   the current candidate index at a scheduling point, the current coin
   outcome (0 = landed/fresh, 1 = missed/stale) at a fork; the path
   encoding reads the value the same way for both, so the stack needs
   no tags and marking a branch point allocates nothing. *)

let in_sleep sleep bit = sleep land (1 lsl bit) <> 0

(* First candidate index at or after [i] not in the sleep set, or -1.
   Module-level (machine state threaded through) so the per-node scan
   allocates no closures.  A node's sleep set only grows while its
   siblings are tried, so every scan after the first resumes just past
   the candidate it last returned: each node's candidates are scanned
   once in total. *)
let rec first_awake sleep en k base rec_pids ncands i =
  if i >= ncands then -1
  else if in_sleep sleep (cand_bit en k base rec_pids i) then
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
let filter_indep pending sleep ~pid ~kind ~n =
  let z = sleep land lnot ((7 lsl (pid * 3)) lor (1 lsl stop_bit)) in
  if kind = kind_crash then z
  else if kind = kind_recover then z land lnot exec_bits
  else begin
    let z = z land lnot recover_bits in
    if z land exec_bits = 0 then z
    else drop_dependent pending (any_of pending pid) z 0 n
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

let explore ?engine ?(max_depth = 200) ?(max_runs = 2_000_000) ?(cheap_collect = false)
    ?(faults = Fault.none) ?(stop = fun () -> false) ?sink ?probe ?heartbeat
    ?resume ?(subtree_prefix = 0) ?cut ?(dedup = false)
    ?(checkpoint_every = 100_000) ?on_checkpoint ~n ~setup ~check () =
  (* Sleep sets are int bitmasks over [3n] candidate keys plus the stop
     bit.  Exhaustive exploration is hopeless long before this binds. *)
  if n > 20 then invalid_arg "Por.explore: n must be at most 20";
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
  let memory, body = setup () in
  let machine = Machine.create ?engine ~cheap_collect ?sink ~n ~memory body in
  if dedup && not (Machine.supports_state_hash machine) then
    invalid_arg "Por.explore: dedup needs the VM engine (state hashing)";
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
     required by {!Memory.restore_backup} is unchanged. *)
  let snaps = ref (Array.make 64 None) in
  (* Telemetry accumulators for the per-branch-point events.  Plain
     (non-atomic) increments, cheaper than the events they count; the
     probe's atomic cells only see them in batches — every 4096 leaves
     (so fleet heartbeats lag boundedly) and at exit — keeping the
     probe-attached hot path within the telemetry-bench budget.  The
     deepest pool slot is likewise gauged locally and peaked at exit. *)
  let pool_high = ref 0 in
  let hot_refreshes = ref 0 in
  let hot_snapshots = ref 0 in
  let hot_dedup_misses = ref 0 in
  let hot_dedup_inters = ref 0 in
  let hot_recovers = ref 0 in
  let take_snapshot () =
    let lvl = !nframes in
    if lvl >= Array.length !snaps then begin
      let bigger = Array.make (2 * Array.length !snaps) None in
      Array.blit !snaps 0 bigger 0 (Array.length !snaps);
      snaps := bigger
    end;
    match !snaps.(lvl) with
    | Some s ->
      incr hot_refreshes;
      Machine.snapshot_into machine s; s
    | None ->
      incr hot_snapshots;
      if lvl > !pool_high then pool_high := lvl;
      let s = Machine.snapshot machine in
      !snaps.(lvl) <- Some s;
      s
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
  let take_rail () =
    match !rail with [] -> None | c :: tl -> rail := tl; Some c
  in
  let total_steps () = !steps_offset + Machine.total_steps machine in
  (* Crossing into the shard subtree on a fresh shard (the rail was
     exactly the pinned prefix): the transitions replayed so far are
     the shard generator's work, already counted by the generator, not
     this shard's — rebase the step counter right here so the pinned
     choice at the deepest prefix frame and everything below it are
     what this run's statistics measure.  A mid-shard resume (rail
     longer than the pin) keeps the standard first-leaf rebase
     instead, continuing the interrupted shard's totals. *)
  let entry_rebased = ref false in
  let maybe_entry_rebase fi =
    if fi = subtree_prefix - 1 && !rail = [] && not !entry_rebased then begin
      entry_rebased := true;
      match !pending_offset with
      | Some prior ->
        steps_offset := prior - Machine.total_steps machine;
        pending_offset := None
      | None -> ()
    end
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
  let visited = Visited.create (if dedup then 4096 else 0) in
  let dedup_hits = ref 0 in
  let dedup_covered z depth crashes_left recoveries_left =
    let h1, h2 = Machine.state_hash machine in
    let h1 = Memory.mix1 (Memory.mix1 (Memory.mix1 h1 depth) crashes_left) recoveries_left in
    let h2 = Memory.mix2 (Memory.mix2 (Memory.mix2 h2 depth) crashes_left) recoveries_left in
    match Visited.visit visited h1 h2 z with
    | Visited.Covered -> true
    | Visited.Added -> incr hot_dedup_misses; false
    | Visited.Narrowed -> incr hot_dedup_inters; false
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
  let cov = match probe with Some p -> Telemetry.coverage p | None -> None in
  let stage_of pid = Machine.stage machine pid in
  let stats exhausted =
    { complete = !complete_count;
      truncated = !truncated_count;
      pruned = !pruned_count;
      dedup_hits = !dedup_hits;
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
  (* Drain the hot accumulators into the probe: only the growth since
     the last drain, so repeated flushes never double-count. *)
  let f_refreshes = ref 0 in
  let f_snapshots = ref 0 in
  let f_dedup_hits = ref 0 in
  let f_dedup_misses = ref 0 in
  let f_dedup_inters = ref 0 in
  let f_recovers = ref 0 in
  let flush_hot p =
    let drain r f c =
      let v = !r - !f in
      if v > 0 then begin
        Telemetry.add p c v;
        f := !r
      end
    in
    drain hot_refreshes f_refreshes Telemetry.snapshot_refreshes;
    drain hot_snapshots f_snapshots Telemetry.snapshots;
    drain dedup_hits f_dedup_hits Telemetry.dedup_hits;
    drain hot_dedup_misses f_dedup_misses Telemetry.dedup_misses;
    drain hot_dedup_inters f_dedup_inters Telemetry.dedup_intersections;
    drain hot_recovers f_recovers Telemetry.recovers
  in
  (* [leaf_at ghost kind] counts a leaf.  [ghost] is 1 for a crash child
     counted without running the crash (see [transition]) and 0
     otherwise: the unapplied crash still counts as one transition, in
     the step total and in the leaf's depth, so every statistic,
     checkpoint and callback reads as if it had run. *)
  let leaf_at ghost kind =
    steps_offset := !steps_offset + ghost;
    (match !pending_offset with
     | Some prior -> steps_offset := prior - Machine.total_steps machine;
       pending_offset := None
     | None -> ());
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
       (match probe with
        | Some p -> Telemetry.bump p Telemetry.checkpoints
        | None -> ());
       (match sink with
        | Some s -> s.Sink.on_checkpoint ~step:depth
        | None -> ());
       last_saved := !runs
     | Some _ | None -> ());
    if stopping then raise Out_of_budget;
    incr runs;
    (match probe with
     | Some p when !runs land 4095 = 0 -> flush_hot p
     | Some _ | None -> ());
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
    else if depth >= max_depth then leaf `Truncated
    else begin
      let i = first_awake z en k base rec_pids ncands 0 in
      if i < 0 then leaf `Pruned
      else if ncands = 1 then
        (* Sole candidate: no alternative can ever be tried here, so
           no snapshot and no mark. *)
        ignore
          (transition ~pid:en.(0) ~kind:kind_exec ~sleep:z ~snap:None
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
          let fi = !nframes in
          if fi < subtree_prefix then begin
            (* Pinned shard-prefix frame: replay exactly the railed
               candidate, rebuilding the sleep progression the shard
               generator walked when it emitted this path, exploring
               no sibling.  No snapshot: nothing backtracks to here. *)
            let c = match take_rail () with Some c -> c | None -> corrupt () in
            if c < 0 || c >= ncands then corrupt ();
            push c;
            let sleep = ref z in
            let cur = ref i in
            while !cur <> c do
              sleep := !sleep lor (1 lsl cand_bit en k base rec_pids !cur);
              let j = first_awake !sleep en k base rec_pids ncands (!cur + 1) in
              if j >= 0 then cur := j else corrupt ()
            done;
            maybe_entry_rebase fi;
            ignore
              (transition ~pid:(cand_pid en k base rec_pids c)
                 ~kind:(cand_kind k base c) ~sleep:!sleep ~snap:None ~crashes_left
                 ~recoveries_left ~depth);
            pop ()
          end
          else if dedup && dedup_covered z depth crashes_left recoveries_left
          then begin
            incr dedup_hits;
            leaf `Pruned
          end
          else begin
            let snap = take_snapshot () in
            let snapo = Some snap in
            push i;
            let sleep0 =
              match take_rail () with
              | None -> z
              | Some c ->
                (* Fast-forward: advance the first_awake progression to the
                   checkpointed choice, growing the sleep set exactly as
                   the interrupted run did but exploring nothing. *)
                if c < 0 || c >= ncands then corrupt ();
                let sleep = ref z in
                while !frames.(fi) <> c do
                  let i = !frames.(fi) in
                  sleep := !sleep lor (1 lsl cand_bit en k base rec_pids i);
                  let j = first_awake !sleep en k base rec_pids ncands (i + 1) in
                  if j >= 0 then !frames.(fi) <- j else corrupt ()
                done;
                !sleep
            in
            siblings fi en k base rec_pids ncands snap snapo crashes_left
              recoveries_left depth sleep0;
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
     left the machine untouched (a crash child counted without running)
     needs no restore before the next. *)
  and siblings fi en k base rec_pids ncands snap snapo crashes_left
      recoveries_left depth sleep =
    let i = !frames.(fi) in
    let ran =
      transition ~pid:(cand_pid en k base rec_pids i) ~kind:(cand_kind k base i)
        ~sleep ~snap:snapo ~crashes_left ~recoveries_left ~depth
    in
    let sleep = sleep lor (1 lsl cand_bit en k base rec_pids i) in
    let j = first_awake sleep en k base rec_pids ncands (i + 1) in
    if j >= 0 then begin
      !frames.(fi) <- j;
      if ran then Machine.restore machine snap;
      siblings fi en k base rec_pids ncands snap snapo crashes_left
        recoveries_left depth sleep
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
     the caller's sibling loop knows whether it must restore. *)
  and transition ~pid ~kind ~sleep ~snap ~crashes_left ~recoveries_left ~depth =
    if kind = kind_stop then (leaf `Complete; false)
    else if
      kind = kind_crash && recoveries_left = 0 && depth + 1 < max_depth
      && crash_child_blocked sleep (Machine.enabled machine) pid crashes_left
    then (leaf_at 1 `Pruned; false)
    else begin
      let z' =
        if sleep = 0 then 0 else filter_indep pending sleep ~pid ~kind ~n
      in
      (if kind = kind_crash then begin
         Machine.crash machine ~pid;
         descend z' (crashes_left - 1) recoveries_left (depth + 1)
       end
       else if kind = kind_recover then begin
         incr hot_recovers;
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
      let fi = !nframes in
      if fi < subtree_prefix then begin
        (* Pinned fork frame: replay the railed outcome only. *)
        let c = match take_rail () with Some c -> c | None -> corrupt () in
        if c < 0 || c > 1 then corrupt ();
        push c;
        maybe_entry_rebase fi;
        Machine.step_forced machine ~pid
          ~landed:(if c = 0 then landed0 else not landed0);
        descend z' crashes_left recoveries_left (depth + 1);
        pop ()
      end
      else begin
        let snap = match snap with Some s -> s | None -> take_snapshot () in
        push 0;
        let start = match take_rail () with None -> 0 | Some c -> c in
        if start < 0 || start > 1 then corrupt ();
        if start = 0 then begin
          Machine.step_forced machine ~pid ~landed:landed0;
          descend z' crashes_left recoveries_left (depth + 1);
          Machine.restore machine snap
        end;
        !frames.(fi) <- 1;
        Machine.step_forced machine ~pid ~landed:(not landed0);
        descend z' crashes_left recoveries_left (depth + 1);
        pop ()
      end
  in
  (* Leaf and step totals land in the probe once, on the way out —
     deltas against the resume baseline, so the disabled-probe hot path
     stays branch-only and shard contributions sum to the sequential
     totals ([--jobs]-invariance, asserted in test/test_parallel.ml). *)
  let finish r =
    (match probe with
     | None -> ()
     | Some p ->
       flush_hot p;
       Telemetry.add p Telemetry.leaves_complete (!complete_count - c0_complete);
       Telemetry.add p Telemetry.leaves_truncated (!truncated_count - c0_truncated);
       Telemetry.add p Telemetry.leaves_pruned (!pruned_count - c0_pruned);
       Telemetry.add p Telemetry.steps (max 0 (total_steps () - c0_steps));
       Telemetry.peak p Telemetry.snapshot_pool_high !pool_high;
       if dedup then begin
         Telemetry.peak p Telemetry.dedup_table_peak (Visited.count visited);
         match cov with
         | Some cv ->
           Coverage.saturate cv ~leaves:!runs ~table:(Visited.count visited)
         | None -> ()
       end);
    r
  in
  match descend 0 faults.Fault.crashes faults.Fault.recoveries 0 with
  | () -> finish (Ok (stats true))
  | exception Out_of_budget -> finish (Ok (stats false))
  | exception Abort reason -> finish (Error (reason, current_path (), stats false))

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (toward source sets)                *)
(* ------------------------------------------------------------------ *)

(* [explore] above restricts each node to its not-yet-slept candidates
   but still tries every one of them; the reduction is the sleep sets'
   alone.  This entry point adds Flanagan–Godefroid-style dynamic
   backtracking on top: a node starts with a minimal backtracking set
   (its first awake candidate, plus every crash candidate — crashes
   race with nothing, so detection below would never request them and
   crash-closure would be lost) and grows it on demand.  When a
   transition of process p executes at depth d, the latest executed
   event of another process whose operation conflicts with p's marks a
   race: p is added to the backtracking set of that event's pre-state
   node (or, if p was not enabled there, every enabled candidate is —
   the conservative fallback).  Candidates never requested are never
   explored, which is where the asymptotic reduction over pure sleep
   sets comes from.

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

   Same guarantee as [explore]: the complete-execution outcome set is
   preserved exactly (verified differentially against both [explore]
   and [Naive.explore] in test/test_parallel.ml); executions explored
   never exceed the unreduced tree's and drop below pure sleep sets
   wherever candidates go unrequested.  No checkpoint, shard or dedup
   support — this engine is the reduction oracle, not the workhorse. *)
let explore_source ?engine ?(max_depth = 200) ?(max_runs = 2_000_000)
    ?(cheap_collect = false) ?(faults = Fault.none) ?(stop = fun () -> false)
    ?sink ?probe ?heartbeat ~n ~setup ~check () =
  if n > 20 then invalid_arg "Por.explore_source: n must be at most 20";
  let memory, body = setup () in
  let machine = Machine.create ?engine ~cheap_collect ?sink ~n ~memory body in
  let pending = Machine.unsafe_pending machine in
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
  let current_path () = List.init !nframes (fun i -> !frames.(i)) in
  let complete_count = ref 0 in
  let truncated_count = ref 0 in
  let pruned_count = ref 0 in
  let runs = ref 0 in
  (* Snapshot and recovery counts stay in plain locals and land in the
     probe once at exit, like [explore]'s batched hot counters. *)
  let src_snapshots = ref 0 in
  let src_recovers = ref 0 in
  let stats exhausted =
    { complete = !complete_count;
      truncated = !truncated_count;
      pruned = !pruned_count;
      dedup_hits = 0;
      exhausted;
      steps = Machine.total_steps machine }
  in
  let exception Abort of string in
  let exception Out_of_budget in
  let out_buf = Array.make n None in
  let leaf kind =
    if !runs >= max_runs || stop () then raise Out_of_budget;
    incr runs;
    (match heartbeat with
     | None -> ()
     | Some hb ->
       hb ~runs:!runs ~pruned:!pruned_count
         ~steps:(Machine.total_steps machine) ~depth:(Machine.steps machine));
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
  (* Executed events, indexed by execution depth: process, operation
     footprint (a crash's is empty, so it races with nothing), and the
     nesting level of the scheduling node whose pre-state chose it
     (-1 below sole-candidate corridors, where a backtracking request
     is vacuous — no other process is enabled there). *)
  let cap = max_depth + 1 in
  let ev_pid = Array.make cap 0 in
  let ev_lo = Array.make cap 0 in
  let ev_hi = Array.make cap 0 in
  let ev_writes = Array.make cap false in
  let ev_node = Array.make cap (-1) in
  (* Per-node mutable state, indexed by node nesting level: the
     backtracking set (as a candidate-key mask, grown by race
     detection from anywhere below) and the node's enabled array
     (aliased, not copied: enabled arrays are interned/rebuilt, never
     mutated in place). *)
  let bt = ref (Array.make 64 0) in
  let node_en = ref (Array.make 64 [||]) in
  let ensure_node lvl =
    if lvl >= Array.length !bt then begin
      let b = Array.make (2 * Array.length !bt) 0 in
      Array.blit !bt 0 b 0 (Array.length !bt);
      bt := b;
      let e = Array.make (2 * Array.length !node_en) [||] in
      Array.blit !node_en 0 e 0 (Array.length !node_en);
      node_en := e
    end
  in
  let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
  let add_backtrack lvl p =
    let before = !bt.(lvl) in
    let en = !node_en.(lvl) in
    let k = Array.length en in
    let rec enabled_at i = i < k && (en.(i) = p || enabled_at (i + 1)) in
    if enabled_at 0 then
      !bt.(lvl) <- !bt.(lvl) lor (1 lsl key ~pid:p ~kind:kind_exec)
    else begin
      (* p was not schedulable at that node: fall back to requesting
         every execute candidate (the classic conservative clause). *)
      let m = ref !bt.(lvl) in
      for i = 0 to k - 1 do
        m := !m lor (1 lsl key ~pid:en.(i) ~kind:kind_exec)
      done;
      !bt.(lvl) <- !m
    end;
    match probe with
    | Some pr ->
      let added = !bt.(lvl) land lnot before in
      if added <> 0 then
        Telemetry.add pr Telemetry.dpor_backtracks (popcount added)
    | None -> ()
  in
  (* Latest executed event of another process conflicting with [pid]'s
     operation; request [pid] at its pre-state node. *)
  let race ~pid ~lo ~hi ~writes d =
    let rec scan j =
      if j >= 0 then
        if
          ev_pid.(j) <> pid
          && (writes || ev_writes.(j))
          && ev_lo.(j) < hi && lo < ev_hi.(j)
        then begin
          (match probe with
           | Some pr -> Telemetry.bump pr Telemetry.dpor_races
           | None -> ());
          if ev_node.(j) >= 0 then add_backtrack ev_node.(j) pid
        end
        else scan (j - 1)
    in
    scan (d - 1)
  in
  let race_op ~pid ~node d =
    let op = any_of pending pid in
    let lo = Op.loc op in
    let hi = Independence.op_hi op in
    let writes = Independence.op_writes op in
    race ~pid ~lo ~hi ~writes d;
    ev_pid.(d) <- pid;
    ev_lo.(d) <- lo;
    ev_hi.(d) <- hi;
    ev_writes.(d) <- writes;
    ev_node.(d) <- node
  in
  let record_crash ~pid ~node d =
    ev_pid.(d) <- pid;
    ev_lo.(d) <- 0;
    ev_hi.(d) <- 0;
    ev_writes.(d) <- false;
    ev_node.(d) <- node
  in
  (* A recovery wipes whichever volatile registers its pid last wrote —
     a footprint that static analysis cannot bound — so it is recorded
     with a global write footprint: every later operation races with it
     and registers its backtracking point.  The converse reorderings
     (recover first) need no race scan of their own, because recover
     candidates sit in every node's initial backtracking set below. *)
  let record_recover ~pid ~node d =
    ev_pid.(d) <- pid;
    ev_lo.(d) <- 0;
    ev_hi.(d) <- max_int;
    ev_writes.(d) <- true;
    ev_node.(d) <- node
  in
  (* A leaf cut before completion: scan every still-enabled process's
     pending operation as if it executed here, so races whose second
     half lies past the cut still register. *)
  let pending_races d =
    let en = Machine.enabled machine in
    for i = 0 to Array.length en - 1 do
      let p = en.(i) in
      let op = any_of pending p in
      race ~pid:p ~lo:(Op.loc op) ~hi:(Independence.op_hi op)
        ~writes:(Independence.op_writes op) d
    done
  in
  let rec descend z lvl crashes_left recoveries_left depth =
    let en = Machine.enabled machine in
    let k = Array.length en in
    let rec_pids =
      if recoveries_left > 0 then Machine.crashed_pids machine else [||]
    in
    let nrec = Array.length rec_pids in
    let base = if crashes_left > 0 then 2 * k else k in
    let ncands = if k = 0 && nrec > 0 then 1 + nrec else base + nrec in
    if ncands = 0 then leaf `Complete
    else if depth >= max_depth then begin
      pending_races depth;
      leaf `Truncated
    end
    else begin
      let i = first_awake z en k base rec_pids ncands 0 in
      if i < 0 then begin
        pending_races depth;
        leaf `Pruned
      end
      else if ncands = 1 then
        execute ~pid:en.(0) ~kind:kind_exec ~node:(-1) ~sleep:z ~snap:None ~lvl
          ~crashes_left ~recoveries_left ~depth
      else begin
        ensure_node lvl;
        !node_en.(lvl) <- en;
        (* Initial backtracking set: the first awake candidate, every
           crash candidate (crashes race with nothing, so detection
           below would never request them), every recover candidate
           (likewise unrequestable: race detection asks for execute
           candidates only, and a crashed pid is never in [en]) and the
           stop pseudo-candidate when present — crash-closure and
           recovery-closure would be lost otherwise. *)
        let m = ref (1 lsl cand_bit en k base rec_pids i) in
        let nonexec_from = if k = 0 then 0 else k in
        for j = nonexec_from to ncands - 1 do
          m := !m lor (1 lsl cand_bit en k base rec_pids j)
        done;
        !bt.(lvl) <- !m;
        incr src_snapshots;
        let snap = Machine.snapshot machine in
        let fi = !nframes in
        push i;
        (* Candidate loop: lowest-index requested, not-slept candidate;
           re-scanned from the node's set each round because race
           detection below grows it.  Explored candidates enter the
           node sleep set exactly as in [explore]. *)
        let rec loop sleep first =
          let c = pick lvl en k base rec_pids ncands sleep in
          if c >= 0 then begin
            if not first then Machine.restore machine snap;
            !frames.(fi) <- c;
            execute ~pid:(cand_pid en k base rec_pids c)
              ~kind:(cand_kind k base c) ~node:lvl ~sleep ~snap:(Some snap)
              ~lvl ~crashes_left ~recoveries_left ~depth;
            loop (sleep lor (1 lsl cand_bit en k base rec_pids c)) false
          end
        in
        loop z true;
        pop ()
      end
    end
  and pick lvl en k base rec_pids ncands sleep =
    let m = !bt.(lvl) in
    let rec go c =
      if c >= ncands then -1
      else
        let b = 1 lsl cand_bit en k base rec_pids c in
        if m land b <> 0 && sleep land b = 0 then c else go (c + 1)
    in
    go 0
  and execute ~pid ~kind ~node ~sleep ~snap ~lvl ~crashes_left ~recoveries_left
      ~depth =
    if kind = kind_stop then leaf `Complete
    else begin
      let z' =
        if sleep = 0 then 0 else filter_indep pending sleep ~pid ~kind ~n
      in
      if kind = kind_crash then begin
        record_crash ~pid ~node depth;
        Machine.crash machine ~pid;
        descend z' (lvl + 1) (crashes_left - 1) recoveries_left (depth + 1)
      end
      else if kind = kind_recover then begin
        incr src_recovers;
        record_recover ~pid ~node depth;
        Machine.recover machine ~pid;
        descend z' (lvl + 1) crashes_left (recoveries_left - 1) (depth + 1)
      end
      else begin
        race_op ~pid ~node depth;
        match Machine.coin_class machine pid with
        | 0 ->
          Machine.step_forced machine ~pid ~landed:false;
          descend z' (lvl + 1) crashes_left recoveries_left (depth + 1)
        | 1 ->
          Machine.step_forced machine ~pid ~landed:true;
          descend z' (lvl + 1) crashes_left recoveries_left (depth + 1)
        | cls ->
          (* Coin / freshness fork: both outcomes, always.  The fork's
             pre-state is the scheduling state itself, so the node
             snapshot is reused when there is one; the event at this
             depth is identical on both sides and stays recorded. *)
          let landed0 = cls = 2 in
          let snap =
            match snap with
            | Some s -> s
            | None ->
              incr src_snapshots;
              Machine.snapshot machine
          in
          let fi = !nframes in
          push 0;
          Machine.step_forced machine ~pid ~landed:landed0;
          descend z' (lvl + 1) crashes_left recoveries_left (depth + 1);
          Machine.restore machine snap;
          !frames.(fi) <- 1;
          Machine.step_forced machine ~pid ~landed:(not landed0);
          descend z' (lvl + 1) crashes_left recoveries_left (depth + 1);
          pop ()
      end
    end
  in
  let finish r =
    (match probe with
     | None -> ()
     | Some p ->
       Telemetry.add p Telemetry.snapshots !src_snapshots;
       Telemetry.add p Telemetry.recovers !src_recovers;
       Telemetry.add p Telemetry.leaves_complete !complete_count;
       Telemetry.add p Telemetry.leaves_truncated !truncated_count;
       Telemetry.add p Telemetry.leaves_pruned !pruned_count;
       Telemetry.add p Telemetry.steps (Machine.total_steps machine));
    r
  in
  match descend 0 0 faults.Fault.crashes faults.Fault.recoveries 0 with
  | () -> finish (Ok (stats true))
  | exception Out_of_budget -> finish (Ok (stats false))
  | exception Abort reason -> finish (Error (reason, current_path (), stats false))
