exception Collect_disallowed = Code.Collect_disallowed
exception Stuck of string

type engine = [ `Vm | `Tree ]

(* Engine-specific program state.  [Compiled] drives the flat
   instruction VM (the default); [Tree] walks the [Program.t] values in
   place — the historical interpreter, kept as the differential-testing
   oracle.  Everything else (pending descriptors, crash state, enabled
   set, step counters, instrumentation) is engine-independent and lives
   in the façade, so both engines feed the observability and fault
   layers through exactly the same code. *)
type 'r engine_state =
  | Compiled of 'r Vm.t
  | Tree of {
      programs : 'r Program.t array;
      stages : string option array;
      (* Crash-recovery re-entry targets, mirroring the VM's
         [Code.rec_root]: the declared recover continuation (raw — its
         leading labels are re-peeled at each recovery) or the settled
         main root when the protocol declared none, with the stage to
         restore on re-entry alongside. *)
      rec_programs : 'r Program.t array;
      rec_stages : string option array;
    }

type 'r t = {
  n : int;
  memory : Memory.t;
  cheap_collect : bool;
  state : 'r engine_state;
  pending : Op.any option array;
  crashed : bool array;
  mutable crash_count : int;
  mutable recover_count : int;
  (* Sticky: set by the first [crash] and never cleared, so failure-free
     explorations (the common case) know [crashed] is all-false without
     scanning it and skip capturing it in snapshots.  ([recover] clears
     [crashed] bits but deliberately not this flag: once a path has
     crashed, snapshots keep capturing the array.) *)
  mutable ever_crashed : bool;
  mutable enabled : int array;
  (* All [2^n] possible enabled sets, indexed by the liveness bitmask
     and shared by every machine of this [n] (see [shared_tab]) —
     [enabled] always aliases one of them (or a fresh array when [n] is
     too large to tabulate).  Interning keeps the
     they-are-shared-immutably invariant that lets snapshots alias
     [enabled] without copying, while making a process's decide/crash
     transition allocation-free. *)
  enabled_tab : int array array option;
  mutable steps : int;
  mutable total_steps : int;
  metrics : Metrics.t option;
  trace : Trace.t option;
  sink : Sink.t option;
}

(* The pids satisfying [mem], ascending: count, then fill. *)
let pids_where n (mem : int -> bool) =
  let k = ref 0 in
  for pid = 0 to n - 1 do
    if mem pid then incr k
  done;
  let a = Array.make !k 0 in
  let j = ref 0 in
  for pid = 0 to n - 1 do
    if mem pid then begin a.(!j) <- pid; incr j end
  done;
  a

let enabled_of_mask n mask = pids_where n (fun pid -> mask land (1 lsl pid) <> 0)

(* Beyond this the table would dwarf the machine; no current protocol
   config comes close. *)
let max_tabulated_n = 10

(* One table per [n], built on the first [create] at that [n] and
   immutable after: a Monte-Carlo run builds a machine per trial, and
   rebuilding 2^n arrays each time was most of [create]'s cost at
   n = 8.  Trials run on several domains, so the table is published by
   compare-and-set; a domain that loses the race adopts the winner's. *)
let shared_tabs = Array.init (max_tabulated_n + 1) (fun _ -> Atomic.make None)

let shared_tab n =
  let cell = shared_tabs.(n) in
  match Atomic.get cell with
  | Some tab -> tab
  | None ->
    let tab = Some (Array.init (1 lsl n) (enabled_of_mask n)) in
    ignore (Atomic.compare_and_set cell None tab : bool);
    Option.get (Atomic.get cell)

(* Peel stage labels off the front of a program, recording the
   innermost one as [pid]'s current stage.  A root-level [Recoverable]
   declaration is transparent here (its recover branch is peeled off by
   [create]).  Stored programs are always label-free at the top, so the
   hot path below pays one constructor check per transition. *)
let rec settle stages pid p =
  match p with
  | Program.Label (s, p) ->
    stages.(pid) <- Some s;
    settle stages pid p
  | Program.Recoverable { main; _ } -> settle stages pid main
  | p -> p

(* Root peel without stage recording, mirroring [Code.peel]: the stage
   at the protocol's entry, which is also the stage a declared recover
   continuation re-enters at. *)
let rec peel_root stage p =
  match p with
  | Program.Label (s, p) -> peel_root (Some s) p
  | p -> (stage, p)

let create ?(engine = `Vm) ?(cheap_collect = false) ?metrics ?trace ?sink ~n
    ~memory body =
  if n <= 0 then invalid_arg "Machine.create: n must be positive";
  let state =
    match engine with
    | `Vm -> Compiled (Vm.create ~cheap_collect ~n ~memory body)
    | `Tree ->
      let stages = Array.make n None in
      (* Evaluated in pid order (pure prefixes, incl. allocation, run
         here), exactly as before; the root peel splits off a
         [Recoverable] declaration when present. *)
      let parts =
        Array.init n (fun pid ->
          let stage0, p0 = peel_root None (body ~pid) in
          stages.(pid) <- stage0;
          match p0 with
          | Program.Recoverable { main; recover } ->
            (settle stages pid main, Some recover, stage0)
          | p -> (settle stages pid p, None, stage0))
      in
      let programs = Array.map (fun (m, _, _) -> m) parts in
      (* Without a declaration a restarted process re-enters at its
         settled main root, whose stage is the innermost root label —
         matching the VM, where [Code.rec_root] falls back to the main
         root pc and its interned stage. *)
      let rec_programs =
        Array.init n (fun pid ->
          match parts.(pid) with _, Some r, _ -> r | m, None, _ -> m)
      in
      let rec_stages =
        Array.init n (fun pid ->
          match parts.(pid) with
          | _, Some _, stage0 -> stage0
          | _, None, _ -> stages.(pid))
      in
      Tree { programs; stages; rec_programs; rec_stages }
  in
  let pending =
    match state with
    | Compiled vm -> Array.init n (fun pid -> Vm.pending vm pid)
    | Tree { programs; _ } -> Array.map Program.pending programs
  in
  let enabled_tab = if n <= max_tabulated_n then Some (shared_tab n) else None in
  { n;
    memory;
    cheap_collect;
    state;
    pending;
    crashed = Array.make n false;
    crash_count = 0;
    recover_count = 0;
    ever_crashed = false;
    enabled = pids_where n (fun pid -> Option.is_some pending.(pid));
    enabled_tab;
    steps = 0;
    total_steps = 0;
    metrics;
    trace;
    sink }

(* The first index of the ascending [a] whose entry is >= [pid]. *)
let lower_bound a pid =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < pid then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bring the enabled set up to date after [pid]'s pending descriptor
   changed, the only one a transition changes.  Tabulated sizes look
   the set up by liveness mask.  Above them [pid] is dropped from or
   inserted into a fresh array (never in place: snapshots alias the
   old one), so a decide, crash or recovery costs one allocation and
   two blits rather than an O(n) rebuild. *)
let rebuild_enabled t pid =
  match t.enabled_tab with
  | Some tab ->
    let mask = ref 0 in
    for p = 0 to t.n - 1 do
      if Option.is_some t.pending.(p) then mask := !mask lor (1 lsl p)
    done;
    let en = tab.(!mask) in
    if en != t.enabled then t.enabled <- en
  | None ->
    let en = t.enabled in
    let k = Array.length en in
    let i = lower_bound en pid in
    let present = i < k && en.(i) = pid in
    let live = Option.is_some t.pending.(pid) in
    if present && not live then begin
      let a = Array.make (k - 1) 0 in
      Array.blit en 0 a 0 i;
      Array.blit en (i + 1) a i (k - 1 - i);
      t.enabled <- a
    end
    else if live && not present then begin
      let a = Array.make (k + 1) pid in
      Array.blit en 0 a 0 i;
      Array.blit en i a (i + 1) (k - i);
      t.enabled <- a
    end

let engine t : engine =
  match t.state with Compiled _ -> `Vm | Tree _ -> `Tree
let enabled t = t.enabled
let unsafe_pending t = t.pending
let pending_op t pid = t.pending.(pid)

let stage t pid =
  match t.state with
  | Compiled vm -> Vm.stage vm pid
  | Tree { stages; _ } -> stages.(pid)

let steps t = t.steps
let total_steps t = t.total_steps
let running t = Array.length t.enabled > 0

let output t pid =
  match t.state with
  | Compiled vm -> Vm.result vm pid
  | Tree { programs; _ } -> Program.result programs.(pid)

let outputs t = Array.init t.n (fun pid -> output t pid)

(* Per leaf, most outputs equal the previous leaf's, and the results
   are shared per pc: storing only what changed skips the write
   barrier on the rest. *)
let outputs_into t buf =
  if Array.length buf <> t.n then
    invalid_arg "Machine.outputs_into: buffer length is not n";
  for pid = 0 to t.n - 1 do
    let o = output t pid in
    if buf.(pid) != o then buf.(pid) <- o
  done
let crashes t = t.crash_count
let recovers t = t.recover_count
let is_crashed t pid = t.crashed.(pid)

(* The crashed set is a pid set like the enabled set, so it is served
   from the same interned table, indexed by its bitmask. *)
let crashed_pids t =
  match t.enabled_tab with
  | Some tab ->
    let mask = ref 0 in
    if t.ever_crashed then
      for pid = 0 to t.n - 1 do
        if t.crashed.(pid) then mask := !mask lor (1 lsl pid)
      done;
    tab.(!mask)
  | None -> pids_where t.n (fun pid -> t.crashed.(pid))

(* Branching class of [pid]'s pending operation as a nonallocating
   int (0 = forced miss, 1 = forced landed, 2 = coin, 3 = weak-register
   read): the explorers' per-step classification, cached per pc by the
   VM and recomputed from the descriptor by the tree engine. *)
let coin_class t pid =
  match t.state with
  | Compiled vm -> Vm.coin_class vm pid
  | Tree _ ->
    (match t.pending.(pid) with
     | None -> raise (Stuck "classified a finished process")
     | Some (Op.Any op) ->
       (match op with
        | Op.Prob_write (_, _, p) | Op.Prob_write_detect (_, _, p) ->
          if p <= 0.0 then 0 else if p >= 1.0 then 1 else 2
        | Op.Read l -> if Memory.is_weak t.memory l then 3 else 0
        | Op.Write _ -> 1
        | Op.Collect _ -> 0))

(* Duplicate-detection hash over the machine's semantic state: the VM
   pc file (pcs determine pending operations, stages and results), the
   memory's cells and weak shadows, and the crashed set.  [steps] and
   [total_steps] are work measures, not state, and the enabled set is
   derived — none are folded.  VM-only: tree program states are
   closures without a canonical encoding, which is exactly why the VM
   exists; callers gate on [supports_state_hash]. *)
let supports_state_hash t =
  match t.state with Compiled _ -> true | Tree _ -> false

let code_size t = match t.state with Compiled vm -> Vm.code_size vm | Tree _ -> 0

let hash_into t (h : int array) =
  match t.state with
  | Tree _ -> invalid_arg "Machine.hash_into: the tree engine has no state hash"
  | Compiled vm ->
    h.(0) <- 0x3243F6A8;
    h.(1) <- 0x13198A2E;
    Vm.hash_fold vm h;
    Memory.hash_fold t.memory h;
    if t.ever_crashed then
      for pid = 0 to t.n - 1 do
        if t.crashed.(pid) then begin
          h.(0) <- Memory.mix1 h.(0) (pid + 1);
          h.(1) <- Memory.mix2 h.(1) (pid + 1)
        end
      done

let state_hash t =
  let h = [| 0; 0 |] in
  hash_into t h;
  (h.(0), h.(1))

(* The tree engine's op interpreter.  The coin outcome for
   probabilistic writes has already been decided by the caller; [apply]
   just carries it out and reports what a read observed (for trace
   recording).  For reads the coin is overloaded as the freshness
   choice on weak (regular) registers: [landed = true] delivers the
   stale pre-write value.  Engines only offer that choice on registers
   the setup marked weak, so atomic executions are unchanged ([landed]
   is always [false] for reads on the legacy paths). *)
let apply : type a. _ -> a Op.t -> landed:bool -> a * int =
  fun t op ~landed ->
  match op with
  | Op.Read l ->
    let c = if landed then Memory.stale_cell t.memory l else Memory.cell t.memory l in
    (Memory.decode c, c)
  | Op.Write (l, v) ->
    Memory.write t.memory l v;
    ((), Memory.bot)
  | Op.Prob_write (l, v, _) ->
    if landed then Memory.write t.memory l v;
    ((), Memory.bot)
  | Op.Prob_write_detect (l, v, _) ->
    if landed then Memory.write t.memory l v;
    (landed, Memory.bot)
  | Op.Collect (l, len) ->
    if not t.cheap_collect then raise Collect_disallowed;
    (Array.init len (fun i -> Memory.read t.memory (l + i)), Memory.bot)

let step_forced t ~pid ~landed =
  match t.pending.(pid) with
  | None -> raise (Stuck "scheduled a finished process")
  | Some any ->
    (* Apply the effect and advance the program state; events are
       recorded afterwards with the pre-step stage and step counter, so
       the two engines feed instrumentation identically.  The stage is
       only consumed by the sink, so it is not even fetched without one
       — this loop runs millions of times per exploration and every
       branch below is written to stay allocation-free when the
       corresponding instrument is absent. *)
    (* Ownership attribution for the crash-recovery wipe: one
       predictable branch when tracking is off (the recovery-free
       case). *)
    if Memory.tracking t.memory then Memory.set_actor t.memory pid;
    (* [observed] is the raw cell a read saw ([Memory.bot] otherwise),
       boxed only for the trace. *)
    let observed, stage =
      match t.state with
      | Compiled vm ->
        let stage =
          match t.sink with None -> None | Some _ -> Vm.stage vm pid
        in
        let observed = Vm.exec vm ~pid ~landed in
        (observed, stage)
      | Tree { programs; stages; _ } ->
        (match programs.(pid) with
         | Program.Done _ | Program.Label _ | Program.Recoverable _ ->
           (* Stored programs are settled and [pending] already
              screened finished ones; listed to keep the match total. *)
           raise (Stuck "scheduled a finished process")
         | Program.Step (op, k) ->
           let result, observed = apply t op ~landed in
           let stage = stages.(pid) in
           programs.(pid) <- settle stages pid (k result);
           (observed, stage))
    in
    (match t.metrics with
     | None -> ()
     | Some m -> Metrics.record m ~pid);
    (match t.trace with
     | None -> ()
     | Some tr ->
       Trace.add tr
         { Trace.step = t.steps; pid; op = Some any; landed;
           observed = Memory.decode observed });
    (match t.sink with
     | None -> ()
     | Some s ->
       s.Sink.on_op ~step:t.steps ~pid ~kind:(Op.kind any) ~loc:(Op.loc any)
         ~landed ~stage);
    t.steps <- t.steps + 1;
    t.total_steps <- t.total_steps + 1;
    let pending' =
      match t.state with
      | Compiled vm -> Vm.pending vm pid
      | Tree { programs; _ } -> Program.pending programs.(pid)
    in
    if t.pending.(pid) != pending' then t.pending.(pid) <- pending';
    match pending' with
    | Some _ -> ()
    | None ->
      rebuild_enabled t pid;
      (match t.sink with
       | None -> ()
       | Some s -> s.Sink.on_decide ~step:t.steps ~pid)

let step_random t ~pid ~coin =
  match t.pending.(pid) with
  | None -> raise (Stuck "scheduled a finished process")
  | Some any ->
    let landed =
      match Op.prob any with
      | Some p -> Rng.bernoulli coin p
      | None -> Op.is_write any
    in
    step_forced t ~pid ~landed

(* Crash-stop: the process halts permanently without executing its
   pending operation.  It leaves the enabled set (so the machine may
   reach "no process running" with undecided processes — a leaf where
   [output] is [None] for exactly the crashed pids) and its memory
   effects so far stay visible, which is the crash-stop model: a crash
   is indistinguishable from the process merely being very slow, except
   that it never moves again.  A crash consumes a step so that trace
   positions and depth accounting line up across engines. *)
let crash t ~pid =
  if t.crashed.(pid) then raise (Stuck "crashed an already-crashed process");
  if Option.is_none t.pending.(pid) then raise (Stuck "crashed a finished process");
  t.crashed.(pid) <- true;
  t.crash_count <- t.crash_count + 1;
  t.ever_crashed <- true;
  t.pending.(pid) <- None;
  rebuild_enabled t pid;
  (match t.trace with
   | None -> ()
   | Some tr ->
     Trace.add tr { Trace.step = t.steps; pid; op = None; landed = false; observed = None });
  (match t.sink with
   | None -> ()
   | Some s -> s.Sink.on_crash ~step:t.steps ~pid);
  t.steps <- t.steps + 1;
  t.total_steps <- t.total_steps + 1

(* Crash-recovery: the symmetric pseudo-event.  The crashed process's
   volatile registers (those it last wrote and did not mark persistent)
   are wiped back to ⊥, its program state is reset to the protocol's
   recover continuation (or the main root without one), and it rejoins
   the enabled set.  Like [crash] it consumes a step, so trace
   positions and depth accounting line up across engines, and every
   effect goes through the journalled paths so [restore] undoes it
   exactly.  The trace encoding is [op = None, landed = true] — crash
   stays [op = None, landed = false] — keeping crash bytes unchanged. *)
let recover t ~pid =
  if not t.crashed.(pid) then raise (Stuck "recovered a process that is not crashed");
  Memory.wipe_volatile t.memory ~pid;
  t.crashed.(pid) <- false;
  t.recover_count <- t.recover_count + 1;
  (match t.state with
   | Compiled vm -> Vm.reenter vm ~pid
   | Tree { programs; stages; rec_programs; rec_stages } ->
     stages.(pid) <- rec_stages.(pid);
     programs.(pid) <- settle stages pid rec_programs.(pid));
  t.pending.(pid) <-
    (match t.state with
     | Compiled vm -> Vm.pending vm pid
     | Tree { programs; _ } -> Program.pending programs.(pid));
  rebuild_enabled t pid;
  (match t.trace with
   | None -> ()
   | Some tr ->
     Trace.add tr { Trace.step = t.steps; pid; op = None; landed = true; observed = None });
  (match t.sink with
   | None -> ()
   | Some s -> s.Sink.on_recover ~step:t.steps ~pid);
  t.steps <- t.steps + 1;
  t.total_steps <- t.total_steps + 1

(* Engine half of a snapshot: the VM's is [n] integers (its program
   state is just the pc file; pending descriptors are recomputed from
   the code store on restore), the tree's is the historical
   three-array copy. *)
type 'r engine_snap =
  | Vm_snap of Vm.snapshot
  | Tree_snap of {
      programs : 'r Program.t array;
      pending : Op.any option array;
      stages : string option array;
    }

type 'r snapshot = {
  (* The engine half is immutable but its payload arrays are refreshed
     in place by [snapshot_into]; the façade half is mutable for the
     same reason — pooled snapshots are the explorers' per-branch-point
     allocation budget. *)
  s_engine : 'r engine_snap;
  (* [None] = every process was live at snapshot time; taken on
     crash-free paths so the per-snapshot copy is paid only once a
     crash actually happens below the root. *)
  mutable s_crashed : bool array option;
  mutable s_crash_count : int;
  mutable s_recover_count : int;
  mutable s_enabled : int array;
  s_memory : Memory.backup;
  mutable s_steps : int;
}

let snapshot t =
  (match t.sink with
   | None -> ()
   | Some s -> s.Sink.on_snapshot ~step:t.steps);
  (* The two engines pay their own snapshot bills here: the VM copies
     [n] program counters and takes an O(1) delta mark on the store;
     the tree oracle keeps its historical cost — three O(n) array
     copies plus an O(|memory|) full-store backup (delta journaling is
     never even switched on for a tree machine, so its write path is
     the historical one too). *)
  let s_engine, s_memory =
    match t.state with
    | Compiled vm -> (Vm_snap (Vm.snapshot vm), Memory.backup t.memory)
    | Tree { programs; stages; _ } ->
      ( Tree_snap
          { programs = Array.copy programs;
            pending = Array.copy t.pending;
            stages = Array.copy stages },
        Memory.full_backup t.memory )
  in
  { s_engine;
    s_crashed = (if t.ever_crashed then Some (Array.copy t.crashed) else None);
    s_crash_count = t.crash_count;
    s_recover_count = t.recover_count;
    (* Shared, not copied: enabled arrays are rebuilt immutably on
       every change (decide/crash), never updated in place. *)
    s_enabled = t.enabled;
    s_memory;
    s_steps = t.steps }

(* Refresh a pooled snapshot in place — semantically [snapshot], minus
   the allocations and the write barrier: the VM engine copies [n] pcs
   with an int loop and restamps the O(1) memory mark, and the pointer
   fields are stored only when they changed, so a branch point costs
   zero heap words and no [caml_modify] once its pool slot exists.  The
   tree oracle refreshes by the same historical copies it pays for a
   fresh snapshot. *)
let snapshot_into t s =
  (match t.sink with
   | None -> ()
   | Some k -> k.Sink.on_snapshot ~step:t.steps);
  (match t.state, s.s_engine with
   | Compiled vm, Vm_snap pcs -> Vm.snapshot_into vm pcs
   | Tree { programs; stages; _ }, Tree_snap snap ->
     Array.blit programs 0 snap.programs 0 t.n;
     Array.blit t.pending 0 snap.pending 0 t.n;
     Array.blit stages 0 snap.stages 0 t.n
   | Compiled _, Tree_snap _ | Tree _, Vm_snap _ ->
     invalid_arg "Machine.snapshot_into: snapshot from a different engine");
  (if t.ever_crashed then
     match s.s_crashed with
     | Some crashed ->
       for pid = 0 to t.n - 1 do
         crashed.(pid) <- t.crashed.(pid)
       done
     | None -> s.s_crashed <- Some (Array.copy t.crashed)
   else if Option.is_some s.s_crashed then s.s_crashed <- None);
  s.s_crash_count <- t.crash_count;
  s.s_recover_count <- t.recover_count;
  if s.s_enabled != t.enabled then s.s_enabled <- t.enabled;
  Memory.backup_into t.memory s.s_memory;
  s.s_steps <- t.steps

(* [pid]'s crash bit as of the snapshot; [true] iff that changed it. *)
let restore_crashed t s pid =
  t.ever_crashed
  &&
  let down = match s.s_crashed with Some c -> c.(pid) | None -> false in
  down <> t.crashed.(pid)
  && begin
       t.crashed.(pid) <- down;
       true
     end

(* [total_steps] is deliberately not restored: it counts transitions
   ever applied, the explorer's work measure.  Under the VM a pid's
   pending descriptor is a function of its pc and crash bit, so it is
   re-derived only for the pids where one of the two moved. *)
let restore t s =
  (match t.sink with
   | None -> ()
   | Some k -> k.Sink.on_restore ~step:t.steps);
  t.crash_count <- s.s_crash_count;
  t.recover_count <- s.s_recover_count;
  (match t.state, s.s_engine with
   | Compiled vm, Vm_snap pcs ->
     for pid = 0 to t.n - 1 do
       let moved = Vm.restore_pid vm pcs pid in
       if restore_crashed t s pid || moved then
         t.pending.(pid) <- (if t.crashed.(pid) then None else Vm.pending vm pid)
     done
   | Tree { programs; stages; _ }, Tree_snap snap ->
     for pid = 0 to t.n - 1 do
       ignore (restore_crashed t s pid : bool)
     done;
     Array.blit snap.programs 0 programs 0 t.n;
     Array.blit snap.pending 0 t.pending 0 t.n;
     Array.blit snap.stages 0 stages 0 t.n
   | Compiled _, Tree_snap _ | Tree _, Vm_snap _ ->
     invalid_arg "Machine.restore: snapshot taken under a different engine");
  if t.enabled != s.s_enabled then t.enabled <- s.s_enabled;
  Memory.restore_backup t.memory s.s_memory;
  t.steps <- s.s_steps
