type 'r result = {
  outputs : 'r option array;
  metrics : Metrics.t;
  steps : int;
  completed : bool;
  crashed : bool array;
  recoveries : int;
  plan_ignored : int;
  trace : Trace.t option;
  registers : int;
}

exception Collect_disallowed = Machine.Collect_disallowed
exception Stuck = Machine.Stuck

let run ?(engine = `Tree) ?(max_steps = 10_000_000) ?(record = false) ?(cheap_collect = false)
    ?faults ?sink ~n ~(adversary : Adversary.t) ~rng ~memory body =
  if n <= 0 then invalid_arg "Scheduler.run: n must be positive";
  (* Stream layout is fixed so that executions are reproducible: local
     coins, then probabilistic-write coins, then adversary randomness.
     The fault plan's stream is split last and only when a plan is
     installed, so fault-free runs keep their historical streams. *)
  let local_rngs = Rng.split_n rng n in
  let write_coins = Rng.split_n rng n in
  let choose = adversary.Adversary.fresh ~n (Rng.split rng) in
  let inject =
    match faults with
    | None -> None
    | Some (p : Fault.plan) -> Some (p.Fault.plan_fresh ~n (Rng.split rng))
  in
  let metrics = Metrics.create ~n in
  let trace = if record then Some (Trace.create ()) else None in
  let machine =
    Machine.create ~engine ~cheap_collect ~metrics ?trace ?sink ~n ~memory
      (fun ~pid -> body ~pid ~rng:local_rngs.(pid))
  in
  let completed = ref false in
  let ignored = ref 0 in
  (* The per-step view is kept incrementally by the machine: only the
     scheduled process's pending descriptor changes, and the enabled
     array only shrinks when a process finishes.  This keeps a
     scheduler step O(1) (plus whatever the adversary inspects). *)
  let rec loop () =
    let en = Machine.enabled machine in
    if Array.length en = 0 then completed := true
    else if Machine.steps machine >= max_steps then ()
    else begin
      let view =
        { View.step = Machine.steps machine;
          n;
          enabled = en;
          pending = Machine.unsafe_pending machine;
          memory;
          op_counts = Metrics.counts metrics }
      in
      let choice = choose view in
      let pid =
        if choice >= 0 && choice < n && Option.is_some (Machine.pending_op machine choice)
        then choice
        else Adversary.next_enabled_from en n (((choice mod n) + n) mod n)
      in
      (* The fault plan sees the adversary's (already validated) choice
         and may override it.  Invalid overrides — crashing a pid that
         is not enabled, delivering a stale read to a process whose
         pending operation is not a read on a weak register, recovering
         a pid that is not down — degrade to the plain step, so plans
         never have to track enabledness.  Each degradation is counted
         in [plan_ignored] (surfaced as the [plan_overrides_ignored]
         field of [sweep --json] by the CLI), so silent downgrades are
         visible rather than silently shaping the fault mix. *)
      (match inject with
       | None -> Machine.step_random machine ~pid ~coin:write_coins.(pid)
       | Some inject ->
         (match inject view ~chosen:pid with
          | Fault.Crash p when Option.is_some (Machine.pending_op machine p) ->
            Machine.crash machine ~pid:p
          | Fault.Stale p
            when p = pid
                 && (match Machine.pending_op machine p with
                     | Some (Op.Any (Op.Read l)) -> Memory.is_weak memory l
                     | _ -> false) ->
            Machine.step_forced machine ~pid:p ~landed:true
          | Fault.Recover p
            when p >= 0 && p < n
                 && Machine.is_crashed machine p
                 && Memory.tracking memory ->
            (* Recovery needs last-writer tracking for the volatile
               wipe; a plan recovering over untracked memory degrades
               like any other invalid override instead of raising. *)
            Machine.recover machine ~pid:p
          | Fault.Step _ -> Machine.step_random machine ~pid ~coin:write_coins.(pid)
          | Fault.Crash _ | Fault.Stale _ | Fault.Recover _ ->
            incr ignored;
            Machine.step_random machine ~pid ~coin:write_coins.(pid)));
      loop ()
    end
  in
  loop ();
  { outputs = Machine.outputs machine;
    metrics;
    steps = Machine.steps machine;
    completed = !completed;
    crashed = Array.init n (Machine.is_crashed machine);
    recoveries = Machine.recovers machine;
    plan_ignored = !ignored;
    trace;
    registers = Memory.size memory }
