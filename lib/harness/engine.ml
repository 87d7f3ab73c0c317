open Conrat_sim

(* ------------------------------------------------------------------ *)
(* Single-trial runners                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  inputs : int array;
  outputs : int option array;
  agreed : bool;
  safety : (unit, string) result;
  completed : bool;
  crashes : int;
  recoveries : int;
  plan_ignored : int;
  total_work : int;
  individual_work : int;
  steps : int;
  registers : int;
  stage_work : (string * (int * int)) list;
}

let all_agree outputs =
  match Spec.agreement ~outputs with Ok () -> true | Error _ -> false

(* When the spec asks for a stage breakdown, each trial gets its own
   [Stage_work] histogram (keeping trials isolated, which parallel
   execution requires) whose sink rides the scheduler run. *)
let stage_sink ~stages ~n =
  if stages then
    let sw = Conrat_obs.Stage_work.create ~n in
    (Some (Conrat_obs.Stage_work.sink sw),
     fun () -> Conrat_obs.Stage_work.totals sw)
  else (None, fun () -> [])

(* Monte-Carlo fault injection: a non-none model weakens the registers
   (when asked) and installs the default Injector plan.  The crash
   count rides in the outcome; safety stays meaningful because the
   checks below quantify over produced outputs only and [completed]
   means every *surviving* process finished. *)
let fault_setup faults memory =
  match faults with
  | None -> None
  | Some (m : Fault.model) ->
    if Fault.is_none m then None
    else begin
      if m.Fault.weak_reads then Memory.weaken_all memory;
      (* Recovery wipes need last-writer ownership (Machine.recover
         consults it to erase exactly the crashed pid's volatile
         writes); engage tracking before the protocol's first write. *)
      if m.Fault.recoveries > 0 then Memory.track_writers memory;
      Some (Conrat_faults.Injector.of_model m)
    end

let run_consensus ?max_steps ?cheap_collect ?(stages = false) ?faults ~n
    ~adversary ~inputs ~seed (protocol : Conrat_core.Consensus.factory) =
  let rng = Rng.create seed in
  let memory = Memory.create () in
  let plan = fault_setup faults memory in
  let instance = protocol.instantiate ~n memory in
  let sink, stage_totals = stage_sink ~stages ~n in
  let result =
    Scheduler.run ?max_steps ?cheap_collect ?faults:plan ?sink ~n ~adversary
      ~rng ~memory
      (fun ~pid ~rng -> instance.Conrat_core.Consensus.decide ~pid ~rng inputs.(pid))
  in
  { inputs;
    outputs = result.outputs;
    agreed = all_agree result.outputs;
    safety =
      Spec.consensus_execution ~inputs ~outputs:result.outputs
        ~completed:result.completed;
    completed = result.completed;
    crashes = result.crashes;
    recoveries = result.recoveries;
    plan_ignored = result.plan_ignored;
    total_work = Metrics.total result.metrics;
    individual_work = Metrics.individual result.metrics;
    steps = result.steps;
    registers = result.registers;
    stage_work = stage_totals () }

let run_deciding ?max_steps ?cheap_collect ?(stages = false) ?faults ~n
    ~adversary ~inputs ~seed (factory : Conrat_objects.Deciding.factory) =
  let rng = Rng.create seed in
  let memory = Memory.create () in
  let plan = fault_setup faults memory in
  let instance = factory.instantiate ~n memory in
  let sink, stage_totals = stage_sink ~stages ~n in
  let result =
    Scheduler.run ?max_steps ?cheap_collect ?faults:plan ?sink ~n ~adversary
      ~rng ~memory
      (fun ~pid ~rng ->
        Program.map
          (fun out ->
            (out.Conrat_objects.Deciding.decide, out.Conrat_objects.Deciding.value))
          (instance.Conrat_objects.Deciding.run ~pid ~rng inputs.(pid)))
  in
  let decisions = result.outputs in
  let values = Array.map (Option.map snd) decisions in
  let outcome =
    { inputs;
      outputs = values;
      agreed = all_agree values;
      safety =
        Spec.all
          [ Spec.validity ~inputs ~outputs:values;
            Spec.coherence ~outputs:decisions ];
      completed = result.completed;
      crashes = result.crashes;
      recoveries = result.recoveries;
      plan_ignored = result.plan_ignored;
      total_work = Metrics.total result.metrics;
      individual_work = Metrics.individual result.metrics;
      steps = result.steps;
      registers = result.registers;
      stage_work = stage_totals () }
  in
  (outcome, decisions)

(* ------------------------------------------------------------------ *)
(* Aggregates: a commutative monoid over per-seed trial results        *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_seed : int;
  s_total : int;
  s_indiv : int;
  s_probe : int;
}

type aggregate = {
  trials : int;
  agreements : int;
  failures : (int * string) list;
  quarantined : (int * string) list;
  samples : sample list;
  space : int;
  probe_total : int;
  crash_total : int;
  recover_total : int;
  plan_ignored_total : int;
  stage_work : (string * (int * int)) list;
}

let empty_aggregate =
  { trials = 0; agreements = 0; failures = []; quarantined = []; samples = [];
    space = 0; probe_total = 0; crash_total = 0; recover_total = 0;
    plan_ignored_total = 0; stage_work = [] }

(* Merge two lists that are already in canonical (ascending) order.
   Ties fall back to full polymorphic comparison so the result is a
   function of the combined multiset, never of the argument order. *)
let merge_sorted cmp =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
      if cmp x y <= 0 then go (x :: acc) a' b else go (y :: acc) a b'
  in
  fun a b -> go [] a b

let cmp_sample (x : sample) (y : sample) =
  match compare x.s_seed y.s_seed with 0 -> compare x y | c -> c

let cmp_failure (s1, r1) (s2, r2) =
  match compare (s1 : int) s2 with 0 -> compare (r1 : string) r2 | c -> c

let merge a b =
  { trials = a.trials + b.trials;
    agreements = a.agreements + b.agreements;
    failures = merge_sorted cmp_failure a.failures b.failures;
    quarantined = merge_sorted cmp_failure a.quarantined b.quarantined;
    samples = merge_sorted cmp_sample a.samples b.samples;
    space = max a.space b.space;
    probe_total = a.probe_total + b.probe_total;
    crash_total = a.crash_total + b.crash_total;
    recover_total = a.recover_total + b.recover_total;
    plan_ignored_total = a.plan_ignored_total + b.plan_ignored_total;
    (* Stage union-combine (totals add, maxima max) is commutative and
       associative with identity [[]], so the order-canonicity argument
       covers it too. *)
    stage_work = Conrat_obs.Stage_work.merge a.stage_work b.stage_work }

let of_outcome ~seed ~probe (o : outcome) =
  { trials = 1;
    agreements = (if o.agreed then 1 else 0);
    failures = (match o.safety with Ok () -> [] | Error r -> [ (seed, r) ]);
    quarantined = [];
    samples =
      [ { s_seed = seed; s_total = o.total_work; s_indiv = o.individual_work;
          s_probe = probe } ];
    space = o.registers;
    probe_total = probe;
    crash_total = o.crashes;
    recover_total = o.recoveries;
    plan_ignored_total = o.plan_ignored;
    stage_work = o.stage_work }

let of_quarantined ~seed exn =
  { empty_aggregate with quarantined = [ (seed, Printexc.to_string exn) ] }

let total_works a = List.map (fun s -> s.s_total) a.samples
let individual_works a = List.map (fun s -> s.s_indiv) a.samples

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_trial (spec : Plan.spec) seed =
  let inputs =
    spec.workload.Workload.generate ~n:spec.n ~m:spec.m (Plan.workload_rng seed)
  in
  match spec.runner with
  | Plan.Consensus protocol ->
    let o =
      run_consensus ?max_steps:spec.max_steps ~cheap_collect:spec.cheap_collect
        ~stages:spec.stages ~faults:spec.faults ~n:spec.n
        ~adversary:spec.adversary ~inputs ~seed protocol
    in
    of_outcome ~seed ~probe:0 o
  | Plan.Deciding factory ->
    let o, _ =
      run_deciding ?max_steps:spec.max_steps ~cheap_collect:spec.cheap_collect
        ~stages:spec.stages ~faults:spec.faults ~n:spec.n
        ~adversary:spec.adversary ~inputs ~seed factory
    in
    of_outcome ~seed ~probe:0 o
  | Plan.Probed build ->
    let protocol, read_probe = build () in
    let o =
      run_consensus ?max_steps:spec.max_steps ~cheap_collect:spec.cheap_collect
        ~stages:spec.stages ~faults:spec.faults ~n:spec.n
        ~adversary:spec.adversary ~inputs ~seed protocol
    in
    of_outcome ~seed ~probe:(read_probe ()) o

let run_seeds ?notify ?(stop = fun () -> false) ?(quarantine = false) spec seeds
    =
  List.fold_left
    (fun acc seed ->
      if stop () then acc
      else begin
        let one =
          if quarantine then
            (* A raising trial is recorded, not fatal: the seed lands in
               [quarantined] (a sorted singleton, so the merge stays a
               commutative monoid) and the remaining seeds still run. *)
            match run_trial spec seed with
            | agg -> agg
            | exception e -> of_quarantined ~seed e
          else run_trial spec seed
        in
        let agg = merge acc one in
        (match notify with None -> () | Some f -> f ());
        agg
      end)
    empty_aggregate seeds

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Split [seeds] into chunks of at most [chunk] seeds. *)
let chunk_seeds ~chunk seeds =
  let rec go acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | s :: rest ->
      if k = chunk then go (List.rev current :: acc) [ s ] 1 rest
      else go acc (s :: current) (k + 1) rest
  in
  go [] [] 0 seeds

(* Progress plumbing: a shared atomic trial counter; each completed
   trial bumps it and invokes the caller's callback with the running
   total.  The callback must be domain-safe when [jobs > 1] (the
   [Conrat_obs.Progress] reporter is). *)
let progress_notify ~on_progress ~total =
  match on_progress with
  | None -> None
  | Some f ->
    let done_ = Atomic.make 0 in
    Some (fun () -> f ~done_:(Atomic.fetch_and_add done_ 1 + 1) ~total)

let run_plan_parallel ?notify ?stop ?quarantine ~jobs (plan : Plan.t) =
  let specs = Array.of_list plan.Plan.specs in
  (* One task per (spec, seed chunk); chunks keep the work queue fine
     grained enough to balance trials of very different cost. *)
  let tasks =
    Array.of_list
      (List.concat
         (List.mapi
            (fun si (spec : Plan.spec) ->
              let nseeds = List.length spec.Plan.seeds in
              let chunk = max 1 (min 64 (nseeds / (jobs * 4))) in
              List.map (fun seeds -> (si, seeds))
                (chunk_seeds ~chunk spec.Plan.seeds))
            (Array.to_list specs)))
  in
  let partials = Array.make (Array.length tasks) empty_aggregate in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker () =
    let rec loop () =
      if Atomic.get failure = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length tasks then begin
          let si, seeds = tasks.(i) in
          (match run_seeds ?notify ?stop ?quarantine specs.(si) seeds with
           | agg -> partials.(i) <- agg
           | exception e -> Atomic.set failure (Some e));
          loop ()
        end
      end
    in
    loop ()
  in
  let helpers =
    List.init (min (jobs - 1) (max 0 (Array.length tasks - 1)))
      (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join helpers;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  (* The merge is order-canonical (sorted by seed), so folding the
     chunk partials in task order gives the same aggregate a
     sequential run produces. *)
  Array.to_list
    (Array.mapi
       (fun si (spec : Plan.spec) ->
         let acc = ref empty_aggregate in
         Array.iteri
           (fun i (sj, _) -> if sj = si then acc := merge !acc partials.(i))
           tasks;
         (spec.Plan.sid, !acc))
       specs)

let run_plan ?(jobs = 1) ?on_progress ?stop ?quarantine (plan : Plan.t) =
  let jobs = if jobs = 0 then default_jobs () else max 1 jobs in
  let notify = progress_notify ~on_progress ~total:(Plan.trial_count plan) in
  if jobs = 1 then
    List.map
      (fun (spec : Plan.spec) ->
        (spec.Plan.sid, run_seeds ?notify ?stop ?quarantine spec spec.Plan.seeds))
      plan.Plan.specs
  else run_plan_parallel ?notify ?stop ?quarantine ~jobs plan

let run_spec ?jobs (spec : Plan.spec) =
  match run_plan ?jobs (Plan.make ~name:spec.Plan.sid [ spec ]) with
  | [ (_, agg) ] -> agg
  | _ -> assert false

let get results sid =
  match List.assoc_opt sid results with
  | Some agg -> agg
  | None -> invalid_arg (Printf.sprintf "Engine.get: no result for spec %S" sid)
