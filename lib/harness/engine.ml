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
  | Some (m : Fault.model) when not (Fault.is_none m) ->
    if m.Fault.weak_reads then Memory.weaken_all memory;
    (* Recovery wipes need last-writer ownership (Machine.recover
       consults it to erase exactly the crashed pid's volatile writes);
       engage tracking before the protocol's first write. *)
    if m.Fault.recoveries > 0 then Memory.track_writers memory;
    Some (Conrat_faults.Injector.of_model m)
  | _ -> None

(* What a runner kind supplies to the one object runner: the per-pid
   program of an instance built on the trial's memory, and the judge
   that maps the scheduler's result to the outcome's values and its
   safety verdict. *)
type 'a obj = {
  program : Memory.t -> pid:int -> rng:Rng.t -> 'a Program.t;
  judge : 'a Scheduler.result -> int option array * (unit, string) result;
}

let run_object ?max_steps ?cheap_collect ?(stages = false) ?faults ~n ~adversary
    ~inputs ~seed obj =
  let rng = Rng.create seed in
  let memory = Memory.create () in
  let plan = fault_setup faults memory in
  let program = obj.program memory in
  let sink, stage_totals = stage_sink ~stages ~n in
  let result =
    Scheduler.run ?max_steps ?cheap_collect ?faults:plan ?sink ~n ~adversary ~rng
      ~memory program
  in
  let outputs, safety = obj.judge result in
  { inputs;
    outputs;
    agreed = all_agree outputs;
    safety;
    completed = result.completed;
    crashes = result.crashes;
    recoveries = result.recoveries;
    plan_ignored = result.plan_ignored;
    total_work = Metrics.total result.metrics;
    individual_work = Metrics.individual result.metrics;
    steps = result.steps;
    registers = result.registers;
    stage_work = stage_totals () }

(* A consensus protocol is judged by the full consensus contract. *)
let consensus ~n ~inputs (protocol : Conrat_core.Consensus.factory) =
  { program =
      (fun memory ->
        let instance = protocol.instantiate ~n memory in
        fun ~pid ~rng -> instance.Conrat_core.Consensus.decide ~pid ~rng inputs.(pid));
    judge =
      (fun (r : _ Scheduler.result) ->
        ( r.outputs,
          Spec.consensus_execution ~inputs ~outputs:r.outputs ~completed:r.completed )) }

(* A bare deciding object is judged by validity of its values and
   coherence of its (decide, value) pairs. *)
let deciding ~n ~inputs (factory : Conrat_objects.Deciding.factory) =
  { program =
      (fun memory ->
        let instance = factory.instantiate ~n memory in
        fun ~pid ~rng ->
          Program.map
            (fun out ->
              (out.Conrat_objects.Deciding.decide, out.Conrat_objects.Deciding.value))
            (instance.Conrat_objects.Deciding.run ~pid ~rng inputs.(pid)));
    judge =
      (fun (r : _ Scheduler.result) ->
        let values = Array.map (Option.map snd) r.outputs in
        ( values,
          Spec.all
            [ Spec.validity ~inputs ~outputs:values; Spec.coherence ~outputs:r.outputs ] )) }

let run_consensus ?max_steps ?cheap_collect ?stages ?faults ~n ~adversary ~inputs
    ~seed protocol =
  run_object ?max_steps ?cheap_collect ?stages ?faults ~n ~adversary ~inputs ~seed
    (consensus ~n ~inputs protocol)

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

(* Pairwise rounds of [merge]: the aggregate a left fold builds (the
   merge is associative and commutative), in O(T log T) list cells for
   T trials where the left fold rebuilds the running lists every time. *)
let rec merge_all = function
  | [] -> empty_aggregate
  | [ agg ] -> agg
  | aggs ->
    let rec pairs = function a :: b :: rest -> merge a b :: pairs rest | rest -> rest in
    merge_all (pairs aggs)

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
  let n = spec.n in
  let inputs = spec.workload.Workload.generate ~n ~m:spec.m (Plan.workload_rng seed) in
  let run obj =
    run_object ?max_steps:spec.max_steps ~cheap_collect:spec.cheap_collect
      ~stages:spec.stages ~faults:spec.faults ~n ~adversary:spec.adversary ~inputs
      ~seed obj
  in
  match spec.runner with
  | Plan.Consensus protocol -> of_outcome ~seed ~probe:0 (run (consensus ~n ~inputs protocol))
  | Plan.Deciding factory -> of_outcome ~seed ~probe:0 (run (deciding ~n ~inputs factory))
  | Plan.Probed build ->
    let protocol, read_probe = build () in
    let o = run (consensus ~n ~inputs protocol) in
    of_outcome ~seed ~probe:(read_probe ()) o

(* The first [count] trials of [seeds], polling [stop] before each.
   With [quarantine] a raising trial is recorded, not fatal: the seed
   lands in [quarantined] and the remaining seeds still run. *)
let run_seeds ?notify ?(stop = fun () -> false) ?(quarantine = false) spec ~count seeds =
  let rec go acc k = function
    | seed :: rest when k > 0 && not (stop ()) ->
      let one =
        if quarantine then try run_trial spec seed with e -> of_quarantined ~seed e
        else run_trial spec seed
      in
      Option.iter (fun f -> f ()) notify;
      go (one :: acc) (k - 1) rest
    | _ -> merge_all acc
  in
  go [] count seeds

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Where each chunk of [chunk] seeds starts: the tails of [seeds] at
   every [chunk]-th seed, so no seed list is copied. *)
let rec chunk_starts ~chunk seeds =
  let rec drop k l = match l with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> l in
  if seeds = [] then [] else seeds :: chunk_starts ~chunk (drop chunk seeds)

let run_plan ?(jobs = 1) ?on_progress ?stop ?quarantine (plan : Plan.t) =
  let jobs = if jobs = 0 then default_jobs () else max 1 jobs in
  (* Each completed trial bumps one shared atomic count and hands the
     running total to [on_progress]. *)
  let notify =
    Option.map
      (fun f ->
        let done_ = Atomic.make 0 and total = Plan.trial_count plan in
        fun () -> f ~done_:(Atomic.fetch_and_add done_ 1 + 1) ~total)
      on_progress
  in
  let specs = Array.of_list plan.Plan.specs in
  (* One task per (spec, seed chunk), in plan order; chunks keep the
     work queue fine grained enough to balance trials of very different
     cost. *)
  let tasks =
    Array.of_list
      (List.concat
         (List.mapi
            (fun si (spec : Plan.spec) ->
              let chunk = max 1 (min 64 (List.length spec.Plan.seeds / (jobs * 4))) in
              List.map (fun seeds -> (si, chunk, seeds)) (chunk_starts ~chunk spec.Plan.seeds))
            plan.Plan.specs))
  in
  let partials = Array.make (Array.length tasks) (Ok empty_aggregate) in
  let next = Atomic.make 0 in
  let failed = Atomic.make false in
  let rec worker () =
    if not (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length tasks then begin
        let si, count, seeds = tasks.(i) in
        (match run_seeds ?notify ?stop ?quarantine specs.(si) ~count seeds with
         | agg -> partials.(i) <- Ok agg
         | exception e ->
           partials.(i) <- Error (e, Printexc.get_raw_backtrace ());
           Atomic.set failed true);
        worker ()
      end
    end
  in
  (* The calling domain is always a worker; [jobs = 1] spawns no
     helper. *)
  let helpers =
    List.init (max 0 (min (jobs - 1) (Array.length tasks - 1))) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join helpers;
  (* Tasks are fetched in plan order and a fetched task always runs to
     its end, so every task before a failing one ran: the first failure
     in plan order is the same for every [jobs]. *)
  let per_spec = Array.make (Array.length specs) [] in
  Array.iteri
    (fun i (si, _, _) ->
      match partials.(i) with
      | Ok agg -> per_spec.(si) <- agg :: per_spec.(si)
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    tasks;
  List.mapi (fun si (spec : Plan.spec) -> (spec.Plan.sid, merge_all per_spec.(si)))
    plan.Plan.specs

let run_spec ?jobs (spec : Plan.spec) =
  match run_plan ?jobs (Plan.make ~name:spec.Plan.sid [ spec ]) with
  | [ (_, agg) ] -> agg
  | _ -> assert false

let get results sid =
  match List.assoc_opt sid results with
  | Some agg -> agg
  | None -> invalid_arg (Printf.sprintf "Engine.get: no result for spec %S" sid)
