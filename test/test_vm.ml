(* Differential tests: the compiled flat-instruction VM vs the tree
   interpreter.

   The Machine façade runs either program engine (Machine.engine); the
   refactor's correctness contract is that everything observable —
   traces, sink event streams, metrics, outputs, crash sets, branch
   records, leaf order and statistics of both explorers — is
   bit-identical under both.  This file checks that contract
   differentially: every registry config (including the expected-fail
   demos) × random schedules × random fault models, plus the POR and
   naive enumerators leaf for leaf, the Monte Carlo
   scheduler under randomized adversaries, cross-engine checkpoint
   resume, and byte-identity of the committed counterexample
   fixtures. *)

open Conrat_sim
open Conrat_verify

let checkb = Alcotest.check Alcotest.bool
let tc = Alcotest.test_case

let config name =
  match Checks.find name with
  | Some c -> c
  | None -> Alcotest.failf "no checker config named %s" name

(* Registry configs plus the expected-fail demos: the differential does
   not care whether the property holds, only that both engines see the
   identical execution, so broken protocols are test vectors too. *)
let all_configs = Checks.all @ Checks.demos

(* ------------------------------------------------------------------ *)
(* Recording sink: the full observability event stream as data         *)
(* ------------------------------------------------------------------ *)

type ev =
  | Ev_op of int * int * Op.kind * Memory.loc * bool * string option
  | Ev_decide of int * int
  | Ev_crash of int * int
  | Ev_snapshot of int
  | Ev_restore of int

let recording_sink events =
  Sink.make
    ~on_op:(fun ~step ~pid ~kind ~loc ~landed ~stage ->
      events := Ev_op (step, pid, kind, loc, landed, stage) :: !events)
    ~on_decide:(fun ~step ~pid -> events := Ev_decide (step, pid) :: !events)
    ~on_crash:(fun ~step ~pid -> events := Ev_crash (step, pid) :: !events)
    ~on_snapshot:(fun ~step -> events := Ev_snapshot step :: !events)
    ~on_restore:(fun ~step -> events := Ev_restore step :: !events)
    ()

(* ------------------------------------------------------------------ *)
(* run_path: random schedules × random fault models (qcheck)           *)
(* ------------------------------------------------------------------ *)

let qcheck_run_path_differential =
  let gen =
    QCheck.Gen.(
      pair
        (quad
           (int_bound (List.length all_configs - 1))
           (list_size (int_bound 80) (int_bound 12))
           (int_bound 2)
           bool)
        (int_bound 2))
  in
  let print ((i, path, crashes, weak), recoveries) =
    Printf.sprintf "%s path=[%s] crashes=%d recoveries=%d weak=%b"
      (List.nth all_configs i).Checks.name
      (String.concat ";" (List.map string_of_int path))
      crashes recoveries weak
  in
  QCheck.Test.make ~count:300
    ~name:"run_path: vm = tree (trace, sink events, outputs, branches)"
    (QCheck.make ~print gen)
    (fun (((i, path, crashes, weak), recoveries) as case) ->
      let c0 = List.nth all_configs i in
      (* A recovery budget is only constructible on top of a crash
         budget; clamp instead of discarding so every draw tests. *)
      let recoveries = if crashes = 0 then 0 else recoveries in
      let faults = Fault.model ~crashes ~recoveries ~weak_reads:weak () in
      let c = { c0 with Checks.faults } in
      (* Fault injection can break a protocol's internal assumptions
         (e.g. a stale read of a process's own slot trips an assert in
         the fallback).  That is a property of the protocol under the
         fault model, not of the engine — so the differential compares
         the exception (and the event stream up to it) too. *)
      let run engine =
        let events = ref [] in
        let r =
          try
            Ok
              (Explore.run_path ~engine ~record:true
                 ~max_depth:c.Checks.max_depth
                 ~cheap_collect:c.Checks.cheap_collect ~faults
                 ~sink:(recording_sink events) ~n:c.Checks.n
                 ~setup:(Checks.setup_of c ~n:c.Checks.n)
                 path)
          with e -> Error (Printexc.to_string e)
        in
        (r, List.rev !events)
      in
      let (a, ea) = run `Vm in
      let (b, eb) = run `Tree in
      let agree =
        ea = eb
        &&
        match (a, b) with
        | Error ma, Error mb -> ma = mb
        | Ok a, Ok b ->
          (match (a.Explore.trace, b.Explore.trace) with
           | Some ta, Some tb -> Trace.equal ta tb
           | _ -> false)
          && a.Explore.outputs = b.Explore.outputs
          && a.Explore.completed = b.Explore.completed
          && a.Explore.crashed = b.Explore.crashed
          && a.Explore.branches = b.Explore.branches
          && a.Explore.steps = b.Explore.steps
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      if not agree then
        QCheck.Test.fail_reportf "%s: vm and tree executions diverge"
          (print case)
      else true)

(* ------------------------------------------------------------------ *)
(* Explorers: identical leaf sequences and statistics                  *)
(* ------------------------------------------------------------------ *)

(* A leaf is (complete?, outputs, crash set); comparing the sequences
   (not just the sets) pins the traversal order, which the committed
   checkpoints and BENCH_VERIFY statistics depend on.  The run cap
   keeps big configs cheap — identical traversal means the capped
   prefixes coincide leaf for leaf, exhausted flag included. *)
let por_leaves engine (c : Checks.t) ~max_runs =
  let acc = ref [] in
  let result =
    Por.explore ~engine ~max_depth:c.Checks.max_depth ~max_runs
      ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
      ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(fun ~complete outputs ->
        acc := (complete, Array.copy outputs) :: !acc;
        Ok ())
      ()
  in
  (result, List.rev !acc)

let test_por_leaf_differential (c : Checks.t) () =
  let a = por_leaves `Vm c ~max_runs:3_000 in
  let b = por_leaves `Tree c ~max_runs:3_000 in
  checkb (c.Checks.name ^ ": por leaf sequences and stats agree") true (a = b)

let naive_leaves engine (c : Checks.t) ~max_runs =
  let acc = ref [] in
  let result =
    Naive.explore ~engine ~max_depth:c.Checks.max_depth ~max_runs
      ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
      ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(fun ~complete outputs ->
        acc := (complete, Array.copy outputs) :: !acc;
        Ok ())
      ()
  in
  (result, List.rev !acc)

let test_naive_leaf_differential (c : Checks.t) () =
  let a = naive_leaves `Vm c ~max_runs:300 in
  let b = naive_leaves `Tree c ~max_runs:300 in
  checkb (c.Checks.name ^ ": naive leaf sequences and stats agree") true (a = b)

(* The built-in triple differential: naive vs POR outcome sets AND the
   POR search repeated under the other program engine. *)
let test_cross_check_engines name () =
  match Checks.cross_check ~max_runs:100_000 (config name) with
  | Ok x ->
    checkb (name ^ ": naive and por outcome sets agree") true
      x.Checks.outcomes_agree;
    checkb (name ^ ": vm and tree engines agree") true x.Checks.engines_agree
  | Error e -> Alcotest.failf "%s: cross_check violation: %s" name e

(* ------------------------------------------------------------------ *)
(* Monte Carlo scheduler: trace, metrics and work identical (qcheck)   *)
(* ------------------------------------------------------------------ *)

(* The tree interpreter is [Scheduler.run]'s trial engine and the VM
   its oracle, so the differential covers what trials actually run:
   every named adversary, n past [Machine.max_tabulated_n] (where the
   enabled set stops being tabulated), every deciding object and
   consensus protocol a trial composes (the deciding conciliator with
   detection, the four ratifiers, the racing fallback, a
   conciliator;ratifier composite, standard consensus and the CIL
   baseline), and fault plans that crash, recover and deliver stale
   reads.  A protocol tripping over an injected fault must raise the
   same exception under both engines. *)
type subject =
  | D of Conrat_objects.Deciding.factory
  | C of Conrat_core.Consensus.factory

(* (name, cheap_collect, m, subject); inputs are [pid mod m]. *)
let scheduler_subjects =
  let open Conrat_core in
  [| ("conciliator(detect)", false, 2,
      D (Conciliator.impatient_first_mover ~detect:true ()));
     ("standard(m=2)", false, 2, C (Consensus.standard ~m:2));
     ("binary_ratifier", false, 2, D (Ratifier.binary ()));
     ("bollobas_ratifier", false, 3, D (Ratifier.bollobas ~m:3));
     ("bitvector_ratifier", false, 3, D (Ratifier.bitvector ~m:3));
     ("cheap_collect_ratifier", true, 3, D (Ratifier.cheap_collect ~m:3));
     ("fallback", false, 2, D (Fallback.racing ~m:2 ()));
     ("composite", false, 2,
      D (Conrat_objects.Compose.seq_factory
           [ Conciliator.impatient_first_mover (); Ratifier.binary () ]));
     ("cil_racing", false, 2, C (Conrat_baselines.Baseline.cil_racing ~m:2)) |]

let qcheck_scheduler_differential =
  let names =
    [| "round_robin"; "random_uniform"; "fixed_permutation"; "write_stalker";
       "overwrite_attacker"; "adaptive_overwriter"; "noisy"; "priority" |]
  in
  let fault_specs = [| "none"; "crash:f=1,recover"; "weak" |] in
  let agree (a : _ Scheduler.result) (b : _ Scheduler.result) =
    (match (a.Scheduler.trace, b.Scheduler.trace) with
     | Some ta, Some tb -> Trace.equal ta tb
     | _ -> false)
    && a.Scheduler.outputs = b.Scheduler.outputs
    && a.Scheduler.completed = b.Scheduler.completed
    && a.Scheduler.steps = b.Scheduler.steps
    && a.Scheduler.registers = b.Scheduler.registers
    && a.Scheduler.crashed = b.Scheduler.crashed
    && a.Scheduler.recoveries = b.Scheduler.recoveries
    && a.Scheduler.plan_ignored = b.Scheduler.plan_ignored
    && Metrics.counts_to_array (Metrics.counts a.Scheduler.metrics)
       = Metrics.counts_to_array (Metrics.counts b.Scheduler.metrics)
  in
  (* Only an injected fault may make a run raise. *)
  let both ~faulty run =
    let attempt engine =
      if faulty then (try Ok (run engine) with e -> Error (Printexc.to_string e))
      else Ok (run engine)
    in
    match (attempt `Vm, attempt `Tree) with
    | Ok a, Ok b -> agree a b
    | Error ea, Error eb -> ea = eb
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  let print (n, seed, (adv, subject, faults)) =
    let name, _, _, _ = scheduler_subjects.(subject) in
    Printf.sprintf "n=%d seed=%d %s %s faults=%s" n seed names.(adv) name
      fault_specs.(faults)
  in
  QCheck.Test.make ~count:500
    ~name:"scheduler: vm = tree (trace, outputs, metrics)"
    (QCheck.make ~print
       QCheck.Gen.(
         triple (int_range 1 12) (int_bound 1_000_000)
           (triple (int_bound (Array.length names - 1))
              (int_bound (Array.length scheduler_subjects - 1))
              (int_bound (Array.length fault_specs - 1)))))
    (fun ((n, seed, (adv, subject, faults)) as case) ->
      let _, cheap_collect, m, subject = scheduler_subjects.(subject) in
      let inputs = Array.init n (fun pid -> pid mod m) in
      let model = Result.get_ok (Fault.of_string fault_specs.(faults)) in
      let faulty = not (Fault.is_none model) in
      let run engine =
        let memory = Memory.create () in
        if model.Fault.weak_reads then Memory.weaken_all memory;
        if model.Fault.recoveries > 0 then Memory.track_writers memory;
        let faults = if faulty then Some (Conrat_faults.Injector.of_model model) else None in
        let body =
          match subject with
          | D factory ->
            let i = factory.Conrat_objects.Deciding.instantiate ~n memory in
            fun ~pid ~rng ->
              Program.map
                (fun o -> (o.Conrat_objects.Deciding.decide, o.Conrat_objects.Deciding.value))
                (i.Conrat_objects.Deciding.run ~pid ~rng inputs.(pid))
          | C protocol ->
            let i = protocol.Conrat_core.Consensus.instantiate ~n memory in
            fun ~pid ~rng ->
              Program.map (fun v -> (true, v))
                (i.Conrat_core.Consensus.decide ~pid ~rng inputs.(pid))
        in
        Scheduler.run ~engine ~record:true ~max_steps:100_000 ~cheap_collect ?faults ~n
          ~adversary:(Adversary.by_name names.(adv)) ~rng:(Rng.create seed)
          ~memory body
      in
      if not (both ~faulty run) then
        QCheck.Test.fail_reportf "scheduler(%s): vm and tree diverge" (print case)
      else true)

(* ------------------------------------------------------------------ *)
(* Checkpoints round-trip across engines                               *)
(* ------------------------------------------------------------------ *)

(* A checkpoint is a DFS frontier in the path encoding, which both
   engines traverse identically — so a run interrupted under one
   program engine must resume under the other with final statistics
   bit-identical to an uninterrupted run. *)
let test_checkpoint_cross_engine ~from_engine ~to_engine name () =
  let c = config name in
  let explore ?resume ?on_checkpoint ~engine ~max_runs () =
    Por.explore ~engine ~max_depth:c.Checks.max_depth ~max_runs
      ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
      ?resume ?on_checkpoint ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(Checks.check_of c ~n:c.Checks.n)
      ()
  in
  let full =
    match explore ~engine:from_engine ~max_runs:2_000_000 () with
    | Ok s -> s
    | Error (e, _, _) -> Alcotest.failf "%s: unexpected violation: %s" name e
  in
  checkb (name ^ ": uninterrupted run exhausts") true full.Por.exhausted;
  let saved = ref None in
  (match
     explore ~engine:from_engine ~max_runs:40
       ~on_checkpoint:(fun cts -> saved := Some cts)
       ()
   with
   | Ok s -> checkb (name ^ ": interrupted run hit the cap") false s.Por.exhausted
   | Error (e, _, _) -> Alcotest.failf "%s: unexpected violation: %s" name e);
  let resume =
    match !saved with
    | Some cts -> cts
    | None -> Alcotest.failf "%s: no checkpoint was saved" name
  in
  match explore ~engine:to_engine ~resume ~max_runs:2_000_000 () with
  | Ok s ->
    checkb (name ^ ": cross-engine resume = uninterrupted stats") true (s = full)
  | Error (e, _, _) -> Alcotest.failf "%s: resumed run violation: %s" name e

(* ------------------------------------------------------------------ *)
(* Committed fixtures replay byte-identically through the VM           *)
(* ------------------------------------------------------------------ *)

let load_fixture name =
  match Artifact.load (Filename.concat "fixtures" name) with
  | Ok a -> a
  | Error e -> Alcotest.failf "cannot load fixture %s: %s" name e

(* Rebuild the artifact from scratch by re-running its path (through
   the default engine, the VM) and compare the serialized bytes with
   the committed file — reason, trace and float serialization must all
   reproduce exactly. *)
let test_fixture_bytes_identical file () =
  let a = load_fixture file in
  let c = config a.Artifact.checker in
  let rebuilt =
    Artifact.of_failure ~checker:a.Artifact.checker ~n:a.Artifact.n
      ~inputs:a.Artifact.inputs ~max_depth:a.Artifact.max_depth
      ~cheap_collect:a.Artifact.cheap_collect ~faults:a.Artifact.faults
      ~setup:(Checks.setup_of c ~n:a.Artifact.n)
      ~check:(Checks.check_of c ~n:a.Artifact.n)
      a.Artifact.path
  in
  let tmpdir = Filename.temp_file "conrat_vm_fixture" "" in
  Sys.remove tmpdir;
  Sys.mkdir tmpdir 0o700;
  (* The header comment embeds the basename the artifact was saved
     under; the committed fixtures were written by `conrat check` as
     <checker>.counterexample.sexp before being moved into fixtures/. *)
  let tmp =
    Filename.concat tmpdir (a.Artifact.checker ^ ".counterexample.sexp")
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists tmp then Sys.remove tmp;
      Sys.rmdir tmpdir)
    (fun () ->
      Artifact.save tmp rebuilt;
      let bytes f = In_channel.with_open_bin f In_channel.input_all in
      checkb (file ^ ": regenerated bytes = committed bytes") true
        (bytes tmp = bytes (Filename.concat "fixtures" file)))

(* Both engines reproduce the fixture's recorded violation verbatim. *)
let test_fixture_replays_both_engines file () =
  let a = load_fixture file in
  let c = config a.Artifact.checker in
  List.iter
    (fun engine ->
      match Checks.replay ~engine c a with
      | Error reason ->
        checkb (file ^ ": replay reproduces the recorded reason") true
          (reason = a.Artifact.reason)
      | Ok () -> Alcotest.failf "%s: fixture did not reproduce" file)
    [ `Vm; `Tree ]

let fixture_files =
  Sys.readdir "fixtures" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sexp")
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The code store: successor tables, dropped continuations, size       *)
(* ------------------------------------------------------------------ *)

(* Depth-first search over a machine by snapshot and restore: every
   enabled pid, and both coin outcomes where the branching class has
   two.  With [dedup] a state already entered at the same or a smaller
   depth is skipped, which still crosses every edge within the bound.
   Returns the leaves' outputs in DFS order. *)
let dfs ?(dedup = false) ~max_depth machine =
  let seen = Hashtbl.create 1024 and h = [| 0; 0 |] in
  let leaves = ref [] in
  let fresh depth =
    (not dedup)
    ||
    (Machine.hash_into machine h;
     match Hashtbl.find_opt seen (h.(0), h.(1)) with
     | Some d when d <= depth -> false
     | _ -> Hashtbl.replace seen (h.(0), h.(1)) depth; true)
  in
  let rec go depth =
    let enabled = Array.copy (Machine.enabled machine) in
    if not (fresh depth) then ()
    else if Array.length enabled = 0 || depth = max_depth then
      leaves := Machine.outputs machine :: !leaves
    else
      Array.iter
        (fun pid ->
          let coins =
            match Machine.coin_class machine pid with
            | 0 -> [ false ]
            | 1 -> [ true ]
            | _ -> [ true; false ]
          in
          List.iter
            (fun landed ->
              let snap = Machine.snapshot machine in
              Machine.step_forced machine ~pid ~landed;
              go (depth + 1);
              Machine.restore machine snap)
            coins)
        enabled
  in
  go 0;
  List.rev !leaves

(* Heap words the machine holds beyond its memory: under the VM, the
   code store (plus a few n-sized arrays). *)
let code_words machine memory =
  Obj.reachable_words (Obj.repr machine) - Obj.reachable_words (Obj.repr memory)

(* Reads that observe ⊥, a negative value and 2^24.  A successor table
   indexed by the value would take 2^24 words for the last; the store
   must stay small, and agree with the tree interpreter. *)
let test_observation_values () =
  let setup () =
    let memory = Memory.create () in
    let r = Memory.alloc memory in
    let body ~pid =
      let open Program in
      if pid = 0 then
        let* () = write r (-7) in
        let* () = write r (1 lsl 24) in
        return (None, None)
      else
        let* a = read r in
        let* b = read r in
        return (a, b)
    in
    (memory, body)
  in
  let run engine =
    let memory, body = setup () in
    let machine = Machine.create ~engine ~n:2 ~memory body in
    let leaves = dfs ~max_depth:10 machine in
    (leaves, code_words machine memory, machine)
  in
  let vm, words, machine = run `Vm in
  let tree, _, _ = run `Tree in
  checkb "vm leaves = tree leaves" true (vm = tree);
  let seen v =
    List.exists
      (fun o -> match o.(1) with Some (a, b) -> a = v || b = v | None -> false)
      vm
  in
  checkb "reads observed ⊥, -7 and 2^24" true
    (seen None && seen (Some (-7)) && seen (Some (1 lsl 24)));
  if words >= 10_000 then Alcotest.failf "code store holds %d words (bound 10 000)" words;
  (* Every edge is interned now, so retraversing a read allocates
     nothing: a read of ⊥ (slot 0), then two reads of 2^24 (the table's
     last pair).  Cycles with writes are covered under "machine
     state". *)
  let words_per_1000 cycle =
    let measure k =
      let before = Gc.minor_words () in
      for _ = 1 to k do cycle () done;
      Gc.minor_words () -. before
    in
    measure 1000 -. measure 0
  in
  let root = Machine.snapshot machine in
  let read_bottom () =
    Machine.step_forced machine ~pid:1 ~landed:false;
    Machine.restore machine root
  in
  Alcotest.(check (float 0.)) "words per 1 000 reads of ⊥" 0.
    (words_per_1000 read_bottom);
  Machine.step_forced machine ~pid:0 ~landed:true;
  Machine.step_forced machine ~pid:0 ~landed:true;
  let written = Machine.snapshot machine in
  let read_big () =
    Machine.step_forced machine ~pid:1 ~landed:false;
    Machine.step_forced machine ~pid:1 ~landed:false;
    Machine.restore machine written
  in
  Alcotest.(check (float 0.)) "words per 1 000 read pairs of 2^24" 0.
    (words_per_1000 read_big)

(* A write whose continuation allocates a register, reached at two store
   lengths: pid 0 first, its register lands at address 2; pid 1 first,
   at 3.  The second traversal must unfold the continuation again, so
   the write keeps it; dropping every resolved continuation would
   re-enter a dropped one here. *)
let test_allocating_write_keeps_continuation () =
  let setup () =
    let memory = Memory.create () in
    let regs = Memory.alloc_n memory 2 in
    let body ~pid =
      let open Program in
      let* () = write regs.(pid) 1 in
      let mine = Memory.alloc memory in
      let* () = write mine (10 + pid) in
      let* v = read mine in
      return (mine, v)
    in
    (memory, body)
  in
  let run engine =
    let memory, body = setup () in
    dfs ~max_depth:10 (Machine.create ~engine ~n:2 ~memory body)
  in
  let vm = run `Vm in
  checkb "vm leaves = tree leaves" true (vm = run `Tree);
  let addresses =
    List.sort_uniq compare (List.filter_map (fun o -> Option.map fst o.(0)) vm)
  in
  checkb "pid 0's register lands at both store lengths" true (addresses = [ 2; 3 ])

(* Words per interned pc on a search that crosses every fallback edge
   to depth 20 (2 892 pcs): 44.3 with one record per pc.  The bound
   fails a store of eight parallel per-pc arrays with value-indexed
   read tables that keeps every continuation (66.6 here). *)
let test_words_per_pc () =
  let c = config "fallback_n2_d28" in
  let memory, body = Checks.setup_of c ~n:c.Checks.n () in
  let machine = Machine.create ~n:c.Checks.n ~memory body in
  ignore (dfs ~dedup:true ~max_depth:20 machine);
  let pcs = Machine.code_size machine in
  let per_pc = float_of_int (code_words machine memory) /. float_of_int pcs in
  checkb "the search interned pcs" true (pcs > 1_000);
  if per_pc > 52. then Alcotest.failf "%.1f words per pc (bound 52)" per_pc

(* ------------------------------------------------------------------ *)
(* Pointer-free machine state                                          *)
(* ------------------------------------------------------------------ *)

(* [k] steps round-robin over the enabled pids, every coin landed (on a
   weak register, the stale value delivered). *)
let drive machine k =
  for i = 0 to k - 1 do
    let en = Machine.enabled machine in
    if Array.length en > 0 then begin
      let pid = en.(i mod Array.length en) in
      Machine.step_forced machine ~pid ~landed:(Machine.coin_class machine pid <> 0)
    end
  done

let machine_of name =
  let c = config name in
  let memory, body = Checks.setup_of c ~n:c.Checks.n () in
  Machine.create ~n:c.Checks.n ~memory body

(* A step/snapshot/restore cycle of the VM stores only immediates: the
   cells, journals and pc file are int arrays, so once the path is
   interned a cycle allocates nothing.  The nine steps include writes;
   an option-valued store boxed each written value (12 words a cycle
   here). *)
let test_cycle_allocates_nothing () =
  let machine = machine_of "binary_ratifier_n3" in
  let pooled = Machine.snapshot machine in
  let writes = ref 0 in
  let cycle () =
    Machine.snapshot_into machine pooled;
    for i = 0 to 8 do
      let en = Machine.enabled machine in
      let pid = en.(i mod Array.length en) in
      (match Machine.pending_op machine pid with
       | Some op when Op.is_write op -> incr writes
       | Some _ | None -> ());
      Machine.step_forced machine ~pid ~landed:(Machine.coin_class machine pid <> 0)
    done;
    Machine.restore machine pooled
  in
  cycle ();
  checkb "the cycle writes" true (!writes > 0);
  let measure k =
    let before = Gc.minor_words () in
    for _ = 1 to k do cycle () done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "minor words per 1 000 cycles" 0.
    (measure 1000 -. measure 0)

(* [Machine.hash_into] is the dedup key: its pairs are pinned to the
   values an [int option] store produced, so the integer encoding of ⊥
   and of the weak shadows and writers cannot drift the visited table's
   layout or any dedup count. *)
let pinned_states =
  [ ("initial", "binary_ratifier_n3", fun _ -> ());
    ("after writes", "binary_ratifier_n3", fun m -> drive m 9);
    ("weak shadow", "binary_ratifier_n2_weak", fun m -> drive m 7);
    ( "writer tracking",
      "binary_ratifier_rec_n2_f1",
      fun m ->
        drive m 3;
        Machine.crash m ~pid:0;
        Machine.recover m ~pid:0;
        drive m 2 ) ]

let pinned_hashes =
  [ (3982683234373450361, 2039196410929921979);
    (4421994652566974546, 1425994317869759756);
    (3127528733307261606, 3837246048487979048);
    (1873244960219215353, 2271032636981999215) ]

let test_hash_pinned () =
  let got =
    List.map
      (fun (label, name, go) ->
        let m = machine_of name in
        go m;
        (label, Machine.state_hash m))
      pinned_states
  in
  let want = List.map2 (fun (label, _, _) h -> (label, h)) pinned_states pinned_hashes in
  Alcotest.(check (list (pair string (pair int int)))) "state hashes" want got

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "conrat vm"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest qcheck_run_path_differential;
          QCheck_alcotest.to_alcotest qcheck_scheduler_differential ] );
      ( "por",
        List.map
          (fun c -> tc c.Checks.name `Quick (test_por_leaf_differential c))
          all_configs );
      ( "naive",
        List.map
          (fun c -> tc c.Checks.name `Quick (test_naive_leaf_differential c))
          all_configs );
      ( "cross-check",
        List.map
          (fun name -> tc name `Quick (test_cross_check_engines name))
          [ "binary_ratifier_n2"; "cheap_collect_ratifier_n2";
            "binary_ratifier_n2_f1"; "binary_ratifier_rec_n2_f1" ] );
      ( "code store",
        [ tc "reads of ⊥, negatives and 2^24" `Quick test_observation_values;
          tc "allocating write keeps its continuation" `Quick
            test_allocating_write_keeps_continuation;
          tc "words per pc" `Quick test_words_per_pc ] );
      ( "machine",
        [ tc "step/snapshot/restore allocates nothing" `Quick
            test_cycle_allocates_nothing;
          tc "hash_into pinned" `Quick test_hash_pinned ] );
      ( "checkpoint",
        [ tc "vm save, tree resume" `Quick
            (test_checkpoint_cross_engine ~from_engine:`Vm ~to_engine:`Tree
               "binary_ratifier_n3_f1");
          tc "tree save, vm resume" `Quick
            (test_checkpoint_cross_engine ~from_engine:`Tree ~to_engine:`Vm
               "binary_ratifier_n3_f1") ] );
      ( "fixtures",
        List.concat_map
          (fun file ->
            [ tc (file ^ " bytes") `Quick (test_fixture_bytes_identical file);
              tc (file ^ " replays") `Quick
                (test_fixture_replays_both_engines file) ])
          fixture_files ) ]
