(* Differential determinism suite for the parallel explorer
   (lib/verify/parallel.ml) and the machinery underneath it: shard
   frontiers, duplicate-state detection, the source-set DPOR oracle and
   the VM state hash.

   The headline properties, each checked over the checker registry:

   - jobs-invariance: Parallel.explore_por at any --jobs reports the
     exact statistics and complete-execution outcome set of the
     sequential search.
   - partition exactness: a generated frontier's residue plus its
     per-shard subtree runs sum to the sequential totals, steps
     included.
   - steal/resume: a shard interrupted mid-subtree and resumed from its
     checkpoint (as a stealing worker would) finishes bit-identically.
   - dedup soundness: duplicate-state suppression never changes the
     outcome set, only the leaf counts.
   - DPOR cross-check: the source-set oracle explores the same outcome
     set as the sleep-set engine and the naive enumerator.
   - hash soundness: machines in equal states hash equal; perturbing a
     pc, a memory cell or a crash bit changes the hash. *)

open Conrat_sim
open Conrat_verify

let check = Alcotest.check
let checkb msg expected actual = check Alcotest.bool msg expected actual
let checki msg expected actual = check Alcotest.int msg expected actual
let tc = Alcotest.test_case

let config name =
  match Checks.find name with
  | Some c -> c
  | None -> Alcotest.failf "no checker config named %s" name

(* The depth-34/40 fallback bounds are the depth-28 machinery with more
   minutes attached; d28 stays in the loop, the big two are covered by
   `make par-verify` / `make bench-gates` wall-clock runs. *)
let heavy = [ "fallback_n2_d34"; "fallback_n2_d40" ]

let configs =
  List.filter (fun c -> not (List.mem c.Checks.name heavy)) Checks.all

(* ------------------------------------------------------------------ *)
(* Outcome-set recording (domain-safe)                                 *)
(* ------------------------------------------------------------------ *)

(* The outputs buffer is reused across leaves and, under a fleet, the
   wrapped check runs on several domains at once — copy under a lock. *)
let outcomes () =
  let tbl = Hashtbl.create 97 in
  let lock = Mutex.create () in
  let wrap inner ~complete outputs =
    if complete then begin
      let key = Array.to_list outputs in
      Mutex.protect lock (fun () -> Hashtbl.replace tbl key ())
    end;
    inner ~complete outputs
  in
  let sorted () =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  (wrap, sorted)

let por ?(jobs = 1) ?(dedup = false) c =
  let wrap, sorted = outcomes () in
  match
    Parallel.explore_por ~jobs ~max_depth:c.Checks.max_depth
      ~max_runs:c.Checks.max_runs ~cheap_collect:c.Checks.cheap_collect
      ~faults:c.Checks.faults ~dedup ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(wrap (Checks.check_of c ~n:c.Checks.n))
      ()
  with
  | Ok s -> (s, sorted ())
  | Error (reason, _, _) -> Alcotest.failf "%s violated: %s" c.Checks.name reason

let naive ?max_runs c =
  let wrap, sorted = outcomes () in
  match
    Naive.explore ~max_depth:c.Checks.max_depth
      ~max_runs:(Option.value max_runs ~default:c.Checks.max_runs)
      ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
      ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(wrap (Checks.check_of c ~n:c.Checks.n))
      ()
  with
  | Ok s -> (s, sorted ())
  | Error (reason, _) -> Alcotest.failf "%s violated: %s" c.Checks.name reason

let dpor ?probe c =
  let wrap, sorted = outcomes () in
  match
    Por.explore_source ?probe ~max_depth:c.Checks.max_depth ~max_runs:c.Checks.max_runs
      ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults
      ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(wrap (Checks.check_of c ~n:c.Checks.n))
      ()
  with
  | Ok s -> (s, sorted ())
  | Error (reason, _, _) -> Alcotest.failf "%s violated: %s" c.Checks.name reason

(* ------------------------------------------------------------------ *)
(* jobs-invariance                                                     *)
(* ------------------------------------------------------------------ *)

let test_por_jobs_invariant () =
  List.iter
    (fun c ->
      let s1, o1 = por c in
      checkb (c.Checks.name ^ " sequential exhausts") true s1.Por.exhausted;
      List.iter
        (fun jobs ->
          let sj, oj = por ~jobs c in
          checkb
            (Printf.sprintf "%s jobs=%d statistics bit-identical" c.Checks.name
               jobs)
            true (sj = s1);
          checkb
            (Printf.sprintf "%s jobs=%d outcome set identical" c.Checks.name
               jobs)
            true (oj = o1))
        [ 2; 4 ])
    configs

let test_jobs_exceed_frontier () =
  (* More workers than the tree has shards (here: than it has leaves):
     generation explores everything as residue and the fleet is idle. *)
  let c = config "binary_ratifier_n2" in
  let s1, o1 = por c in
  let s8, o8 = por ~jobs:8 c in
  checkb "jobs=8 on a 6-leaf tree bit-identical" true (s8 = s1 && o8 = o1)

(* ------------------------------------------------------------------ *)
(* Shard partition and steal/resume                                    *)
(* ------------------------------------------------------------------ *)

let explore_shard ?max_runs ?on_checkpoint c resume prefix =
  Por.explore ~max_depth:c.Checks.max_depth
    ~max_runs:(Option.value max_runs ~default:c.Checks.max_runs)
    ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults ~resume
    ~subtree_prefix:prefix ~checkpoint_every:max_int ?on_checkpoint
    ~n:c.Checks.n
    ~setup:(Checks.setup_of c ~n:c.Checks.n)
    ~check:(Checks.check_of c ~n:c.Checks.n)
    ()

let zero_counts path =
  { Checkpoint.path; complete = 0; truncated = 0; pruned = 0; steps = 0 }

let generate c ~target =
  match
    Frontier.generate ~target ~run:(fun ~cut ->
        Por.explore ~max_depth:c.Checks.max_depth ~max_runs:c.Checks.max_runs
          ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults ~cut
          ~n:c.Checks.n
          ~setup:(Checks.setup_of c ~n:c.Checks.n)
          ~check:(Checks.check_of c ~n:c.Checks.n)
          ())
      ()
  with
  | Ok (residue, shards) -> (residue, shards)
  | Error (reason, _, _) ->
    Alcotest.failf "%s violated during generation: %s" c.Checks.name reason

let add_stats (a : Por.stats) (b : Por.stats) =
  { Por.complete = a.complete + b.complete;
    truncated = a.truncated + b.truncated;
    pruned = a.pruned + b.pruned;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    exhausted = a.exhausted && b.exhausted;
    steps = a.steps + b.steps }

(* A checked leaf in visit order, or the place where a generator pass
   emitted shard [i] instead of descending. *)
type 'o visit = Leaf of bool * 'o list | Shard of int

let recorder () =
  let seq = ref [] in
  let note ~complete outputs = seq := Leaf (complete, Array.to_list outputs) :: !seq in
  (seq, note)

(* [explore ~note ~cut ~shard] runs one sequential POR search over the
   whole tree, as a generator pass ([cut]) or pinned under a shard
   path ([shard]), calling [note] at every checked leaf.  Residue plus
   per-shard statistics must equal the whole search's, and splicing
   each shard's leaf sequence in at its marker must replay the whole
   search's leaf sequence exactly. *)
let check_partition name ~explore =
  let whole_seq, note = recorder () in
  let whole = explore ~note ~cut:None ~shard:None in
  let residue_seq = ref (ref []) in
  let residue, shards =
    match
      Frontier.generate ~target:16 ~run:(fun ~cut:(lvl, emit) ->
          let seq, note = recorder () in
          residue_seq := seq;
          let next = ref 0 in
          let emit path =
            seq := Shard !next :: !seq;
            incr next;
            emit path
          in
          Ok (explore ~note ~cut:(Some (lvl, emit)) ~shard:None))
        ()
    with
    | Ok r -> r
    | Error () -> assert false
  in
  checkb (name ^ " frontier is nontrivial") true (Array.length shards > 1);
  let parts =
    Array.map
      (fun path ->
        let seq, note = recorder () in
        let s = explore ~note ~cut:None ~shard:(Some path) in
        (s, List.rev !seq))
      shards
  in
  let total = Array.fold_left (fun acc (s, _) -> add_stats acc s) residue parts in
  checkb (name ^ " residue + shards = sequential, steps included") true (total = whole);
  let spliced =
    List.concat_map
      (function Shard i -> snd parts.(i) | leaf -> [ leaf ])
      (List.rev !(!residue_seq))
  in
  checkb (name ^ " spliced shard sequences replay the sequential one") true
    (spliced = List.rev !whole_seq)

let test_shard_partition_exact () =
  List.iter
    (fun name ->
      let c = config name in
      let n = c.Checks.n in
      let noting note ~complete outputs =
        note ~complete outputs;
        Checks.check_of c ~n ~complete outputs
      in
      check_partition (name ^ " por") ~explore:(fun ~note ~cut ~shard ->
          match
            Por.explore ~max_depth:c.Checks.max_depth ~max_runs:c.Checks.max_runs
              ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults ?cut
              ?resume:(Option.map zero_counts shard)
              ?subtree_prefix:(Option.map List.length shard) ~n
              ~setup:(Checks.setup_of c ~n) ~check:(noting note) ()
          with
          | Ok s -> s
          | Error (reason, _, _) -> Alcotest.failf "%s por violated: %s" name reason))
    [ "binary_ratifier_n4"; "binary_ratifier_n3_f2"; "conciliator_n2";
      "composite_n2" ]

let test_steal_mid_shard_resume () =
  (* Interrupt a shard on a small budget, hand its checkpoint to a
     "different worker" (a fresh explore call with the same pinned
     prefix), repeat until exhausted: the final statistics must equal
     the uninterrupted shard's.  This is exactly the state a stolen
     shard migrates between domains as. *)
  let c = config "binary_ratifier_n4" in
  let _, shards = generate c ~target:8 in
  checkb "frontier is nontrivial" true (Array.length shards >= 8);
  let segmented = ref 0 in
  Array.iter
    (fun path ->
      let prefix = List.length path in
      let full =
        match explore_shard c (zero_counts path) prefix with
        | Ok s -> s
        | Error (reason, _, _) -> Alcotest.failf "shard violated: %s" reason
      in
      let saved = ref (zero_counts path) in
      let budget = ref 200 in
      let final = ref None in
      let segments = ref 0 in
      while !final = None do
        incr segments;
        if !segments > 1000 then Alcotest.fail "shard resume does not converge";
        match
          explore_shard c !saved prefix ~max_runs:!budget
            ~on_checkpoint:(fun counts -> saved := counts)
        with
        | Ok s when s.Por.exhausted -> final := Some s
        | Ok _ -> budget := !budget + 200
        | Error (reason, _, _) ->
          Alcotest.failf "shard violated mid-segment: %s" reason
      done;
      if !segments >= 2 then incr segmented;
      checkb "resumed shard bit-identical to uninterrupted" true
        (Option.get !final = full))
    shards;
  checkb "≥ 1 shard actually crossed a segment boundary" true (!segmented >= 1)

(* ------------------------------------------------------------------ *)
(* Dedup soundness                                                     *)
(* ------------------------------------------------------------------ *)

let test_dedup_preserves_outcomes () =
  List.iter
    (fun c ->
      let s0, o0 = por c in
      let s1, o1 = por ~dedup:true c in
      checki (c.Checks.name ^ " dedup off reports no hits") 0 s0.Por.dedup_hits;
      checkb (c.Checks.name ^ " dedup run exhausts") true s1.Por.exhausted;
      checkb (c.Checks.name ^ " dedup never explores more") true
        (Por.explored s1 <= Por.explored s0);
      checkb (c.Checks.name ^ " dedup outcome set identical") true (o1 = o0))
    configs

let test_dedup_bites_on_fallback () =
  (* The racing-fallback tree revisits states massively; lock in that
     the suppression actually fires there (exact counts are wall-clock
     facts recorded in EXPERIMENTS.md; here we pin the invariants). *)
  let c = config "fallback_n2_d28" in
  let s0, _ = por c in
  let s1, _ = por ~dedup:true c in
  checkb "dedup_hits > 0" true (s1.Por.dedup_hits > 0);
  checkb "dedup shrinks the explored tree" true
    (Por.explored s1 < Por.explored s0);
  checkb "hits are counted inside pruned" true (s1.Por.dedup_hits <= s1.Por.pruned);
  (* The exact d28 dedup counts of DESIGN.md's table (and perfbench's
     tiny por_dedup): any change to the visited table must keep them. *)
  checki "explored" 200_785 (Por.explored s1);
  checki "pruned" 28_253 s1.Por.pruned;
  checki "dedup_hits" 22_688 s1.Por.dedup_hits;
  checki "steps" 631_332 s1.Por.steps

let test_dedup_exact_fault_configs () =
  (* The key mixes in the crash and recovery budgets: pin one
     crash-closed and one crash-recovery-closed config. *)
  List.iter
    (fun (name, explored, pruned, hits, steps) ->
      let s, _ = por ~dedup:true (config name) in
      checkb (name ^ " exhausted") true s.Por.exhausted;
      checki (name ^ " explored") explored (Por.explored s);
      checki (name ^ " pruned") pruned s.Por.pruned;
      checki (name ^ " dedup_hits") hits s.Por.dedup_hits;
      checki (name ^ " steps") steps s.Por.steps)
    [ ("binary_ratifier_n4_f2", 2_143, 16_243, 3_889, 29_472);
      ("binary_ratifier_rec_n3_f1", 1_941, 6_829, 3_429, 21_786) ]

let test_dedup_jobs_deterministic () =
  (* Tables are per-shard, so the merged counts under a fleet are a
     function of the frontier alone, whichever worker ran which shard. *)
  let c = config "fallback_n2_d28" in
  let s1, o1 = por ~jobs:2 ~dedup:true c in
  let s2, o2 = por ~jobs:2 ~dedup:true c in
  checkb "two jobs-2 dedup runs report identical stats" true (s1 = s2);
  checkb "and identical outcome sets" true (o1 = o2);
  checki "explored" 409_251 (Por.explored s1);
  checki "pruned" 59_440 s1.Por.pruned;
  checki "dedup_hits" 49_454 s1.Por.dedup_hits;
  checki "steps" 1_267_544 s1.Por.steps

(* Visited against a Hashtbl model.  Each operation is one dedup step:
   insert the key if absent, prune if the stored mask is covered,
   otherwise narrow it to the intersection. *)
let dedup_step_model model (h1, h2, z) =
  match Hashtbl.find_opt model (h1, h2) with
  | None -> Hashtbl.add model (h1, h2) z; Visited.Added
  | Some z_old when z_old land lnot z = 0 -> Visited.Covered
  | Some z_old ->
    Hashtbl.replace model (h1, h2) (z_old land z);
    Visited.Narrowed

let qcheck_visited_vs_model =
  let gen =
    QCheck.Gen.(
      let h1_any = map (fun x -> x land max_int) int in
      (* All-ones top bits: the home slot is the last one of the page,
         so these probe past the end of its array and wrap. *)
      let h1_top = map (fun x -> max_int lxor (x land 0xFFFF)) int in
      (* One shared h1: told apart by h2 alone. *)
      let h1_same = return 42 in
      let key =
        frequency
          [ (2, pair h1_any int); (2, pair h1_top int); (1, pair h1_same int) ]
      in
      list_size (int_range 100 200) key >>= fun keys ->
      let pool = Array.of_list (List.sort_uniq compare keys) in
      list_size (int_bound 300) (int_bound (Array.length pool - 1))
      >>= fun again ->
      (* Every pool key at least once. *)
      shuffle_l (List.init (Array.length pool) Fun.id @ again)
      >>= fun order ->
      flatten_l
        (List.map
           (fun i ->
             let h1, h2 = pool.(i) in
             map (fun z -> (h1, h2, z)) (int_bound 7))
           order))
  in
  let print ops =
    Printf.sprintf "ops=[%s]"
      (String.concat "; "
         (List.map (fun (a, b, z) -> Printf.sprintf "(%d,%d,%d)" a b z) ops))
  in
  QCheck.Test.make ~count:100 ~name:"visited table = Hashtbl model"
    (QCheck.make ~print gen)
    (fun ops ->
      let t = Visited.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          let h1, h2, z = op in
          Visited.visit t h1 h2 z = dedup_step_model model op
          && Visited.count t = Hashtbl.length model
          && Hashtbl.fold
               (fun (h1, h2) z ok -> ok && Visited.find t h1 h2 = Some z)
               model true)
        ops)

let test_visited_rejects_negative_h1 () =
  (* -1 marks an empty slot: a negative h1 must never reach the table. *)
  let t = Visited.create () in
  match Visited.visit t (-1) 0 0 with
  | _ -> Alcotest.fail "a negative h1 (the empty marker) was accepted"
  | exception Invalid_argument _ -> ()

(* Feed [keys] (in order, each with a pseudo-random mask, then every
   key once more) to a table and the Hashtbl model, checking each
   outcome, then every stored mask.  Returns the table. *)
let visited_against_model ~seed keys =
  let rng = Random.State.make [| seed |] in
  let t = Visited.create () and model = Hashtbl.create 1024 in
  let visit (h1, h2) =
    let z = Random.State.int rng 8 in
    if Visited.visit t h1 h2 z <> dedup_step_model model (h1, h2, z) then
      Alcotest.failf "visit (%d, %d): outcome differs from the model" h1 h2
  in
  Array.iter visit keys;
  Array.iter visit keys;
  checki "count = model size" (Hashtbl.length model) (Visited.count t);
  Hashtbl.iter
    (fun (h1, h2) z ->
      if Visited.find t h1 h2 <> Some z then
        Alcotest.failf "find (%d, %d): stored mask differs from the model" h1 h2)
    model;
  t

(* Words the table holds: live pages, directory and scratch. *)
let visited_words t = Obj.reachable_words (Obj.repr t)

let test_visited_many_keys () =
  (* 50 000 keys fill ~20 pages: pages split and the directory doubles
     several times, which the ≤ 200-key QCheck never reaches.  Split
     pages are at least 3/8 full, so pages hold at most 8 words an
     entry; the scratch page and the directory add the rest. *)
  let rng = Random.State.make [| 24 |] in
  let keys =
    Array.init 50_000 (fun _ ->
        (Random.State.bits64 rng |> Int64.to_int |> ( land ) max_int,
         Random.State.bits rng))
  in
  let t = visited_against_model ~seed:1 keys in
  checkb "≤ 10 words per entry" true (visited_words t <= 10 * Visited.count t)

let test_visited_shared_prefix () =
  (* Keys sharing their top 40 bits — all ones (the h1_top shape) or
     all zeros, down to one h1 told apart by h2 (h1_same) — agree on
     every bit a split could use: their page must grow rather than
     split, or the directory would double up to the prefix length.
     Random keys alongside still split the pages around them. *)
  let rng = Random.State.make [| 40 |] in
  let low () = Random.State.bits rng land 0x3FFFFF in
  let top = Array.init 5_000 (fun _ -> (max_int lxor low (), Random.State.bits rng)) in
  let same = Array.init 5_000 (fun i -> (42, i)) in
  let any =
    Array.init 5_000 (fun _ ->
        (Random.State.bits64 rng |> Int64.to_int |> ( land ) max_int,
         Random.State.bits rng))
  in
  let keys = Array.concat [ top; same; any ] in
  (* a directory doubled to the depth cap alone would be 2^24 words *)
  let t = visited_against_model ~seed:2 keys in
  checkb "≤ 20 words per entry" true (visited_words t <= 20 * Visited.count t);
  let t = visited_against_model ~seed:3 top in
  checkb "shared prefix alone: one grown page" true
    (visited_words t <= 4 * 3 * 8192)

let test_visited_unused_is_small () =
  (* Every search builds a table; one without [~dedup] never visits
     it, and must not pay for a page. *)
  let t = Visited.create () in
  checkb "nothing found" true (Visited.find t 1 2 = None);
  checkb "≤ 16 words reachable" true (visited_words t <= 16)

let test_dedup_rejected_on_tree_engine () =
  let c = config "binary_ratifier_n2" in
  try
    ignore
      (Por.explore ~engine:`Tree ~max_depth:c.Checks.max_depth ~dedup:true
         ~n:c.Checks.n
         ~setup:(Checks.setup_of c ~n:c.Checks.n)
         ~check:(Checks.check_of c ~n:c.Checks.n)
         ());
    Alcotest.fail "dedup accepted under the tree engine (no state hash there)"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Source-set DPOR cross-check                                         *)
(* ------------------------------------------------------------------ *)

let test_dpor_outcome_sets () =
  List.iter
    (fun c ->
      let s_por, o_por = por c in
      let s_dpor, o_dpor = dpor c in
      checkb (c.Checks.name ^ " dpor exhausts") true s_dpor.Por.exhausted;
      checkb (c.Checks.name ^ " dpor outcome set = sleep-set outcome set")
        true (o_dpor = o_por);
      ignore s_por)
    configs

let test_dpor_vs_naive_outcomes () =
  (* Close the triangle against ground truth where the naive tree is
     affordable. *)
  let compared = ref 0 in
  List.iter
    (fun c ->
      let s_n, o_n = naive ~max_runs:100_000 c in
      if s_n.Naive.exhausted then begin
        incr compared;
        let _, o_d = dpor c in
        checkb (c.Checks.name ^ " dpor outcome set = naive outcome set") true
          (o_d = o_n)
      end)
    configs;
  checkb "the gate left a meaningful sample" true (!compared >= 5)

let test_dpor_reduces_fallback () =
  let c = config "fallback_n2_d28" in
  let s_por, o_por = por c in
  let s_dpor, o_dpor = dpor c in
  checkb "outcome sets equal" true (o_dpor = o_por);
  checkb "dpor explores strictly fewer executions" true
    (Por.explored s_dpor < Por.explored s_por)

(* The reduction itself, pinned: executions, complete, truncated,
   pruned and steps of the source-set search on four configs, so a
   change to how backtrack points are requested or how siblings are
   picked shows as a count, not only (if ever) as an outcome-set
   difference. *)
let dpor_pins =
  [ ("binary_ratifier_n4", (1512, 1512, 0, 49, 9898));
    ("binary_ratifier_n3_f1", (381, 381, 0, 472, 1801));
    ("binary_ratifier_rec_n3_f1", (7111, 7111, 0, 77, 40547));
    ("fallback_n2_d28", (106532, 13426, 93106, 0, 536031)) ]

let test_dpor_counts_pinned () =
  List.iter
    (fun (name, (executions, complete, truncated, pruned, steps)) ->
      let s, _ = dpor (config name) in
      checkb (name ^ " exhausted") true s.Por.exhausted;
      checki (name ^ " executions") executions (Por.explored s);
      checki (name ^ " complete") complete s.Por.complete;
      checki (name ^ " truncated") truncated s.Por.truncated;
      checki (name ^ " pruned") pruned s.Por.pruned;
      checki (name ^ " steps") steps s.Por.steps)
    dpor_pins;
  (* Race and backtrack counters on the crash-closed ratifier, and its
     coverage: every counted leaf lands in the depth profile. *)
  let module T = Conrat_obs.Telemetry in
  let t = T.create ~coverage:true ~domains:1 () in
  let s, _ = dpor ~probe:(T.probe t ~domain:0) (config "binary_ratifier_n3_f1") in
  let totals = T.totals t in
  checki "binary_ratifier_n3_f1 dpor_races" 1267 (T.get totals T.dpor_races);
  checki "binary_ratifier_n3_f1 dpor_backtracks" 158
    (T.get totals T.dpor_backtracks);
  T.finalize t;
  match T.merged_coverage t with
  | None -> Alcotest.fail "coverage probe carries no coverage"
  | Some cov ->
    checki "depth profile = complete + truncated + pruned (381 + 0 + 472)"
      (s.Por.complete + s.Por.truncated + s.Por.pruned)
      (Conrat_obs.Coverage.leaves cov);
    checkb "stage signatures recorded" true (Conrat_obs.Coverage.signatures cov > 0)

(* ------------------------------------------------------------------ *)
(* State-hash soundness                                                *)
(* ------------------------------------------------------------------ *)

let machine_of c =
  let memory, body = Checks.setup_of c ~n:c.Checks.n () in
  Machine.create ~cheap_collect:c.Checks.cheap_collect ~n:c.Checks.n ~memory
    body

(* The dedup key, through the allocation-free buffer API the search
   uses. *)
let hash m =
  let h = [| 0; 0 |] in
  Machine.hash_into m h;
  h

let test_hash_equal_states () =
  let c = config "binary_ratifier_n3" in
  let m1 = machine_of c and m2 = machine_of c in
  checkb "VM machines support hashing" true (Machine.supports_state_hash m1);
  checkb "fresh identical setups hash equal" true
    (hash m1 = hash m2);
  (* Drive both through the same schedule with the same coin stream:
     equal at every prefix. *)
  let r1 = Rng.create 7 and r2 = Rng.create 7 in
  let stepped = ref 0 in
  while Machine.running m1 && !stepped < 50 do
    let en = Machine.enabled m1 in
    let pid = en.(!stepped mod Array.length en) in
    Machine.step_random m1 ~pid ~coin:r1;
    Machine.step_random m2 ~pid ~coin:r2;
    incr stepped;
    checkb "same schedule, same hash" true
      (hash m1 = hash m2)
  done;
  checkb "the walk actually stepped" true (!stepped > 0)

let test_hash_restore_roundtrip () =
  let c = config "binary_ratifier_n3" in
  let m = machine_of c in
  let h0 = hash m in
  let snap = Machine.snapshot m in
  let rng = Rng.create 11 in
  Machine.step_random m ~pid:(Machine.enabled m).(0) ~coin:rng;
  checkb "a step changes the hash" true (hash m <> h0);
  Machine.restore m snap;
  checkb "restore returns the original hash" true (hash m = h0)

let test_hash_perturbation_sensitive () =
  let c = config "binary_ratifier_n3" in
  (* One pc: stepping pid 0 vs stepping pid 1 (both advance one pc;
     their memory effects also differ, which is the point — these are
     semantically distinct states). *)
  let ma = machine_of c and mb = machine_of c in
  let ra = Rng.create 3 and rb = Rng.create 3 in
  Machine.step_random ma ~pid:0 ~coin:ra;
  Machine.step_random mb ~pid:1 ~coin:rb;
  checkb "stepping different pids hashes differently" true
    (hash ma <> hash mb);
  (* One crash bit: crashing is one transition that touches no memory,
     so fresh-vs-crashed and crashed(0)-vs-crashed(1) isolate the
     crashed-set contribution. *)
  let mc = machine_of c and md = machine_of c and me = machine_of c in
  Machine.crash mc ~pid:0;
  Machine.crash md ~pid:1;
  checkb "a crash changes the hash" true
    (hash mc <> hash me);
  checkb "crashing pid 0 differs from crashing pid 1" true
    (hash mc <> hash md)

let qcheck_hash_schedule_deterministic =
  (* Any config, any schedule/coin seed: two machines driven
     identically hash identically at every prefix — the property the
     dedup table's correctness rides on. *)
  let gen =
    QCheck.Gen.(
      triple
        (int_bound (List.length configs - 1))
        (list_size (int_bound 60) (int_bound 11))
        (int_bound 1000))
  in
  let print (i, picks, seed) =
    Printf.sprintf "%s picks=%s seed=%d" (List.nth configs i).Checks.name
      (String.concat "," (List.map string_of_int picks))
      seed
  in
  QCheck.Test.make ~count:150 ~name:"identical schedules hash identically"
    (QCheck.make ~print gen)
    (fun (i, picks, seed) ->
      let c = List.nth configs i in
      let m1 = machine_of c and m2 = machine_of c in
      if not (Machine.supports_state_hash m1) then true
      else begin
        let r1 = Rng.create seed and r2 = Rng.create seed in
        List.for_all
          (fun pick ->
            if not (Machine.running m1) then true
            else begin
              let en = Machine.enabled m1 in
              let pid = en.(pick mod Array.length en) in
              Machine.step_random m1 ~pid ~coin:r1;
              Machine.step_random m2 ~pid ~coin:r2;
              hash m1 = hash m2
            end)
          picks
      end)

(* ------------------------------------------------------------------ *)
(* Telemetry counter totals                                            *)
(* ------------------------------------------------------------------ *)

module Telemetry = Conrat_obs.Telemetry

let por_telemetry ~jobs c =
  let t = Telemetry.create ~domains:(max 1 jobs) () in
  match
    Parallel.explore_por ~jobs ~max_depth:c.Checks.max_depth
      ~max_runs:c.Checks.max_runs ~cheap_collect:c.Checks.cheap_collect
      ~faults:c.Checks.faults ~telemetry:t ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(Checks.check_of c ~n:c.Checks.n)
      ()
  with
  | Ok s -> (s, t)
  | Error (reason, _, _) -> Alcotest.failf "%s violated: %s" c.Checks.name reason

(* The work counters: what the search did, as opposed to how it was
   scheduled (steals, snapshots, refreshes all legitimately vary with
   shard placement).  Dedup stays off here — duplicate suppression
   depends on visit order, which sharding changes. *)
let work_counters =
  [ ("leaves_complete", Telemetry.leaves_complete);
    ("leaves_truncated", Telemetry.leaves_truncated);
    ("leaves_pruned", Telemetry.leaves_pruned);
    ("steps", Telemetry.steps) ]

let test_telemetry_jobs_invariant () =
  List.iter
    (fun name ->
      let c = config name in
      let s1, t1 = por_telemetry ~jobs:1 c in
      let g1 = Telemetry.totals t1 in
      checkb (name ^ " sequential exhausts") true s1.Por.exhausted;
      (* The probe rows must agree with the merged Por.stats exactly. *)
      checki (name ^ " complete counter = stats") s1.Por.complete
        (Telemetry.get g1 Telemetry.leaves_complete);
      checki (name ^ " truncated counter = stats") s1.Por.truncated
        (Telemetry.get g1 Telemetry.leaves_truncated);
      checki (name ^ " pruned counter = stats") s1.Por.pruned
        (Telemetry.get g1 Telemetry.leaves_pruned);
      checki (name ^ " steps counter = stats") s1.Por.steps
        (Telemetry.get g1 Telemetry.steps);
      List.iter
        (fun jobs ->
          let _, tj = por_telemetry ~jobs c in
          let gj = Telemetry.totals tj in
          List.iter
            (fun (cname, ctr) ->
              checki
                (Printf.sprintf "%s jobs=%d %s grand total invariant" name
                   jobs cname)
                (Telemetry.get g1 ctr) (Telemetry.get gj ctr))
            work_counters)
        [ 2; 4 ])
    [ "binary_ratifier_n4"; "conciliator_n2"; "composite_n2" ]

let test_telemetry_domain_merge_is_total () =
  let c = config "binary_ratifier_n4" in
  let _, t = por_telemetry ~jobs:4 c in
  let merged =
    let rec go d acc =
      if d >= Telemetry.domains t then acc
      else
        go (d + 1)
          (Telemetry.merge acc (Telemetry.snapshot_of_domain t ~domain:d))
    in
    go 0 (Telemetry.empty ())
  in
  Alcotest.(check (list (pair string int)))
    "per-domain snapshots merge to the grand total"
    (Telemetry.to_alist (Telemetry.totals t))
    (Telemetry.to_alist merged);
  (* The fleet actually sharded, so the merge folded real rows. *)
  checkb "steals counted" true (Telemetry.get merged Telemetry.steals > 0);
  checki "every steal completed"
    (Telemetry.get merged Telemetry.steals)
    (Telemetry.get merged Telemetry.shards_done)

(* ------------------------------------------------------------------ *)
(* Fleet heartbeat aggregation                                         *)
(* ------------------------------------------------------------------ *)

let test_fleet_heartbeat_totals () =
  (* Workers flush running totals into the shared atomics and report
     them under a mutex; the largest value any heartbeat ever saw must
     be the final fleet total (the last worker's flush happens after
     every other worker already flushed its shards).  Full-stream
     monotonicity is not asserted: the generation passes that precede
     the fleet report their own residue-local counts. *)
  let c = config "binary_ratifier_n4" in
  let seen = ref [] in
  let hb ~runs ~pruned:_ ~steps:_ ~depth:_ = seen := runs :: !seen in
  match
    Parallel.explore_por ~jobs:2 ~max_depth:c.Checks.max_depth
      ~max_runs:c.Checks.max_runs ~cheap_collect:c.Checks.cheap_collect
      ~faults:c.Checks.faults ~heartbeat:hb ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(Checks.check_of c ~n:c.Checks.n)
      ()
  with
  | Error (reason, _, _) -> Alcotest.failf "unexpected violation: %s" reason
  | Ok s ->
    checkb "exhausted" true s.Por.exhausted;
    checkb "heartbeats fired" true (!seen <> []);
    let m = List.fold_left max 0 !seen in
    checki "max heartbeat total = explored + pruned" (Por.explored s + s.Por.pruned)
      m

let test_fleet_shard_records () =
  (* The registry's shard records are the fleet's only event log (the
     fleet trace is rendered from them): one per shard done, each after
     the registry's creation, and a worker's shards back to back in
     time.  A machine sink cannot follow several shards at once. *)
  let c = config "binary_ratifier_n4" in
  let explore ?sink ?telemetry () =
    Parallel.explore_por ~jobs:2 ?sink ?telemetry ~max_depth:c.Checks.max_depth
      ~max_runs:c.Checks.max_runs ~cheap_collect:c.Checks.cheap_collect
      ~faults:c.Checks.faults ~n:c.Checks.n
      ~setup:(Checks.setup_of c ~n:c.Checks.n)
      ~check:(Checks.check_of c ~n:c.Checks.n)
      ()
  in
  (match explore ~sink:Conrat_sim.Sink.null () with
   | _ -> Alcotest.fail "a machine sink was accepted with jobs > 1"
   | exception Invalid_argument _ -> ());
  let t = Telemetry.create ~domains:2 () in
  (match explore ~telemetry:t () with
   | Error (reason, _, _) -> Alcotest.failf "unexpected violation: %s" reason
   | Ok _ -> ());
  let shards = Telemetry.shards t in
  checki "one record per shard done"
    (Telemetry.get (Telemetry.totals t) Telemetry.shards_done)
    (List.length shards);
  checkb "some shards" true (shards <> []);
  List.iter
    (fun d ->
      let track =
        List.sort
          (fun (a : Telemetry.shard) b -> Float.compare a.start b.start)
          (List.filter (fun (sh : Telemetry.shard) -> sh.domain = d) shards)
      in
      ignore
        (List.fold_left
           (fun floor (sh : Telemetry.shard) ->
             (* 1 µs of slack for the float sum of start and seconds. *)
             checkb "starts after the previous shard ends" true (sh.start >= floor -. 1e-6);
             sh.start +. sh.seconds)
           0. track))
    [ 0; 1 ]

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [ ( "jobs_invariance",
        [ tc "por jobs 2/4 vs sequential, all configs" `Quick
            test_por_jobs_invariant;
          tc "jobs exceed frontier" `Quick test_jobs_exceed_frontier ] );
      ( "sharding",
        [ tc "partition exact incl. steps" `Quick test_shard_partition_exact;
          tc "steal mid-shard, resume elsewhere" `Quick
            test_steal_mid_shard_resume ] );
      ( "dedup",
        [ tc "outcome sets preserved" `Quick test_dedup_preserves_outcomes;
          tc "hits on the fallback tree" `Quick test_dedup_bites_on_fallback;
          tc "exact counts on fault configs" `Quick
            test_dedup_exact_fault_configs;
          tc "jobs 2 deterministic" `Quick test_dedup_jobs_deterministic;
          qc qcheck_visited_vs_model;
          tc "visited rejects negative h1" `Quick
            test_visited_rejects_negative_h1;
          tc "visited: 50 000 keys = Hashtbl model" `Quick test_visited_many_keys;
          tc "visited: shared 40-bit prefixes" `Quick test_visited_shared_prefix;
          tc "visited: unused table allocates no page" `Quick
            test_visited_unused_is_small;
          tc "rejected on tree engine" `Quick test_dedup_rejected_on_tree_engine
        ] );
      ( "dpor",
        [ tc "outcome sets = sleep-set engine" `Quick test_dpor_outcome_sets;
          tc "outcome sets = naive ground truth" `Quick
            test_dpor_vs_naive_outcomes;
          tc "strictly fewer executions on fallback" `Quick
            test_dpor_reduces_fallback;
          tc "search counts pinned" `Quick test_dpor_counts_pinned ] );
      ( "state_hash",
        [ tc "equal states hash equal" `Quick test_hash_equal_states;
          tc "snapshot/step/restore round-trip" `Quick
            test_hash_restore_roundtrip;
          tc "perturbations change the hash" `Quick
            test_hash_perturbation_sensitive;
          qc qcheck_hash_schedule_deterministic ] );
      ( "telemetry",
        [ tc "work totals jobs-invariant (jobs 1/2/4)" `Quick
            test_telemetry_jobs_invariant;
          tc "per-domain merge = grand total" `Quick
            test_telemetry_domain_merge_is_total ] );
      ( "fleet",
        [ tc "heartbeat totals aggregate" `Quick test_fleet_heartbeat_totals;
          tc "shard records, no machine sink" `Quick test_fleet_shard_records ]
      ) ]
