(* Tests for the simulator substrate: rng, memory, ops, scheduler,
   adversary views, traces, spec checkers. *)

open Conrat_sim

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 42 in
  let b = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  checkb "streams differ" true !differs

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  checki "copies agree" 0 (Int64.compare (Rng.bits64 a) (Rng.bits64 b))

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  checkb "split differs from parent" true !differs

let test_rng_split_n () =
  let a = Rng.create 9 in
  let streams = Rng.split_n a 8 in
  checki "eight streams" 8 (Array.length streams);
  let firsts = Array.map Rng.bits64 streams in
  let distinct = Array.to_list firsts |> List.sort_uniq compare |> List.length in
  checki "streams distinct" 8 distinct

let test_rng_int_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_bound_one () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    checki "bound 1 gives 0" 0 (Rng.int rng 1)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 20k draws; each bucket within
     25% of the expectation.  Deterministic given the seed. *)
  let rng = Rng.create 123 in
  let buckets = Array.make 10 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = draws / 10 in
  Array.iteri
    (fun i c ->
      if abs (c - expected) > expected / 4 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    buckets

let test_rng_float_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Rng.bernoulli rng 1.0);
    checkb "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_rng_bernoulli_bias () =
  let rng = Rng.create 4 in
  let hits = ref 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.25 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int draws in
  checkb "bias near 0.25" true (p > 0.22 && p < 0.28)

let test_rng_pm1 () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.pm1 rng in
    checkb "pm1 in {-1,1}" true (v = 1 || v = -1)
  done

let test_rng_permutation () =
  let rng = Rng.create 6 in
  let p = Rng.permutation rng 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 20 Fun.id) sorted

let test_rng_shuffle_preserves () =
  let rng = Rng.create 8 in
  let a = Array.init 15 (fun i -> i * i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare b;
  check Alcotest.(array int) "same multiset" a b

let test_rng_exponential_positive () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    checkb "exp > 0" true (Rng.exponential rng 2.0 >= 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 10 in
  let total = ref 0.0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    total := !total +. Rng.exponential rng 2.0
  done;
  let mean = !total /. float_of_int draws in
  checkb "mean near 1/lambda" true (mean > 0.45 && mean < 0.55)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc_initial () =
  let mem = Memory.create () in
  let l = Memory.alloc mem in
  check Alcotest.(option int) "fresh register is bot" None (Memory.read mem l)

let test_memory_alloc_init_value () =
  let mem = Memory.create () in
  let l = Memory.alloc ~init:9 mem in
  check Alcotest.(option int) "initialised register" (Some 9) (Memory.read mem l)

let test_memory_write_read () =
  let mem = Memory.create () in
  let l = Memory.alloc mem in
  Memory.write mem l 5;
  check Alcotest.(option int) "read back" (Some 5) (Memory.read mem l);
  Memory.write mem l (-7);
  check Alcotest.(option int) "overwrite (negative ok)" (Some (-7)) (Memory.read mem l)

let test_memory_growth () =
  let mem = Memory.create () in
  let locs = Array.init 1000 (fun i -> Memory.alloc ~init:i mem) in
  checki "size" 1000 (Memory.size mem);
  Array.iteri
    (fun i l -> check Alcotest.(option int) "contents survive growth" (Some i) (Memory.read mem l))
    locs

let test_memory_alloc_n () =
  let mem = Memory.create () in
  let locs = Memory.alloc_n mem 5 in
  checki "five registers" 5 (Array.length locs);
  check Alcotest.(array int) "consecutive" (Array.init 5 Fun.id) locs

let test_memory_bounds () =
  let mem = Memory.create () in
  ignore (Memory.alloc mem);
  Alcotest.check_raises "read oob"
    (Invalid_argument "Memory: address 3 out of bounds (size 1)")
    (fun () -> ignore (Memory.read mem 3))

(* ⊥, a negative value and 2^24 survive a backup and restore of either
   kind, in the cells, the weak shadows and the writers a recovery wipe
   keys on: the store encodes ⊥ as a sentinel integer, so a value that
   collided with it, or a journal that dropped one, would show here. *)
let test_memory_backup_roundtrip kind () =
  let mem = Memory.create () in
  let r = Memory.alloc_n mem 3 in
  Memory.mark_weak mem r.(0);
  Memory.track_writers mem;
  Memory.set_actor mem 1;
  Memory.write mem r.(1) (-7);
  let view () =
    Array.map (fun l -> (Memory.read mem l, Memory.read_stale mem l)) r
  in
  let backup () =
    match kind with `Delta -> Memory.backup mem | `Full -> Memory.full_backup mem
  in
  let b0 = backup () in
  let v0 = view () in
  Memory.set_actor mem 2;
  Memory.write mem r.(0) (1 lsl 24);
  Memory.write mem r.(0) (-1);
  Memory.write mem r.(1) (1 lsl 24);
  Memory.write mem r.(2) (1 lsl 24);
  ignore (Memory.alloc ~init:(-3) mem : Memory.loc);
  let b1 = backup () in
  let v1 = view () in
  check Alcotest.(option int) "stale view of the weak register" (Some (1 lsl 24))
    (Memory.read_stale mem r.(0));
  Memory.wipe_volatile mem ~pid:2;
  Alcotest.(check (array (option int))) "the wipe leaves ⊥ behind"
    [| None; None; None |] (Array.map (Memory.read mem) r);
  Memory.restore_backup mem b1;
  checkb "views after the wipe is undone" true (view () = v1);
  check Alcotest.int "allocated register kept" 4 (Memory.size mem);
  check Alcotest.(option int) "negative initial contents" (Some (-3)) (Memory.read mem 3);
  Memory.restore_backup mem b0;
  checkb "views after every write is undone" true (view () = v0);
  check Alcotest.int "allocation undone" 3 (Memory.size mem);
  Alcotest.(check (array (option int))) "⊥, -7, ⊥" [| None; Some (-7); None |]
    (Array.map (Memory.read mem) r);
  Memory.wipe_volatile mem ~pid:1;
  Alcotest.(check (array (option int))) "pid 1 owns its write again"
    [| None; None; None |] (Array.map (Memory.read mem) r)

(* Random stores against a plain-array model.  Registers 0, 3, 6, …
   are weak and 1, 5, 9, … persistent; writer tracking is on.  Commands
   (a 10-way tag and three arguments) write, wipe a pid's volatile
   registers, allocate, take a backup (refreshing a dead one in place
   when there is one) or restore a live one — the [k]-th most recent,
   which stays live while every newer one dies, so restores nest in
   LIFO order and repeat.  After every command the store's [read],
   [read_stale] and [size] views equal the model's; a backup's model
   is the deep copy taken with it, and ownership shows through every
   later wipe. *)
type mem_model = {
  m_cells : int option array;
  m_prev : int option array;
  m_writers : int array;
}

let qcheck_memory_journal kind =
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "journal restores deep copies (%s backups)"
         (match kind with `Delta -> "delta" | `Full -> "full"))
    QCheck.(
      list_of_size Gen.(int_range 1 80)
        (quad (int_range 0 9) small_nat small_nat (int_range (-3) 3)))
    (fun cmds ->
      let mem = Memory.create () in
      Memory.track_writers mem;
      let weak l = l mod 3 = 0 and persistent l = l mod 4 = 1 in
      let alloc m init =
        let l = Memory.alloc ?init mem in
        if weak l then Memory.mark_weak mem l;
        if persistent l then Memory.mark_persistent mem l;
        { m_cells = Array.append m.m_cells [| init |];
          m_prev = Array.append m.m_prev [| init |];
          m_writers = Array.append m.m_writers [| -1 |] }
      in
      let store m l c w =
        let m = { m_cells = Array.copy m.m_cells; m_prev = Array.copy m.m_prev;
                  m_writers = Array.copy m.m_writers } in
        if weak l then m.m_prev.(l) <- m.m_cells.(l);
        m.m_cells.(l) <- c;
        m.m_writers.(l) <- w;
        m
      in
      let agrees m =
        Memory.size mem = Array.length m.m_cells
        && List.for_all
             (fun l ->
               Memory.read mem l = m.m_cells.(l) && Memory.read_stale mem l = m.m_prev.(l))
             (List.init (Array.length m.m_cells) Fun.id)
      in
      let empty = { m_cells = [||]; m_prev = [||]; m_writers = [||] } in
      let model = ref (alloc (alloc (alloc empty None) (Some (-7))) None) in
      let live = ref [] and dead = ref [] in
      List.for_all
        (fun (tag, a, b, v) ->
          let m = !model in
          let len = Array.length m.m_cells in
          (if tag <= 4 then begin
             let l = a mod len and v = if b mod 5 = 0 then 1 lsl 24 else v in
             Memory.set_actor mem (b mod 3);
             Memory.write mem l v;
             model := store m l (Some v) (b mod 3)
           end
           else if tag = 5 then begin
             let pid = a mod 3 in
             Memory.wipe_volatile mem ~pid;
             model :=
               List.fold_left
                 (fun m l ->
                   if m.m_writers.(l) = pid && not (persistent l) then store m l None (-1)
                   else m)
                 m (List.init len Fun.id)
           end
           else if tag = 6 then model := alloc m (if a mod 2 = 0 then None else Some v)
           else if tag <= 8 then begin
             let bk =
               match !dead with
               | bk :: rest -> dead := rest; Memory.backup_into mem bk; bk
               | [] ->
                 (match kind with `Delta -> Memory.backup mem | `Full -> Memory.full_backup mem)
             in
             live := (bk, m) :: !live
           end
           else if !live <> [] then begin
             let rec drop k = function
               | x :: (_ :: _ as rest) when k > 0 -> dead := fst x :: !dead; drop (k - 1) rest
               | l -> l
             in
             live := drop (a mod List.length !live) !live;
             let bk, saved = List.hd !live in
             Memory.restore_backup mem bk;
             model := saved
           end);
          agrees !model)
        cmds)

(* ⊥ is stored as [Memory.bot]; the store refuses to hold that value,
   so no write can alias never-written. *)
let test_memory_sentinel_raises () =
  let mem = Memory.create () in
  let r = Memory.alloc mem in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  checkb "write of the sentinel raises" true (raises (fun () -> Memory.write mem r Memory.bot));
  checkb "alloc ~init of the sentinel raises" true
    (raises (fun () -> Memory.alloc ~init:Memory.bot mem));
  check Alcotest.(option int) "register still ⊥" None (Memory.read mem r);
  check Alcotest.int "nothing allocated" 1 (Memory.size mem);
  Memory.write mem r (Memory.bot + 1);
  check Alcotest.(option int) "its neighbour is a value" (Some (Memory.bot + 1))
    (Memory.read mem r)

(* ------------------------------------------------------------------ *)
(* Op descriptors                                                      *)
(* ------------------------------------------------------------------ *)

let test_op_descriptors () =
  let read = Op.Any (Op.Read 3) in
  let write = Op.Any (Op.Write (4, 7)) in
  let pw = Op.Any (Op.Prob_write (5, 8, 0.25)) in
  let pwd = Op.Any (Op.Prob_write_detect (6, 9, 0.5)) in
  let col = Op.Any (Op.Collect (0, 4)) in
  checkb "read kind" true (Op.kind read = Op.Read_op);
  checkb "write kind" true (Op.kind write = Op.Write_op);
  checkb "pw kind" true (Op.kind pw = Op.Prob_write_op);
  checkb "pwd kind" true (Op.kind pwd = Op.Prob_write_op);
  checkb "collect kind" true (Op.kind col = Op.Collect_op);
  checki "read loc" 3 (Op.loc read);
  check Alcotest.(option int) "write value" (Some 7) (Op.value write);
  check Alcotest.(option int) "read value" None (Op.value read);
  check Alcotest.(option (float 1e-9)) "pw prob" (Some 0.25) (Op.prob pw);
  checkb "write is write" true (Op.is_write write);
  checkb "pw is write" true (Op.is_write pw);
  checkb "read not write" false (Op.is_write read);
  checkb "collect not write" false (Op.is_write col)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let run_simple ?(n = 3) ?(adversary = Adversary.round_robin) ?record body =
  let memory = Memory.create () in
  let shared = Memory.alloc_n memory 4 in
  let result =
    Scheduler.run ?record ~n ~adversary ~rng:(Rng.create 11) ~memory
      (fun ~pid ~rng -> body shared ~pid ~rng)
  in
  result

let test_scheduler_runs_all () =
  let result =
    run_simple (fun shared ~pid ~rng:_ ->
      let open Program in
      let* () = write shared.(0) pid in
      return (pid * 10))
  in
  checkb "completed" true result.completed;
  check
    Alcotest.(array (option int))
    "outputs" [| Some 0; Some 10; Some 20 |] result.outputs

let test_scheduler_counts_ops () =
  let result =
    run_simple (fun shared ~pid:_ ~rng:_ ->
      let open Program in
      let* () = write shared.(0) 1 in
      let* _ = read shared.(0) in
      let* _ = read shared.(1) in
      return 0)
  in
  checki "3 procs x 3 ops" 9 (Metrics.total result.metrics);
  checki "individual" 3 (Metrics.individual result.metrics);
  checki "steps equals total" 9 result.steps

let test_scheduler_read_after_write () =
  let result =
    run_simple ~n:1 (fun shared ~pid:_ ~rng:_ ->
      let open Program in
      let* () = write shared.(2) 42 in
      let+ v = read shared.(2) in
      match v with
      | Some v -> v
      | None -> -1)
  in
  check Alcotest.(array (option int)) "read own write" [| Some 42 |] result.outputs

let test_scheduler_prob_write_p1 () =
  let result =
    run_simple ~n:1 (fun shared ~pid:_ ~rng:_ ->
      let open Program in
      let* () = prob_write shared.(0) 5 ~p:1.0 in
      let+ v = read shared.(0) in
      match v with Some v -> v | None -> -1)
  in
  check Alcotest.(array (option int)) "p=1 always lands" [| Some 5 |] result.outputs

let test_scheduler_prob_write_p0 () =
  let result =
    run_simple ~n:1 (fun shared ~pid:_ ~rng:_ ->
      let open Program in
      let* () = prob_write shared.(0) 5 ~p:0.0 in
      let+ v = read shared.(0) in
      match v with Some v -> v | None -> -1)
  in
  check Alcotest.(array (option int)) "p=0 never lands" [| Some (-1) |] result.outputs

let test_scheduler_prob_write_detect () =
  let result =
    run_simple ~n:1 (fun shared ~pid:_ ~rng:_ ->
      let open Program in
      let* landed = prob_write_detect shared.(0) 5 ~p:1.0 in
      let+ missed = prob_write_detect shared.(1) 6 ~p:0.0 in
      (if landed then 1 else 0) + if missed then 10 else 0)
  in
  check Alcotest.(array (option int)) "detection outcomes" [| Some 1 |] result.outputs

let test_scheduler_max_steps () =
  let memory = Memory.create () in
  let r = Memory.alloc memory in
  let result =
    Scheduler.run ~max_steps:50 ~n:2 ~adversary:Adversary.round_robin
      ~rng:(Rng.create 1) ~memory
      (fun ~pid:_ ~rng:_ ->
        let open Program in
        (* Spin forever: r is never written. *)
        let rec loop () =
          let* v = read r in
          match v with None -> loop () | Some v -> return v
        in
        loop ())
  in
  checkb "not completed" false result.completed;
  checki "stopped at cap" 50 result.steps;
  check Alcotest.(array (option int)) "no outputs" [| None; None |] result.outputs

let test_scheduler_collect_disallowed () =
  let memory = Memory.create () in
  let base = Memory.alloc_n memory 3 in
  Alcotest.check_raises "collect needs opt-in" Scheduler.Collect_disallowed (fun () ->
    ignore
      (Scheduler.run ~n:1 ~adversary:Adversary.round_robin ~rng:(Rng.create 1) ~memory
         (fun ~pid:_ ~rng:_ -> Program.map Array.length (Program.collect base.(0) 3))))

let test_scheduler_collect_allowed () =
  let memory = Memory.create () in
  let base = Memory.alloc_n memory 3 in
  Memory.write memory base.(1) 4;
  let result =
    Scheduler.run ~cheap_collect:true ~n:1 ~adversary:Adversary.round_robin
      ~rng:(Rng.create 1) ~memory
      (fun ~pid:_ ~rng:_ ->
        let open Program in
        let+ snap = collect base.(0) 3 in
        match snap with
        | [| None; Some v; None |] -> v
        | _ -> -1)
  in
  check Alcotest.(array (option int)) "collect contents" [| Some 4 |] result.outputs;
  checki "collect costs 1 op" 1 result.steps

let test_scheduler_determinism () =
  let run () =
    let memory = Memory.create () in
    let shared = Memory.alloc_n memory 2 in
    Scheduler.run ~record:true ~n:4 ~adversary:Adversary.random_uniform
      ~rng:(Rng.create 77) ~memory
      (fun ~pid ~rng ->
        let open Program in
        let* () = prob_write shared.(0) pid ~p:0.5 in
        let+ _ = read shared.(0) in
        Rng.int rng 100)
  in
  let a = run () in
  let b = run () in
  check Alcotest.(array (option int)) "same outputs" a.outputs b.outputs;
  (match (a.trace, b.trace) with
   | Some ta, Some tb -> checkb "same trace" true (Trace.equal ta tb)
   | _ -> Alcotest.fail "traces missing")

let test_scheduler_local_rngs_differ () =
  let result =
    run_simple ~n:3 (fun _shared ~pid:_ ~rng -> Program.return (Rng.int rng 1_000_000))
  in
  let vals = Array.to_list result.outputs |> List.filter_map Fun.id in
  checki "three draws" 3 (List.length vals);
  checkb "not all equal" true (List.sort_uniq compare vals |> List.length > 1)

(* ------------------------------------------------------------------ *)
(* Adversaries                                                         *)
(* ------------------------------------------------------------------ *)

let test_round_robin_order () =
  let result =
    run_simple ~record:true (fun shared ~pid ~rng:_ ->
      let open Program in
      let* () = write shared.(0) pid in
      let* () = write shared.(1) pid in
      return 0)
  in
  match result.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
    let pids = List.map (fun e -> e.Trace.pid) (Trace.events t) in
    check Alcotest.(list int) "cyclic order" [ 0; 1; 2; 0; 1; 2 ] pids

let test_fixed_permutation_order () =
  let adversary = Adversary.fixed_permutation ~perm:[| 2; 0; 1 |] () in
  let result =
    run_simple ~adversary ~record:true (fun shared ~pid ~rng:_ ->
      let open Program in
      let* () = write shared.(0) pid in
      return 0)
  in
  match result.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
    let pids = List.map (fun e -> e.Trace.pid) (Trace.events t) in
    check Alcotest.(list int) "permutation order" [ 2; 0; 1 ] pids

let test_priority_runs_highest_first () =
  let adversary = Adversary.priority ~priorities:[| 0; 5; 1 |] () in
  let result =
    run_simple ~adversary ~record:true (fun shared ~pid ~rng:_ ->
      let open Program in
      let* () = write shared.(0) pid in
      return 0)
  in
  match result.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
    let pids = List.map (fun e -> e.Trace.pid) (Trace.events t) in
    check Alcotest.(list int) "priority order" [ 1; 2; 0 ] pids

let test_next_enabled_from () =
  checki "at-or-after" 2 (Adversary.next_enabled_from [| 0; 2 |] 3 1);
  checki "exact" 2 (Adversary.next_enabled_from [| 0; 2 |] 3 2);
  checki "cyclic wrap" 0 (Adversary.next_enabled_from [| 0 |] 3 2)

(* The bool-array rule [Adversary.next_enabled_from] used to apply,
   kept as the oracle for its allocation-free replacement. *)
let next_enabled_from_oracle enabled n start =
  let is_enabled = Array.make n false in
  Array.iter (fun p -> is_enabled.(p) <- true) enabled;
  let rec go i remaining =
    if remaining = 0 then enabled.(0)
    else if is_enabled.(i mod n) then i mod n
    else go (i + 1) (remaining - 1)
  in
  go start n

(* Random non-empty ascending pid sets, starts up to 3n (so both
   [start >= n] and wrap-around past the last enabled pid occur). *)
let qcheck_next_enabled_from_oracle =
  QCheck.Test.make ~name:"next_enabled_from = bool-array oracle" ~count:500
    QCheck.(triple (int_range 1 16) (int_range 0 1_000_000) (int_range 0 47))
    (fun (n, seed, start) ->
      let rng = Rng.create seed in
      let enabled =
        let pids = List.filter (fun _ -> Rng.int rng 3 > 0) (List.init n Fun.id) in
        Array.of_list (if pids = [] then [ Rng.int rng n ] else pids)
      in
      let start = start mod (3 * n) in
      Adversary.next_enabled_from enabled n start
      = next_enabled_from_oracle enabled n start)

let test_write_stalker_prefers_readers () =
  (* p0 wants to write; p1 wants to read.  The stalker must run p1
     first. *)
  let memory = Memory.create () in
  let r = Memory.alloc memory in
  let result =
    Scheduler.run ~record:true ~n:2 ~adversary:Adversary.write_stalker
      ~rng:(Rng.create 3) ~memory
      (fun ~pid ~rng:_ ->
        let open Program in
        if pid = 0 then
          let* () = write r 1 in
          return 0
        else
          let+ v = read r in
          match v with Some _ -> 1 | None -> 0)
  in
  match result.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
    checki "reader first" 1 (Trace.get t 0).Trace.pid;
    (* And the reader therefore saw bot. *)
    check Alcotest.(array (option int)) "outputs" [| Some 0; Some 0 |] result.outputs

let test_all_weak_names_resolve () =
  List.iter
    (fun (a : Adversary.t) -> checkb "has name" true (String.length a.name > 0))
    (Adversary.all_weak ());
  List.iter
    (fun name ->
      let a = Adversary.by_name name in
      check Alcotest.string "by_name roundtrip" name a.Adversary.name)
    [ "round_robin"; "random_uniform"; "fixed_permutation"; "write_stalker";
      "overwrite_attacker"; "adaptive_overwriter"; "noisy"; "priority" ];
  Alcotest.check_raises "unknown adversary" Not_found (fun () ->
    ignore (Adversary.by_name "nonsense"))

(* Value-obliviousness: the stalker's choices cannot depend on the
   values being written, so two programs differing only in written
   values must yield identical schedules. *)
let test_value_oblivious_invariance () =
  let run_with values =
    let memory = Memory.create () in
    let shared = Memory.alloc_n memory 2 in
    let result =
      Scheduler.run ~record:true ~n:2 ~adversary:Adversary.write_stalker
        ~rng:(Rng.create 5) ~memory
        (fun ~pid ~rng:_ ->
          let open Program in
          let* () = write shared.(pid) values.(pid) in
          let* _ = read shared.(1 - pid) in
          let* () = write shared.(pid) (values.(pid) * 3) in
          return 0)
    in
    match result.trace with
    | Some t -> List.map (fun e -> e.Trace.pid) (Trace.events t)
    | None -> []
  in
  check Alcotest.(list int) "schedule invariant under values"
    (run_with [| 1; 2 |]) (run_with [| 100; -5 |])

(* Obliviousness: round_robin's schedule cannot depend on anything but
   step count, including op types. *)
let test_oblivious_invariance () =
  let run_with ~swap =
    let memory = Memory.create () in
    let shared = Memory.alloc_n memory 2 in
    let result =
      Scheduler.run ~record:true ~n:2 ~adversary:Adversary.round_robin
        ~rng:(Rng.create 5) ~memory
        (fun ~pid ~rng:_ ->
          let open Program in
          let* () =
            if swap then map ignore (read shared.(pid)) else write shared.(pid) 1
          in
          let* () = write shared.(pid) 2 in
          return 0)
    in
    match result.trace with
    | Some t -> List.map (fun e -> e.Trace.pid) (Trace.events t)
    | None -> []
  in
  check Alcotest.(list int) "schedule invariant under op kinds"
    (run_with ~swap:false) (run_with ~swap:true)

(* The noisy and priority schedulers are oblivious: their whole pid
   sequence may depend only on the step count and which processes are
   still enabled.  Property: two programs with the same per-process
   operation counts — but arbitrary, independently drawn op kinds,
   locations, values and write probabilities — yield byte-identical
   schedules.  (The rng streams are split per §"Stream layout" in
   Scheduler.run, so protocol coins cannot leak into the adversary.) *)
let qcheck_oblivious_schedule_invariance name make_adversary =
  QCheck.Test.make
    ~name:(name ^ " schedule ignores ops/values/locations")
    ~count:120
    QCheck.(quad (int_range 2 4) (int_range 0 1_000_000) (int_range 0 1_000_000)
              (int_range 0 1_000_000))
    (fun (n, shared_seed, prog_seed_a, prog_seed_b) ->
      (* Op counts come from the shared seed: both programs have the
         same shape, so the enabled sets evolve identically. *)
      let counts =
        let r = Rng.create shared_seed in
        Array.init n (fun _ -> 1 + Rng.int r 5)
      in
      let pid_trace prog_seed =
        let prng = Rng.create prog_seed in
        (* Pre-draw the programs so generation order cannot depend on
           the schedule under test. *)
        let progs =
          Array.init n (fun pid ->
            Array.init counts.(pid) (fun _ ->
              let kind = Rng.int prng 4 in
              let reg = Rng.int prng 3 in
              let value = Rng.int prng 100 in
              let p = 0.1 +. (0.8 *. Rng.float prng) in
              (kind, reg, value, p)))
        in
        let memory = Memory.create () in
        let regs = Memory.alloc_n memory 3 in
        let result =
          Scheduler.run ~record:true ~n ~adversary:(make_adversary ())
            ~rng:(Rng.create shared_seed) ~memory
            (fun ~pid ~rng:_ ->
              let open Program in
              let* () =
                iter_array
                  (fun (kind, reg, value, p) ->
                    match kind with
                    | 0 -> map ignore (read regs.(reg))
                    | 1 -> write regs.(reg) value
                    | 2 -> prob_write regs.(reg) value ~p
                    | _ -> map ignore (prob_write_detect regs.(reg) value ~p))
                  progs.(pid)
              in
              return 0)
        in
        match result.trace with
        | Some t -> List.map (fun e -> e.Trace.pid) (Trace.events t)
        | None -> []
      in
      pid_trace prog_seed_a = pid_trace prog_seed_b)

let qcheck_noisy_invariance =
  qcheck_oblivious_schedule_invariance "noisy" (fun () -> Adversary.noisy ())

let qcheck_priority_invariance =
  qcheck_oblivious_schedule_invariance "priority" (fun () -> Adversary.priority ())

(* ------------------------------------------------------------------ *)
(* Pinned adversary choices                                            *)
(* ------------------------------------------------------------------ *)

(* Every adversary's whole schedule, pinned by digest: each registered
   adversary runs Theorem 7's consensus (and its cheap-collect variant,
   so readers include collects) at n = 3, 12 and 40 — the last two above
   [Machine]'s tabulated enabled sets — with no fault plan, with
   crash:f=2,recover and with weak registers.  The digest covers the
   recorded trace (every pid, op, coin and observed value) and the
   result counters, so any change to a choice, to the enabled-set
   bookkeeping or to the fault plumbing shows here.  The expected
   digests come from the scheduler that rescanned every pending
   operation at every step, so they pin the incremental one to it. *)
let pin_plans = [ "none"; "crash:f=2,recover"; "weak" ]

let pin_run ~adversary ~cheap ~n ~plan ~seed =
  let memory = Memory.create () in
  let model =
    match Fault.of_string plan with Ok m -> m | Error e -> Alcotest.fail e
  in
  if model.Fault.weak_reads then Memory.weaken_all memory;
  if model.Fault.recoveries > 0 then Memory.track_writers memory;
  let faults =
    if Fault.is_none model then None else Some (Conrat_faults.Injector.of_model model)
  in
  let protocol =
    if cheap then Conrat_core.Consensus.standard_cheap_collect ~m:2
    else Conrat_core.Consensus.standard ~m:2
  in
  let instance = protocol.Conrat_core.Consensus.instantiate ~n memory in
  let result =
    Scheduler.run ~record:true ~cheap_collect:cheap ?faults ~n
      ~adversary:(Adversary.by_name adversary) ~rng:(Rng.create seed) ~memory
      (fun ~pid ~rng -> instance.Conrat_core.Consensus.decide ~pid ~rng (pid land 1))
  in
  let trace =
    match result.trace with Some t -> Sexp.to_string (Trace.to_sexp t) | None -> ""
  in
  Printf.sprintf "%s|%d|%d|%d|%b|%s" trace result.steps result.recoveries
    result.plan_ignored result.completed
    (String.concat ","
       (Array.to_list
          (Array.map (function Some v -> string_of_int v | None -> "-") result.outputs)))

let pin_digest adversary =
  let parts =
    List.concat_map
      (fun cheap ->
        List.concat_map
          (fun n ->
            List.mapi
              (fun i plan ->
                pin_run ~adversary ~cheap ~n ~plan ~seed:((n * 31) + (i * 7) + Bool.to_int cheap))
              pin_plans)
          [ 3; 12; 40 ])
      [ false; true ]
  in
  Digest.to_hex (Digest.string (String.concat "\n" parts))

let expected_pin_digests =
  [ ("round_robin", "dbedfd61ba1f5a16258b087161cd8f0e");
    ("random_uniform", "c991caf1da2601d4bfbf225ff1c38bfd");
    ("fixed_permutation", "9560e2c0a8d50c914a84f6bbaba0c842");
    ("write_stalker", "f30e2974e259d32038d60f286b323d3a");
    ("overwrite_attacker", "36e327a85b2af54a6ff5d15120902b89");
    ("adaptive_overwriter", "c0475e623d9bd44a1494479a0ea5a9bd");
    ("noisy", "48c2771e7fdefc9c668e05277892fd51");
    ("priority", "b8c3f285d5126dbbc9f259b3269ca6a0") ]

let test_adversary_choices_pinned () =
  List.iter
    (fun (name, want) ->
      check Alcotest.string (name ^ " schedule digest") want (pin_digest name))
    expected_pin_digests

(* The scheduler's incremental bookkeeping — the machine's enabled set,
   updated for one pid per transition, and the view's reader index —
   must always equal what a full scan of the pending operations gives.
   Bodies are random straight-line programs over four registers mixing
   reads, writes, probabilistic writes and two-register collects; the
   sizes include two above the machine's tabulated enabled sets. *)
let random_ops rng n =
  Array.init n (fun _ ->
    Array.init (1 + Rng.int rng 6) (fun _ -> (Rng.int rng 4, Rng.int rng 3, Rng.int rng 50)))

let body_of ops regs =
  let open Program in
  let* () =
    iter_array
      (fun (kind, reg, value) ->
        match kind with
        | 0 -> map ignore (read regs.(reg))
        | 1 -> write regs.(reg) value
        | 2 -> prob_write regs.(reg) value ~p:0.5
        | _ -> map ignore (collect regs.(reg) 2))
      ops
  in
  return 0

let incremental_sizes = QCheck.oneofl [ 4; 11; 24 ]

(* A random walk of steps, crashes, recoveries, snapshots and restores
   on a bare machine, checking the enabled set after every transition. *)
let qcheck_enabled_set_incremental =
  QCheck.Test.make ~name:"enabled set = scan of pending ops" ~count:150
    QCheck.(triple incremental_sizes bool (int_range 0 1_000_000))
    (fun (n, vm, seed) ->
      let rng = Rng.create seed in
      let memory = Memory.create () in
      let regs = Memory.alloc_n memory 4 in
      Memory.track_writers memory;
      let ops = random_ops rng n in
      let m =
        Machine.create ~engine:(if vm then `Vm else `Tree) ~cheap_collect:true ~n ~memory
          (fun ~pid -> body_of ops.(pid) regs)
      in
      let pick a = a.(Rng.int rng (Array.length a)) in
      let agrees () =
        Array.to_list (Machine.enabled m)
        = List.filter (fun pid -> Option.is_some (Machine.pending_op m pid)) (List.init n Fun.id)
      in
      let snap = ref None in
      let ok = ref (agrees ()) and budget = ref 300 in
      while !ok && !budget > 0 do
        decr budget;
        let enabled = Machine.enabled m and down = Machine.crashed_pids m in
        (match Rng.int rng 6 with
         | (0 | 1 | 2) when Array.length enabled > 0 ->
           Machine.step_random m ~pid:(pick enabled) ~coin:rng
         | 3 when Array.length enabled > 0 -> Machine.crash m ~pid:(pick enabled)
         | 4 when Array.length down > 0 -> Machine.recover m ~pid:(pick down)
         | 5 ->
           (match !snap with
            | Some s when Rng.bool rng -> Machine.restore m s
            | _ -> snap := Some (Machine.snapshot m))
         | _ -> ());
        ok := agrees ()
      done;
      !ok)

(* [write_stalker] behind a checker that compares the reader index
   with a scan of the enabled pids at every choice, under each fault
   plan (with rates raised so crashes and recoveries happen often). *)
let qcheck_reader_index_incremental =
  QCheck.Test.make ~name:"reader index = scan of enabled pids" ~count:150
    QCheck.(triple incremental_sizes (oneofl pin_plans) (int_range 0 1_000_000))
    (fun (n, plan, seed) ->
      let rng = Rng.create seed in
      let memory = Memory.create () in
      let regs = Memory.alloc_n memory 4 in
      let model = Result.get_ok (Fault.of_string plan) in
      if model.Fault.weak_reads then Memory.weaken_all memory;
      if model.Fault.recoveries > 0 then Memory.track_writers memory;
      let faults =
        if Fault.is_none model then None
        else
          Some (Conrat_faults.Injector.of_model ~crash_rate:0.2 ~recover_rate:0.3 model)
      in
      let ops = random_ops rng n in
      let mismatches = ref 0 and choices = ref 0 in
      let checking =
        Adversary.adaptive "checking_write_stalker" (fun ~n rng ->
          let stalk = Adversary.write_stalker.Adversary.fresh ~n rng in
          fun (v : View.full) ->
            let vo = View.to_value_oblivious v in
            let is_reader pid =
              match v.pending.(pid) with
              | Some any -> Op.kind any = Op.Read_op || Op.kind any = Op.Collect_op
              | None -> false
            in
            let scan = Array.fold_left (fun k pid -> if is_reader pid then k + 1 else k) 0 v.enabled in
            if scan <> View.vo_readers vo then incr mismatches;
            for pid = 0 to n - 1 do
              if is_reader pid <> View.vo_is_reader vo pid then incr mismatches
            done;
            incr choices;
            stalk v)
      in
      let result =
        Scheduler.run ~cheap_collect:true ?faults ~n ~adversary:checking ~rng ~memory
          (fun ~pid ~rng:_ -> body_of ops.(pid) regs)
      in
      result.completed && !choices = result.steps && !mismatches = 0)

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let make_full_view () =
  let memory = Memory.create () in
  let l = Memory.alloc memory in
  Memory.write memory l 9;
  { View.step = 3;
    n = 2;
    enabled = [| 0; 1 |];
    pending =
      [| Some (Op.Any (Op.Prob_write (l, 7, 0.5))); Some (Op.Any (Op.Read l)) |];
    reading = [| false; true |];
    readers = 1;
    memory;
    op_counts = Metrics.counts_of_array [| 2; 1 |] }

let test_view_oblivious_projection () =
  let v = View.to_oblivious (make_full_view ()) in
  checki "step" 3 (View.ob_step v);
  checki "n" 2 (View.ob_n v);
  check Alcotest.(array int) "enabled" [| 0; 1 |] (View.ob_enabled v)

(* Hidden fields have no accessor, so "value hidden" is checked by the
   type checker; the visible ones are checked here. *)
let test_view_value_oblivious_masks_values () =
  let v = View.to_value_oblivious (make_full_view ()) in
  checki "loc visible" 0 (View.vo_loc v 0);
  checkb "kind visible" true (View.vo_kind v 0 = Op.Prob_write_op)

let test_view_location_oblivious_masks_locs () =
  let v = View.to_location_oblivious (make_full_view ()) in
  checki "value visible" 7 (View.lo_value v 0);
  check (Alcotest.float 1e-9) "prob visible" 0.5 (View.lo_prob v 0);
  check Alcotest.(array (option int)) "contents visible" [| Some 9 |]
    (Array.init (View.lo_registers v) (View.lo_cell v))

(* Location-obliviousness: overwrite_attacker sees register contents
   and pending write values but not which register a write targets, so
   two programs that differ only in the order their registers were
   allocated must yield identical schedules. *)
let test_location_oblivious_invariance () =
  let run_with ~swap seed =
    let memory = Memory.create () in
    let regs = Memory.alloc_n memory 2 in
    let a, b = if swap then (regs.(1), regs.(0)) else (regs.(0), regs.(1)) in
    let result =
      Scheduler.run ~record:true ~n:3 ~adversary:Adversary.overwrite_attacker
        ~rng:(Rng.create seed) ~memory
        (fun ~pid ~rng:_ ->
          let open Program in
          let* () =
            match pid with
            | 0 ->
              let* () = prob_write a 1 ~p:0.5 in
              let* _ = read b in
              write b 1
            | 1 ->
              let* () = write a 2 in
              let* () = prob_write b 2 ~p:0.9 in
              map ignore (read a)
            | _ ->
              let* _ = read a in
              let* _ = prob_write_detect b 3 ~p:0.3 in
              write a 3
          in
          return 0)
    in
    match result.trace with
    | Some t -> List.map (fun e -> e.Trace.pid) (Trace.events t)
    | None -> []
  in
  for seed = 0 to 19 do
    check Alcotest.(list int) "schedule invariant under register order"
      (run_with ~swap:false seed) (run_with ~swap:true seed)
  done

(* ------------------------------------------------------------------ *)
(* Spec checkers                                                       *)
(* ------------------------------------------------------------------ *)

let ok = Alcotest.(check (result unit string))

let test_spec_validity () =
  ok "valid" (Ok ())
    (Spec.validity ~inputs:[| 1; 2 |] ~outputs:[| Some 2; Some 1 |]);
  checkb "invalid detected" true
    (Result.is_error (Spec.validity ~inputs:[| 1; 2 |] ~outputs:[| Some 3; Some 1 |]));
  ok "unfinished ignored" (Ok ())
    (Spec.validity ~inputs:[| 1; 2 |] ~outputs:[| None; Some 1 |])

let test_spec_agreement () =
  ok "agree" (Ok ()) (Spec.agreement ~outputs:[| Some 5; Some 5; None |]);
  checkb "disagree detected" true
    (Result.is_error (Spec.agreement ~outputs:[| Some 5; Some 6 |]));
  ok "vacuous" (Ok ()) (Spec.agreement ~outputs:[| None; None |])

let test_spec_coherence () =
  ok "decider binds" (Ok ())
    (Spec.coherence ~outputs:[| Some (true, 3); Some (false, 3) |]);
  checkb "conflicting non-decider" true
    (Result.is_error (Spec.coherence ~outputs:[| Some (true, 3); Some (false, 4) |]));
  checkb "two deciders disagreeing" true
    (Result.is_error (Spec.coherence ~outputs:[| Some (true, 3); Some (true, 4) |]));
  ok "no decider, anything goes" (Ok ())
    (Spec.coherence ~outputs:[| Some (false, 1); Some (false, 2) |])

let test_spec_acceptance () =
  ok "all same, all decide" (Ok ())
    (Spec.acceptance ~inputs:[| 7; 7 |] ~outputs:[| Some (true, 7); Some (true, 7) |]);
  checkb "non-decider on agreeing inputs" true
    (Result.is_error
       (Spec.acceptance ~inputs:[| 7; 7 |] ~outputs:[| Some (true, 7); Some (false, 7) |]));
  checkb "unfinished on agreeing inputs" true
    (Result.is_error (Spec.acceptance ~inputs:[| 7; 7 |] ~outputs:[| Some (true, 7); None |]));
  ok "mixed inputs vacuous" (Ok ())
    (Spec.acceptance ~inputs:[| 7; 8 |] ~outputs:[| Some (false, 9); None |])

let test_spec_consensus_execution () =
  ok "good run" (Ok ())
    (Spec.consensus_execution ~inputs:[| 0; 1 |] ~outputs:[| Some 1; Some 1 |] ~completed:true);
  checkb "incomplete is termination failure" true
    (Result.is_error
       (Spec.consensus_execution ~inputs:[| 0; 1 |] ~outputs:[| Some 1; None |] ~completed:false))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let t = Trace.create () in
  for i = 0 to 99 do
    Trace.add t
      { Trace.step = i; pid = i mod 3; op = Some (Op.Any (Op.Read i)); landed = false; observed = Some i }
  done;
  checki "length" 100 (Trace.length t);
  checki "get step" 42 (Trace.get t 42).Trace.step;
  checki "events order" 99 (List.nth (Trace.events t) 99).Trace.step

let test_trace_equal () =
  let mk () =
    let t = Trace.create () in
    Trace.add t { Trace.step = 0; pid = 1; op = Some (Op.Any (Op.Write (0, 3))); landed = true; observed = None };
    t
  in
  checkb "equal" true (Trace.equal (mk ()) (mk ()));
  let t2 = mk () in
  Trace.add t2 { Trace.step = 1; pid = 0; op = Some (Op.Any (Op.Read 0)); landed = false; observed = None };
  checkb "different lengths" false (Trace.equal (mk ()) t2)

(* ------------------------------------------------------------------ *)

let qcheck_scheduler_all_finish =
  QCheck.Test.make ~name:"scheduler finishes wait-free straight-line code" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (n, seed) ->
      let memory = Memory.create () in
      let shared = Memory.alloc_n memory 4 in
      let result =
        Scheduler.run ~n ~adversary:Adversary.random_uniform ~rng:(Rng.create seed) ~memory
          (fun ~pid ~rng:_ ->
            let open Program in
            let* () = write shared.(pid mod 4) pid in
            let* _ = read shared.((pid + 1) mod 4) in
            return pid)
      in
      result.completed
      && Array.for_all Option.is_some result.outputs
      && Metrics.total result.metrics = 2 * n)

let qcheck_prob_write_never_other_value =
  QCheck.Test.make ~name:"prob writes only ever store the written value" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let memory = Memory.create () in
      let r = Memory.alloc memory in
      let result =
        Scheduler.run ~n:4 ~adversary:Adversary.random_uniform ~rng:(Rng.create seed) ~memory
          (fun ~pid ~rng:_ ->
            let open Program in
            let* () = prob_write r (100 + pid) ~p:0.5 in
            let+ v = read r in
            match v with Some v -> v | None -> -1)
      in
      Array.for_all
        (function
          | Some v -> v = -1 || (v >= 100 && v < 104)
          | None -> false)
        result.outputs)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sim"
    [ ( "rng",
        [ tc "determinism" `Quick test_rng_determinism;
          tc "seed sensitivity" `Quick test_rng_seed_sensitivity;
          tc "copy" `Quick test_rng_copy;
          tc "split independence" `Quick test_rng_split_independent;
          tc "split_n" `Quick test_rng_split_n;
          tc "int range" `Quick test_rng_int_range;
          tc "int bound one" `Quick test_rng_int_bound_one;
          tc "int invalid" `Quick test_rng_int_invalid;
          tc "int_in range" `Quick test_rng_int_in;
          tc "int uniformity" `Quick test_rng_int_uniformity;
          tc "float range" `Quick test_rng_float_range;
          tc "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          tc "bernoulli bias" `Quick test_rng_bernoulli_bias;
          tc "pm1" `Quick test_rng_pm1;
          tc "permutation" `Quick test_rng_permutation;
          tc "shuffle preserves" `Quick test_rng_shuffle_preserves;
          tc "exponential positive" `Quick test_rng_exponential_positive;
          tc "exponential mean" `Quick test_rng_exponential_mean ] );
      ( "memory",
        [ tc "alloc initial" `Quick test_memory_alloc_initial;
          tc "alloc init value" `Quick test_memory_alloc_init_value;
          tc "write read" `Quick test_memory_write_read;
          tc "growth" `Quick test_memory_growth;
          tc "alloc_n" `Quick test_memory_alloc_n;
          tc "bounds" `Quick test_memory_bounds;
          tc "values through delta backups" `Quick (test_memory_backup_roundtrip `Delta);
          tc "values through full backups" `Quick (test_memory_backup_roundtrip `Full);
          QCheck_alcotest.to_alcotest (qcheck_memory_journal `Delta);
          QCheck_alcotest.to_alcotest (qcheck_memory_journal `Full);
          tc "sentinel write raises" `Quick test_memory_sentinel_raises ] );
      ("op", [ tc "descriptors" `Quick test_op_descriptors ]);
      ( "scheduler",
        [ tc "runs all" `Quick test_scheduler_runs_all;
          tc "counts ops" `Quick test_scheduler_counts_ops;
          tc "read after write" `Quick test_scheduler_read_after_write;
          tc "prob write p=1" `Quick test_scheduler_prob_write_p1;
          tc "prob write p=0" `Quick test_scheduler_prob_write_p0;
          tc "prob write detect" `Quick test_scheduler_prob_write_detect;
          tc "max steps cap" `Quick test_scheduler_max_steps;
          tc "collect disallowed" `Quick test_scheduler_collect_disallowed;
          tc "collect allowed" `Quick test_scheduler_collect_allowed;
          tc "determinism" `Quick test_scheduler_determinism;
          tc "local rngs differ" `Quick test_scheduler_local_rngs_differ;
          QCheck_alcotest.to_alcotest qcheck_scheduler_all_finish;
          QCheck_alcotest.to_alcotest qcheck_prob_write_never_other_value;
          tc "adversary choices pinned" `Quick test_adversary_choices_pinned;
          QCheck_alcotest.to_alcotest qcheck_enabled_set_incremental;
          QCheck_alcotest.to_alcotest qcheck_reader_index_incremental ] );
      ( "adversary",
        [ tc "round robin order" `Quick test_round_robin_order;
          tc "fixed permutation order" `Quick test_fixed_permutation_order;
          tc "priority order" `Quick test_priority_runs_highest_first;
          tc "next_enabled_from" `Quick test_next_enabled_from;
          QCheck_alcotest.to_alcotest qcheck_next_enabled_from_oracle;
          tc "write stalker prefers readers" `Quick test_write_stalker_prefers_readers;
          tc "names resolve" `Quick test_all_weak_names_resolve;
          tc "value-oblivious invariance" `Quick test_value_oblivious_invariance;
          tc "oblivious invariance" `Quick test_oblivious_invariance;
          QCheck_alcotest.to_alcotest qcheck_noisy_invariance;
          QCheck_alcotest.to_alcotest qcheck_priority_invariance ] );
      ( "view",
        [ tc "oblivious projection" `Quick test_view_oblivious_projection;
          tc "value-oblivious masks values" `Quick test_view_value_oblivious_masks_values;
          tc "location-oblivious masks locs" `Quick test_view_location_oblivious_masks_locs;
          tc "location-oblivious invariance" `Quick test_location_oblivious_invariance ] );
      ( "spec",
        [ tc "validity" `Quick test_spec_validity;
          tc "agreement" `Quick test_spec_agreement;
          tc "coherence" `Quick test_spec_coherence;
          tc "acceptance" `Quick test_spec_acceptance;
          tc "consensus execution" `Quick test_spec_consensus_execution ] );
      ( "trace",
        [ tc "roundtrip" `Quick test_trace_roundtrip;
          tc "equal" `Quick test_trace_equal ] ) ]
