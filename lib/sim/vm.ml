(* The register-file VM: per-process program counters over a lazily
   compiled {!Code} store.  All interpretation lives in [Code.step];
   this module owns the mutable execution state (the pc file) and its
   O(n)-integers snapshots — the delta-friendly counterpart of the
   tree interpreter's program-array copies. *)

type 'r t = {
  code : 'r Code.t;
  cheap_collect : bool;
  pcs : int array;
}

let create ?(cheap_collect = false) ~n ~memory body =
  let code = Code.compile ~memory ~n body in
  { code; cheap_collect; pcs = Array.init n (fun pid -> Code.root code pid) }

let exec t ~pid ~landed =
  t.pcs.(pid) <-
    Code.step t.code ~cheap_collect:t.cheap_collect ~pc:t.pcs.(pid) ~landed;
  Code.last_observed t.code

(* Crash-recovery re-entry: place the pc at the recover continuation
   (or back at the root without one).  The façade owns the surrounding
   wipe/enabled/trace bookkeeping. *)
let reenter t ~pid = t.pcs.(pid) <- Code.rec_root t.code pid

let pending t pid = Code.pending t.code t.pcs.(pid)
let stage t pid = Code.stage t.code t.pcs.(pid)
let result t pid = Code.result t.code t.pcs.(pid)
let coin_class t pid = Code.coin_class t.code t.pcs.(pid)
let code_size t = Code.size t.code

(* Fold the pc file into the two duplicate-detection accumulators (see
   {!Memory.hash_fold}): a pc is the whole per-process program state,
   interned per continuation, so equal pc files mean equal pending
   operations, stages and results. *)
let hash_fold t (h : int array) =
  let h1 = ref h.(0) and h2 = ref h.(1) in
  for pid = 0 to Array.length t.pcs - 1 do
    let pc = t.pcs.(pid) in
    h1 := Memory.mix1 !h1 pc;
    h2 := Memory.mix2 !h2 pc
  done;
  h.(0) <- !h1;
  h.(1) <- !h2

(* Snapshots copy the pc file with typed loops, not [Array.blit], which
   stores through [caml_modify] into a major-heap destination. *)
type snapshot = int array

let snapshot t = Array.copy t.pcs

let snapshot_into t (s : snapshot) =
  for pid = 0 to Array.length s - 1 do
    s.(pid) <- t.pcs.(pid)
  done

let restore_pid t (s : snapshot) pid =
  let pc = s.(pid) in
  pc <> t.pcs.(pid)
  && begin
       t.pcs.(pid) <- pc;
       true
     end
