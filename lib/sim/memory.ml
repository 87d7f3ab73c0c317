type loc = int

(* [prev] shadows [cells] on *weak* registers only: prev.(i) is what
   cells.(i) held before the most recent write, i.e. the value a
   regular-register read concurrent with that write is allowed to
   return.  [weak] marks the registers on which a driver may actually
   deliver such stale reads; the flag is configuration (set at
   allocation time), not execution state, so the shadow is maintained
   for exactly the registers where it is observable.

   Backtracking goes through one undo journal.  Once the first {!backup}
   is taken ([journaling] flips on and stays on), every cell store —
   a write or a recovery wipe — pushes one entry: the register, its
   overwritten contents, its overwritten writer (while tracking) and
   its overwritten shadow (when the register is weak).  A backup
   records only the journal length and the store length, and a restore
   pops entries back in LIFO order.  Backtracking thus costs O(writes
   undone) — the delta — instead of O(|memory|), and executions that
   never back up (the Monte Carlo scheduler) never journal at all.

   Every array that a write, a journal push or a restore stores into
   holds immediate integers: a cell is its value, or [bot] (min_int)
   for ⊥.  OCaml stores into an [int array] without the write barrier,
   so the explorers' step, backup and restore paths never call
   [caml_modify] here and never box a value; [read]/[read_stale] build
   the [int option] only at the API edge.  [bot] itself can never be
   written (see [write]), so the encoding is exact. *)
let bot = min_int

type t = {
  mutable cells : int array;
  mutable prev : int array;
  mutable weak : bool array;
  (* Crash-recovery plane: [persistent] marks registers that survive
     the owner's crash (configuration, like [weak]); [writers] records
     the pid that last wrote each register (-1 = never written), the
     dynamic ownership a recovery wipe keys on; both are maintained only
     while [track_writers] is on, so the recovery-free write path pays
     exactly one predictable branch. *)
  mutable persistent : bool array;
  mutable writers : int array;
  mutable track_writers : bool;
  (* The pid about to perform the next operation — stashed by the
     machine (when tracking) so [write] can record ownership without
     threading a pid through every op-execution path. *)
  mutable actor : int;
  mutable len : int;
  mutable weak_default : bool;
  (* Fast path: true iff any register is (or may become, via
     [weak_default]) weak.  While false, a write's shadow check is a
     single predictable branch, keeping the atomic model's per-step
     cost identical to a build without the fault plane. *)
  mutable has_weak : bool;
  (* The undo journal, one entry per cell store once a backup exists:
     [undo_locs]/[undo_cells] always, [undo_writers] only while
     tracking and [undo_prevs] only on weak registers, so an atomic,
     untracked search touches two arrays per write.  An entry that
     carries a shadow stores its register as [lnot loc] (negative), so
     undoing it needs no weakness test. *)
  mutable journaling : bool;
  mutable undo_locs : int array;
  mutable undo_cells : int array;
  mutable undo_writers : int array;
  mutable undo_prevs : int array;
  mutable undo_len : int;
}

let create () =
  { cells = Array.make 16 bot;
    prev = Array.make 16 bot;
    weak = Array.make 16 false;
    persistent = Array.make 16 false;
    writers = Array.make 16 (-1);
    track_writers = false;
    actor = -1;
    len = 0;
    weak_default = false;
    has_weak = false;
    (* The journal is allocated by its first push: a store that never
       backs up (a Monte-Carlo trial's) never pays for it. *)
    journaling = false;
    undo_locs = [||];
    undo_cells = [||];
    undo_writers = [||];
    undo_prevs = [||];
    undo_len = 0 }

(* [Array.blit] cannot tell an [int array] from a pointer array, so
   into a major-heap destination it stores each element through
   [caml_modify]; this typed loop compiles to plain stores. *)
let blit_ints (src : int array) (dst : int array) len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let sub_ints (src : int array) len =
  let dst = Array.make len 0 in
  blit_ints src dst len;
  dst

let grow_ints (a : int array) cap len fill =
  let b = Array.make cap fill in
  blit_ints a b len;
  b

let ensure_capacity t needed =
  if needed > Array.length t.cells then begin
    let cap = max needed (2 * Array.length t.cells) in
    let weak = Array.make cap false in
    let persistent = Array.make cap false in
    Array.blit t.weak 0 weak 0 t.len;
    Array.blit t.persistent 0 persistent 0 t.len;
    t.cells <- grow_ints t.cells cap t.len bot;
    t.prev <- grow_ints t.prev cap t.len bot;
    t.weak <- weak;
    t.persistent <- persistent;
    t.writers <- grow_ints t.writers cap t.len (-1)
  end

(* A value to store: anything but the sentinel. *)
let value v =
  if v = bot then invalid_arg "Memory: min_int encodes ⊥ and cannot be stored";
  v

let decode c = if c = bot then None else Some c

let alloc ?init t =
  let c = match init with None -> bot | Some v -> value v in
  ensure_capacity t (t.len + 1);
  let loc = t.len in
  t.cells.(loc) <- c;
  (* A register that has never been written has no older value to
     return: its stale view is its initial contents. *)
  t.prev.(loc) <- c;
  t.weak.(loc) <- t.weak_default;
  t.persistent.(loc) <- false;
  t.writers.(loc) <- -1;
  t.len <- t.len + 1;
  loc

let alloc_n ?init t k =
  Array.init k (fun _ -> alloc ?init t)

let check t loc =
  if loc < 0 || loc >= t.len then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds (size %d)" loc t.len)

let cell t loc =
  check t loc;
  t.cells.(loc)

let stale_cell t loc =
  check t loc;
  t.prev.(loc)

let read t loc = decode (cell t loc)
let read_stale t loc = decode (stale_cell t loc)

(* Journal everything a store to [loc] is about to overwrite. *)
let journal_push t loc weak =
  let n = t.undo_len in
  if n = Array.length t.undo_locs then begin
    let cap = max 16 (2 * n) in
    t.undo_locs <- grow_ints t.undo_locs cap n 0;
    t.undo_cells <- grow_ints t.undo_cells cap n bot;
    t.undo_writers <- grow_ints t.undo_writers cap n (-1);
    t.undo_prevs <- grow_ints t.undo_prevs cap n bot
  end;
  if weak then begin
    t.undo_locs.(n) <- lnot loc;
    t.undo_prevs.(n) <- t.prev.(loc)
  end
  else t.undo_locs.(n) <- loc;
  t.undo_cells.(n) <- t.cells.(loc);
  if t.track_writers then t.undo_writers.(n) <- t.writers.(loc);
  t.undo_len <- n + 1

(* Store cell contents [c] (a value or [bot]) through the journal: the
   write path and the recovery wipe share it. *)
let set_cell t loc c =
  let weak = t.has_weak && t.weak.(loc) in
  if t.journaling then journal_push t loc weak;
  if weak then t.prev.(loc) <- t.cells.(loc);
  t.cells.(loc) <- c

let write t loc v =
  check t loc;
  set_cell t loc (value v);
  if t.track_writers then t.writers.(loc) <- t.actor

(* Weakness is configuration: [mark_weak]/[weaken_all] are meant to run
   at setup time, before any exploration branches.  Syncing the shadow
   on marking makes a later marking safe too (the stale view collapses
   to the current contents rather than exposing an unmaintained one). *)
let mark_weak t loc =
  check t loc;
  if not t.weak.(loc) then begin
    t.prev.(loc) <- t.cells.(loc);
    t.weak.(loc) <- true
  end;
  t.has_weak <- true

let is_weak t loc =
  t.has_weak
  && begin
       check t loc;
       t.weak.(loc)
     end

(* Bench/test hook: force the weak-register conditionals onto their
   deepest disabled-path evaluation (every write tests its register's
   weakness, every full backup copies the shadows) without weakening
   any register, so observable behaviour — and the explored tree — is
   exactly the atomic model.  The "engaged but inert" arm of the
   fault-plane overhead gate (bench/gates.ml), mirroring what
   [Sink.null] is to the observability gate. *)
let engage_shadow t = t.has_weak <- true

(* Persistence is configuration, exactly like weakness: set at
   allocation/setup time, identical across all states of one
   exploration, never undone by backtracking. *)
let mark_persistent t loc =
  check t loc;
  t.persistent.(loc) <- true

(* Engage last-writer tracking — the recovery plane's analogue of
   [engage_shadow]: flipped on at setup time by drivers whose fault
   model has a recovery budget (and by the overhead bench's
   engaged-but-inert arm).  Never flips back off: a store that tracked
   and then stopped would carry half-maintained ownership. *)
let track_writers t = t.track_writers <- true

let tracking t = t.track_writers

let set_actor t pid = t.actor <- pid

(* Crash-recovery wipe: every volatile register last written by [pid]
   reverts to never-written.  Each wiped cell goes through the same
   journal entry as a write (contents, weak shadow, writer), so
   backtracking over a recovery restores the pre-wipe
   state exactly.  Requires tracking — without ownership there is
   nothing sound to wipe. *)
let wipe_volatile t ~pid =
  if not t.track_writers then
    invalid_arg "Memory.wipe_volatile: writer tracking not engaged";
  for loc = 0 to t.len - 1 do
    if t.writers.(loc) = pid && not t.persistent.(loc) then begin
      set_cell t loc bot;
      t.writers.(loc) <- -1
    end
  done

let weaken_all t =
  for i = 0 to t.len - 1 do
    if not t.weak.(i) then begin
      t.prev.(i) <- t.cells.(i);
      t.weak.(i) <- true
    end
  done;
  t.weak_default <- true;
  t.has_weak <- true

let size t = t.len

(* Full-fidelity backup for the exhaustive explorers: a backup captures
   the cell contents, the stale-read shadow (so stale reads replay
   identically after backtracking) and, while tracking, ownership.  Two
   representations coexist:

   [backup] is a pure delta mark — the journal length and the store
   length.  Taking one is O(1); the first one flips [journaling] on so
   that subsequent stores push what they overwrite, and restoring pops
   the journal back to the mark, undoing exactly the stores since the
   backup.  Restores must follow the explorers' LIFO discipline (a
   backup is restored only while every journal entry younger than it
   belongs to stores being undone), which snapshot-and-backtrack search
   satisfies by construction.

   [full_backup] is the historical O(|memory|) copy, preserved for the
   tree-interpreter oracle so that differential benchmarks measure the
   engine the codebase actually shipped before the VM: it copies the
   live cells (and the writers while tracking, the shadows when any
   register is weak) and never turns journaling on, leaving the write
   path untouched.  The two kinds must not be mixed on one store (a
   store that has ever taken a delta mark journals stores that a full
   restore would not pop); each [Machine] takes only its own engine's
   kind.

   Weak flags need no capture either way — they only change via
   allocation, and truncation plus re-allocation recomputes them. *)
type backup = {
  (* [Some cells] = full backup; [None] = delta mark.  Mutable so the
     explorers can refresh a pooled backup in place ({!backup_into})
     instead of allocating one per branch point. *)
  mutable b_cells : int array option;
  mutable b_writers : int array option;
  mutable b_prev : int array option;
  mutable b_len : int;
  mutable b_undo : int;
}

let backup t =
  t.journaling <- true;
  { b_cells = None; b_writers = None; b_prev = None; b_len = t.len;
    b_undo = t.undo_len }

(* A copy of [src]'s first [len] ints, reusing [into]'s array when it
   has that length. *)
let copy_into into (src : int array) len =
  match into with
  | Some dst when Array.length dst = len -> blit_ints src dst len; into
  | Some _ | None -> Some (sub_ints src len)

let copy_full t b =
  b.b_cells <- copy_into b.b_cells t.cells t.len;
  if t.track_writers then b.b_writers <- copy_into b.b_writers t.writers t.len;
  if t.has_weak then b.b_prev <- copy_into b.b_prev t.prev t.len

let full_backup t =
  let b = { b_cells = None; b_writers = None; b_prev = None; b_len = t.len; b_undo = 0 } in
  copy_full t b;
  b

(* Refresh [b] to capture the current state, keeping its kind: a pooled
   delta mark is two integer stores; a pooled full backup reuses its
   arrays when the store length hasn't changed. *)
let backup_into t b =
  b.b_len <- t.len;
  match b.b_cells with
  | None -> b.b_undo <- t.undo_len
  | Some _ -> copy_full t b

let blit_opt src (dst : int array) len =
  match src with Some src -> blit_ints src dst len | None -> ()

let restore_backup t b =
  if b.b_len > t.len then
    invalid_arg "Memory.restore_backup: backup longer than store";
  (match b.b_cells with
   | None ->
     if b.b_undo > t.undo_len then
       invalid_arg "Memory.restore_backup: journal shorter than at backup time";
     while t.undo_len > b.b_undo do
       let n = t.undo_len - 1 in
       t.undo_len <- n;
       (* Popping in LIFO order ends each register at its oldest
          journaled contents — its state as of backup time, however many
          times it was stored to since. *)
       let e = t.undo_locs.(n) in
       let loc = if e < 0 then lnot e else e in
       t.cells.(loc) <- t.undo_cells.(n);
       if t.track_writers then t.writers.(loc) <- t.undo_writers.(n);
       if e < 0 then t.prev.(loc) <- t.undo_prevs.(n)
     done
   | Some cells ->
     blit_ints cells t.cells b.b_len;
     blit_opt b.b_writers t.writers b.b_len;
     blit_opt b.b_prev t.prev b.b_len);
  (* Registers allocated since the backup are dropped; [alloc] never
     journals (truncation is its undo). *)
  t.len <- b.b_len

(* Two independent 62-bit FNV-1a-style folds over the live semantic
   state, for the explorers' duplicate detection: the cell contents and
   — on weak registers only, where it is observable — the stale-read
   shadow.  Journals, capacities and marks are bookkeeping, not state,
   and are deliberately excluded: two stores reached by different paths
   are semantically equal iff their folds agree (up to collisions; two
   multipliers make a collision need ~2^62 states per hash).  Weak
   flags are configuration fixed at setup, identical across all states
   of one exploration, so conditioning on them is stable. *)
let mix1 h v = ((h lxor v) * 0x100000001B3) land max_int
let mix2 h v = ((h lxor v) * 0x27D4EB2F165667C5) land max_int

(* ⊥ (never-written) and every value v must hash apart.  Dedup keys
   and the visited table's layout follow these words, so they are
   pinned (test/test_vm.ml, "hash_into pinned"). *)
let enc c = if c = bot then 0x5bd1e995 else (c lsl 1) lor 1

let hash_fold t (h : int array) =
  let h1 = ref (mix1 h.(0) t.len) and h2 = ref (mix2 h.(1) t.len) in
  for i = 0 to t.len - 1 do
    let c = enc t.cells.(i) in
    h1 := mix1 !h1 c;
    h2 := mix2 !h2 c;
    if t.has_weak && t.weak.(i) then begin
      let p = enc t.prev.(i) in
      h1 := mix1 !h1 p;
      h2 := mix2 !h2 p
    end;
    (* Ownership decides what a future recovery wipes, so under
       tracking it is semantic state; +2 keeps the encoding
       non-negative with -1 (never written) distinct from every pid. *)
    if t.track_writers then begin
      let w = t.writers.(i) + 2 in
      h1 := mix1 !h1 w;
      h2 := mix2 !h2 w
    end
  done;
  h.(0) <- !h1;
  h.(1) <- !h2
