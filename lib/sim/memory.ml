type loc = int

(* [prev] shadows [cells] on *weak* registers only: prev.(i) is what
   cells.(i) held before the most recent write, i.e. the value a
   regular-register read concurrent with that write is allowed to
   return.  [weak] marks the registers on which a driver may actually
   deliver such stale reads; the flag is configuration (set at
   allocation time), not execution state, so the shadow is maintained
   for exactly the registers where it is observable.

   Shadow maintenance is undone on backtracking through an undo
   journal ([jlocs]/[jvals]): each shadow update pushes the overwritten
   shadow value, a {!backup} records just the journal length, and
   {!restore_backup} pops back to it.  That keeps the per-snapshot cost
   of the fault plane at one integer — O(weak writes undone) instead of
   O(|memory|) — and exactly zero stores on stores with no weak
   register.

   Cell contents are rolled back the same way: once the first {!backup}
   is taken ([journaling] flips on and stays on), every write pushes the
   overwritten contents onto a second journal ([cjlocs]/[cjvals]), a
   backup records only the three journal/length marks, and a restore
   pops writes back in LIFO order.  Backtracking thus costs O(writes
   undone) — the delta — instead of O(|memory|), and executions that
   never back up (the Monte Carlo scheduler) never pay for journaling
   at all. *)
type t = {
  mutable cells : int option array;
  mutable prev : int option array;
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
  mutable jlocs : int array;
  mutable jvals : int option array;
  mutable jlen : int;
  (* Cell-contents undo journal; maintained only once a backup exists.
     [cjwrs] rides along with the cell journal and holds the overwritten
     writer — populated (and popped) only while tracking, so untracked
     journaling never touches it. *)
  mutable journaling : bool;
  mutable cjlocs : int array;
  mutable cjvals : int option array;
  mutable cjwrs : int array;
  mutable cjlen : int;
}

let create () =
  { cells = Array.make 16 None;
    prev = Array.make 16 None;
    weak = Array.make 16 false;
    persistent = Array.make 16 false;
    writers = Array.make 16 (-1);
    track_writers = false;
    actor = -1;
    len = 0;
    weak_default = false;
    has_weak = false;
    jlocs = Array.make 16 0;
    jvals = Array.make 16 None;
    jlen = 0;
    journaling = false;
    cjlocs = Array.make 16 0;
    cjvals = Array.make 16 None;
    cjwrs = Array.make 16 (-1);
    cjlen = 0 }

let ensure_capacity t needed =
  if needed > Array.length t.cells then begin
    let cap = max needed (2 * Array.length t.cells) in
    let cells = Array.make cap None in
    let prev = Array.make cap None in
    let weak = Array.make cap false in
    let persistent = Array.make cap false in
    let writers = Array.make cap (-1) in
    Array.blit t.cells 0 cells 0 t.len;
    Array.blit t.prev 0 prev 0 t.len;
    Array.blit t.weak 0 weak 0 t.len;
    Array.blit t.persistent 0 persistent 0 t.len;
    Array.blit t.writers 0 writers 0 t.len;
    t.cells <- cells;
    t.prev <- prev;
    t.weak <- weak;
    t.persistent <- persistent;
    t.writers <- writers
  end

let alloc ?init t =
  ensure_capacity t (t.len + 1);
  let loc = t.len in
  t.cells.(loc) <- init;
  (* A register that has never been written has no older value to
     return: its stale view is its initial contents. *)
  t.prev.(loc) <- init;
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

let read t loc =
  check t loc;
  t.cells.(loc)

let read_stale t loc =
  check t loc;
  t.prev.(loc)

let journal_push t loc v =
  if t.jlen = Array.length t.jlocs then begin
    let cap = 2 * t.jlen in
    let jlocs = Array.make cap 0 in
    let jvals = Array.make cap None in
    Array.blit t.jlocs 0 jlocs 0 t.jlen;
    Array.blit t.jvals 0 jvals 0 t.jlen;
    t.jlocs <- jlocs;
    t.jvals <- jvals
  end;
  t.jlocs.(t.jlen) <- loc;
  t.jvals.(t.jlen) <- v;
  t.jlen <- t.jlen + 1

let cjournal_push t loc v =
  if t.cjlen = Array.length t.cjlocs then begin
    let cap = 2 * t.cjlen in
    let cjlocs = Array.make cap 0 in
    let cjvals = Array.make cap None in
    let cjwrs = Array.make cap (-1) in
    Array.blit t.cjlocs 0 cjlocs 0 t.cjlen;
    Array.blit t.cjvals 0 cjvals 0 t.cjlen;
    Array.blit t.cjwrs 0 cjwrs 0 t.cjlen;
    t.cjlocs <- cjlocs;
    t.cjvals <- cjvals;
    t.cjwrs <- cjwrs
  end;
  t.cjlocs.(t.cjlen) <- loc;
  t.cjvals.(t.cjlen) <- v;
  if t.track_writers then t.cjwrs.(t.cjlen) <- t.writers.(loc);
  t.cjlen <- t.cjlen + 1

let write t loc v =
  check t loc;
  if t.journaling then cjournal_push t loc t.cells.(loc);
  if t.has_weak && t.weak.(loc) then begin
    journal_push t loc t.prev.(loc);
    t.prev.(loc) <- t.cells.(loc)
  end;
  if t.track_writers then t.writers.(loc) <- t.actor;
  t.cells.(loc) <- Some v

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
   weakness, every backup captures the journal mark) without weakening
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
   undo machinery as a write (cell journal, weak shadow, writer
   journal), so backtracking over a recovery restores the pre-wipe
   state exactly.  Requires tracking — without ownership there is
   nothing sound to wipe. *)
let wipe_volatile t ~pid =
  if not t.track_writers then
    invalid_arg "Memory.wipe_volatile: writer tracking not engaged";
  for loc = 0 to t.len - 1 do
    if t.writers.(loc) = pid && not t.persistent.(loc) then begin
      if t.journaling then cjournal_push t loc t.cells.(loc);
      if t.has_weak && t.weak.(loc) then begin
        journal_push t loc t.prev.(loc);
        t.prev.(loc) <- t.cells.(loc)
      end;
      t.cells.(loc) <- None;
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
   the cell contents and also pins the previous-value shadow so stale
   reads replay identically after backtracking.  Two representations
   coexist:

   [backup] is a pure delta mark — three journal/length integers.
   Taking one is O(1); the first one flips [journaling] on so that
   subsequent writes push their overwritten contents, and restoring
   pops both journals back to the marks, undoing exactly the writes
   since the backup.  Restores must follow the explorers' LIFO
   discipline (a backup is restored only while every journal entry
   younger than it belongs to writes being undone), which
   snapshot-and-backtrack search satisfies by construction.

   [full_backup] is the historical O(|memory|) copy, preserved for the
   tree-interpreter oracle so that differential benchmarks measure the
   engine the codebase actually shipped before the VM: it copies the
   live cells and never turns journaling on, leaving the write path
   untouched.  The two kinds must not be mixed on one store (a store
   that has ever taken a delta mark journals writes that a full restore
   would not pop); each [Machine] takes only its own engine's kind.

   Weak flags need no capture either way — they only change via
   allocation, and truncation plus re-allocation recomputes them. *)
type backup = {
  (* [Some cells] = full backup; [None] = delta mark.  Mutable so the
     explorers can refresh a pooled backup in place ({!backup_into})
     instead of allocating one per branch point. *)
  mutable b_full : int option array option;
  (* Full backups capture ownership alongside contents when tracking
     (they never journal, so a blit is their only undo); delta marks
     leave this [None] — the writer journal rides the cell journal. *)
  mutable b_writers : int array option;
  mutable b_len : int;
  mutable b_cjlen : int;
  mutable b_jlen : int;
}

let backup t =
  t.journaling <- true;
  { b_full = None; b_writers = None; b_len = t.len; b_cjlen = t.cjlen;
    b_jlen = t.jlen }

let full_backup t =
  { b_full = Some (Array.sub t.cells 0 t.len);
    b_writers =
      (if t.track_writers then Some (Array.sub t.writers 0 t.len) else None);
    b_len = t.len;
    b_cjlen = 0;
    b_jlen = t.jlen }

(* Refresh [b] to capture the current state, keeping its kind: a pooled
   delta mark is three integer stores; a pooled full backup reuses its
   cells array when the store length hasn't changed. *)
let backup_into t b =
  (match b.b_full with
   | None ->
     b.b_len <- t.len;
     b.b_cjlen <- t.cjlen
   | Some cells ->
     if Array.length cells = t.len then Array.blit t.cells 0 cells 0 t.len
     else b.b_full <- Some (Array.sub t.cells 0 t.len);
     (if t.track_writers then
        match b.b_writers with
        | Some writers when Array.length writers = t.len ->
          Array.blit t.writers 0 writers 0 t.len
        | Some _ | None -> b.b_writers <- Some (Array.sub t.writers 0 t.len));
     b.b_len <- t.len);
  b.b_jlen <- t.jlen

let pop_weak_journal t b_jlen =
  if b_jlen > t.jlen then
    invalid_arg "Memory.restore_backup: journal shorter than at backup time";
  while t.jlen > b_jlen do
    t.jlen <- t.jlen - 1;
    (* A journaled register may have been deallocated by an earlier
       truncating restore on this path; its shadow slot still exists
       (capacity never shrinks) and [alloc] re-initialises it, so the
       undo store is harmless. *)
    t.prev.(t.jlocs.(t.jlen)) <- t.jvals.(t.jlen)
  done

let restore_backup t b =
  if b.b_len > t.len then
    invalid_arg "Memory.restore_backup: backup longer than store";
  (match b.b_full with
   | None ->
     if b.b_cjlen > t.cjlen then
       invalid_arg "Memory.restore_backup: journal shorter than at backup time";
     while t.cjlen > b.b_cjlen do
       t.cjlen <- t.cjlen - 1;
       (* Popping in LIFO order ends each cell at its oldest journaled
          value — the contents as of backup time, however many times it
          was written since. *)
       t.cells.(t.cjlocs.(t.cjlen)) <- t.cjvals.(t.cjlen);
       if t.track_writers then
         t.writers.(t.cjlocs.(t.cjlen)) <- t.cjwrs.(t.cjlen)
     done
   | Some cells ->
     Array.blit cells 0 t.cells 0 b.b_len;
     (match b.b_writers with
      | Some writers -> Array.blit writers 0 t.writers 0 b.b_len
      | None -> ()));
  pop_weak_journal t b.b_jlen;
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

(* [None] (never-written) and [Some v] must hash apart for every v. *)
let enc = function None -> 0x5bd1e995 | Some v -> (v lsl 1) lor 1

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
