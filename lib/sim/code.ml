(* Lazily-compiled flat instruction code for the register-file VM.

   A [Program.t] is a closure-bearing tree: it cannot be statically
   flattened, because each continuation is an opaque OCaml function.
   The compiler here instead *interns* the tree one step at a time: the
   first time an execution steps through a (state, observation) edge,
   the continuation is invoked once and its residual program is encoded
   as a new integer-indexed instruction; every later traversal of the
   same edge — and a backtracking explorer retraverses each edge up to
   millions of times — is an integer table lookup that allocates
   nothing.

   Soundness rests on the replay-purity contract of {!Program}: a
   continuation re-invoked with the same observation returns a
   behaviourally identical residual program, so memoizing its first
   unfolding is exact.  Program counters form a forest (one tree per
   process; each pc has exactly one incoming edge), so on a straight-
   line run every dispatch is a miss and continuations are invoked
   exactly once, in exactly the tree interpreter's order — protocols
   that draw local randomness inside continuations behave identically
   under either engine wherever their behaviour was defined at all.

   The one global effect a continuation may legally perform is lazy
   register allocation (the unbounded constructions of §4.1.1 allocate
   instances on demand).  Allocated addresses depend on the *global*
   store length, not just on local history, so an interned successor
   records the store length it was unfolded at plus the initial
   contents of the registers it allocated: a memo hit replays the
   allocations (the truncating restore that made this state reachable
   again un-allocated them), and a traversal at a different store
   length interns a sibling successor (chained via [alt]) whose
   instructions capture the right addresses.

   Layout.  The store is one growable array with one record per pc:
   the side data (pending descriptor, branching class, stage,
   allocation record) in fixed fields, and the operation with its
   operands and successor slots, so growth copies one array of
   pointers.  A successor slot holds an encoded pc: [q >= 0] is a
   successor that allocated nothing and so is valid at any store
   length — the hot path returns it after one comparison — while [-1]
   means nothing interned yet and [-q - 2] heads a chain of allocating
   successors that must match the store length.  A [Write], [Prob] or
   [Prob_detect] whose every successor is interned and allocates
   nothing can never unfold again, so it drops its continuation and
   whatever that closure kept alive.  Reads and collects keep theirs:
   a new observation can always arrive. *)

exception Collect_disallowed

(* What an allocating successor must match and replay: the store length
   it was unfolded at, the initial contents of the registers it
   allocated, and the next entry of its edge's chain (another store
   length).  Pcs that allocated nothing share [no_link]. *)
type link = { prelen : int; inits : int option array; alt : int }

let no_link = { prelen = -1; inits = [||]; alt = -1 }

(* What a pc does, with its successor slots.  Reads and collects keep
   their continuations; the writes' are mutable so they can be dropped. *)
type 'r op =
  | Halt of 'r option
  | Read of {
      loc : Memory.loc;
      k : int option -> 'r Program.t;
      (* Successor slots by observation: empty until the first, then
         slot 0 for ⊥ followed by (value, slot) pairs in first-seen
         order — O(observations) words whatever the values are. *)
      mutable obs : int array;
    }
  | Write of {
      loc : Memory.loc;
      value : int;
      mutable k : unit -> 'r Program.t;
      mutable next : int;
    }
  | Prob of {
      (* A blind probabilistic write: the coin decides the memory
         effect but the process learns nothing, so there is a single
         successor. *)
      loc : Memory.loc;
      value : int;
      mutable k : unit -> 'r Program.t;
      mutable next : int;
    }
  | Prob_detect of {
      loc : Memory.loc;
      value : int;
      mutable k : bool -> 'r Program.t;
      mutable hit : int;
      mutable miss : int;
    }
  | Collect of {
      loc : Memory.loc;
      len : int;
      k : int option array -> 'r Program.t;
      mutable succs : (int option array * int) list;
    }

(* One record per pc: the side data the machine reads at every step
   sits in fixed fields, so reading it takes no dispatch. *)
type 'r instr = {
  pend : Op.any option;   (* pending descriptor, shared; [None] at halts *)
  coin : int;             (* branching class *)
  stage : string option;  (* absolute stage label here *)
  link : link;            (* allocation record, [no_link] if none *)
  op : 'r op;
}

(* Pending descriptors are shared between pcs pending the same
   operation: a search interns hundreds of thousands of pcs over a
   hundred or so distinct operations.  Probabilities compare by their
   bits, so a shared descriptor serializes exactly like the op value it
   stands for. *)
module Ops = Hashtbl.Make (struct
  type t = Op.any

  let equal (Op.Any a) (Op.Any b) =
    let same_p p q = Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q) in
    match (a, b) with
    | Op.Read l, Op.Read l' -> l = l'
    | Op.Write (l, v), Op.Write (l', v') -> l = l' && v = v'
    | Op.Prob_write (l, v, p), Op.Prob_write (l', v', p') ->
      l = l' && v = v' && same_p p p'
    | Op.Prob_write_detect (l, v, p), Op.Prob_write_detect (l', v', p') ->
      l = l' && v = v' && same_p p p'
    | Op.Collect (l, n), Op.Collect (l', n') -> l = l' && n = n'
    | _ -> false

  let hash = Hashtbl.hash
end)

let blank = { pend = None; coin = 0; stage = None; link = no_link; op = Halt None }

(* Stands in for a continuation whose every successor is interned. *)
let dropped _ = invalid_arg "Code: a dropped continuation was re-entered"

type 'r t = {
  memory : Memory.t;
  roots : int array;
  (* Recover continuation entry per pid, -1 when the protocol declares
     none (a restarted process then re-enters at its main root). *)
  rec_roots : int array;
  ops : Op.any option Ops.t;
  mutable code : 'r instr array;
  mutable len : int;
  (* Raw cell contents the last read observed ([Memory.bot] for ⊥ and
     after any other operation): an immediate, so the per-step store
     skips the write barrier. *)
  mutable last_observed : int;
}

(* Branching classes, shared with [Machine.coin_class]: 0 = forced
   miss, 1 = forced landed, 2 = coin (0 < p < 1), 3 = weak-register
   read (forks on freshness).  Weakness is configuration fixed at setup
   time, so the class is a per-pc constant. *)
let prob_class p = if p <= 0.0 then 0 else if p >= 1.0 then 1 else 2

let add t instr =
  let cap = Array.length t.code in
  if t.len = cap then begin
    let code = Array.make (2 * cap) blank in
    Array.blit t.code 0 code 0 t.len;
    t.code <- code
  end;
  let pc = t.len in
  t.code.(pc) <- instr;
  t.len <- pc + 1;
  pc

(* Peel stage labels exactly as the tree interpreter's [settle] does:
   the innermost label becomes the pc's stage; with none, the parent
   pc's stage is inherited (stages are sticky). *)
let rec peel stage p =
  match p with
  | Program.Label (s, p) -> peel (Some s) p
  | p -> (stage, p)

let intern t ~stage ~link p =
  let stage, p = peel stage p in
  match p with
  | Program.Label _ -> assert false (* peeled *)
  | Program.Recoverable _ ->
    (* Root-only: [compile] peels the declaration before interning;
       one reached mid-program escaped a protocol author's root. *)
    invalid_arg "Code: Recoverable below the protocol root"
  | Program.Done r ->
    add t { pend = None; coin = 0; stage; link; op = Halt (Some r) }
  | Program.Step (op, k) ->
    (* The pending descriptor wraps an op value equal to the original
       bit for bit, so traces and artifacts carry bit-identical floats
       under either engine. *)
    let any = Op.Any op in
    let pend =
      match Ops.find_opt t.ops any with
      | Some pend -> pend
      | None ->
        let pend = Some any in
        Ops.add t.ops any pend;
        pend
    in
    let coin, op =
      match op with
      | Op.Read loc ->
        let coin = if Memory.is_weak t.memory loc then 3 else 0 in
        (coin, Read { loc; k; obs = [||] })
      | Op.Write (loc, value) -> (1, Write { loc; value; k; next = -1 })
      | Op.Prob_write (loc, value, p) ->
        (prob_class p, Prob { loc; value; k; next = -1 })
      | Op.Prob_write_detect (loc, value, p) ->
        (prob_class p, Prob_detect { loc; value; k; hit = -1; miss = -1 })
      | Op.Collect (loc, len) -> (0, Collect { loc; len; k; succs = [] })
    in
    add t { pend; coin; stage; link; op }

let compile ~memory ~n body =
  let t =
    { memory;
      roots = Array.make n (-1);
      rec_roots = Array.make n (-1);
      ops = Ops.create 64;
      code = Array.make 64 blank;
      len = 0;
      last_observed = Memory.bot }
  in
  (* Bodies are evaluated in pid order, like the tree interpreter's
     [create]: any pure prefix (including register allocation) runs
     here.  Roots are never re-dispatched, so they record no allocs —
     which also makes them valid re-entry points at any store length,
     exactly what crash-recovery needs. *)
  for pid = 0 to n - 1 do
    let stage, p = peel None (body ~pid) in
    match p with
    | Program.Recoverable { main; recover } ->
      t.roots.(pid) <- intern t ~stage ~link:no_link main;
      t.rec_roots.(pid) <- intern t ~stage ~link:no_link recover
    | p -> t.roots.(pid) <- intern t ~stage ~link:no_link p
  done;
  t

let root t pid = t.roots.(pid)

(* Re-entry pc for a recovering process: the declared recover
   continuation, or the main root (restart from the top) without one. *)
let rec_root t pid =
  if t.rec_roots.(pid) >= 0 then t.rec_roots.(pid) else t.roots.(pid)

let pending t pc = t.code.(pc).pend
let stage t pc = t.code.(pc).stage
let result t pc = match t.code.(pc).op with Halt r -> r | _ -> None
let coin_class t pc = t.code.(pc).coin

let size t = t.len
let last_observed t = t.last_observed

(* Memo hit on an allocating pc: the continuation is not re-invoked, so
   re-perform its recorded allocations. *)
let replay_allocs t inits =
  for i = 0 to Array.length inits - 1 do
    match inits.(i) with
    | None -> ignore (Memory.alloc t.memory : Memory.loc)
    | Some v -> ignore (Memory.alloc ~init:v t.memory : Memory.loc)
  done

(* Slot encoding (see the layout note at the top): an allocating pc is
   stored as [chained pc], a non-allocating one as itself, and -1 (=
   [chained (-1)]) is the empty slot. *)
let chained pc = -pc - 2
let pc_of s = if s >= 0 then s else chained s

(* First chain entry unfolded at store length [len0], with its
   allocations replayed, or -1. *)
let rec chain t pc len0 =
  if pc < 0 then -1
  else
    let l = t.code.(pc).link in
    if l.prelen = len0 then begin replay_allocs t l.inits; pc end
    else chain t l.alt len0

(* The successor in slot [s] usable at the current store length, or -1:
   a successor that allocated nothing is valid at any length. *)
let[@inline] lookup t s =
  if s >= 0 then s else chain t (chained s) (Memory.size t.memory)

(* Cold path: unfold one continuation, capturing any registers it
   allocates, and intern the residual program in front of slot [s]'s
   chain.  Returns the new slot value; the caller installs it. *)
let unfold : type a r. r t -> stage:string option -> (a -> r Program.t) -> a ->
  int -> int =
  fun t ~stage k v s ->
  let len0 = Memory.size t.memory in
  let p = k v in
  let len1 = Memory.size t.memory in
  if len1 = len0 then intern t ~stage ~link:no_link p
  else begin
    let inits = Array.init (len1 - len0) (fun i -> Memory.read t.memory (len0 + i)) in
    chained (intern t ~stage ~link:{ prelen = len0; inits; alt = pc_of s } p)
  end

(* Read successor tables (see [Read.obs]): the index of the slot of raw
   observation [c] ([Memory.bot] for ⊥), or -1 when [c] has none yet. *)
let rec pair (tab : int array) (x : int) i =
  if i >= Array.length tab then -1
  else if Array.unsafe_get tab i = x then i + 1
  else pair tab x (i + 2)

let slot tab c =
  if Array.length tab = 0 then -1
  else if c = Memory.bot then 0
  else pair tab c 1

(* [tab] with raw observation [c]'s slot set to [s]; a new observation
   grows the table by one pair. *)
let set_obs tab c s =
  let tab = if Array.length tab = 0 then [| -1 |] else tab in
  let i = slot tab c in
  if i >= 0 then begin tab.(i) <- s; tab end
  else begin
    let n = Array.length tab in
    let grown = Array.make (n + 2) s in
    Array.blit tab 0 grown 0 n;
    grown.(n) <- c;
    grown
  end

(* Execute the instruction at [pc] with the coin already decided,
   applying its memory effect and returning the successor pc.  A read
   dispatches on the raw cell, so a memo hit allocates nothing; the
   option the continuation takes is built only on a miss.  What the
   read observed is left in [last_observed] for the façade's trace
   recording. *)
let step t ~cheap_collect ~pc ~landed =
  let instr = t.code.(pc) in
  match instr.op with
  | Halt _ -> invalid_arg "Code.step: process already halted"
  | Read r ->
    let c =
      if landed then Memory.stale_cell t.memory r.loc
      else Memory.cell t.memory r.loc
    in
    t.last_observed <- c;
    let i = slot r.obs c in
    let s = if i < 0 then -1 else Array.unsafe_get r.obs i in
    let q = lookup t s in
    if q >= 0 then q
    else begin
      let s = unfold t ~stage:instr.stage r.k (Memory.decode c) s in
      r.obs <- set_obs r.obs c s;
      pc_of s
    end
  | Write w ->
    Memory.write t.memory w.loc w.value;
    t.last_observed <- Memory.bot;
    let q = lookup t w.next in
    if q >= 0 then q
    else begin
      let s = unfold t ~stage:instr.stage w.k () w.next in
      w.next <- s;
      if s >= 0 then w.k <- dropped;
      pc_of s
    end
  | Prob w ->
    if landed then Memory.write t.memory w.loc w.value;
    t.last_observed <- Memory.bot;
    let q = lookup t w.next in
    if q >= 0 then q
    else begin
      let s = unfold t ~stage:instr.stage w.k () w.next in
      w.next <- s;
      if s >= 0 then w.k <- dropped;
      pc_of s
    end
  | Prob_detect w ->
    if landed then Memory.write t.memory w.loc w.value;
    t.last_observed <- Memory.bot;
    let s = if landed then w.hit else w.miss in
    let q = lookup t s in
    if q >= 0 then q
    else begin
      let s = unfold t ~stage:instr.stage w.k landed s in
      if landed then w.hit <- s else w.miss <- s;
      if w.hit >= 0 && w.miss >= 0 then w.k <- dropped;
      pc_of s
    end
  | Collect c ->
    if not cheap_collect then raise Collect_disallowed;
    let arr = Array.init c.len (fun i -> Memory.read t.memory (c.loc + i)) in
    t.last_observed <- Memory.bot;
    let s =
      match List.find_opt (fun (key, _) -> key = arr) c.succs with
      | Some (_, s) -> s
      | None -> -1
    in
    let q = lookup t s in
    if q >= 0 then q
    else begin
      let s = unfold t ~stage:instr.stage c.k arr s in
      c.succs <- (arr, s) :: List.filter (fun (key, _) -> key <> arr) c.succs;
      pc_of s
    end
