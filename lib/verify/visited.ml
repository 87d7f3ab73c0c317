(* Extendible hashing over fixed-size pages.  The directory maps the
   top [gd] bits of [h1] to a page; a page of local depth [d] holds
   exactly the keys whose top [d] bits are its prefix, and the
   [1 lsl (gd - d)] directory entries sharing that prefix all point at
   it.  Inside a page, slot [i] is the three words [3i] ([h1], or
   [empty]), [3i + 1] ([h2]) and [3i + 2] (the mask), probed linearly
   from a home slot taken from the [h1] bits just below the prefix. *)

type page = {
  mutable depth : int;      (* local depth: prefix bits shared by its keys *)
  mutable shift : int;      (* home slot = (h1 lsr shift) land wrap *)
  mutable wrap : int;       (* slots - 1; slots is a power of two *)
  mutable used : int;       (* entries stored *)
  mutable data : int array; (* 3 * slots, interleaved *)
}

type t = {
  mutable dir : page array;     (* [1 lsl gd] entries, [||] before the first visit *)
  mutable gd : int;             (* global depth *)
  mutable count : int;
  mutable scratch : int array;  (* an empty page array a split rebuilds into *)
}

let empty = -1

(* Hashes are [land max_int]: 62 significant bits. *)
let hash_bits = 62

(* 4096 slots, 96 KiB a page. *)
let page_bits = 12

(* Past this local depth a full page grows instead of splitting, which
   bounds the directory at [1 lsl max_depth] words whatever the keys.
   At about 2 000 entries a page, real searches stay far below it; it also
   keeps [shift] non-negative for any page that fits in memory. *)
let max_depth = 24

let create () = { dir = [||]; gd = 0; count = 0; scratch = [||] }

let count t = t.count

let new_page depth bits =
  { depth; shift = hash_bits - depth - bits; wrap = (1 lsl bits) - 1; used = 0;
    data = Array.make (3 lsl bits) empty }

let slots p = p.wrap + 1

(* The index in [p.data] of the slot holding [(h1, h2)], or of the
   empty slot where it belongs.  The load stays at most 0.75, so an
   empty slot always exists. *)
let find_slot p h1 h2 =
  let d = p.data and wrap = p.wrap in
  let i = ref ((h1 lsr p.shift) land wrap) in
  while
    let a = d.(3 * !i) in
    a <> empty && (a <> h1 || d.(3 * !i + 1) <> h2)
  do
    i := (!i + 1) land wrap
  done;
  3 * !i

(* Re-store the entry at slot [i] of [src] into page [p]. *)
let move src i p =
  let h1 = src.(3 * i) and h2 = src.((3 * i) + 1) in
  let j = find_slot p h1 h2 and d = p.data in
  d.(j) <- h1;
  d.(j + 1) <- h2;
  d.(j + 2) <- src.((3 * i) + 2);
  p.used <- p.used + 1

(* Double [p]'s slots. *)
let grow p =
  let src = p.data in
  p.shift <- p.shift - 1;
  p.wrap <- (2 * p.wrap) + 1;
  p.data <- Array.make (3 * slots p) empty;
  p.used <- 0;
  for i = 0 to (Array.length src / 3) - 1 do
    if src.(3 * i) <> empty then move src i p
  done

(* Split [p] on prefix bit [bit]: the keys with it set move to a new
   page sized for [ones] of them, the rest are rebuilt into the empty
   scratch page, which becomes [p]'s array, and [p]'s old array,
   emptied on the way, becomes the next scratch.  [h1] is any key of
   [p], which locates [p]'s run of directory entries. *)
let split t p h1 bit ones =
  if p.depth = t.gd then begin
    let old = t.dir in
    t.dir <- Array.init (2 * Array.length old) (fun j -> old.(j lsr 1));
    t.gd <- t.gd + 1
  end;
  let bits = ref page_bits in
  while 4 * ones > 3 lsl !bits do incr bits done;
  let q = new_page (p.depth + 1) !bits in
  let src = p.data in
  let n = Array.length src in
  p.data <- (if Array.length t.scratch = n then t.scratch else Array.make n empty);
  (* the run of [p]'s entries is [2 * span] long; its upper half has
     the split bit set *)
  let span = 1 lsl (t.gd - p.depth - 1) in
  let start = (h1 lsr (hash_bits - p.depth)) lsl (t.gd - p.depth) in
  p.depth <- p.depth + 1;
  p.shift <- p.shift - 1;
  p.used <- 0;
  for i = 0 to (n / 3) - 1 do
    let k = src.(3 * i) in
    if k <> empty then begin
      move src i (if (k lsr bit) land 1 = 1 then q else p);
      src.(3 * i) <- empty
    end
  done;
  t.scratch <- src;
  Array.fill t.dir (start + span) span q

(* [p] (holding [h1]) is past load 0.75: split it on its next prefix
   bit, unless that bit would not separate its keys or its depth is at
   the cap — then grow it. *)
let overflow t p h1 =
  let bit = hash_bits - 1 - p.depth in
  let d = p.data in
  let ones = ref 0 in
  for i = 0 to slots p - 1 do
    let k = d.(3 * i) in
    if k <> empty then ones := !ones + ((k lsr bit) land 1)
  done;
  if p.depth >= max_depth || !ones = 0 || !ones = p.used then grow p
  else split t p h1 bit !ones

type outcome = Added | Covered | Narrowed

(* [visit] and [find] spell out the directory lookup and the store
   rather than calling helpers: without flambda those calls are not
   inlined, and [visit] runs once per dedup probe. *)
let visit t h1 h2 z =
  if h1 < 0 then invalid_arg "Visited.visit: negative h1";
  if Array.length t.dir = 0 then t.dir <- [| new_page 0 page_bits |];
  let p = t.dir.(h1 lsr (hash_bits - t.gd)) in
  let j = find_slot p h1 h2 in
  let d = p.data in
  if d.(j) = empty then begin
    d.(j) <- h1;
    d.(j + 1) <- h2;
    d.(j + 2) <- z;
    p.used <- p.used + 1;
    t.count <- t.count + 1;
    if 4 * p.used > 3 * (p.wrap + 1) then overflow t p h1;
    Added
  end else begin
    let z_old = d.(j + 2) in
    if z_old land lnot z = 0 then Covered
    else begin
      d.(j + 2) <- z_old land z;
      Narrowed
    end
  end

let find t h1 h2 =
  if h1 < 0 then invalid_arg "Visited.find: negative h1";
  if Array.length t.dir = 0 then None
  else begin
    let p = t.dir.(h1 lsr (hash_bits - t.gd)) in
    let j = find_slot p h1 h2 in
    if p.data.(j) = empty then None else Some p.data.(j + 2)
  end
