type t = {
  mutable k1 : int array;  (* h1, or [empty] *)
  mutable k2 : int array;  (* h2 *)
  mutable zs : int array;  (* sleep-set mask *)
  mutable bits : int;      (* capacity = 1 lsl bits *)
  mutable count : int;
}

let empty = -1

(* Hashes are [land max_int]: 62 significant bits. *)
let hash_bits = 62

let create n =
  let bits = ref 0 in
  while 1 lsl !bits < n do incr bits done;
  let cap = 1 lsl !bits in
  { k1 = Array.make cap empty; k2 = Array.make cap 0; zs = Array.make cap 0;
    bits = !bits; count = 0 }

let count t = t.count

let home bits h1 = h1 lsr (hash_bits - bits)

(* The slot holding [(h1, h2)], or the empty slot where it belongs.
   The load stays at most 0.75, so an empty slot always exists.  A
   negative [h1] has its home outside the arrays and raises. *)
let find_slot t h1 h2 =
  let k1 = t.k1 and k2 = t.k2 in
  let wrap = Array.length k1 - 1 in
  let i = ref (home t.bits h1) in
  while
    let a = k1.(!i) in
    a <> empty && (a <> h1 || k2.(!i) <> h2)
  do
    i := (!i + 1) land wrap
  done;
  !i

(* Double the capacity and rehash: keys are distinct, so each one only
   needs the first empty slot from its new home. *)
let grow t =
  let o1 = t.k1 and o2 = t.k2 and oz = t.zs in
  let bits = t.bits + 1 in
  let cap = 1 lsl bits in
  let k1 = Array.make cap empty and k2 = Array.make cap 0
  and zs = Array.make cap 0 in
  let wrap = cap - 1 in
  Array.iteri
    (fun j h1 ->
      if h1 <> empty then begin
        let i = ref (home bits h1) in
        while k1.(!i) <> empty do i := (!i + 1) land wrap done;
        k1.(!i) <- h1;
        k2.(!i) <- o2.(j);
        zs.(!i) <- oz.(j)
      end)
    o1;
  t.k1 <- k1;
  t.k2 <- k2;
  t.zs <- zs;
  t.bits <- bits

type outcome = Added | Covered | Narrowed

let visit t h1 h2 z =
  let slot = find_slot t h1 h2 in
  if t.k1.(slot) = empty then begin
    t.k1.(slot) <- h1;
    t.k2.(slot) <- h2;
    t.zs.(slot) <- z;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * Array.length t.k1 then grow t;
    Added
  end else begin
    let z_old = t.zs.(slot) in
    if z_old land lnot z = 0 then Covered
    else begin
      t.zs.(slot) <- z_old land z;
      Narrowed
    end
  end

let find t h1 h2 =
  let slot = find_slot t h1 h2 in
  if t.k1.(slot) = empty then None else Some t.zs.(slot)
