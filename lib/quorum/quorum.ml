type t = {
  name : string;
  m : int;
  pool : int;
  write_quorum : int -> int array;
  read_quorum : int -> int array;
}

let check_value t v =
  if v < 0 || v >= t.m then
    invalid_arg (Printf.sprintf "%s quorum system: value %d out of range [0,%d)" t.name v t.m)

let binary =
  let rec t =
    { name = "binary";
      m = 2;
      pool = 2;
      write_quorum = (fun v -> check_value t v; [| v |]);
      read_quorum = (fun v -> check_value t v; [| 1 - v |]) }
  in
  t

let complement ~pool elems =
  let in_set = Array.make pool false in
  Array.iter (fun e -> in_set.(e) <- true) elems;
  let out = ref [] in
  for e = pool - 1 downto 0 do
    if not in_set.(e) then out := e :: !out
  done;
  Array.of_list !out

let bollobas_optimal ~m =
  if m < 2 then invalid_arg "bollobas_optimal: need m >= 2";
  let pool = Combinatorics.pool_size_for m in
  let size = pool / 2 in
  let rec t =
    { name = "bollobas";
      m;
      pool;
      write_quorum =
        (fun v -> check_value t v; Combinatorics.unrank_subset ~k:pool ~size v);
      read_quorum =
        (fun v ->
          check_value t v;
          complement ~pool (Combinatorics.unrank_subset ~k:pool ~size v)) }
  in
  t

let bitvector ~m =
  if m < 2 then invalid_arg "bitvector: need m >= 2";
  let bits = Combinatorics.log2_ceil m in
  let bits = max bits 1 in
  (* Register (i, b) lives at index 2*i + b. *)
  let quorum v ~complemented =
    Array.init bits (fun i ->
      let b = (v lsr i) land 1 in
      (2 * i) + (if complemented then 1 - b else b))
  in
  let rec t =
    { name = "bitvector";
      m;
      pool = 2 * bits;
      write_quorum = (fun v -> check_value t v; quorum v ~complemented:false);
      read_quorum = (fun v -> check_value t v; quorum v ~complemented:true) }
  in
  t

let singleton ~m =
  if m < 2 then invalid_arg "singleton: need m >= 2";
  let rec t =
    { name = "singleton";
      m;
      pool = m;
      write_quorum = (fun v -> check_value t v; [| v |]);
      read_quorum =
        (fun v -> check_value t v; complement ~pool:m [| v |]) }
  in
  t

let intersects a b =
  (* Both arrays sorted ascending. *)
  let i = ref 0 and j = ref 0 in
  let hit = ref false in
  while (not !hit) && !i < Array.length a && !j < Array.length b do
    if a.(!i) = b.(!j) then hit := true
    else if a.(!i) < b.(!j) then incr i
    else incr j
  done;
  !hit

let valid t =
  let ok = ref true in
  for v = 0 to t.m - 1 do
    for v' = 0 to t.m - 1 do
      let inter = intersects (t.write_quorum v') (t.read_quorum v) in
      if v = v' && inter then ok := false;
      if v <> v' && not inter then ok := false
    done
  done;
  !ok

let max_size quorum t =
  let best = ref 0 in
  for v = 0 to t.m - 1 do
    best := max !best (Array.length (quorum v))
  done;
  !best

let max_write_size t = max_size t.write_quorum t
let max_read_size t = max_size t.read_quorum t
