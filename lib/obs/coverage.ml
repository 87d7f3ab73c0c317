(* Coverage signatures: what the search saw, as opposed to how hard it
   worked (Telemetry's counters).  One instance is single-writer — each
   explorer worker owns one — and instances merge commutatively, so the
   fleet's signature is independent of shard placement. *)

type kind = [ `Complete | `Truncated | `Pruned ]

(* Stage ids are 6-bit: id 0 is "no stage", 63 the overflow bucket once
   62 distinct labels have been seen (registry protocols use a
   handful).  A leaf signature packs one id per process into a single
   int, so collecting a signature allocates nothing once the labels are
   interned; signatures are only widened to name arrays at export. *)
let id_bits = 6
let id_mask = 63
let overflow_id = 63
let max_ids = 62
let max_sig_n = 10 (* 10 * 6 bits < 63; wider configs skip signatures *)

type t = {
  mutable dc : int array; (* depth histogram of complete leaves *)
  mutable dt : int array; (* ... truncated *)
  mutable dp : int array; (* ... pruned *)
  interner : (string, int) Hashtbl.t;
  mutable names : string array; (* id -> label *)
  mutable nnames : int;
  mutable sig_n : int; (* processes per signature; 0 until first leaf *)
  sigs : (int, int) Hashtbl.t; (* packed signature -> leaf count *)
  mutable curves : (int * int) array list; (* sealed saturation curves *)
  mutable live : (int * int) list; (* current curve, newest first *)
}

let create () =
  let names = Array.make 8 "" in
  names.(0) <- "-";
  { dc = [||];
    dt = [||];
    dp = [||];
    interner = Hashtbl.create 16;
    names;
    nnames = 1;
    sig_n = 0;
    sigs = Hashtbl.create 64;
    curves = [];
    live = [] }

let intern t s =
  match Hashtbl.find_opt t.interner s with
  | Some id -> id
  | None ->
    if t.nnames > max_ids then overflow_id
    else begin
      let id = t.nnames in
      if id >= Array.length t.names then begin
        let bigger = Array.make (2 * Array.length t.names) "" in
        Array.blit t.names 0 bigger 0 (Array.length t.names);
        t.names <- bigger
      end;
      t.names.(id) <- s;
      t.nnames <- id + 1;
      Hashtbl.add t.interner s id;
      id
    end

let name_of t id =
  if id = overflow_id && id >= t.nnames then "…" else t.names.(id)

let bump_depth arr d =
  let arr =
    if d < Array.length arr then arr
    else begin
      let bigger = Array.make (max (2 * Array.length arr) (d + 1)) 0 in
      Array.blit arr 0 bigger 0 (Array.length arr);
      bigger
    end
  in
  arr.(d) <- arr.(d) + 1;
  arr

let leaf t ~kind ~depth ~n ~stage =
  (match kind with
   | `Complete -> t.dc <- bump_depth t.dc depth
   | `Truncated -> t.dt <- bump_depth t.dt depth
   | `Pruned -> t.dp <- bump_depth t.dp depth);
  match kind with
  | `Pruned -> ()
  | `Complete | `Truncated ->
    if n <= max_sig_n then begin
      if t.sig_n = 0 then t.sig_n <- n;
      let packed = ref 0 in
      for pid = n - 1 downto 0 do
        let id =
          match stage pid with None -> 0 | Some s -> intern t s
        in
        packed := (!packed lsl id_bits) lor id
      done;
      let cur =
        match Hashtbl.find_opt t.sigs !packed with Some c -> c | None -> 0
      in
      Hashtbl.replace t.sigs !packed (cur + 1)
    end

let saturate t ~leaves ~table = t.live <- (leaves, table) :: t.live

let seal t =
  if t.live <> [] then begin
    t.curves <- Array.of_list (List.rev t.live) :: t.curves;
    t.live <- []
  end

let unpack t packed n =
  Array.init n (fun i -> name_of t ((packed lsr (i * id_bits)) land id_mask))

let add_arrays a b =
  if Array.length b = 0 then a
  else begin
    let a =
      if Array.length a >= Array.length b then a
      else begin
        let bigger = Array.make (Array.length b) 0 in
        Array.blit a 0 bigger 0 (Array.length a);
        bigger
      end
    in
    Array.iteri (fun i v -> a.(i) <- a.(i) + v) b;
    a
  end

(* Merge [b] into [a].  [b]'s live curve is sealed first; [b] itself is
   otherwise unchanged and may be merged again (double-counting is the
   caller's problem, as with any counter). *)
let merge a b =
  seal a;
  seal b;
  a.dc <- add_arrays a.dc b.dc;
  a.dt <- add_arrays a.dt b.dt;
  a.dp <- add_arrays a.dp b.dp;
  if a.sig_n = 0 then a.sig_n <- b.sig_n;
  Hashtbl.iter
    (fun packed count ->
      let names = unpack b packed b.sig_n in
      let repacked = ref 0 in
      for i = b.sig_n - 1 downto 0 do
        let id = if names.(i) = "-" then 0 else intern a names.(i) in
        repacked := (!repacked lsl id_bits) lor id
      done;
      let cur =
        match Hashtbl.find_opt a.sigs !repacked with Some c -> c | None -> 0
      in
      Hashtbl.replace a.sigs !repacked (cur + count))
    b.sigs;
  a.curves <- a.curves @ b.curves

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let trim arr =
  let len = ref (Array.length arr) in
  while !len > 0 && arr.(!len - 1) = 0 do
    decr len
  done;
  Array.sub arr 0 !len

let int_array_json arr =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int arr)) ^ "]"

(* Canonical rendering: depth arrays trimmed of trailing zeros,
   signatures sorted by their rendered name tuples, curves sorted
   structurally — so [to_json] is a function of the abstract contents,
   not of interning or merge order, and two documents can be compared
   as strings. *)
let to_json t =
  seal t;
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"schema_version\":3";
  Buffer.add_string b ",\"depth_profile\":{";
  Buffer.add_string b ("\"complete\":" ^ int_array_json (trim t.dc));
  Buffer.add_string b (",\"truncated\":" ^ int_array_json (trim t.dt));
  Buffer.add_string b (",\"pruned\":" ^ int_array_json (trim t.dp));
  Buffer.add_string b "}";
  let sigs =
    Hashtbl.fold
      (fun packed count acc -> (unpack t packed t.sig_n, count) :: acc)
      t.sigs []
    |> List.sort compare
  in
  Buffer.add_string b ",\"stage_signatures\":[";
  List.iteri
    (fun i (names, count) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"sig\":[";
      Array.iteri
        (fun j s ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Json.string s))
        names;
      Buffer.add_string b (Printf.sprintf "],\"count\":%d}" count))
    sigs;
  Buffer.add_string b "]";
  let curves = List.sort compare t.curves in
  Buffer.add_string b ",\"dedup_saturation\":[";
  List.iteri
    (fun i curve ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      Array.iteri
        (fun j (leaves, table) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "[%d,%d]" leaves table))
        curve;
      Buffer.add_char b ']')
    curves;
  Buffer.add_string b "]}";
  Buffer.contents b

let signatures t = Hashtbl.length t.sigs

let leaves t =
  Array.fold_left ( + ) 0 t.dc
  + Array.fold_left ( + ) 0 t.dt
  + Array.fold_left ( + ) 0 t.dp
