module Telemetry = Conrat_obs.Telemetry

type t = int list array

let target ~jobs = max 64 (16 * jobs)

(* Deepening heuristic: a cut at branch level [lvl] (POR's frame
   nesting) yields one shard per explored candidate of each
   first-branch-point-at-or-below [lvl]; going deeper multiplies
   shards by the branching beneath, at the price of the generator
   exploring longer corridors itself.  We start shallow and deepen by
   two frames while the count still grows and remains short of
   [target]; a pass whose count stops growing (same branch points, or
   a narrow chain) is kept as-is — each pass is a complete partition,
   so any pass is correct, and the stagnation pass is the cheapest
   correct one.  Zero shards means the cut never fired: the whole tree
   sits above the cut and the residue statistics of that pass already
   cover it. *)
let generate ?probe ~target ~run () =
  let rec go lvl prev_count =
    let shards = ref [] in
    let nshards = ref 0 in
    let emit path =
      shards := path :: !shards;
      incr nshards
    in
    (match probe with
     | Some p -> Telemetry.bump p Telemetry.frontier_passes
     | None -> ());
    match run ~cut:(lvl, emit) with
    | Error _ as e -> e
    | Ok residue ->
      let count = !nshards in
      if count = 0 || count >= target || count <= prev_count then begin
        (match probe with
         | Some p -> Telemetry.peak p Telemetry.shards_generated count
         | None -> ());
        Ok (residue, Array.of_list (List.rev !shards))
      end
      else go (lvl + 2) count
  in
  go 2 0

type pool = { shards : t; cursor : int Atomic.t }

let pool shards = { shards; cursor = Atomic.make 0 }

let steal p =
  let i = Atomic.fetch_and_add p.cursor 1 in
  if i < Array.length p.shards then Some (i, p.shards.(i)) else None
