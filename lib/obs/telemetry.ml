(* The explorer counters registry.  Counters are a fixed, named set;
   each domain has its own row, a plain [int array] with exactly one
   writer (the explorer holding that row's probe), so a bump is an
   ordinary increment, and snapshots merge rows in domain (= DFS shard
   emission) order so fleet totals are reproducible.  A probe is one
   row handed to one explorer; the registry aggregates. *)

type kind = Sum | Max

type counter = int

(* Counter ids.  Keep [registry] below in the same order. *)
let leaves_complete = 0
let leaves_truncated = 1
let leaves_pruned = 2
let steps = 3
let steals = 4
let shards_done = 5
let shards_generated = 6
let frontier_passes = 7
let dedup_hits = 8
let dedup_misses = 9
let dedup_intersections = 10
let dedup_table_peak = 11
let snapshots = 12
let snapshot_refreshes = 13
let snapshot_pool_high = 14
let dpor_races = 15
let dpor_backtracks = 16
let checkpoints = 17
let recovers = 18
let code_pcs = 19
let ncounters = 20

let registry =
  [| ("leaves_complete", Sum);
     ("leaves_truncated", Sum);
     ("leaves_pruned", Sum);
     ("steps", Sum);
     ("steals", Sum);
     ("shards_done", Sum);
     ("shards_generated", Max);
     ("frontier_passes", Sum);
     ("dedup_hits", Sum);
     ("dedup_misses", Sum);
     ("dedup_intersections", Sum);
     ("dedup_table_peak", Max);
     ("snapshots", Sum);
     ("snapshot_refreshes", Sum);
     ("snapshot_pool_high", Max);
     ("dpor_races", Sum);
     ("dpor_backtracks", Sum);
     ("checkpoints", Sum);
     ("recovers", Sum);
     ("code_pcs", Max) |]

let () = assert (Array.length registry = ncounters)
let name c = fst registry.(c)
let kind c = snd registry.(c)

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

type probe = {
  cells : int array; (* one per counter; single-writer *)
  cov : Coverage.t option;
}

let fresh_cells () = Array.make ncounters 0

let fresh_probe ?(coverage = false) () =
  { cells = fresh_cells ();
    cov = (if coverage then Some (Coverage.create ()) else None) }

let bump p c = p.cells.(c) <- p.cells.(c) + 1
let add p c v = p.cells.(c) <- p.cells.(c) + v
let peak p c v = if v > p.cells.(c) then p.cells.(c) <- v
let count p c = p.cells.(c)

let coverage p = p.cov

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type shard = {
  shard : int;
  domain : int;
  prefix : int;
  leaves : int;
  steps : int;
  start : float;
  seconds : float;
}

type t = {
  domains : int;
  coverage_on : bool;
  created : float;
  rows : int array array; (* [domain].[counter] *)
  probes : probe option array;
  mutable shards : shard list;
  mutable merged_cov : Coverage.t option;
  mutable finalized : bool;
  mutex : Mutex.t;
}

let create ?(coverage = false) ~domains () =
  if domains < 1 then invalid_arg "Telemetry.create: domains must be >= 1";
  { domains;
    coverage_on = coverage;
    created = Unix.gettimeofday ();
    rows = Array.init domains (fun _ -> fresh_cells ());
    probes = Array.make domains None;
    shards = [];
    merged_cov = None;
    finalized = false;
    mutex = Mutex.create () }

let domains t = t.domains
let created t = t.created
let coverage_on t = t.coverage_on

let probe t ~domain =
  if domain < 0 || domain >= t.domains then
    invalid_arg "Telemetry.probe: domain out of range";
  Mutex.protect t.mutex (fun () ->
      match t.probes.(domain) with
      | Some p -> p
      | None ->
        let p =
          { cells = t.rows.(domain);
            cov =
              (if t.coverage_on then Some (Coverage.create ()) else None) }
        in
        t.probes.(domain) <- Some p;
        p)

let merge_cov_locked t cov =
  match t.merged_cov with
  | Some acc -> Coverage.merge acc cov
  | None ->
    let acc = Coverage.create () in
    Coverage.merge acc cov;
    t.merged_cov <- Some acc

(* Fold a free-standing probe's cells (and coverage) into a domain row
   — used for shard-generator passes, whose probes must be fresh per
   pass because only the last pass's residue counts. *)
let absorb t ~domain p =
  if domain < 0 || domain >= t.domains then
    invalid_arg "Telemetry.absorb: domain out of range";
  let row = t.rows.(domain) in
  for c = 0 to ncounters - 1 do
    let v = p.cells.(c) in
    match kind c with
    | Sum -> row.(c) <- row.(c) + v
    | Max -> if v > row.(c) then row.(c) <- v
  done;
  match p.cov with
  | None -> ()
  | Some cov -> Mutex.protect t.mutex (fun () -> merge_cov_locked t cov)

let record_shard t sh =
  Mutex.protect t.mutex (fun () -> t.shards <- sh :: t.shards)

let shards t =
  List.sort (fun a b -> compare a.shard b.shard) t.shards

(* Merge every worker probe's coverage into the registry's accumulator
   — once, after the fleet has joined. *)
let finalize t =
  Mutex.protect t.mutex (fun () ->
      if not t.finalized then begin
        t.finalized <- true;
        Array.iter
          (function
            | Some { cov = Some cov; _ } -> merge_cov_locked t cov
            | Some { cov = None; _ } | None -> ())
          t.probes
      end)

let merged_coverage t = t.merged_cov

(* Live fleet-wide read while the rows' writers run: a racy read of
   plain ints, which OCaml's memory model makes safe (each read returns
   some value the cell held), monotone per cell.  Sum counters sum over
   domains, Max counters max. *)
let live t c =
  let acc = ref 0 in
  for d = 0 to t.domains - 1 do
    let v = t.rows.(d).(c) in
    match kind c with
    | Sum -> acc := !acc + v
    | Max -> if v > !acc then acc := v
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Snapshots: the counter monoid                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = int array

let empty () : snapshot = Array.make ncounters 0

let of_values vs =
  if Array.length vs <> ncounters then
    invalid_arg "Telemetry.of_values: wrong length";
  Array.copy vs

let get (s : snapshot) c = s.(c)

let to_alist (s : snapshot) =
  List.init ncounters (fun c -> (name c, s.(c)))

let merge (a : snapshot) (b : snapshot) : snapshot =
  Array.init ncounters (fun c ->
      match kind c with Sum -> a.(c) + b.(c) | Max -> max a.(c) b.(c))

let snapshot_of_domain t ~domain : snapshot = Array.copy t.rows.(domain)

(* Domain rows merged in index order — shard-emission (DFS) order, so
   [--jobs N] totals are reproducible wherever the semantics are
   deterministic (Sum counters of executions/steps class). *)
let totals t : snapshot =
  let acc = ref (snapshot_of_domain t ~domain:0) in
  for d = 1 to t.domains - 1 do
    acc := merge !acc (snapshot_of_domain t ~domain:d)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let strf = Printf.sprintf

let snapshot_json (s : snapshot) =
  "{"
  ^ String.concat ","
      (List.init ncounters (fun c -> strf "\"%s\":%d" (name c) s.(c)))
  ^ "}"

let shard_json sh =
  strf
    "{\"shard\":%d,\"domain\":%d,\"prefix\":%d,\"leaves\":%d,\"steps\":%d,\"start\":%.6f,\"seconds\":%.6f}"
    sh.shard sh.domain sh.prefix sh.leaves sh.steps sh.start sh.seconds

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema_version\":3";
  Buffer.add_string b (strf ",\"domains\":%d" t.domains);
  Buffer.add_string b (",\"counters\":" ^ snapshot_json (totals t));
  Buffer.add_string b ",\"per_domain\":[";
  for d = 0 to t.domains - 1 do
    if d > 0 then Buffer.add_char b ',';
    Buffer.add_string b (snapshot_json (snapshot_of_domain t ~domain:d))
  done;
  Buffer.add_string b "],\"shards\":[";
  List.iteri
    (fun i sh ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (shard_json sh))
    (shards t);
  Buffer.add_string b "]";
  (match t.merged_cov with
   | Some cov -> Buffer.add_string b (",\"coverage\":" ^ Coverage.to_json cov)
   | None -> ());
  Buffer.add_string b "}";
  Buffer.contents b
