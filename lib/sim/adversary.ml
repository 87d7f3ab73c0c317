type t = {
  name : string;
  fresh : n:int -> Rng.t -> (View.full -> int);
}

let adaptive name fresh = { name; fresh }

let oblivious name fresh =
  { name;
    fresh = (fun ~n rng ->
      let f = fresh ~n rng in
      fun view -> f (View.to_oblivious view)) }

let value_oblivious name fresh =
  { name;
    fresh = (fun ~n rng ->
      let f = fresh ~n rng in
      fun view -> f (View.to_value_oblivious view)) }

let location_oblivious name fresh =
  { name;
    fresh = (fun ~n rng ->
      let f = fresh ~n rng in
      fun view -> f (View.to_location_oblivious view)) }

(* The choice functions below run once per scheduled step, so they
   allocate nothing: scans are loops over the live view, never lists or
   copies, and helpers are top-level functions rather than closures. *)

(* The first index of the ascending [enabled] whose entry is >= [pid],
   by binary search. *)
let lower_bound enabled pid =
  let lo = ref 0 and hi = ref (Array.length enabled) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if enabled.(mid) < pid then lo := mid + 1 else hi := mid
  done;
  !lo

(* The first enabled pid at or cyclically after [start]: its first
   entry >= [start mod n], or its first entry when there is none. *)
let next_enabled_from enabled n start =
  let i = lower_bound enabled (start mod n) in
  if i < Array.length enabled then enabled.(i) else enabled.(0)

(* Membership in an ascending pid array. *)
let mem_sorted enabled pid =
  let i = lower_bound enabled pid in
  i < Array.length enabled && enabled.(i) = pid

(* The next pid of a plain rotation over [enabled]. *)
let rotate cursor enabled =
  let pid = enabled.(!cursor mod Array.length enabled) in
  incr cursor;
  pid

let round_robin =
  oblivious "round_robin" (fun ~n:_ _rng ->
    let cursor = ref 0 in
    fun v ->
      let pid = next_enabled_from (View.ob_enabled v) (View.ob_n v) !cursor in
      cursor := pid + 1;
      pid)

let random_uniform =
  oblivious "random_uniform" (fun ~n:_ rng ->
    fun v ->
      let enabled = View.ob_enabled v in
      enabled.(Rng.int rng (Array.length enabled)))

let fixed_permutation ?perm () =
  oblivious "fixed_permutation" (fun ~n rng ->
    let perm = match perm with Some p -> Array.copy p | None -> Rng.permutation rng n in
    let cursor = ref 0 in
    fun v ->
      (* Probe at most two rounds of the permutation for an enabled pid. *)
      let enabled = View.ob_enabled v in
      let pid = ref (-1) and probes = ref (2 * n) in
      while !pid < 0 && !probes > 0 do
        let p = perm.(!cursor mod n) in
        incr cursor;
        decr probes;
        if mem_sorted enabled p then pid := p
      done;
      if !pid >= 0 then !pid else enabled.(0))

(* The [k]-th pending reader at or after [pid], in pid order. *)
let rec nth_reader v pid k =
  if not (View.vo_is_reader v pid) then nth_reader v (pid + 1) k
  else if k = 0 then pid
  else nth_reader v (pid + 1) (k - 1)

let write_stalker =
  value_oblivious "write_stalker" (fun ~n:_ _rng ->
    let cursor = ref 0 in
    fun v ->
      (* Rotate over the pending readers in pid order, or over every
         enabled pid when there are none.  The scheduler keeps the
         reader count, so only finding the chosen reader scans. *)
      let readers = View.vo_readers v in
      if readers = 0 then rotate cursor (View.vo_enabled v)
      else begin
        let pid = nth_reader v 0 (!cursor mod readers) in
        incr cursor;
        pid
      end)

(* Whether some register at or after [i] holds a value, and whether one
   holds exactly [x]: in-place scans that compare ints, not options, and
   box nothing. *)
let rec any_stored v i =
  i < View.lo_registers v && ((not (View.lo_empty v i)) || any_stored v (i + 1))

let rec is_stored v x i =
  i < View.lo_registers v && (View.lo_holds v i x || is_stored v x (i + 1))

(* The enabled pid whose pending write carries a value stored nowhere
   in memory, highest write probability first and lowest pid on ties;
   -1 if there is none.  Meaningful once memory is non-empty. *)
let most_likely_conflict v =
  let enabled = View.lo_enabled v in
  let best = ref (-1) and best_p = ref 0.0 in
  for i = 0 to Array.length enabled - 1 do
    let pid = enabled.(i) in
    match View.lo_kind v pid with
    | Op.Write_op | Op.Prob_write_op when not (is_stored v (View.lo_value v pid) 0) ->
      let p = View.lo_prob v pid in
      if !best < 0 || !best_p < p then begin
        best := pid;
        best_p := p
      end
    | Op.Write_op | Op.Prob_write_op | Op.Read_op | Op.Collect_op -> ()
  done;
  !best

let overwrite_attacker =
  location_oblivious "overwrite_attacker" (fun ~n:_ _rng ->
    let cursor = ref 0 in
    fun v ->
      let best = if any_stored v 0 then most_likely_conflict v else -1 in
      if best >= 0 then best else rotate cursor (View.lo_enabled v))

(* The first enabled pid whose pending operation is a read, or -1. *)
let rec first_reader (v : View.full) i =
  if i = Array.length v.enabled then -1
  else
    match v.pending.(v.enabled.(i)) with
    | Some (Op.Any (Op.Read _)) -> v.enabled.(i)
    | Some _ | None -> first_reader v (i + 1)

let adaptive_overwriter =
  adaptive "adaptive_overwriter" (fun ~n:_ _rng ->
    (* Tries to split the readers: once some register is non-empty,
       alternate between letting one pending reader observe the current
       value and scheduling the conflicting pending writer most likely
       to overwrite it, so that successive readers see different
       values.  An adaptive adversary may do this because it sees both
       register contents and pending-write values/locations; Theorem 7
       makes no promise against it.  Everything a location-oblivious
       adversary sees is part of that, so it reuses those scans. *)
    let cursor = ref 0 in
    let let_reader_go = ref true in
    fun (v : View.full) ->
      let lv = View.to_location_oblivious v in
      if not (any_stored lv 0) then rotate cursor v.enabled
      else begin
        let reader_first = !let_reader_go in
        let_reader_go := not reader_first;
        let pid = if reader_first then first_reader v 0 else most_likely_conflict lv in
        let pid =
          if pid >= 0 then pid
          else if reader_first then most_likely_conflict lv
          else first_reader v 0
        in
        if pid >= 0 then pid else rotate cursor v.enabled
      end)

let noisy ?(jitter = 0.3) () =
  oblivious "noisy" (fun ~n rng ->
    (* vtime.(p) is process p's next planned step time; each executed
       step adds 1 plus accumulated random error, as in the noisy
       scheduling model of Aspnes [5]. *)
    let vtime = Array.init n (fun _ -> Rng.float rng) in
    fun v ->
      let enabled = View.ob_enabled v in
      let best = ref enabled.(0) in
      for i = 1 to Array.length enabled - 1 do
        if vtime.(enabled.(i)) < vtime.(!best) then best := enabled.(i)
      done;
      let pid = !best in
      vtime.(pid) <- vtime.(pid) +. 1.0 +. (Rng.exponential rng (1.0 /. jitter) -. jitter);
      pid)

let priority ?priorities () =
  oblivious "priority" (fun ~n rng ->
    let prio =
      match priorities with
      | Some p -> Array.copy p
      | None ->
        ignore (Rng.bits64 rng);
        Array.init n Fun.id
    in
    fun v ->
      let enabled = View.ob_enabled v in
      let best = ref enabled.(0) in
      for i = 1 to Array.length enabled - 1 do
        if prio.(enabled.(i)) > prio.(!best) then best := enabled.(i)
      done;
      !best)

let all_weak () =
  [ round_robin; random_uniform; fixed_permutation (); write_stalker; overwrite_attacker ]

let by_name = function
  | "round_robin" -> round_robin
  | "random_uniform" -> random_uniform
  | "fixed_permutation" -> fixed_permutation ()
  | "write_stalker" -> write_stalker
  | "overwrite_attacker" -> overwrite_attacker
  | "adaptive_overwriter" -> adaptive_overwriter
  | "noisy" -> noisy ()
  | "priority" -> priority ()
  | _ -> raise Not_found
