type decision = bool * int

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

(* Every checker below is a module-level index recursion threading its
   arrays as parameters rather than [Array.iteri] + refs or local
   closures: the exhaustive explorers evaluate these at every leaf of
   multi-million-leaf searches, so the passing path must allocate
   nothing — and a [let rec] nested inside the checker would allocate
   its closure (capturing the arrays) on every call.  Failure paths
   (which build the message) are cold.  Each reports the same violation
   the historical fold did: the first bad process in pid order. *)

(* Typed on [int] so [=] compiles to an integer compare, not a
   polymorphic [compare_val] call per input. *)
let rec mem_input (inputs : int array) (v : int) i =
  i < Array.length inputs && (inputs.(i) = v || mem_input inputs v (i + 1))

let mem_input inputs v = mem_input inputs v 0

let rec validity_scan inputs (outputs : int option array) n pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some v when not (mem_input inputs v) ->
      errf "validity: p%d output %d, which is nobody's input" pid v
    | Some _ | None -> validity_scan inputs outputs n (pid + 1)

let validity ~inputs ~outputs =
  validity_scan inputs outputs (Array.length outputs) 0

let rec validity_decided_scan inputs (outputs : decision option array) n pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (_, v) when not (mem_input inputs v) ->
      errf "validity: p%d output %d, which is nobody's input" pid v
    | Some _ | None -> validity_decided_scan inputs outputs n (pid + 1)

let validity_decided ~inputs ~outputs =
  validity_decided_scan inputs outputs (Array.length outputs) 0

let rec agreement_against (outputs : int option array) n pid0 v0 pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some v when v <> v0 ->
      errf "agreement: p%d output %d but p%d output %d" pid0 v0 pid v
    | Some _ | None -> agreement_against outputs n pid0 v0 (pid + 1)

let rec agreement_first (outputs : int option array) n pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some v -> agreement_against outputs n pid v (pid + 1)
    | None -> agreement_first outputs n (pid + 1)

let agreement ~outputs = agreement_first outputs (Array.length outputs) 0

(* {!agreement} over deciding-object outputs directly, without
   materializing the value projection — the per-leaf hot path of the
   registry's Deciders_agree checkers. *)
let rec agreement_decided_against (outputs : decision option array) n pid0 v0 pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (_, v) when v <> v0 ->
      errf "agreement: p%d output %d but p%d output %d" pid0 v0 pid v
    | Some _ | None -> agreement_decided_against outputs n pid0 v0 (pid + 1)

let rec agreement_decided_first (outputs : decision option array) n pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (_, v) -> agreement_decided_against outputs n pid v (pid + 1)
    | None -> agreement_decided_first outputs n (pid + 1)

let agreement_decided ~outputs =
  agreement_decided_first outputs (Array.length outputs) 0

let rec coherence_against (outputs : decision option array) n dpid dv pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (_, v) when v <> dv ->
      errf "coherence: p%d decided %d but p%d output value %d" dpid dv pid v
    | Some _ | None -> coherence_against outputs n dpid dv (pid + 1)

let rec coherence_decider (outputs : decision option array) n pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (true, v) -> coherence_against outputs n pid v 0
    | Some _ | None -> coherence_decider outputs n (pid + 1)

let coherence ~outputs = coherence_decider outputs (Array.length outputs) 0

let rec all_inputs_equal (inputs : int array) (v0 : int) i =
  i >= Array.length inputs || (inputs.(i) = v0 && all_inputs_equal inputs v0 (i + 1))

let rec acceptance_scan (outputs : decision option array) n v0 pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (true, v) when v = v0 -> acceptance_scan outputs n v0 (pid + 1)
    | Some (d, v) ->
      errf "acceptance: all inputs %d but p%d output (%b, %d)" v0 pid d v
    | None -> errf "acceptance: all inputs %d but p%d did not finish" v0 pid

let acceptance ~inputs ~outputs =
  if Array.length inputs = 0 then Ok ()
  else
    let v0 = inputs.(0) in
    if not (all_inputs_equal inputs v0 1) then Ok ()
    else acceptance_scan outputs (Array.length outputs) v0 0

(* Crash-robust acceptance: like [acceptance], but a process with no
   output is excused.  At a crash-complete leaf (no process runnable)
   the explorers guarantee [None] outputs are exactly the crashed
   processes, so this is "every survivor accepts" — the strongest form
   of Lemma 3 that survives crash-stop faults, since a crashed process
   cannot be obliged to decide. *)
let rec acceptance_survivors_scan (outputs : decision option array) n v0 pid =
  if pid >= n then Ok ()
  else
    match outputs.(pid) with
    | Some (true, v) when v = v0 -> acceptance_survivors_scan outputs n v0 (pid + 1)
    | Some (d, v) ->
      errf "acceptance: all inputs %d but surviving p%d output (%b, %d)" v0 pid d v
    | None -> acceptance_survivors_scan outputs n v0 (pid + 1)

let acceptance_survivors ~inputs ~outputs =
  if Array.length inputs = 0 then Ok ()
  else
    let v0 = inputs.(0) in
    if not (all_inputs_equal inputs v0 1) then Ok ()
    else acceptance_survivors_scan outputs (Array.length outputs) v0 0

let consensus_execution ~inputs ~outputs ~completed =
  if not completed then Error "termination: execution hit the step bound"
  else
    match agreement ~outputs with
    | Error _ as e -> e
    | Ok () -> validity ~inputs ~outputs

let all results =
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) results
