type full = {
  step : int;
  n : int;
  enabled : int array;
  pending : Op.any option array;
  memory : Memory.t;
  op_counts : Metrics.counts;
}

(* Each restricted view is the full view itself; the signature hides
   the equation, so the accessors below are the whole interface. *)
type oblivious = full
type value_oblivious = full
type location_oblivious = full

let to_oblivious v = v
let to_value_oblivious v = v
let to_location_oblivious v = v

let pending_of v pid =
  match v.pending.(pid) with
  | Some any -> any
  | None -> invalid_arg (Printf.sprintf "View: pid %d has no pending operation" pid)

let kind v pid = Op.kind (pending_of v pid)

let prob v pid =
  match pending_of v pid with
  | Op.Any (Op.Prob_write (_, _, p)) | Op.Any (Op.Prob_write_detect (_, _, p)) -> p
  | Op.Any (Op.Read _ | Op.Write _ | Op.Collect _) -> 1.0

let op_count v pid = Metrics.count v.op_counts pid

let ob_step v = v.step
let ob_n v = v.n
let ob_enabled v = v.enabled

let vo_step v = v.step
let vo_n v = v.n
let vo_enabled v = v.enabled
let vo_kind = kind
let vo_loc v pid = Op.loc (pending_of v pid)
let vo_prob = prob
let vo_op_count = op_count

let lo_step v = v.step
let lo_n v = v.n
let lo_enabled v = v.enabled
let lo_kind = kind

let lo_value v pid =
  match pending_of v pid with
  | Op.Any (Op.Write (_, x)) | Op.Any (Op.Prob_write (_, x, _))
  | Op.Any (Op.Prob_write_detect (_, x, _)) -> x
  | Op.Any (Op.Read _ | Op.Collect _) ->
    invalid_arg (Printf.sprintf "View.lo_value: pid %d's pending operation is not a write" pid)

let lo_prob = prob
let lo_registers v = Memory.size v.memory
let lo_cell v i = Memory.read v.memory i

let lo_empty v i = Memory.cell v.memory i = Memory.bot
let lo_holds v i x = x <> Memory.bot && Memory.cell v.memory i = x
let lo_op_count = op_count
