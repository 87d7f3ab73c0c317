type t = {
  per_pid : int array;
  mutable total : int;
  mutable reads : int;
  mutable writes : int;
  mutable prob_writes : int;
  mutable collects : int;
}

let create ~n =
  { per_pid = Array.make n 0; total = 0; reads = 0; writes = 0; prob_writes = 0; collects = 0 }

let record t ~pid kind =
  t.per_pid.(pid) <- t.per_pid.(pid) + 1;
  t.total <- t.total + 1;
  match kind with
  | Op.Read_op -> t.reads <- t.reads + 1
  | Op.Write_op -> t.writes <- t.writes + 1
  | Op.Prob_write_op -> t.prob_writes <- t.prob_writes + 1
  | Op.Collect_op -> t.collects <- t.collects + 1

let total t = t.total

let individual t = Array.fold_left max 0 t.per_pid

let per_process t = Array.copy t.per_pid

(* [counts] is the live per-pid array behind an abstract type: holders
   can read it (and see it advance as the scheduler works) but the type
   seals off mutation — no copy per step, no "read-only by convention"
   hole. *)
type counts = int array

let counts t = t.per_pid
let count c pid = c.(pid)
let counts_length c = Array.length c
let counts_to_array c = Array.copy c
let counts_of_array a = Array.copy a

let ops_of t ~pid = t.per_pid.(pid)

let reads t = t.reads
let writes t = t.writes
let prob_writes t = t.prob_writes
let collects t = t.collects
