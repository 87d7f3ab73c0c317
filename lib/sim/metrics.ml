type t = {
  per_pid : int array;
  mutable total : int;
}

let create ~n =
  { per_pid = Array.make n 0; total = 0 }

let record t ~pid =
  t.per_pid.(pid) <- t.per_pid.(pid) + 1;
  t.total <- t.total + 1

let total t = t.total

let individual t = Array.fold_left max 0 t.per_pid

(* [counts] is the live per-pid array behind an abstract type: holders
   can read it (and see it advance as the scheduler works) but the type
   seals off mutation — no copy per step, no "read-only by convention"
   hole. *)
type counts = int array

let counts t = t.per_pid
let count c pid = c.(pid)
let counts_to_array c = Array.copy c
let counts_of_array a = Array.copy a
