type 'r t =
  | Done of 'r
  | Step : 'a Op.t * ('a -> 'r t) -> 'r t
  | Label of string * 'r t
  | Recoverable of { main : 'r t; recover : 'r t }

let return x = Done x

let rec bind p f =
  match p with
  | Done x -> f x
  | Step (op, k) -> Step (op, fun a -> bind (k a) f)
  | Label (s, p) -> Label (s, bind p f)
  (* Sequencing distributes into both branches: whatever runs after the
     protocol (e.g. the checker's output mapping) also runs after a
     restarted attempt, and the declaration stays at the root where the
     engines peel it off. *)
  | Recoverable { main; recover } ->
    Recoverable { main = bind main f; recover = bind recover f }

let map f p = bind p (fun x -> Done (f x))

let ( let* ) = bind
let ( let+ ) p f = map f p

let perform op = Step (op, fun a -> Done a)

let read l = perform (Op.Read l)
let write l v = perform (Op.Write (l, v))
let prob_write l v ~p = perform (Op.Prob_write (l, v, p))
let prob_write_detect l v ~p = perform (Op.Prob_write_detect (l, v, p))
let collect l len = perform (Op.Collect (l, len))

let label s p = Label (s, p)

let recoverable ~recover main = Recoverable { main; recover }

let rec pending = function
  | Done _ -> None
  | Step (op, _) -> Some (Op.Any op)
  | Label (_, p) -> pending p
  | Recoverable { main; _ } -> pending main

let rec is_done = function
  | Done _ -> true
  | Step _ -> false
  | Label (_, p) -> is_done p
  | Recoverable { main; _ } -> is_done main

let rec result = function
  | Done r -> Some r
  | Step _ -> None
  | Label (_, p) -> result p
  | Recoverable { main; _ } -> result main

(* Monadic iteration helpers for porting loop-shaped protocol code.
   [exists_array] short-circuits like [Array.exists], preserving the
   operation sequences of the original direct-style protocols. *)

let rec iter_list f = function
  | [] -> Done ()
  | x :: rest -> bind (f x) (fun () -> iter_list f rest)

let iter_array f arr =
  let rec go i =
    if i >= Array.length arr then Done () else bind (f arr.(i)) (fun () -> go (i + 1))
  in
  go 0

let exists_array f arr =
  let rec go i =
    if i >= Array.length arr then Done false
    else bind (f arr.(i)) (fun found -> if found then Done true else go (i + 1))
  in
  go 0

let map_array f arr =
  let n = Array.length arr in
  let rec go i acc =
    if i >= n then Done (Array.of_list (List.rev acc))
    else bind (f arr.(i)) (fun x -> go (i + 1) (x :: acc))
  in
  go 0 []
