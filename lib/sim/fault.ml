(* The fault plane's core vocabulary: which faults an execution may
   contain (the [model], carried by checker configs and artifacts) and
   what a fault injector may do to one scheduling step (the [action] /
   [plan], used by the Monte-Carlo scheduler).  Combinators that build
   interesting plans live in [Conrat_faults]; this module only defines
   the types the machine-level drivers need. *)

type model = {
  crashes : int;
  recoveries : int;
  weak_reads : bool;
}

let none = { crashes = 0; recoveries = 0; weak_reads = false }

let is_none m = m.crashes = 0 && m.recoveries = 0 && not m.weak_reads

let crash_only f =
  if f < 0 then invalid_arg "Fault.crash_only: negative budget";
  { crashes = f; recoveries = 0; weak_reads = false }

let model ?(crashes = 0) ?(recoveries = 0) ?(weak_reads = false) () =
  if crashes < 0 then invalid_arg "Fault.model: negative crash budget";
  if recoveries < 0 then invalid_arg "Fault.model: negative recovery budget";
  if recoveries > 0 && crashes = 0 then
    invalid_arg "Fault.model: recovery budget without a crash budget";
  { crashes; recoveries; weak_reads }

let to_string m =
  if is_none m then "none"
  else
    String.concat ","
      ((if m.crashes > 0 then [ Printf.sprintf "crash:f=%d" m.crashes ] else [])
       @ (if m.recoveries > 0 then [ Printf.sprintf "recover:r=%d" m.recoveries ]
          else [])
       @ (if m.weak_reads then [ "weak" ] else []))

(* Accepted spec grammar (the CLI's --faults argument):
     none | crash:f=K | weak | recover | recover:r=R
   — comma-separated parts in any order, each kind (crash, recover,
   weak) at most once, so no part silently overrides another.  Bare
   [recover] resolves to r = f once all parts are parsed; [recover]
   without a crash budget is contradictory (nothing can ever be down to
   restart) and is rejected with a spec-specific message rather than
   the generic one. *)
let of_string s =
  let err () =
    Error
      (Printf.sprintf "bad fault spec %S (try crash:f=2,weak or crash:f=1,recover)" s)
  in
  match String.trim s with
  | "" | "none" -> Ok none
  | s ->
    let parts = String.split_on_char ',' s in
    (* recover_req: None = no recover part seen; Some None = bare
       [recover] (budget defaults to f); Some (Some r) = recover:r=R.
       seen: the part kinds parsed so far. *)
    let rec go acc recover_req seen = function
      | [] ->
        (match recover_req with
         | None -> Ok acc
         | Some req ->
           if acc.crashes = 0 then
             Error
               (Printf.sprintf
                  "bad fault spec %S: recover needs a crash budget (add crash:f=K)" s)
           else
             let r = match req with None -> acc.crashes | Some r -> r in
             Ok { acc with recoveries = r })
      | part :: rest ->
        let part = String.trim part in
        let kind =
          match String.index_opt part ':' with
          | Some i -> String.sub part 0 i
          | None -> part
        in
        let go acc recover_req rest = go acc recover_req (kind :: seen) rest in
        if List.mem kind seen then
          Error (Printf.sprintf "bad fault spec %S: %s given twice" s kind)
        else
        (match part with
         | "weak" -> go { acc with weak_reads = true } recover_req rest
         | "recover" -> go acc (Some None) rest
         | part ->
           let with_prefix prefix k =
             let pl = String.length prefix in
             if String.length part > pl && String.sub part 0 pl = prefix then
               Some (k (String.sub part pl (String.length part - pl)))
             else None
           in
           let parsed =
             match with_prefix "crash:f=" (fun v -> `Crash v) with
             | Some _ as p -> p
             | None -> with_prefix "recover:r=" (fun v -> `Recover v)
           in
           (match parsed with
            | Some (`Crash v) ->
              (match int_of_string_opt v with
               | Some f when f >= 0 -> go { acc with crashes = f } recover_req rest
               | Some _ | None -> err ())
            | Some (`Recover v) ->
              (match int_of_string_opt v with
               | Some r when r >= 0 -> go acc (Some (Some r)) rest
               | Some _ | None -> err ())
            | None -> err ()))
    in
    go none None [] parts

(* ------------------------------------------------------------------ *)
(* Injection plans for the Monte-Carlo scheduler                       *)
(* ------------------------------------------------------------------ *)

(* The plan sees the adversary's choice and may override it: schedule
   it normally, crash-stop a process instead, deliver the chosen
   process's pending read stale (only meaningful on a weak register —
   the scheduler silently downgrades [Stale] to [Step] otherwise), or
   restart a crashed process. *)
type action =
  | Step of int
  | Crash of int
  | Stale of int
  | Recover of int

type plan = {
  plan_name : string;
  plan_fresh : n:int -> Rng.t -> (View.full -> chosen:int -> action);
}

let no_plan =
  { plan_name = "none"; plan_fresh = (fun ~n:_ _rng _view ~chosen -> Step chosen) }
