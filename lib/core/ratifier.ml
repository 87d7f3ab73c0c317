open Conrat_sim
open Conrat_objects
open Conrat_quorum
open Program

let space (q : Quorum.t) = q.pool + 1

let max_individual_work (q : Quorum.t) =
  Quorum.max_write_size q + Quorum.max_read_size q + 2

(* The quorum ratifier, plain or crash-recovery hardened.  Each
   process announces v by marking its whole write quorum, adopts the
   first durable proposal (proposing v if there is none), and decides
   unless the preference's read quorum shows another announcement.

   The hardening ([~recoverable:true]) is Golab-style: every
   decision-critical register — the announcement pool and the proposal
   — is persistent, so a recovery wipe removes nothing the protocol
   relies on; and the declared recovery continuation re-validates from
   scratch rather than resuming mid-flight.  Re-running the whole
   sequence is sound precisely because every step either reads durable
   state or rewrites it idempotently: the re-announcement marks the
   same quorum cells, and the proposal read-or-write adopts whatever
   value was durably proposed first (possibly the recoverer's own
   earlier write).  Contrast the plain ratifier under recovery: there
   the wipe can erase a surviving process's announcement out from under
   a concurrent conflict scan (the recoverer was the cell's last
   writer), letting a decider miss the conflicting value — the
   coherence violation the expected-fail fixture pins down. *)
let make ~recoverable:hardened (q : Quorum.t) =
  let fname =
    Printf.sprintf "%s(%s,m=%d)" (if hardened then "ratifier_rec" else "ratifier") q.name q.m
  in
  Deciding.make_factory fname (fun ~n:_ memory ->
    let pool = Memory.alloc_n memory q.pool in
    let proposal = Memory.alloc memory in
    if hardened then begin
      Array.iter (fun loc -> Memory.mark_persistent memory loc) pool;
      Memory.mark_persistent memory proposal
    end;
    Deciding.instance fname ~space:(q.pool + 1) (fun ~pid:_ ~rng:_ v ->
      let validate () =
        let* () = iter_array (fun i -> write pool.(i) 1) (q.write_quorum v) in
        let* proposed = read proposal in
        let* preference =
          match proposed with
          | Some u -> return u
          | None ->
            let* () = write proposal v in
            return v
        in
        let* conflict =
          exists_array
            (fun i ->
              let* c = read pool.(i) in
              return (c <> None))
            (q.read_quorum preference)
        in
        return { Deciding.decide = not conflict; value = preference }
      in
      if hardened then recoverable ~recover:(validate ()) (validate ()) else validate ()))

let of_quorum = make ~recoverable:false
let of_quorum_rec = make ~recoverable:true
let binary () = of_quorum Quorum.binary
let bollobas ~m = of_quorum (Quorum.bollobas_optimal ~m)
let bitvector ~m = of_quorum (Quorum.bitvector ~m)
let binary_rec () = of_quorum_rec Quorum.binary

(* Deliberately NOT wait-free: a §7-style test double for the fault
   plane.  Process 0 announces its value then spins until some reader
   acknowledges; readers that catch the announcement ack and decide,
   readers that beat it decline with their own input.  Failure-free at
   n = 2 every complete execution decides (the lone reader must have
   acked for process 0 to finish), so Weak_consensus holds — but the
   helping pattern is crash-unsafe: crash process 0 before the
   announcement and the reader's (false, v) declination becomes the
   complete execution's only surviving output, violating acceptance on
   all-equal inputs.  The crash-closed explorer must find this. *)
let await_ack () =
  let fname = "ratifier(await_ack)" in
  Deciding.make_factory fname (fun ~n:_ memory ->
    let flag = Memory.alloc memory in
    let ack = Memory.alloc memory in
    Deciding.instance fname ~space:2 (fun ~pid ~rng:_ v ->
      if pid = 0 then
        let* () = write flag v in
        let rec spin () =
          let* a = read ack in
          if a = None then spin ()
          else return { Deciding.decide = true; value = v }
        in
        spin ()
      else
        let* w = read flag in
        match w with
        | Some u ->
          let* () = write ack 1 in
          return { Deciding.decide = true; value = u }
        | None -> return { Deciding.decide = false; value = v }))

let cheap_collect ~m =
  let q = Quorum.singleton ~m in
  let fname = Printf.sprintf "ratifier(cheap_collect,m=%d)" m in
  Deciding.make_factory fname (fun ~n:_ memory ->
    let pool = Memory.alloc_n memory q.pool in
    let base = pool.(0) in
    let proposal = Memory.alloc memory in
    Deciding.instance fname ~space:(q.pool + 1) (fun ~pid:_ ~rng:_ v ->
      let* () = write pool.(v) 1 in
      let* proposed = read proposal in
      let* preference =
        match proposed with
        | Some u -> return u
        | None ->
          let* () = write proposal v in
          return v
      in
      let* contents = collect base q.pool in
      let conflict = ref false in
      Array.iteri
        (fun i c -> if i <> preference && c <> None then conflict := true)
        contents;
      return { Deciding.decide = not !conflict; value = preference }))
