open Conrat_sim

let crash_at ~step ~pid =
  { Fault.plan_name = Printf.sprintf "crash_at(step=%d,pid=%d)" step pid;
    plan_fresh =
      (fun ~n:_ _rng ->
        fun (v : View.full) ~chosen ->
          if v.step = step then Fault.Crash pid else Fault.Step chosen) }

let crashing ?(rate = 0.05) ~f () =
  { Fault.plan_name = Printf.sprintf "crashing(f=%d,rate=%g)" f rate;
    plan_fresh =
      (fun ~n:_ rng ->
        let left = ref f in
        fun (v : View.full) ~chosen ->
          if !left > 0 && Rng.float rng < rate then begin
            decr left;
            Fault.Crash v.enabled.(Rng.int rng (Array.length v.enabled))
          end
          else Fault.Step chosen) }

let recover_at ~step ~pid =
  { Fault.plan_name = Printf.sprintf "recover_at(step=%d,pid=%d)" step pid;
    plan_fresh =
      (fun ~n:_ _rng ->
        fun (v : View.full) ~chosen ->
          if v.step = step then Fault.Recover pid else Fault.Step chosen) }

let recovering ?(rate = 0.05) ~r () =
  { Fault.plan_name = Printf.sprintf "recovering(r=%d,rate=%g)" r rate;
    plan_fresh =
      (fun ~n rng ->
        let left = ref r in
        fun (v : View.full) ~chosen ->
          (* The view does not expose the crashed set; pick any pid that
             is neither enabled nor pending (crashed or finished) — a
             finished pick degrades to a plain step at the machine and
             is counted in [plan_ignored]. *)
          if !left > 0 && Rng.float rng < rate then begin
            let down = ref [] in
            for p = n - 1 downto 0 do
              if v.pending.(p) = None then down := p :: !down
            done;
            match !down with
            | [] -> Fault.Step chosen
            | down ->
              decr left;
              let down = Array.of_list down in
              Fault.Recover down.(Rng.int rng (Array.length down))
          end
          else Fault.Step chosen) }

let byzantine_reads ?(rate = 0.5) () =
  { Fault.plan_name = Printf.sprintf "byzantine_reads(rate=%g)" rate;
    plan_fresh =
      (fun ~n:_ rng ->
        fun (v : View.full) ~chosen ->
          match v.pending.(chosen) with
          | Some any when Op.kind any = Op.Read_op && Rng.float rng < rate ->
            Fault.Stale chosen
          | Some _ | None -> Fault.Step chosen) }

let mix plans =
  match plans with
  | [] -> Fault.no_plan
  | [ p ] -> p
  | _ ->
    { Fault.plan_name =
        String.concat "+" (List.map (fun p -> p.Fault.plan_name) plans);
      plan_fresh =
        (fun ~n rng ->
          (* One independent stream per constituent so adding a plan to
             the mix never perturbs the draws of the plans before it. *)
          let injectors =
            List.map (fun p -> p.Fault.plan_fresh ~n (Rng.split rng)) plans
          in
          fun view ~chosen ->
            let rec first = function
              | [] -> Fault.Step chosen
              | inject :: rest ->
                (match inject view ~chosen with
                 | Fault.Step _ -> first rest
                 | act -> act)
            in
            first injectors) }

let of_model ?(crash_rate = 0.05) ?(stale_rate = 0.5) ?(recover_rate = 0.05)
    (m : Fault.model) =
  mix
    ((if m.Fault.crashes > 0 then [ crashing ~rate:crash_rate ~f:m.Fault.crashes () ]
      else [])
     @ (if m.Fault.recoveries > 0 then
          [ recovering ~rate:recover_rate ~r:m.Fault.recoveries () ]
        else [])
     @ (if m.Fault.weak_reads then [ byzantine_reads ~rate:stale_rate () ] else []))
