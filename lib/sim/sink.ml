type t = {
  on_op :
    step:int -> pid:int -> kind:Op.kind -> loc:Memory.loc -> landed:bool ->
    stage:string option -> unit;
  on_decide : step:int -> pid:int -> unit;
  on_crash : step:int -> pid:int -> unit;
  on_recover : step:int -> pid:int -> unit;
  on_snapshot : step:int -> unit;
  on_restore : step:int -> unit;
}

let nop_op ~step:_ ~pid:_ ~kind:_ ~loc:_ ~landed:_ ~stage:_ = ()
let nop_step_pid ~step:_ ~pid:_ = ()
let nop_step ~step:_ = ()

let make ?(on_op = nop_op) ?(on_decide = nop_step_pid) ?(on_crash = nop_step_pid)
    ?(on_recover = nop_step_pid) ?(on_snapshot = nop_step)
    ?(on_restore = nop_step) () =
  { on_op; on_decide; on_crash; on_recover; on_snapshot; on_restore }

let null = make ()

let tee a b =
  { on_op =
      (fun ~step ~pid ~kind ~loc ~landed ~stage ->
        a.on_op ~step ~pid ~kind ~loc ~landed ~stage;
        b.on_op ~step ~pid ~kind ~loc ~landed ~stage);
    on_decide =
      (fun ~step ~pid ->
        a.on_decide ~step ~pid;
        b.on_decide ~step ~pid);
    on_crash =
      (fun ~step ~pid ->
        a.on_crash ~step ~pid;
        b.on_crash ~step ~pid);
    on_recover =
      (fun ~step ~pid ->
        a.on_recover ~step ~pid;
        b.on_recover ~step ~pid);
    on_snapshot =
      (fun ~step ->
        a.on_snapshot ~step;
        b.on_snapshot ~step);
    on_restore =
      (fun ~step ->
        a.on_restore ~step;
        b.on_restore ~step) }
