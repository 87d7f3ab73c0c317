type output = {
  decide : bool;
  value : int;
}

type t = {
  name : string;
  mutable space : int;
  run : pid:int -> rng:Conrat_sim.Rng.t -> int -> output Conrat_sim.Program.t;
}

type factory = {
  fname : string;
  instantiate : n:int -> Conrat_sim.Memory.t -> t;
}

let make_factory fname instantiate = { fname; instantiate }

let instance name ~space run = { name; space; run }

let counting f =
  let count = ref 0 in
  let wrapped =
    { fname = f.fname;
      instantiate =
        (fun ~n memory ->
          let inner = f.instantiate ~n memory in
          { inner with
            run =
              (fun ~pid ~rng v ->
                incr count;
                inner.run ~pid ~rng v) }) }
  in
  ((fun () -> !count), wrapped)

let copy_object =
  make_factory "copy" (fun ~n:_ _memory ->
    instance "copy" ~space:0 (fun ~pid:_ ~rng:_ v ->
      Conrat_sim.Program.return { decide = false; value = v }))
