open Conrat_sim

type t = {
  wname : string;
  generate : n:int -> m:int -> Rng.t -> int array;
}

let all_same =
  { wname = "all_same"; generate = (fun ~n ~m:_ _rng -> Array.make n 0) }

let split_half =
  { wname = "split_half";
    generate = (fun ~n ~m _rng -> Array.init n (fun pid -> if pid < n / 2 then 0 else 1 mod m)) }

let alternating =
  { wname = "alternating"; generate = (fun ~n ~m _rng -> Array.init n (fun pid -> pid mod m)) }

let uniform =
  { wname = "uniform"; generate = (fun ~n ~m rng -> Array.init n (fun _ -> Rng.int rng m)) }

let zipf ?(s = 1.2) () =
  { wname = "zipf";
    generate =
      (fun ~n ~m rng ->
        let weights = Array.init m (fun v -> 1.0 /. (float_of_int (v + 1) ** s)) in
        let total = Array.fold_left ( +. ) 0.0 weights in
        let draw () =
          let u = Rng.float rng *. total in
          let rec go v acc =
            if v >= m - 1 then m - 1
            else begin
              let acc = acc +. weights.(v) in
              if u < acc then v else go (v + 1) acc
            end
          in
          go 0 0.0
        in
        Array.init n (fun _ -> draw ())) }

let by_name = function
  | "all_same" -> all_same
  | "split_half" -> split_half
  | "alternating" -> alternating
  | "uniform" -> uniform
  | "zipf" -> zipf ()
  | _ -> raise Not_found
