type summary = {
  count : int;
  mean : float;
  stddev : float;
  minimum : float;
  maximum : float;
  median : float;
  p95 : float;
  ci95 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  let n = List.length xs in
  if n = 0 then invalid_arg "Stats.variance: empty"
  else if n = 1 then 0.0
  else begin
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    ss /. float_of_int (n - 1)
  end

let quantile q xs =
  if xs = [] then invalid_arg "Stats.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let sorted = List.sort compare xs in
  let a = Array.of_list sorted in
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then a.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let summarize xs =
  if xs = [] then invalid_arg "Stats.summarize: empty";
  let n = List.length xs in
  let m = mean xs in
  let sd = sqrt (variance xs) in
  { count = n;
    mean = m;
    stddev = sd;
    minimum = List.fold_left min infinity xs;
    maximum = List.fold_left max neg_infinity xs;
    median = quantile 0.5 xs;
    p95 = quantile 0.95 xs;
    ci95 = 1.96 *. sd /. sqrt (float_of_int n) }

let of_ints xs = summarize (List.map float_of_int xs)

let binomial_ci95 ~successes ~trials =
  if trials <= 0 then invalid_arg "Stats.binomial_ci95: no trials";
  let z = 1.96 in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let centre = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt (((p *. (1.0 -. p)) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (max 0.0 (centre -. half), min 1.0 (centre +. half))

let linear_fit points =
  let n = float_of_int (List.length points) in
  if n < 2.0 then invalid_arg "Stats.linear_fit: need at least 2 points";
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let syy = List.fold_left (fun acc (_, y) -> acc +. (y *. y)) 0.0 points in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let intercept = (sy -. (slope *. sx)) /. n in
  let ss_tot = syy -. (sy *. sy /. n) in
  let ss_res =
    List.fold_left
      (fun acc (x, y) ->
        let e = y -. ((slope *. x) +. intercept) in
        acc +. (e *. e))
      0.0 points
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  (slope, intercept, r2)
