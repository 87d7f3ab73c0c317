type t = {
  out : out_channel;
  interval : float;
  check_every : int;
  expected : int option;
  label : string;
  tty : bool;
  mutable countdown : int;
  mutable last_emit : float;
  mutable last_done : int;
  mutable dirty : bool;  (* an in-place line is on screen *)
  mutex : Mutex.t;
}

let default_enabled () =
  (try Unix.isatty Unix.stderr with _ -> false)
  && Sys.getenv_opt "CI" = None

let create ?(out = stderr) ?(interval = 1.0) ?(check_every = 4096) ?expected ~label () =
  let now = Unix.gettimeofday () in
  { out;
    interval;
    check_every;
    expected;
    label;
    tty = (try Unix.isatty (Unix.descr_of_out_channel out) with _ -> false);
    countdown = check_every;
    last_emit = now;
    last_done = 0;
    dirty = false;
    mutex = Mutex.create () }

let human_count n =
  if n >= 10_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.0fk" (float_of_int n /. 1e3)
  else string_of_int n

let human_seconds s =
  if s < 0.0 then "?"
  else if s < 60.0 then Printf.sprintf "%.0fs" s
  else if s < 3600.0 then
    Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)

let emit t ~now ~done_ ~detail =
  let dt = now -. t.last_emit in
  let rate =
    if dt > 0.0 then float_of_int (done_ - t.last_done) /. dt else 0.0
  in
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "[%s] %s" t.label (human_count done_));
  (match t.expected with
   | Some exp when exp > 0 ->
     Buffer.add_string b
       (Printf.sprintf " %d%%" (min 100 (done_ * 100 / exp)));
     if rate > 0.0 && done_ < exp then
       Buffer.add_string b
         (Printf.sprintf " ETA %s"
            (human_seconds (float_of_int (exp - done_) /. rate)))
   | _ -> ());
  if rate > 0.0 then
    Buffer.add_string b (Printf.sprintf " %s/s" (human_count (int_of_float rate)));
  let extra = detail () in
  if extra <> "" then begin
    Buffer.add_char b ' ';
    Buffer.add_string b extra
  end;
  if t.tty then begin
    output_string t.out "\r\x1b[K";
    output_string t.out (Buffer.contents b);
    t.dirty <- true
  end
  else begin
    output_string t.out (Buffer.contents b);
    output_char t.out '\n'
  end;
  flush t.out;
  t.last_emit <- now;
  t.last_done <- done_

let maybe_emit t ~done_ ~detail =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let now = Unix.gettimeofday () in
      if now -. t.last_emit >= t.interval then emit t ~now ~done_ ~detail)

let tick t ~done_ ~detail =
  (* Hot path: one decrement; the clock is read every [check_every]
     ticks at most.  The counter is racy under parallel callers, which
     only skews *when* the clock gets read — emission is mutexed. *)
  t.countdown <- t.countdown - 1;
  if t.countdown <= 0 then begin
    t.countdown <- t.check_every;
    maybe_emit t ~done_ ~detail
  end

let force t ~done_ ~detail =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> emit t ~now:(Unix.gettimeofday ()) ~done_ ~detail)

let finish t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if t.dirty then begin
        output_string t.out "\r\x1b[K";
        flush t.out;
        t.dirty <- false
      end)
