open Conrat_sim

type t = {
  n : int;
  buf : Buffer.t;
  mutable count : int;
  (* Currently open stage span per pid: (stage, step it opened at). *)
  open_stage : (string * int) option array;
  mutable last_step : int;
  mutable finalized : bool;
}

let strf = Printf.sprintf

(* One event object; [fields] are pre-rendered ["key":value] pairs. *)
let event t fields =
  if t.count > 0 then Buffer.add_string t.buf ",\n";
  Buffer.add_char t.buf '{';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char t.buf ',';
      Buffer.add_string t.buf f)
    fields;
  Buffer.add_char t.buf '}';
  t.count <- t.count + 1

let metadata t ~name ~tid ~value =
  event t
    [ strf "\"name\":%s" (Json.string name);
      "\"ph\":\"M\"";
      "\"pid\":1";
      strf "\"tid\":%d" tid;
      strf "\"args\":{\"name\":%s}" (Json.string value) ]

let collector ~n =
  { n; buf = Buffer.create 4096; count = 0; open_stage = Array.make n None;
    last_step = 0; finalized = false }

let create ~n =
  let t = collector ~n in
  metadata t ~name:"process_name" ~tid:0 ~value:"conrat";
  for pid = 0 to n - 1 do
    metadata t ~name:"thread_name" ~tid:pid ~value:(strf "process %d" pid)
  done;
  metadata t ~name:"thread_name" ~tid:n ~value:"explorer";
  t

let kind_name = function
  | Op.Read_op -> "read"
  | Op.Write_op -> "write"
  | Op.Prob_write_op -> "prob_write"
  | Op.Collect_op -> "collect"

let close_span t pid ~step =
  match t.open_stage.(pid) with
  | None -> ()
  | Some _ ->
    t.open_stage.(pid) <- None;
    event t
      [ "\"ph\":\"E\""; "\"pid\":1"; strf "\"tid\":%d" pid; strf "\"ts\":%d" step ]

let open_span t pid stage ~step =
  t.open_stage.(pid) <- Some (stage, step);
  event t
    [ strf "\"name\":%s" (Json.string stage);
      "\"ph\":\"B\"";
      "\"pid\":1";
      strf "\"tid\":%d" pid;
      strf "\"ts\":%d" step ]

let on_op t ~step ~pid ~kind ~loc ~landed ~stage =
  t.last_step <- max t.last_step (step + 1);
  (match (t.open_stage.(pid), stage) with
   | None, None -> ()
   | Some (cur, _), Some s when String.equal cur s -> ()
   | _, None -> close_span t pid ~step
   | _, Some s ->
     close_span t pid ~step;
     open_span t pid s ~step);
  event t
    [ strf "\"name\":\"%s\"" (kind_name kind);
      "\"ph\":\"X\"";
      "\"pid\":1";
      strf "\"tid\":%d" pid;
      strf "\"ts\":%d" step;
      "\"dur\":1";
      strf "\"args\":{\"loc\":%d,\"landed\":%b%s}" loc landed
        (match stage with
         | None -> ""
         | Some s -> strf ",\"stage\":%s" (Json.string s)) ]

let on_decide t ~step ~pid =
  t.last_step <- max t.last_step step;
  close_span t pid ~step;
  event t
    [ "\"name\":\"decide\"";
      "\"ph\":\"i\"";
      "\"s\":\"t\"";
      "\"pid\":1";
      strf "\"tid\":%d" pid;
      strf "\"ts\":%d" step ]

let on_crash t ~step ~pid =
  t.last_step <- max t.last_step step;
  close_span t pid ~step;
  event t
    [ "\"name\":\"crash\"";
      "\"ph\":\"i\"";
      "\"s\":\"t\"";
      "\"pid\":1";
      strf "\"tid\":%d" pid;
      strf "\"ts\":%d" step ]

let explorer_instant t name ~step =
  t.last_step <- max t.last_step step;
  event t
    [ strf "\"name\":\"%s\"" name;
      "\"ph\":\"i\"";
      "\"s\":\"t\"";
      "\"pid\":1";
      strf "\"tid\":%d" t.n;
      strf "\"ts\":%d" step ]

let sink t =
  Sink.make
    ~on_op:(fun ~step ~pid ~kind ~loc ~landed ~stage ->
      on_op t ~step ~pid ~kind ~loc ~landed ~stage)
    ~on_decide:(fun ~step ~pid -> on_decide t ~step ~pid)
    ~on_crash:(fun ~step ~pid -> on_crash t ~step ~pid)
    ~on_snapshot:(fun ~step -> explorer_instant t "snapshot" ~step)
    ~on_restore:(fun ~step -> explorer_instant t "restore" ~step)
    ()

let events t = t.count

let finalize t =
  if not t.finalized then begin
    for pid = 0 to t.n - 1 do
      close_span t pid ~step:t.last_step
    done;
    t.finalized <- true
  end

let to_string t =
  finalize t;
  strf "{\"traceEvents\":[\n%s\n]}\n" (Buffer.contents t.buf)

let write t oc = output_string oc (to_string t)

(* A fleet trace is a rendering of the registry's shard records, on a
   machine-mode collector with no processes (nothing to finalize).
   Tracks are worker domains and timestamps wall-clock microseconds
   since the registry's creation.  A worker runs its shards one after
   another, so a track in start order is a sequence of disjoint spans;
   each start is clamped to the previous end, so float rounding cannot
   make two spans overlap. *)
let fleet ~workers (shards : Telemetry.shard list) =
  let t = collector ~n:0 in
  let us s = int_of_float (s *. 1e6) in
  metadata t ~name:"process_name" ~tid:0 ~value:"conrat fleet";
  for w = 0 to workers - 1 do
    metadata t ~name:"thread_name" ~tid:w ~value:(strf "worker %d" w)
  done;
  for w = 0 to workers - 1 do
    let track =
      List.stable_sort
        (fun (a : Telemetry.shard) b -> Float.compare a.start b.start)
        (List.filter (fun (sh : Telemetry.shard) -> sh.domain = w) shards)
    in
    let span floor (sh : Telemetry.shard) =
      let b = max floor (us sh.start) in
      let e = max b (us (sh.start +. sh.seconds)) in
      let on_track ph ts = [ ph; "\"pid\":1"; strf "\"tid\":%d" w; strf "\"ts\":%d" ts ] in
      let opened = strf "\"args\":{\"shard\":%d,\"prefix\":%d}" sh.shard sh.prefix in
      let closed = strf "\"args\":{\"leaves\":%d,\"steps\":%d}" sh.leaves sh.steps in
      event t ("\"name\":\"steal\"" :: on_track "\"ph\":\"i\",\"s\":\"t\"" b @ [ opened ]);
      event t (strf "\"name\":\"shard %d\"" sh.shard :: on_track "\"ph\":\"B\"" b @ [ opened ]);
      event t (on_track "\"ph\":\"E\"" e @ [ closed ]);
      e
    in
    ignore (List.fold_left span 0 track)
  done;
  to_string t
