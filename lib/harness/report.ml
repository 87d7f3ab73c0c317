(* The report layer: render merged engine results as machine-readable
   JSON (the text tables remain with each experiment's render
   function).  JSON is emitted by hand — the toolchain has no JSON
   library and the schema is small.  Schema: README "Machine-readable
   results". *)

(* v2: results may carry a per-stage work breakdown ("stage_work");
   absent for specs that did not enable stage collection, so v1
   consumers that ignore unknown keys keep working. *)
let schema_version = 2

(* All human-facing progress/wall-clock chatter from the harness goes
   through here so that [--json -] output on stdout stays machine-clean
   and tests can assert on one stream. *)
let info fmt =
  Printf.ksprintf
    (fun s ->
      output_string stderr s;
      output_char stderr '\n';
      flush stderr)
    fmt

let buf_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let fl x =
  (* %.17g round-trips every float; trim the common integral case. *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let add_summary buf label xs =
  let s = Stats.of_ints xs in
  Buffer.add_string buf
    (Printf.sprintf
       "%S:{\"mean\":%s,\"stddev\":%s,\"min\":%s,\"median\":%s,\"p95\":%s,\"max\":%s}"
       label (fl s.Stats.mean) (fl s.Stats.stddev) (fl s.Stats.minimum)
       (fl s.Stats.median) (fl s.Stats.p95) (fl s.Stats.maximum))

let add_result buf (spec : Plan.spec) (agg : Engine.aggregate) =
  Buffer.add_string buf "    {";
  Buffer.add_string buf "\"id\":";
  buf_add_json_string buf spec.Plan.sid;
  Buffer.add_string buf ",\"protocol\":";
  buf_add_json_string buf (Plan.runner_name spec.Plan.runner);
  Buffer.add_string buf ",\"adversary\":";
  buf_add_json_string buf spec.Plan.adversary.Conrat_sim.Adversary.name;
  Buffer.add_string buf ",\"workload\":";
  buf_add_json_string buf spec.Plan.workload.Workload.wname;
  Buffer.add_string buf
    (Printf.sprintf ",\"n\":%d,\"m\":%d,\"cheap_collect\":%b"
       spec.Plan.n spec.Plan.m spec.Plan.cheap_collect);
  (match spec.Plan.max_steps with
   | Some cap -> Buffer.add_string buf (Printf.sprintf ",\"max_steps\":%d" cap)
   | None -> ());
  Buffer.add_string buf
    (Printf.sprintf
       ",\"trials\":%d,\"agreements\":%d,\"agreement_rate\":%s,\"space\":%d,\"probe_total\":%d"
       agg.Engine.trials agg.Engine.agreements
       (fl (float_of_int agg.Engine.agreements /. float_of_int agg.Engine.trials))
       agg.Engine.space agg.Engine.probe_total);
  Buffer.add_string buf ",";
  add_summary buf "total_work" (Engine.total_works agg);
  Buffer.add_string buf ",";
  add_summary buf "individual_work" (Engine.individual_works agg);
  (match agg.Engine.stage_work with
   | [] -> ()
   | stages ->
     Buffer.add_string buf ",\"stage_work\":{";
     List.iteri
       (fun i (stage, (total, indiv)) ->
         if i > 0 then Buffer.add_char buf ',';
         buf_add_json_string buf stage;
         Buffer.add_string buf
           (Printf.sprintf ":{\"total\":%d,\"max_individual\":%d}" total indiv))
       stages;
     Buffer.add_char buf '}');
  Buffer.add_string buf ",\"failures\":[";
  List.iteri
    (fun i (seed, reason) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "{\"seed\":%d,\"reason\":" seed);
      buf_add_json_string buf reason;
      Buffer.add_char buf '}')
    agg.Engine.failures;
  Buffer.add_string buf "]}"

let json_of_run ~experiment ~mode ~jobs ~elapsed (plan : Plan.t) results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  Buffer.add_string buf "  \"experiment\": ";
  buf_add_json_string buf experiment;
  Buffer.add_string buf ",\n  \"mode\": ";
  buf_add_json_string buf mode;
  Buffer.add_string buf
    (Printf.sprintf ",\n  \"jobs\": %d,\n  \"elapsed_seconds\": %s,\n  \"trials\": %d,\n"
       jobs (fl elapsed) (Plan.trial_count plan));
  Buffer.add_string buf "  \"results\": [\n";
  List.iteri
    (fun i (spec : Plan.spec) ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_result buf spec (Engine.get results spec.Plan.sid))
    plan.Plan.specs;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let bench_file experiment = Printf.sprintf "BENCH_%s.json" experiment
