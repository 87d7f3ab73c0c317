(* Black-box tests for the conrat CLI, driven through a real fork/exec
   so exit codes and stderr behave exactly as a shell sees them.
   Invoked by dune as [test_cli_check <path-to-conrat_cli.exe>].

   Covers the `check` subcommand end to end (explore, artifact write,
   replay) and locks in the PR 1 fix: an unknown experiment name must
   exit 2 with a proper message, not escape as an uncaught Not_found. *)

let cli = Sys.argv.(1)

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FAIL: %s\n%!" msg)
    fmt

let read_file file =
  try In_channel.with_open_text file In_channel.input_all with Sys_error _ -> ""

let tmpdir =
  let dir = Filename.temp_file "conrat_cli_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

(* Run the CLI with [args]; return (exit code, stdout, stderr). *)
let run args =
  let out = Filename.concat tmpdir "stdout" in
  let err = Filename.concat tmpdir "stderr" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  (code, read_file out, read_file err)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let expect name ~code ?stdout_has ?stderr_has ?stderr_lacks (c, out, err) =
  if c <> code then failf "%s: exit %d, expected %d (stderr: %s)" name c code err;
  Option.iter
    (fun needle ->
      if not (contains ~needle out) then
        failf "%s: stdout missing %S (got: %s)" name needle out)
    stdout_has;
  Option.iter
    (fun needle ->
      if not (contains ~needle err) then
        failf "%s: stderr missing %S (got: %s)" name needle err)
    stderr_has;
  Option.iter
    (fun needle ->
      if contains ~needle err then
        failf "%s: stderr unexpectedly contains %S (got: %s)" name needle err)
    stderr_lacks

(* Minimal recursive-descent JSON validator — enough grammar to assert
   that a whole stdout capture or trace file is one well-formed JSON
   value (objects, arrays, strings with escapes, numbers, literals).
   The toolchain has no JSON library; this is the test-side counterpart
   of the hand-emitted documents. *)
let is_valid_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then incr pos else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> literal ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; members ()
        | Some '}' -> incr pos
        | _ -> fail ()
      in
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; elements ()
        | Some ']' -> incr pos
        | _ -> fail ()
      in
      elements ()
    end
  and string_lit () =
    expect '"';
    let rec chars () =
      if !pos >= n then fail ();
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (if !pos >= n then fail ());
        (match s.[!pos] with
         | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> incr pos
         | 'u' ->
           incr pos;
           for _ = 1 to 4 do
             (if !pos >= n then fail ());
             (match s.[!pos] with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> incr pos
              | _ -> fail ())
           done
         | _ -> fail ());
        chars ()
      | c when Char.code c < 0x20 -> fail ()
      | _ -> incr pos; chars ()
    in
    chars ()
  and literal () =
    let word w =
      let l = String.length w in
      if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l else fail ()
    in
    match peek () with
    | Some 't' -> word "true"
    | Some 'f' -> word "false"
    | _ -> word "null"
  and number () =
    if peek () = Some '-' then incr pos;
    let digits () =
      let start = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done;
      if !pos = start then fail ()
    in
    digits ();
    if peek () = Some '.' then (incr pos; digits ());
    (match peek () with
     | Some ('e' | 'E') ->
       incr pos;
       (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
       digits ()
     | _ -> ())
  in
  match value (); skip_ws (); !pos = n with
  | complete -> complete
  | exception Exit -> false

let () =
  (* PR 1 regression: unknown experiment names are a clean usage error,
     not an uncaught exception (which would also exit 2 — hence the
     message checks on both sides). *)
  expect "experiment unknown name" ~code:2
    ~stderr_has:"unknown experiment" ~stderr_lacks:"Not_found"
    (run "experiment definitely_not_an_experiment");

  expect "check unknown name" ~code:2 ~stderr_has:"unknown checker"
    (run "check definitely_not_a_checker");

  expect "check quick config" ~code:0 ~stdout_has:"exhausted"
    (run "check binary_ratifier_n2");

  expect "check cross engine agreement" ~code:0 ~stdout_has:"AGREE"
    (run "check --cross binary_ratifier_n2");

  expect "check naive engine" ~code:0 ~stdout_has:"exhausted"
    (run "check --naive binary_ratifier_n2");

  let artifact = Filename.concat tmpdir "fallback_unstaked_n2.counterexample.sexp" in
  expect "check expected-fail demo" ~code:1 ~stdout_has:"VIOLATION"
    (run (Printf.sprintf "check fallback_unstaked_n2 --artifact-dir %s"
            (Filename.quote tmpdir)));
  if not (Sys.file_exists artifact) then
    failf "demo violation did not write %s" artifact;

  expect "replay written artifact" ~code:0 ~stdout_has:"reproduced"
    (run (Printf.sprintf "check --replay %s" (Filename.quote artifact)));

  expect "replay missing artifact" ~code:2 ~stderr_has:"cannot load"
    (run "check --replay /nonexistent/artifact.sexp");
  (* A missing artifact directory is refused before the search runs,
     not discovered when the counterexample is written. *)
  let missing = Filename.concat tmpdir "no-such-dir" in
  let code, out, err =
    run (Printf.sprintf "check fallback_unstaked_n2 --artifact-dir %s"
           (Filename.quote missing))
  in
  expect "check --artifact-dir missing" ~code:2 ~stderr_has:"no such directory"
    (code, out, err);
  if out <> "" || List.length (String.split_on_char '\n' (String.trim err)) <> 1 then
    failf "check --artifact-dir missing: expected one stderr line and no search \
           (stdout: %S, stderr: %S)" out err;

  (* --json -: the JSON document owns stdout, human lines move to
     stderr, and the capture must parse as one well-formed JSON value. *)
  let code, out, err = run "check binary_ratifier_n2 conciliator_n2 --json -" in
  expect "check --json - runs" ~code:0 ~stderr_has:"exhausted" (code, out, err);
  if not (is_valid_json out) then
    failf "check --json -: stdout is not a single JSON document (got: %s)" out;
  if not (contains ~needle:"\"kind\": \"verify-bench\"" out) then
    failf "check --json -: document kind missing (got: %s)" out;
  if not (contains ~needle:"conciliator_n2" err) then
    failf "check --json -: per-config report missing from stderr (got: %s)" err;
  (* The code-store gauge: binary_ratifier_n2's search interns 16 pcs. *)
  if not (contains ~needle:"\"code_pcs\":16" out) then
    failf "check --json -: code_pcs gauge missing (got: %s)" out;

  (* The naive oracle carries no telemetry: its rows are schema v1. *)
  let code, out, err = run "check --naive binary_ratifier_n2 --json -" in
  expect "check --naive --json - runs" ~code:0 ~stderr_has:"exhausted" (code, out, err);
  if not (is_valid_json out) then
    failf "check --naive --json -: stdout is not one JSON document (got: %s)" out;
  if not (contains ~needle:"\"schema_version\": 1," out) then
    failf "check --naive --json -: not schema v1 (got: %s)" out;
  if contains ~needle:"\"telemetry\"" out then
    failf "check --naive --json -: unexpected telemetry block (got: %s)" out;

  (* --quiet: success says nothing on stdout; failures still exit 1. *)
  let code, out, err = run "check --quiet binary_ratifier_n2" in
  expect "check --quiet" ~code:0 (code, out, err);
  if String.trim out <> "" then failf "check --quiet: stdout not empty (got: %s)" out;
  expect "check --quiet still fails loudly" ~code:1 ~stdout_has:"VIOLATION"
    (run (Printf.sprintf "check --quiet fallback_unstaked_n2 --artifact-dir %s"
            (Filename.quote tmpdir)));

  (* trace: a Perfetto-loadable Chrome trace-event document. *)
  let trace_file = Filename.concat tmpdir "trace.json" in
  let code, out, err =
    run (Printf.sprintf "trace composite_n2 --out %s" (Filename.quote trace_file))
  in
  expect "trace writes a file" ~code:0 ~stderr_has:"trace events" (code, out, err);
  if String.trim out <> "" then failf "trace: stdout not clean (got: %s)" out;
  let doc = read_file trace_file in
  if not (is_valid_json doc) then
    failf "trace: %s is not valid JSON (got: %s)" trace_file doc;
  if not (contains ~needle:"\"traceEvents\"" doc) then
    failf "trace: missing traceEvents key (got: %s)" doc;
  if not (contains ~needle:"\"ph\":\"B\"" doc) then
    failf "trace: composite run produced no stage spans (got: %s)" doc;

  let code, out, err = run "trace conciliator_n2 --out -" in
  expect "trace to stdout" ~code:0 (code, out, err);
  if not (is_valid_json out) then
    failf "trace --out -: stdout is not valid JSON (got: %s)" out;

  expect "trace unknown name" ~code:2 ~stderr_has:"unknown checker"
    (run "trace definitely_not_a_checker --out -");

  (* ---- fault plane ------------------------------------------------ *)

  expect "check --faults override" ~code:0 ~stdout_has:"exhausted"
    (run "check --faults crash:f=1 binary_ratifier_n2");

  expect "check --faults bad spec" ~code:2 ~stderr_has:"bad --faults"
    (run "check --faults bogus binary_ratifier_n2");

  (* a repeated part is an error, not last-one-wins *)
  expect "check --faults repeated part" ~code:2 ~stderr_has:"crash given twice"
    (run "check --faults crash:f=2,crash:f=1 binary_ratifier_n2");

  expect "crash-closed registry config" ~code:0 ~stdout_has:"exhausted"
    (run "check binary_ratifier_n3_f2");

  (* the crash-unsafe demo is caught, shrunk, and its artifact replays *)
  let aa_artifact = Filename.concat tmpdir "ratifier_await_ack.counterexample.sexp" in
  expect "await_ack demo caught" ~code:1 ~stdout_has:"VIOLATION"
    (run (Printf.sprintf "check ratifier_await_ack --artifact-dir %s"
            (Filename.quote tmpdir)));
  if not (Sys.file_exists aa_artifact) then
    failf "await_ack violation did not write %s" aa_artifact;
  expect "await_ack artifact replays" ~code:0 ~stdout_has:"reproduced"
    (run (Printf.sprintf "check --replay %s" (Filename.quote aa_artifact)));

  (* ---- crash-recovery plane --------------------------------------- *)

  (* recover without a crash budget is contradictory: exit 2 with the
     spec-specific diagnosis, not the generic bad-spec message *)
  expect "check --faults recover without crash" ~code:2
    ~stderr_has:"recover needs a crash budget"
    (run "check --faults recover binary_ratifier_n2");

  expect "check --faults crash+recover override" ~code:0 ~stdout_has:"exhausted"
    (run "check --faults crash:f=1,recover binary_ratifier_rec_n2_f1");

  expect "recovery-closed registry config" ~code:0 ~stdout_has:"exhausted"
    (run "check binary_ratifier_rec_n3_f1");

  (* the recovery-unsafe demo is caught, shrunk, and its artifact replays *)
  let rec_artifact =
    Filename.concat tmpdir "binary_ratifier_n3_rec.counterexample.sexp"
  in
  expect "recovery demo caught" ~code:1 ~stdout_has:"VIOLATION"
    (run (Printf.sprintf "check binary_ratifier_n3_rec --artifact-dir %s"
            (Filename.quote tmpdir)));
  if not (Sys.file_exists rec_artifact) then
    failf "recovery demo violation did not write %s" rec_artifact;
  expect "recovery artifact replays" ~code:0 ~stdout_has:"reproduced"
    (run (Printf.sprintf "check --replay %s" (Filename.quote rec_artifact)));

  (* ---- malformed artifacts never escape as backtraces ------------- *)

  let replace ~sub ~by s =
    let sl = String.length sub in
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i < String.length s do
      if
        !i + sl <= String.length s
        && String.sub s !i sl = sub
      then begin
        Buffer.add_string b by;
        i := !i + sl
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let write_file file contents =
    Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc contents)
  in
  let fixture = read_file (Filename.concat "fixtures" "ratifier_await_ack.sexp") in
  if fixture = "" then failf "fixture ratifier_await_ack.sexp missing from test cwd";

  let truncated = Filename.concat tmpdir "truncated.sexp" in
  write_file truncated (String.sub fixture 0 (String.length fixture / 2));
  expect "replay truncated artifact" ~code:2 ~stderr_has:"cannot load"
    (run (Printf.sprintf "check --replay %s" (Filename.quote truncated)));

  let garbage = Filename.concat tmpdir "garbage.sexp" in
  write_file garbage "this is ( not an artifact";
  expect "replay garbage artifact" ~code:2 ~stderr_has:"cannot load"
    (run (Printf.sprintf "check --replay %s" (Filename.quote garbage)));

  (* parses fine but lies about n: re-execution would blow up in
     Array.sub; the CLI must catch it and exit 2 with one line *)
  let oversized = Filename.concat tmpdir "oversized.sexp" in
  write_file oversized
    (replace ~sub:"(n 2)" ~by:"(n 9)"
       (replace ~sub:"(inputs 1 1)" ~by:"(inputs 1 1 1 1 1 1 1 1 1)" fixture));
  let code, _out, err =
    run (Printf.sprintf "check --replay %s" (Filename.quote oversized))
  in
  expect "replay oversized-n artifact" ~code:2 ~stderr_has:"not replayable"
    (code, _out, err);
  if String.length (String.trim err) > 0
     && List.length (String.split_on_char '\n' (String.trim err)) > 1
  then failf "oversized replay: diagnostic is not one line (got: %s)" err;

  (* parses fine but does not fit its config: exit 2 naming the field,
     not a replay of the config's own inputs or a false "did NOT
     reproduce" *)
  let unstaked = read_file (Filename.concat "fixtures" "fallback_unstaked_n2.sexp") in
  List.iter
    (fun (what, sub, by, field) ->
      let file = Filename.concat tmpdir "mismatched.sexp" in
      write_file file (replace ~sub ~by unstaked);
      let code, out, err = run (Printf.sprintf "check --replay %s" (Filename.quote file)) in
      expect ("replay " ^ what) ~code:2 ~stderr_has:field (code, out, err);
      if List.length (String.split_on_char '\n' (String.trim err)) > 1 then
        failf "replay %s: diagnostic is not one line (got: %s)" what err)
    [ ("foreign inputs", "(inputs 0 1)", "(inputs 0 99)", "inputs (0 99)");
      ("n past the config", "(n 2)", "(n 99)", "n = 99");
      ("negative n", "(n 2)", "(n -3)", "n = -3");
      ("negative max-depth", "(max-depth 28)", "(max-depth -1)", "max-depth = -1") ];

  (* a violation other than the recorded one is not "reproduced": the
     replay exits 1 with one line naming the first difference, the
     reason before the trace *)
  let weak = read_file (Filename.concat "fixtures" "binary_ratifier_n2_weak.sexp") in
  let edit_reason =
    replace ~sub:"p0 decided 0 but p1 output value 1"
      ~by:"p1 decided 1 but p0 output value 0"
  and edit_trace = replace ~sub:"(7 1 (read 0) false (1))" ~by:"(7 1 (read 0) false (0))" in
  List.iter
    (fun (what, edited, needle) ->
      let file = Filename.concat tmpdir "edited.sexp" in
      write_file file edited;
      if edited = weak then failf "replay %s: the edit changed nothing" what;
      let code, out, err = run (Printf.sprintf "check --replay %s" (Filename.quote file)) in
      expect ("replay " ^ what) ~code:1 ~stdout_has:needle (code, out, err);
      if String.split_on_char '\n' (String.trim out) <> [ String.trim out ] then
        failf "replay %s: verdict is not one line (got: %s)" what out)
    [ ("edited reason", edit_reason weak,
       "did NOT reproduce (reason: recorded \"coherence: p1 decided 1");
      ("edited trace", edit_trace weak,
       "did NOT reproduce (trace event 7: recorded (7 1 (read 0) false (0)), \
        replayed (7 1 (read 0) false (1)))");
      ("edited reason and trace", edit_reason (edit_trace weak),
       "did NOT reproduce (reason: recorded") ];

  (* ---- checkpoint / resume ---------------------------------------- *)

  let ck = Filename.concat tmpdir "ck.sexp" in
  expect "checkpointed partial run" ~code:0 ~stdout_has:"run budget exceeded"
    (run (Printf.sprintf "check --checkpoint %s --max-runs 100 binary_ratifier_n3_f1"
            (Filename.quote ck)));
  if not (Sys.file_exists ck) then failf "checkpoint file not written";
  (* resume completes with totals bit-identical to the uninterrupted run *)
  let _, full_out, _ = run "check binary_ratifier_n3_f1" in
  let code, resumed_out, err =
    run (Printf.sprintf "check --resume %s binary_ratifier_n3_f1" (Filename.quote ck))
  in
  expect "resumed run exhausts" ~code:0 ~stdout_has:"exhausted"
    (code, resumed_out, err);
  let stats_of s =
    (* strip the trailing "(0.0s)" timing, which may legitimately differ *)
    match String.index_opt s '(' with
    | Some i when i > 0 && String.length s > 2 && s.[i + 1] <> 'c' ->
      String.trim (String.sub s 0 i)
    | _ -> String.trim s
  in
  if stats_of full_out <> stats_of resumed_out then
    failf "resume not bit-identical: %S vs %S" (stats_of full_out)
      (stats_of resumed_out);

  (* The naive oracle is sequential and keeps no checkpoints, like
     --dpor: each request is a one-line exit 2. *)
  List.iter
    (fun (what, args) ->
      let code, out, err = run args in
      expect what ~code:2 ~stderr_has:"--naive is the sequential unreduced oracle"
        (code, out, err);
      if List.length (String.split_on_char '\n' (String.trim err)) <> 1 then
        failf "%s: diagnostic is not one line (got: %s)" what err)
    [ ("naive with --jobs 2", "check --naive --jobs 2 binary_ratifier_n2");
      ("naive with --checkpoint",
       Printf.sprintf "check --naive --checkpoint %s binary_ratifier_n2"
         (Filename.quote (Filename.concat tmpdir "naive.sexp")));
      ("naive with --resume",
       Printf.sprintf "check --naive --resume %s binary_ratifier_n3_f1" (Filename.quote ck)) ];
  (* A checkpoint an earlier build's naive engine wrote is refused by
     the POR engine, naming the engine. *)
  let naive_ck = Filename.concat tmpdir "naive_ck.sexp" in
  write_file naive_ck (replace ~sub:"(engine por)" ~by:"(engine naive)" (read_file ck));
  let code, out, err =
    run (Printf.sprintf "check --resume %s binary_ratifier_n3_f1" (Filename.quote naive_ck))
  in
  expect "resume engine mismatch" ~code:2 ~stderr_has:"written by the naive engine"
    (code, out, err);
  if List.length (String.split_on_char '\n' (String.trim err)) <> 1 then
    failf "resume engine mismatch: diagnostic is not one line (got: %s)" err;
  expect "checkpoint with --cross" ~code:2 ~stderr_has:"--cross"
    (run (Printf.sprintf "check --cross --checkpoint %s binary_ratifier_n2"
            (Filename.quote ck)));
  expect "checkpoint needs one name" ~code:2 ~stderr_has:"exactly one"
    (run (Printf.sprintf "check --checkpoint %s binary_ratifier_n2 binary_ratifier_n3"
            (Filename.quote ck)));
  expect "resume missing file" ~code:2 ~stderr_has:"cannot load checkpoint"
    (run "check --resume /nonexistent/ck.sexp binary_ratifier_n2");

  (* A real checkpoint, mutated: negative counts and path entries must
     not load, and a path the tree cannot take (out-of-range choices
     clamp to 0 on replay) must not resume to wrong totals or a
     backtrace — exit 2 with one line. *)
  let last_path_entry_9 s =
    let rec find i = if String.sub s i 6 = "(path " then i else find (i + 1) in
    let close = String.index_from s (find 0) ')' in
    let space = String.rindex_from s close ' ' in
    String.sub s 0 (space + 1) ^ "9" ^ String.sub s close (String.length s - close)
  in
  let ck = Filename.concat tmpdir "mutated.sexp" in
  let config = "fallback_n2_d28" in
  expect "checkpoint to mutate" ~code:0 ~stdout_has:"budget exceeded"
    (run (Printf.sprintf "check --checkpoint %s --max-runs 100 %s" (Filename.quote ck)
            config));
  let real = read_file ck in
  List.iter
    (fun (what, contents, needle) ->
      write_file ck contents;
      let code, out, err =
        run (Printf.sprintf "check --resume %s %s" (Filename.quote ck) config)
      in
      expect (Printf.sprintf "%s resume %s" config what) ~code:2 ~stderr_has:needle
        (code, out, err);
      if List.length (String.split_on_char '\n' (String.trim err)) > 1 then
        failf "%s resume %s: diagnostic is not one line (got: %s)" config what err)
    [ ("negative complete", replace ~sub:"(complete " ~by:"(complete -" real,
       "bad field complete");
      ("negative steps", replace ~sub:"(steps " ~by:"(steps -" real, "bad field steps");
      ("negative path entry", replace ~sub:"(path 0" ~by:"(path -1" real,
       "bad field path");
      ("inconsistent path", last_path_entry_9 real, "does not fit checker " ^ config) ];

  (* ---- program engine -------------------------------------------- *)

  (* The tree interpreter is an oracle (--cross, test_vm), not a
     selectable engine: check has no --engine, and --json rows name
     the VM they ran on. *)
  expect "check --engine is not an option" ~code:124 ~stderr_has:"unknown option '--engine'"
    (run "check --engine tree binary_ratifier_n2");
  let code, out, _ = run "check binary_ratifier_n2 --json -" in
  expect "check --json default engine runs" ~code:0 (code, out, "");
  if not (contains ~needle:"\"exec_engine\":\"vm\"" out) then
    failf "check --json: default exec_engine not vm (got: %s)" out;

  (* ---- sweep: faults + JSON + SIGINT ------------------------------ *)

  let code, out, _ = run "sweep -n 3 -t 25 --faults crash:f=1 --json -" in
  expect "sweep --json - runs" ~code:0 (code, out, "");
  if not (is_valid_json out) then
    failf "sweep --json -: stdout is not one JSON document (got: %s)" out;
  if not (contains ~needle:"\"kind\": \"sweep\"" out) then
    failf "sweep --json -: kind missing (got: %s)" out;
  if not (contains ~needle:"\"faults\": \"crash:f=1\"" out) then
    failf "sweep --json -: fault spec not echoed (got: %s)" out;

  expect "sweep --faults bad spec" ~code:2 ~stderr_has:"bad --faults"
    (run "sweep --faults bogus -t 5");

  (* recovery sweep: the JSON document surfaces the recover and
     degraded-override totals so silent downgrades are visible *)
  let code, out, _ = run "sweep -n 3 -t 25 --faults crash:f=1,recover --json -" in
  expect "sweep --json - recovery runs" ~code:0 (code, out, "");
  if not (is_valid_json out) then
    failf "recovery sweep --json -: stdout is not one JSON document (got: %s)" out;
  if not (contains ~needle:"\"faults\": \"crash:f=1,recover:r=1\"" out) then
    failf "recovery sweep --json -: fault spec not echoed (got: %s)" out;
  if not (contains ~needle:"\"recover_total\"" out) then
    failf "recovery sweep --json -: recover_total missing (got: %s)" out;
  if not (contains ~needle:"\"plan_overrides_ignored\"" out) then
    failf "recovery sweep --json -: plan_overrides_ignored missing (got: %s)" out;

  (* SIGINT mid-sweep: partial JSON still lands, well-formed, exit 130.
     The sweep must still be running when the signal lands: at n = 64 a
     trial takes ~0.3 ms on one core, so 40 000 trials run for over ten
     times the one-second delay, in about 15 MB. *)
  let sweep_json = Filename.concat tmpdir "sweep.json" in
  let out = Filename.concat tmpdir "stdout" in
  let err = Filename.concat tmpdir "stderr" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s sweep -n 64 -t 40000 --json %s > %s 2> %s & pid=$!; \
          sleep 1; kill -INT $pid 2>/dev/null; wait $pid"
         (Filename.quote cli) (Filename.quote sweep_json) (Filename.quote out)
         (Filename.quote err))
  in
  if code <> 130 then failf "interrupted sweep: exit %d, expected 130" code;
  let doc = read_file sweep_json in
  if not (is_valid_json doc) then
    failf "interrupted sweep: JSON not well-formed (got: %s)" doc;
  if not (contains ~needle:"\"interrupted\": true" doc) then
    failf "interrupted sweep: flag missing (got: %s)" doc;

  (* SIGINT mid-check: checkpoint + partial JSON flushed, exit 130 *)
  let sig_ck = Filename.concat tmpdir "sig_ck.sexp" in
  let sig_json = Filename.concat tmpdir "sig.json" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s check --checkpoint %s --json %s fallback_n2_d34 > %s 2> %s & \
          pid=$!; sleep 1; kill -INT $pid 2>/dev/null; wait $pid"
         (Filename.quote cli) (Filename.quote sig_ck) (Filename.quote sig_json)
         (Filename.quote out) (Filename.quote err))
  in
  if code <> 130 then failf "interrupted check: exit %d, expected 130" code;
  if not (Sys.file_exists sig_ck) then
    failf "interrupted check: checkpoint not written";
  if not (is_valid_json (read_file sig_json)) then
    failf "interrupted check: JSON not well-formed (got: %s)" (read_file sig_json);

  (* per-config --timeout stops cleanly and still exits 0 *)
  expect "check --timeout" ~code:0 ~stdout_has:"BUDGET EXCEEDED"
    (run "check --timeout 0.01 fallback_n2_d34");

  (* ---- shared option terms: bad input is a one-line exit 2 -------- *)

  let one_line name (code, out, err) =
    if List.length (String.split_on_char '\n' (String.trim err)) <> 1 then
      failf "%s: diagnostic is not one line (got: %s)" name err;
    (code, out, err)
  in
  expect "run -n 1" ~code:0 ~stdout_has:"spec:      ok" (run "run -n 1");
  expect "run -m 1" ~code:0 ~stdout_has:"spec:      ok" (run "run -m 1");
  expect "sweep --trials=1" ~code:0 ~stdout_has:"agreement: 1/1"
    (run "sweep -n 3 --trials=1");
  List.iter
    (fun (args, needle) ->
      expect args ~code:2 ~stderr_has:needle ~stderr_lacks:"uncaught"
        (one_line args (run args)))
    [ ("run -n 0", "bad -n/--processes 0");
      ("run -m 0", "bad -m/--values 0");
      ("run -p bogus", "unknown protocol");
      ("run -a bogus", "unknown adversary");
      ("run -w bogus", "unknown workload");
      ("sweep -n 0 -t 2", "bad -n/--processes 0");
      ("sweep --trials=0", "bad -t/--trials 0");
      ("sweep --trials=-1", "bad -t/--trials -1");
      ("trace conciliator_n2 --out - -a bogus", "unknown adversary");
      ("sweep -t 2 --jobs=-3", "bad --jobs -3");
      ("check --jobs=-3 binary_ratifier_n2", "bad --jobs -3");
      (* a non-positive budget used to explore nothing and exit 0 *)
      ("check --max-runs=-5 binary_ratifier_n2", "bad --max-runs -5");
      ("check --max-runs 0 binary_ratifier_n2", "bad --max-runs 0");
      ("check --timeout=-1 binary_ratifier_n2", "bad --timeout -1");
      ("check --budget=-3 binary_ratifier_n2", "bad --budget -3");
      ("check --budget 0 binary_ratifier_n2", "bad --budget 0");
      ("check --progress-interval=0 binary_ratifier_n2", "bad --progress-interval 0");
      ("check --progress-interval=-1 binary_ratifier_n2", "bad --progress-interval -1");
      (* two JSON documents cannot share one stdout *)
      ("check binary_ratifier_n2 --trace - --json -", "cannot share stdout");
      (* a fleet trace records one config's POR search *)
      ("check binary_ratifier_n2 binary_ratifier_n3 --trace -",
       "--trace needs exactly one checker name");
      ("check --naive binary_ratifier_n2 --trace -", "--trace records the POR fleet");
      (* a checkpoint is a file to resume from, not a stream *)
      ("check binary_ratifier_n2 --checkpoint -", "--checkpoint needs a file name") ];

  (* --obs -: the Chrome trace owns stdout, the report moves to stderr *)
  let code, out, err = run "run -n 3 --obs -" in
  expect "run --obs - runs" ~code:0 ~stderr_has:"spec:      ok" (code, out, err);
  if not (is_valid_json out) then
    failf "run --obs -: stdout is not one JSON document (got: %s)" out;

  (* ---- unwritable outputs fail before any run starts -------------- *)

  let missing = Filename.concat tmpdir "no/such/dir/out.json" in
  List.iter
    (fun args ->
      expect args ~code:2 ~stderr_has:"cannot write" ~stderr_lacks:"uncaught"
        (one_line args (run args)))
    [ (* would explore for minutes before writing, were it not probed *)
      Printf.sprintf "check fallback_n2_d40 --timeout 5 --json %s" missing;
      Printf.sprintf "sweep -t 2 --json %s" missing;
      Printf.sprintf "check binary_ratifier_n2 --trace %s" missing;
      Printf.sprintf "trace conciliator_n2 --out %s" missing;
      Printf.sprintf "run --obs %s" missing ];
  (* the probe leaves nothing behind when the run itself is refused *)
  let probed = Filename.concat tmpdir "probed.json" in
  expect "probe then unknown checker" ~code:2 ~stderr_has:"unknown checker"
    (run (Printf.sprintf "check --json %s definitely_not_a_checker" (Filename.quote probed)));
  if Sys.file_exists probed then failf "output probe left %s behind" probed;
  (* experiment --json writes BENCH_E<k>.json into its working
     directory; every one is probed before the first trial runs *)
  let exp_dir = Filename.concat tmpdir "experiment" in
  Sys.mkdir exp_dir 0o700;
  let in_exp_dir args =
    let cli = if Filename.is_relative cli then Filename.concat (Sys.getcwd ()) cli else cli in
    let out = Filename.concat tmpdir "stdout" and err = Filename.concat tmpdir "stderr" in
    let code =
      Sys.command
        (Printf.sprintf "cd %s && %s %s > %s 2> %s" (Filename.quote exp_dir)
           (Filename.quote cli) args (Filename.quote out) (Filename.quote err))
    in
    (code, read_file out, read_file err)
  in
  let bench_e10 = Filename.concat exp_dir "BENCH_E10.json" in
  Sys.mkdir bench_e10 0o700;
  let code, out, err = in_exp_dir "experiment --quick E3 E10 --json" in
  expect "experiment --json, BENCH_E10.json a directory" ~code:2
    ~stderr_has:"cannot write BENCH_E10.json" ~stderr_lacks:"uncaught"
    (one_line "experiment --json" (code, out, err));
  if out <> "" then failf "experiment --json: ran before its probe failed (stdout: %s)" out;
  if Sys.file_exists (Filename.concat exp_dir "BENCH_E3.json") then
    failf "experiment --json: wrote BENCH_E3.json before its probe failed";
  Sys.rmdir bench_e10;

  (* ---- a document that cannot be written in full exits 2 --------- *)

  if Sys.file_exists "/dev/full" then begin
    let code, _, err = run "check binary_ratifier_n2 --json /dev/full" in
    expect "check --json /dev/full" ~code:2 ~stderr_has:"cannot write /dev/full"
      ~stderr_lacks:"wrote" (code, "", err);
    let err_file = Filename.concat tmpdir "stderr" in
    let code =
      Sys.command
        (Printf.sprintf "%s check binary_ratifier_n2 --json - > /dev/full 2> %s"
           (Filename.quote cli) (Filename.quote err_file))
    in
    expect "check --json - to /dev/full" ~code:2 ~stderr_has:"cannot write stdout"
      ~stderr_lacks:"uncaught" (code, "", read_file err_file);
    (* a BENCH_E<k>.json that takes the probe but not the document *)
    if Sys.command (Printf.sprintf "ln -s /dev/full %s" (Filename.quote bench_e10)) = 0
    then begin
      expect "experiment --json to /dev/full" ~code:2
        ~stderr_has:"cannot write BENCH_E10.json" ~stderr_lacks:"uncaught"
        (in_exp_dir "experiment --quick E10 --json");
      Sys.remove bench_e10
    end;
    (* Human output to a full stdout: stdout is flushed before every
       exit, so each run ends with one diagnostic line, not a
       backtrace from the at-exit flush. *)
    List.iter
      (fun args ->
        let code =
          Sys.command
            (Printf.sprintf "%s %s > /dev/full 2> %s" (Filename.quote cli) args
               (Filename.quote err_file))
        in
        let err = read_file err_file in
        expect (args ^ " > /dev/full") ~code:2 ~stderr_has:"conrat: cannot write stdout"
          (code, "", err);
        if List.length (String.split_on_char '\n' (String.trim err)) <> 1 then
          failf "%s > /dev/full: diagnostic is not one line (got: %s)" args err)
      [ "check binary_ratifier_n2"; "sweep -t 2"; "list";
        (* the exit-1 path of a failing check *)
        Printf.sprintf "check fallback_unstaked_n2 --artifact-dir %s" (Filename.quote tmpdir) ]
  end;

  (* ---- check --trace: the fleet trace of one POR search ----------- *)

  let fleet_trace = Filename.concat tmpdir "fleet_trace.json" in
  let fleet_json = Filename.concat tmpdir "fleet.json" in
  expect "check --trace" ~code:0 ~stdout_has:"exhausted"
    (run (Printf.sprintf "check fallback_n2_d28 --jobs 2 --dedup --trace %s --json %s"
            (Filename.quote fleet_trace) (Filename.quote fleet_json)));
  let doc = read_file fleet_trace and report = read_file fleet_json in
  if not (is_valid_json doc) then failf "check --trace: trace is not valid JSON";
  (* Start offsets of [needle] in [s], left to right. *)
  let offsets needle s =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length s then []
      else if String.sub s i nl = needle then i :: go (i + nl)
      else go (i + 1)
    in
    go 0
  in
  let count needle s = List.length (offsets needle s) in
  if List.map (fun w -> count (Printf.sprintf "\"worker %d\"" w) doc) [ 0; 1; 2 ] <> [ 1; 1; 0 ]
  then failf "check --trace: not one track per worker domain (got: %s)" doc;
  (* One shard span per shard the fleet ran: the first "shards_done" of
     the report is its fleet total. *)
  (match offsets "\"shards_done\":" report with
   | [] -> failf "check --trace: shards_done missing from the report (got: %s)" report
   | i :: _ ->
     let k = Scanf.sscanf (String.sub report (i + 14) 12) "%d" Fun.id in
     let spans = count "\"ph\":\"B\"" doc in
     let ends = count "\"ph\":\"E\"" doc and steals = count "\"name\":\"steal\"" doc in
     let records = count "{\"shard\":" report in
     if k = 0 || spans <> k || ends <> k || steals <> k || records <> k then
       failf "check --trace: %d spans, %d ends, %d steals, %d records for %d shards done"
         spans ends steals records k);
  (* The trace renders the report's shard records: each record's span
     opens on its worker's track, and every track is a sequence of
     closed spans in time order. *)
  let lines = String.split_on_char '\n' doc in
  let opened =
    List.filter_map
      (fun line ->
        try
          Some
            (Scanf.sscanf line "{\"name\":\"shard %d\",\"ph\":\"B\",\"pid\":1,\"tid\":%d"
               (fun shard tid -> (shard, tid)))
        with Scanf.Scan_failure _ | End_of_file -> None)
      lines
  in
  List.iter
    (fun i ->
      Scanf.sscanf (String.sub report i (min 64 (String.length report - i)))
        "{\"shard\":%d,\"domain\":%d" (fun shard domain ->
          if not (List.mem (shard, domain) opened) then
            failf "check --trace: shard %d on domain %d has no span" shard domain))
    (offsets "{\"shard\":" report);
  let track_events tid =
    List.filter_map
      (fun line ->
        let tid_field = Printf.sprintf "\"tid\":%d," tid in
        match offsets "\"ph\":\"" line, offsets "\"ts\":" line with
        | [ p ], [ t ] when contains ~needle:tid_field line ->
          let rest = String.sub line (t + 5) (String.length line - t - 5) in
          Some (line.[p + 6], Scanf.sscanf rest "%d" Fun.id)
        | _ -> None)
      lines
  in
  List.iter
    (fun tid ->
      let rec nested last open_ = function
        | [] -> not open_
        | (_, ts) :: _ when ts < last -> false
        | ('B', ts) :: rest -> (not open_) && nested ts true rest
        | ('E', ts) :: rest -> open_ && nested ts false rest
        | (_, ts) :: rest -> nested ts open_ rest
      in
      if not (nested 0 false (track_events tid)) then
        failf "check --trace: worker %d's spans do not nest in time order" tid)
    [ 0; 1 ];

  (* --trace - owns stdout; human lines move to stderr *)
  let code, out, err = run "check binary_ratifier_n2 --jobs 2 --trace -" in
  expect "check --trace - runs" ~code:0 ~stderr_has:"exhausted" (code, out, err);
  if not (is_valid_json out) then
    failf "check --trace -: stdout is not one JSON document (got: %s)" out;

  (* ---- one checker resolver: extended configs listed everywhere --- *)

  expect "list shows extended checkers" ~code:0 ~stdout_has:"fallback_n2_d46"
    (run "list");
  expect "trace unknown name lists extended checkers" ~code:2
    ~stderr_has:"fallback_n2_d46" (run "trace definitely_not_a_checker --out -");

  if !failures > 0 then begin
    Printf.eprintf "%d CLI test(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "cli check tests: ok"
