open Conrat_sim

(* A checkpoint freezes an exhaustive explorer's DFS frontier: the path
   (in Explore.run_path's branch encoding) to the leaf the explorer was
   about to count, plus everything already counted strictly before that
   leaf.  The convention "current leaf is saved uncounted" makes the
   resume semantics unambiguous: the resumed run fast-forwards along
   [path] without counting or checking anything, then counts that very
   leaf normally and explores on.  The result — outcome set, leaf order
   and statistics — is bit-identical to an uninterrupted run. *)

type counts = {
  path : int list;
  complete : int;
  truncated : int;
  pruned : int;
  steps : int;
}

type t = {
  engine : string;   (* "por"; an older build's "naive" is refused on resume *)
  checker : string;  (* registry config name, to refuse cross-config resumes *)
  counts : counts;
}

(* Schema 2 = schema 1 plus the possibility of recover-choice indices
   inside [path] (the crash-recovery plane); the field layout is
   unchanged, so schema-1 checkpoints — necessarily recovery-free —
   still load and replay bit-identically. *)
let schema_version = 2
let accepted_schemas = [ 1; 2 ]

let to_sexp t =
  let open Sexp in
  List
    [ Atom "checkpoint";
      List [ Atom "schema"; of_int schema_version ];
      List [ Atom "engine"; Atom t.engine ];
      List [ Atom "checker"; Atom t.checker ];
      List (Atom "path" :: List.map of_int t.counts.path);
      List [ Atom "complete"; of_int t.counts.complete ];
      List [ Atom "truncated"; of_int t.counts.truncated ];
      List [ Atom "pruned"; of_int t.counts.pruned ];
      List [ Atom "steps"; of_int t.counts.steps ] ]

let of_sexp sexp =
  let open Sexp in
  let ( let* ) r f = Result.bind r f in
  (* Counts and branch indices are never negative; a negative one would
     resume to silently wrong totals or a clamped branch. *)
  let count v = Option.bind (to_int v) (fun i -> if i >= 0 then Some i else None) in
  let field name decode =
    match assoc1 name sexp with
    | Some v ->
      (match decode v with
       | Some x -> Ok x
       | None -> Error (Printf.sprintf "Checkpoint.of_sexp: bad field %s" name))
    | None -> Error (Printf.sprintf "Checkpoint.of_sexp: missing field %s" name)
  in
  match sexp with
  | List (Atom "checkpoint" :: _) ->
    let* schema = field "schema" to_int in
    if not (List.mem schema accepted_schemas) then
      Error (Printf.sprintf "Checkpoint.of_sexp: unsupported schema %d" schema)
    else
      let* engine = field "engine" to_atom in
      let* checker = field "checker" to_atom in
      let* path =
        match assoc "path" sexp with
        | None -> Error "Checkpoint.of_sexp: missing field path"
        | Some items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest ->
              (match count item with
               | Some i -> go (i :: acc) rest
               | None -> Error "Checkpoint.of_sexp: bad field path")
          in
          go [] items
      in
      let* complete = field "complete" count in
      let* truncated = field "truncated" count in
      let* pruned = field "pruned" count in
      let* steps = field "steps" count in
      Ok { engine; checker; counts = { path; complete; truncated; pruned; steps } }
  | _ -> Error "Checkpoint.of_sexp: expected (checkpoint ...)"

(* Write-then-rename so a SIGINT (or kill) mid-save leaves either the
   previous checkpoint or the new one on disk, never a torn file. *)
let save file t =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf
        "; conrat explorer checkpoint (resume with `conrat check %s --resume %s`)@.%a@."
        t.checker (Filename.basename file) Sexp.pp (to_sexp t));
  Sys.rename tmp file

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | contents -> Result.bind (Sexp.of_string contents) of_sexp
  | exception Sys_error msg -> Error msg
