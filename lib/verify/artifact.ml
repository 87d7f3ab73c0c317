open Conrat_sim

let schema_version = 1

type t = {
  checker : string;
  n : int;
  inputs : int array;
  max_depth : int;
  cheap_collect : bool;
  faults : Fault.model;
  path : int list;
  reason : string;
  trace : Trace.t option;
}

let to_sexp a =
  let open Sexp in
  let fields =
    [ List [ Atom "schema"; of_int schema_version ];
      List [ Atom "checker"; Atom a.checker ];
      List [ Atom "n"; of_int a.n ];
      List (Atom "inputs" :: (Array.to_list a.inputs |> List.map of_int));
      List [ Atom "max-depth"; of_int a.max_depth ];
      List [ Atom "cheap-collect"; of_bool a.cheap_collect ];
      List (Atom "path" :: List.map of_int a.path);
      List [ Atom "reason"; Atom a.reason ] ]
  in
  (* Emitted only when a fault model is active, so fault-free artifacts
     (including all pre-existing fixtures) keep their exact bytes. *)
  let fields =
    if Fault.is_none a.faults then fields
    else fields @ [ List [ Atom "faults"; Atom (Fault.to_string a.faults) ] ]
  in
  let fields =
    match a.trace with
    | None -> fields
    | Some trace -> fields @ [ List [ Atom "trace"; Trace.to_sexp trace ] ]
  in
  List (Atom "counterexample" :: fields)

let of_sexp sexp =
  let open Sexp in
  let ( let* ) r f = Result.bind r f in
  let field name decode =
    match assoc1 name sexp with
    | Some v ->
      (match decode v with
       | Some x -> Ok x
       | None -> Error (Printf.sprintf "Artifact.of_sexp: bad field %s" name))
    | None -> Error (Printf.sprintf "Artifact.of_sexp: missing field %s" name)
  in
  let int_list name =
    match assoc name sexp with
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
          (match to_int item with
           | Some i -> go (i :: acc) rest
           | None -> Error (Printf.sprintf "Artifact.of_sexp: bad field %s" name))
      in
      go [] items
    | None -> Error (Printf.sprintf "Artifact.of_sexp: missing field %s" name)
  in
  match sexp with
  | List (Atom "counterexample" :: _) ->
    let* schema = field "schema" to_int in
    if schema <> schema_version then
      Error (Printf.sprintf "Artifact.of_sexp: unsupported schema %d" schema)
    else
      let* checker = field "checker" to_atom in
      let* n = field "n" to_int in
      let* inputs = int_list "inputs" in
      let* max_depth = field "max-depth" to_int in
      let* cheap_collect = field "cheap-collect" to_bool in
      let* path = int_list "path" in
      let* reason = field "reason" to_atom in
      let* faults =
        match assoc1 "faults" sexp with
        | None -> Ok Fault.none
        | Some (Atom s) -> Fault.of_string s
        | Some _ -> Error "Artifact.of_sexp: bad field faults"
      in
      let* trace =
        match assoc1 "trace" sexp with
        | None -> Ok None
        | Some t -> Result.map Option.some (Trace.of_sexp t)
      in
      Ok { checker; n; inputs = Array.of_list inputs; max_depth; cheap_collect;
           faults; path; reason; trace }
  | _ -> Error "Artifact.of_sexp: expected (counterexample ...)"

let save file a =
  Sexp.save file (to_sexp a)
    ~comment:
      (Printf.sprintf "conrat counterexample artifact (replay with `conrat check --replay %s`)"
         (Filename.basename file))

let load file = Result.bind (Sexp.load file) of_sexp

let replay ?engine ~setup ~check a =
  let r =
    Explore.run_path ?engine ~max_depth:a.max_depth ~cheap_collect:a.cheap_collect
      ~faults:a.faults ~n:a.n ~setup a.path
  in
  check ~complete:r.completed r.outputs

let of_failure ~checker ~n ~inputs ~max_depth ~cheap_collect
    ?(faults = Fault.none) ~setup ~check path =
  let r =
    Explore.run_path ~record:true ~max_depth ~cheap_collect ~faults ~n ~setup
      path
  in
  let reason =
    match check ~complete:r.completed r.outputs with
    | Error reason -> reason
    | Ok () -> invalid_arg "Artifact.of_failure: path does not fail the checker"
  in
  { checker; n; inputs; max_depth; cheap_collect; faults; path; reason;
    trace = r.trace }
