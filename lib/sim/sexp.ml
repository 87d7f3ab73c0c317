type t =
  | Atom of string
  | List of t list

let atom s = Atom s
let of_int i = Atom (string_of_int i)
let of_bool b = Atom (if b then "true" else "false")

(* %.17g round-trips every binary64 value through float_of_string. *)
let of_float f = Atom (Printf.sprintf "%.17g" f)

let to_int = function
  | Atom s -> int_of_string_opt s
  | List _ -> None

let to_bool = function
  | Atom "true" -> Some true
  | Atom "false" -> Some false
  | _ -> None

let to_float = function
  | Atom s -> float_of_string_opt s
  | List _ -> None

let to_atom = function
  | Atom s -> Some s
  | List _ -> None

(* Find the field [(name arg...)] inside a record-style [(... (name arg...) ...)]. *)
let assoc name = function
  | Atom _ -> None
  | List items ->
    List.find_map
      (function
        | List (Atom tag :: args) when tag = name -> Some args
        | _ -> None)
      items

let assoc1 name sexp =
  match assoc name sexp with
  | Some [ v ] -> Some v
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let atom_needs_quoting s =
  s = ""
  || String.exists
       (function
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\\' -> true
         | _ -> false)
       s

let pp_atom ppf s =
  if atom_needs_quoting s
  then Format.fprintf ppf "\"%s\"" (String.escaped s)
  else Format.pp_print_string ppf s

let rec pp ppf = function
  | Atom s -> pp_atom ppf s
  | List items ->
    Format.fprintf ppf "@[<hv 1>(";
    List.iteri
      (fun i item ->
        if i > 0 then Format.fprintf ppf "@ ";
        pp ppf item)
      items;
    Format.fprintf ppf ")@]"

let to_string t = Format.asprintf "%a" pp t

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | Some ';' ->
      (* line comment *)
      let rec to_eol () =
        match peek () with
        | Some '\n' | None -> ()
        | Some _ -> advance (); to_eol ()
      in
      to_eol (); skip_ws ()
    | Some _ | None -> ()
  in
  let parse_quoted () =
    advance ();  (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string at offset %d" !pos
      | Some '"' -> advance (); Atom (Buffer.contents buf)
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some ('"' | '\\' | '\'' as c) -> Buffer.add_char buf c; advance ()
         | Some ('0' .. '9') ->
           (* decimal escape as produced by String.escaped *)
           if !pos + 2 >= n then fail "truncated escape at offset %d" !pos;
           let code = int_of_string_opt (String.sub s !pos 3) in
           (match code with
            | Some c when c >= 0 && c < 256 ->
              Buffer.add_char buf (Char.chr c);
              pos := !pos + 3
            | Some _ | None -> fail "bad decimal escape at offset %d" !pos)
         | Some c -> fail "bad escape '\\%c' at offset %d" c !pos
         | None -> fail "truncated escape at offset %d" !pos);
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ()
  in
  let parse_bare () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
      | Some _ -> advance (); go ()
    in
    go ();
    Atom (String.sub s start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input at offset %d" !pos
    | Some '(' ->
      advance ();
      let rec items acc =
        skip_ws ();
        match peek () with
        | Some ')' -> advance (); List (List.rev acc)
        | None -> fail "unterminated list at offset %d" !pos
        | Some _ -> items (parse_one () :: acc)
      in
      items []
    | Some ')' -> fail "unexpected ')' at offset %d" !pos
    | Some '"' -> parse_quoted ()
    | Some _ -> parse_bare ()
  in
  match parse_one () with
  | sexp ->
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok sexp
  | exception Parse_error msg -> Error msg

let save file ~comment t =
  let tmp = file ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Format.fprintf (Format.formatter_of_out_channel oc) "; %s@.%a@." comment pp t);
  Sys.rename tmp file

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg
