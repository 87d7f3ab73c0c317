(** Minimal s-expressions, used to serialize traces and counterexample
    artifacts (see {!Trace} and [Conrat_verify.Artifact]) without adding
    a library dependency.

    Atoms containing whitespace, parens, quotes, semicolons or
    backslashes are printed quoted with [String.escaped]-style escapes;
    the parser accepts quoted atoms, bare atoms, and [;]-to-end-of-line
    comments. *)

type t =
  | Atom of string
  | List of t list

val atom : string -> t
val of_int : int -> t
val of_bool : bool -> t
val of_float : float -> t
(** Printed as [%.17g], so every float round-trips exactly. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_float : t -> float option
val to_atom : t -> string option

val assoc : string -> t -> t list option
(** [assoc name (List [...; List (Atom name :: args); ...])] returns the
    [args] of the first field labelled [name] in a record-style list. *)

val assoc1 : string -> t -> t option
(** Like {!assoc} but requires exactly one argument. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses exactly one s-expression (plus surrounding whitespace and
    comments); anything else is an [Error] with an offset message. *)

val save : string -> comment:string -> t -> unit
(** [save file ~comment t] writes a [; comment] line and then [t] to
    [file] through [file ^ ".tmp"], renamed into place once written, so
    an interrupted save leaves the previous file or the new one on
    disk, never a torn one.  Raises [Sys_error] when it cannot write. *)

val load : string -> (t, string) result
(** {!of_string} of a whole file; an unreadable file is an [Error]. *)
