(** The one JSON string escaper behind every hand-built document (the
    experiment reports, the CLI's [sweep] and [check] documents, the
    Chrome trace and the coverage block). *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal: a quote, a backslash,
    newline, carriage return and tab take their short escapes, every
    other byte below 0x20 becomes [\u00XX], and all other bytes — UTF-8
    included — are copied as they are. *)

val string : string -> string
(** {!add_string} into a fresh string. *)
