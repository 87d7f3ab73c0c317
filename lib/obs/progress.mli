(** Rate-limited progress reporting for long explorations.

    A {!t} is fed from a hot loop via {!tick} — typically wired to an
    explorer's [heartbeat] — and writes at most one status line per
    [interval] seconds to stderr.  The hot path is one mutex-free
    integer decrement ([check_every] ticks between clock reads), so a
    reporter can sit on a million-leaves-per-second search without
    showing up in a profile.  Emission itself takes a mutex, so one
    reporter may be shared by parallel workers.

    Lines look like

    {v [sweep] 1234 41% ETA 12s 890/s of 3000 trials v}

    where the percentage and ETA appear when [expected] (the total
    number of units) is known.  On a TTY the line redraws in place;
    otherwise each emission is a full line. *)

type t

val default_enabled : unit -> bool
(** The CLI's default for whether to report progress: stderr is a TTY
    and [CI] is not set in the environment. *)

val create :
  ?out:out_channel ->
  ?interval:float ->
  ?check_every:int ->
  ?expected:int ->
  label:string ->
  unit ->
  t
(** [out] defaults to stderr, [interval] to 1.0 seconds, [check_every]
    to 4096 ticks per clock read. *)

val tick : t -> done_:int -> detail:(unit -> string) -> unit
(** Account progress up to [done_] units; if an emission is due, append
    [detail ()] to the status line.  [detail] is only called when a
    line is actually written. *)

val force : t -> done_:int -> detail:(unit -> string) -> unit
(** Emit a line now, regardless of rate limiting. *)

val finish : t -> unit
(** Terminate the in-place line (TTY only); call once when done. *)
