(** Executable versions of the paper's correctness properties (§3).

    All checkers return [Ok ()] or [Error reason].  The safety
    properties (validity, agreement, coherence, acceptance) must hold on
    {e every} execution — the test suite treats a single violation as a
    hard failure; only probabilistic agreement and termination are
    statistical.

    Deciding-object outputs are [(d, v)] pairs: [d = true] means the
    process decided [v] and stops; [d = false] means it would continue
    to the next object with preference [v].  Processes that had not
    finished when a bounded run was cut off appear as [None] and are
    ignored by the safety checkers (safety is prefix-closed). *)

type decision = bool * int

val validity : inputs:int array -> outputs:int option array -> (unit, string) result
(** Every finished process's output value equals some process's input. *)

val validity_decided :
  inputs:int array -> outputs:decision option array -> (unit, string) result
(** Validity of the value component of deciding-object outputs. *)

val agreement : outputs:int option array -> (unit, string) result
(** All finished processes returned the same value (consensus
    agreement). *)

val agreement_decided : outputs:decision option array -> (unit, string) result
(** {!agreement} on the value component of deciding-object outputs,
    without materializing the projection — the checkers' per-leaf hot
    path. *)

val coherence : outputs:decision option array -> (unit, string) result
(** If any process output [(1, v)] then every finished process output
    [(_, v)] (§3: non-deciders stick to any value chosen by a
    decider). *)

val acceptance :
  inputs:int array -> outputs:decision option array -> (unit, string) result
(** If all inputs equal [v], all finished outputs are [(1, v)] — only
    meaningful on complete executions, so unfinished processes make the
    check fail. *)

val acceptance_survivors :
  inputs:int array -> outputs:decision option array -> (unit, string) result
(** Crash-robust acceptance: like {!acceptance}, but processes with no
    output are excused.  Meaningful at crash-complete leaves, where
    [None] outputs are exactly the crash-stopped processes: every
    {e survivor} must accept the common input; crashed processes owe
    nothing. *)

val consensus_execution :
  inputs:int array -> outputs:int option array -> completed:bool -> (unit, string) result
(** The full consensus contract on one execution: termination within
    the step bound, agreement, validity. *)

val all : (unit, string) result list -> (unit, string) result
(** First failure wins. *)
