(** Ratifiers (§3.1.2, §6): deterministic weak consensus objects that
    detect agreement.  They satisfy validity, termination, coherence
    and acceptance (all-equal inputs force everyone to decide), and are
    implemented from write/read quorums over a register pool
    (Procedure Ratifier, Theorem 8). *)

val of_quorum : Conrat_quorum.Quorum.t -> Conrat_objects.Deciding.factory
(** The generic quorum ratifier.  A process with input [v]:
    + writes 1 to every register of [W v] (announce),
    + reads the [proposal] register; adopts its value as preference if
      non-⊥, else writes its own value there,
    + reads the registers of [R preference]: if any is set, some
      conflicting value was announced — return [(0, preference)];
      otherwise return [(1, preference)].

    Space: [pool + 1] registers.  Individual work:
    at most [|W| + |R| + 2] operations. *)

val binary : unit -> Conrat_objects.Deciding.factory
(** §6.2(1): 3 registers, ≤ 4 operations per process. *)

val bollobas : m:int -> Conrat_objects.Deciding.factory
(** §6.2(2): the space-optimal m-valued ratifier;
    [⌈lg m⌉ + Θ(log log m) + 1] registers. *)

val bitvector : m:int -> Conrat_objects.Deciding.factory
(** §6.2(3): [2⌈lg m⌉ + 1] registers, ≤ [2⌈lg m⌉ + 2] operations. *)

val binary_rec : unit -> Conrat_objects.Deciding.factory
(** The recoverable 3-register binary ratifier: crash-recovery hardening
    of {!of_quorum} on [Quorum.binary] (Golab-style recoverable
    consensus).  The announcement pool and the proposal register are
    {!Conrat_sim.Memory.mark_persistent}, so the recovery wipe removes
    none of the decision-critical evidence, and the program declares a
    recovery continuation that re-validates — re-announces (idempotent
    on durable cells) and re-derives the preference from the durable
    proposal before re-running the conflict scan.  Exhausting it
    crash-closed under [crash:f=K,recover] finds zero violations where
    the stock {!of_quorum} loses coherence (a recovering announcer was
    the last writer of a pool cell shared with a surviving same-value
    process; the wipe erases the survivor's evidence mid-scan).  Same
    space and per-attempt work as {!of_quorum}. *)

val await_ack : unit -> Conrat_objects.Deciding.factory
(** KNOWN CRASH-UNSAFE test double (2 registers): process 0 announces
    its input and spins until acknowledged; other processes ack and
    decide if they see the announcement, decline with their own input
    otherwise.  Failure-free at [n = 2] it satisfies weak consensus
    (complete executions require the ack), but crashing process 0
    before its announcement leaves a surviving declination on all-equal
    inputs — an acceptance violation only the crash-closed explorer can
    reach.  Not wait-free; exists to exercise the fault pipeline. *)

val cheap_collect : m:int -> Conrat_objects.Deciding.factory
(** §6.2(4): the cheap-collect-model ratifier — write quorums of size
    1, read quorums checked with a single collect operation; 4
    operations per process regardless of [m].  Requires the scheduler
    to run with [~cheap_collect:true]. *)

val space : Conrat_quorum.Quorum.t -> int
(** Registers used by [of_quorum q]: [q.pool + 1]. *)

val max_individual_work : Conrat_quorum.Quorum.t -> int
(** Worst-case operations per process of [of_quorum q]. *)
