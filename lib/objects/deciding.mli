(** Deciding objects (§3): one-shot shared-memory objects whose outputs
    carry a decision bit.

    An output [(true, v)] means "decide [v] and stop"; [(false, v)]
    means "continue to the next object in the sequence with preference
    [v]".  Conciliators, ratifiers and consensus objects are all
    deciding objects; they differ only in which of the §3 properties
    (validity, termination, coherence, probabilistic agreement,
    acceptance) they satisfy.

    Because the objects are one-shot, a fresh instance must be created
    per execution.  A {!t} is one such instance, whose registers have
    already been allocated in some {!Conrat_sim.Memory.t}; a {!factory}
    knows how to create instances.  [run ~pid ~rng v] builds process
    [pid]'s {!Conrat_sim.Program.t} for this object — a copyable value;
    it must be built at most once per process, and the resulting
    program must be replay-pure (see {!Conrat_sim.Program}) so the
    exhaustive explorers can backtrack through it. *)

type output = {
  decide : bool;  (** the decision bit *)
  value : int;    (** the (proposed or decided) value *)
}

type t = {
  name : string;
  mutable space : int;
    (** registers this instance allocated; mutable because lazily
        composed objects ({!Compose.lazy_seq}) grow it as stages are
        instantiated mid-execution *)
  run : pid:int -> rng:Conrat_sim.Rng.t -> int -> output Conrat_sim.Program.t;
}

type factory = {
  fname : string;
  instantiate : n:int -> Conrat_sim.Memory.t -> t;
    (** [instantiate ~n memory] allocates a fresh one-shot instance for
        [n] processes. *)
}

val make_factory :
  string -> (n:int -> Conrat_sim.Memory.t -> t) -> factory

val instance :
  string ->
  space:int ->
  (pid:int -> rng:Conrat_sim.Rng.t -> int -> output Conrat_sim.Program.t) ->
  t

val counting : factory -> (unit -> int) * factory
(** [counting f] wraps [f] so that every call of an instance's [run] is
    counted; the first component reads the total across all instances
    created from the wrapped factory.  Used by experiments that need to
    know how many processes entered a given stage (e.g. E8's "no
    process ran a conciliator on the fast path" and E10's fallback
    rate). *)

val copy_object : factory
(** The degenerate weak consensus object from §3: copies its input to
    its output with decision bit 0.  Satisfies validity, termination
    and coherence (vacuously), nothing more.  Zero registers, zero
    work; useful in tests and compositions. *)
